"""Pose and hand metrics plus report I/O.

Per part: rotation error (degrees), translation error (cm), and the exact
box IoU of geometry.box_iou (polytope clipping, no sampling); a part scores
the 5deg5cm metric iff R_err < 5 and T_err < 5. Category numbers average
over parts within a scene, then over scenes. Invalid parts (too few points /
degenerate fits) fail 5deg5cm and contribute IoU 0, and are excluded from
the R/T error means.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CountMismatch, IdMismatch
from .geometry import OrientedBox, box_iou, rotation_error


@dataclass
class ScenePrediction:
    """Per-scene pose predictions aligned with a SceneRecord."""

    scene_id: str
    poses: list  # SimilarityTransform | None per part
    boxes: list  # OrientedBox | None per part
    hand_joints: np.ndarray | None = None  # (21, 3)
    hand_surface: np.ndarray | None = None  # (S, 3)
    contact_confidence: np.ndarray | None = None  # (N,)


@dataclass
class MetricsReport:
    category: str
    scene_count: int
    acc_5deg5cm: float  # percent
    miou: float  # percent
    r_err: float  # mean degrees over valid parts
    t_err: float  # mean centimeters over valid parts
    invalid_parts: int
    mpjpe: float = float("nan")  # mean millimeters
    mpvpe: float = float("nan")

    def rows(self) -> list:
        return [
            ["category", self.category],
            ["scenes", repr(self.scene_count)],
            ["acc_5deg5cm", repr(self.acc_5deg5cm)],
            ["mIoU", repr(self.miou)],
            ["R_err_deg", repr(self.r_err)],
            ["T_err_cm", repr(self.t_err)],
            ["invalid_parts", repr(self.invalid_parts)],
            ["MPJPE_mm", repr(self.mpjpe)],
            ["MPVPE_mm", repr(self.mpvpe)],
        ]


def eval_object(preds: list, gts: list) -> MetricsReport:
    """Aggregate object pose metrics over aligned prediction/gt scene lists."""
    if len(preds) != len(gts):
        raise IdMismatch(f"{len(preds)} predictions vs {len(gts)} gt scenes")
    order = {g.scene_id: g for g in gts}
    acc_scene, iou_scene = [], []
    r_all, t_all = [], []
    invalid = 0
    for pred in preds:
        if pred.scene_id not in order:
            raise IdMismatch(f"prediction for unknown scene {pred.scene_id!r}")
        gt = order[pred.scene_id]
        if len(pred.poses) != gt.part_count:
            raise IdMismatch(
                f"scene {pred.scene_id}: {len(pred.poses)} parts vs {gt.part_count}"
            )
        hits, ious = [], []
        for p, (pose, box) in enumerate(zip(pred.poses, pred.boxes)):
            if pose is None or box is None:
                invalid += 1
                hits.append(0.0)
                ious.append(0.0)
                continue
            r = rotation_error(pose.R, gt.part_poses[p].R)
            t_cm = float(np.linalg.norm(pose.t - gt.part_poses[p].t)) * 100.0
            r_all.append(r)
            t_all.append(t_cm)
            hits.append(1.0 if (r < 5.0 and t_cm < 5.0) else 0.0)
            ious.append(box_iou(box, gt.posed_boxes[p]))
        acc_scene.append(np.mean(hits))
        iou_scene.append(np.mean(ious))
    return MetricsReport(
        category=gts[0].category if gts else "",
        scene_count=len(preds),
        acc_5deg5cm=100.0 * float(np.mean(acc_scene)) if acc_scene else 0.0,
        miou=100.0 * float(np.mean(iou_scene)) if iou_scene else 0.0,
        r_err=float(np.mean(r_all)) if r_all else float("nan"),
        t_err=float(np.mean(t_all)) if t_all else float("nan"),
        invalid_parts=invalid,
    )


def eval_hand(pred_joints, gt_joints, pred_vertices, gt_vertices) -> tuple:
    """(MPJPE, MPVPE) in millimeters, averaged over scenes.

    Inputs are aligned lists of (J, 3) / (S, 3) arrays.
    """
    if len(pred_joints) != len(gt_joints) or len(pred_vertices) != len(gt_vertices):
        raise CountMismatch("scene counts disagree")
    mpjpe, mpvpe = [], []
    for pj, gj in zip(pred_joints, gt_joints):
        pj, gj = np.asarray(pj), np.asarray(gj)
        if pj.shape != gj.shape:
            raise CountMismatch(f"joint counts {pj.shape} vs {gj.shape}")
        mpjpe.append(np.linalg.norm(pj - gj, axis=1).mean() * 1000.0)
    for pv, gv in zip(pred_vertices, gt_vertices):
        pv, gv = np.asarray(pv), np.asarray(gv)
        if pv.shape != gv.shape:
            raise CountMismatch(f"vertex counts {pv.shape} vs {gv.shape}")
        mpvpe.append(np.linalg.norm(pv - gv, axis=1).mean() * 1000.0)
    return float(np.mean(mpjpe)), float(np.mean(mpvpe))


def contact_iou(pred_map: np.ndarray, gt_map: np.ndarray) -> float:
    """Binary IoU of contact maps; defined as 1.0 when both are empty."""
    p = np.asarray(pred_map).astype(bool)
    g = np.asarray(gt_map).astype(bool)
    union = (p | g).sum()
    if union == 0:
        return 1.0
    return float((p & g).sum() / union)


def write_report(path, report: MetricsReport) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["metric", "value"])
        writer.writerows(report.rows())


def write_summary_json(path, report: MetricsReport, extra: dict | None = None) -> None:
    data = {k: v for k, v in report.rows()}
    data.update(extra or {})
    Path(path).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
