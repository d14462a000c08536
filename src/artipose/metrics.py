"""Pose, hand and contact scorers plus the one report writer.

part_errors scores one part: rotation error (degrees), translation error
(cm) and the exact box IoU of geometry.box_iou (polytope clipping, no
sampling); a part scores the 5deg5cm metric iff R_err < 5 and T_err < 5.
eval_object aggregates it: category numbers average over parts within a
scene, then over scenes. Invalid parts (too few points / degenerate fits)
fail 5deg5cm and contribute IoU 0, and are excluded from the R/T error
means. hand_errors gives one scene's (MPJPE, MPVPE) in millimeters. Every
CSV report goes through write_rows.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CountMismatch, IdMismatch
from .geometry import box_iou, rotation_error


@dataclass
class ScenePrediction:
    """Per-scene pose predictions aligned with a SceneRecord."""

    scene_id: str
    poses: list  # SimilarityTransform | None per part
    boxes: list  # OrientedBox | None per part


@dataclass
class MetricsReport:
    category: str
    scene_count: int
    acc_5deg5cm: float  # percent
    miou: float  # percent
    r_err: float  # mean degrees over valid parts
    t_err: float  # mean centimeters over valid parts
    invalid_parts: int

    def rows(self) -> list:
        """[name, value] pairs in report order; str(value) is the repr of
        an int or a float, as the CSV and the printed lines show it."""
        return [
            ["category", self.category],
            ["scenes", self.scene_count],
            ["acc_5deg5cm", self.acc_5deg5cm],
            ["mIoU", self.miou],
            ["R_err_deg", self.r_err],
            ["T_err_cm", self.t_err],
            ["invalid_parts", self.invalid_parts],
        ]


def part_errors(pose, box, gt_pose, gt_box) -> tuple:
    """(R_err degrees, T_err cm, box IoU) of one part; NaNs for an invalid
    part (pose or box None)."""
    if pose is None or box is None:
        nan = float("nan")
        return nan, nan, nan
    r = rotation_error(pose.R, gt_pose.R)
    t_cm = float(np.linalg.norm(pose.t - gt_pose.t)) * 100.0
    return r, t_cm, box_iou(box, gt_box)


def eval_object(preds: list, gts: list) -> MetricsReport:
    """Aggregate object pose metrics over aligned prediction/gt scene lists.

    Each list names every scene once, and both name the same scenes;
    IdMismatch otherwise. Over zero scenes every mean, the accuracy and
    mIoU too, is NaN.
    """
    if len(preds) != len(gts):
        raise IdMismatch(f"{len(preds)} predictions vs {len(gts)} gt scenes")
    order = {}
    for g in gts:
        if g.scene_id in order:
            raise IdMismatch(f"gt scene {g.scene_id!r} given twice")
        order[g.scene_id] = g
    scored = set()
    acc_scene, iou_scene = [], []
    r_all, t_all = [], []
    invalid = 0
    for pred in preds:
        if pred.scene_id not in order:
            raise IdMismatch(f"prediction for unknown scene {pred.scene_id!r}")
        if pred.scene_id in scored:
            raise IdMismatch(f"prediction for scene {pred.scene_id!r} given twice")
        scored.add(pred.scene_id)
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
            r, t_cm, iou = part_errors(pose, box, gt.part_poses[p], gt.posed_boxes[p])
            r_all.append(r)
            t_all.append(t_cm)
            hits.append(1.0 if (r < 5.0 and t_cm < 5.0) else 0.0)
            ious.append(iou)
        acc_scene.append(np.mean(hits))
        iou_scene.append(np.mean(ious))
    return MetricsReport(
        category=gts[0].category if gts else "",
        scene_count=len(preds),
        acc_5deg5cm=100.0 * float(np.mean(acc_scene)) if acc_scene else float("nan"),
        miou=100.0 * float(np.mean(iou_scene)) if iou_scene else float("nan"),
        r_err=float(np.mean(r_all)) if r_all else float("nan"),
        t_err=float(np.mean(t_all)) if t_all else float("nan"),
        invalid_parts=invalid,
    )


def hand_errors(pred_joints, gt_joints, pred_surface, gt_surface) -> tuple:
    """One scene's (MPJPE, MPVPE) in millimeters from (J, 3) joints and
    (S, 3) surface points."""
    out = []
    for pred, gt, what in ((pred_joints, gt_joints, "joint"), (pred_surface, gt_surface, "vertex")):
        pred, gt = np.asarray(pred), np.asarray(gt)
        if pred.shape != gt.shape:
            raise CountMismatch(f"{what} counts {pred.shape} vs {gt.shape}")
        out.append(float(np.linalg.norm(pred - gt, axis=1).mean() * 1000.0))
    return tuple(out)


def contact_iou(pred_map: np.ndarray, gt_map: np.ndarray) -> float:
    """Binary IoU of contact maps; defined as 1.0 when both are empty."""
    p = np.asarray(pred_map).astype(bool)
    g = np.asarray(gt_map).astype(bool)
    union = (p | g).sum()
    if union == 0:
        return 1.0
    return float((p & g).sum() / union)


def write_rows(path, fields: list, rows: list) -> None:
    """CSV report: a header of `fields`, then one line per row dict (a
    missing field writes empty)."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=fields, restval="")
        writer.writeheader()
        writer.writerows(rows)


def write_summary_json(path, report: MetricsReport, extra: dict | None = None) -> None:
    """The report's rows as one JSON object of numbers, a non-finite value
    written as null, plus `extra`."""
    data = {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in report.rows()}
    data.update(extra or {})
    Path(path).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
