"""Metrics: the part scorer, eval_object's aggregation and id checks, the
hand scorer and the report writer."""

import csv
import json
import math

import numpy as np
import pytest

from artipose import metrics
from artipose.errors import CountMismatch, IdMismatch
from artipose.geometry import SimilarityTransform, transform_box
from artipose.synth import make_instance, sample_scene


@pytest.fixture(scope="module")
def scene():
    inst = make_instance("laptop", 4)
    return sample_scene(inst, np.random.SeedSequence([4, 1]), scene_id="s0")


@pytest.fixture(scope="module")
def other_scene():
    inst = make_instance("laptop", 5)
    return sample_scene(inst, np.random.SeedSequence([5, 1]), scene_id="s1")


def rot_z(deg):
    a = math.radians(deg)
    return np.array([[math.cos(a), -math.sin(a), 0.0], [math.sin(a), math.cos(a), 0.0], [0.0, 0.0, 1.0]])


def ground_truth(rec):
    return metrics.ScenePrediction(rec.scene_id, list(rec.part_poses), list(rec.posed_boxes))


class TestPartErrors:
    def test_ground_truth_scores_exactly(self, scene):
        for pose, box in zip(scene.part_poses, scene.posed_boxes):
            r, t, iou = metrics.part_errors(pose, box, pose, box)
            assert r == pytest.approx(0.0, abs=1e-4)
            assert t == 0.0
            assert iou == pytest.approx(1.0, abs=1e-12)

    def test_known_offset(self, scene):
        gt = scene.part_poses[0]
        pose = SimilarityTransform(rot_z(3.0) @ gt.R, gt.t + [0.0, 0.006, 0.008], gt.s)
        box = transform_box(scene.canonical_boxes[0], pose)
        r, t, iou = metrics.part_errors(pose, box, gt, scene.posed_boxes[0])
        assert r == pytest.approx(3.0, abs=1e-6)
        assert t == pytest.approx(1.0, abs=1e-9)
        assert 0.0 < iou < 1.0

    def test_invalid_part_is_nan(self, scene):
        got = metrics.part_errors(None, None, scene.part_poses[0], scene.posed_boxes[0])
        assert all(math.isnan(v) for v in got)


class TestEvalObject:
    def test_ground_truth(self, scene):
        report = metrics.eval_object([ground_truth(scene)], [scene])
        assert report.acc_5deg5cm == 100.0
        assert report.miou == pytest.approx(100.0, abs=1e-9)
        assert report.t_err == 0.0
        assert report.invalid_parts == 0

    def test_invalid_part(self, scene):
        # part 0 off by 3 degrees and 2 cm (passes 5deg5cm), part 1 invalid
        gt = scene.part_poses[0]
        pose = SimilarityTransform(rot_z(3.0) @ gt.R, gt.t + [0.02, 0.0, 0.0], gt.s)
        box = transform_box(scene.canonical_boxes[0], pose)
        pred = metrics.ScenePrediction(scene.scene_id, [pose, None], [box, None])
        report = metrics.eval_object([pred], [scene])
        iou0 = metrics.part_errors(pose, box, gt, scene.posed_boxes[0])[2]
        assert 0.0 < iou0 < 1.0
        assert report.invalid_parts == 1
        assert report.acc_5deg5cm == 50.0
        assert report.miou == pytest.approx(50.0 * iou0, abs=1e-12)
        assert report.r_err == pytest.approx(3.0, abs=1e-6)
        assert report.t_err == pytest.approx(2.0, abs=1e-9)

    def test_all_invalid_means_are_nan(self, scene):
        pred = metrics.ScenePrediction(scene.scene_id, [None, None], [None, None])
        report = metrics.eval_object([pred], [scene])
        assert report.acc_5deg5cm == 0.0 and report.miou == 0.0
        assert math.isnan(report.r_err) and math.isnan(report.t_err)
        assert report.invalid_parts == 2

    def test_unknown_scene_id(self, scene):
        pred = ground_truth(scene)
        pred.scene_id = "other"
        with pytest.raises(IdMismatch):
            metrics.eval_object([pred], [scene])

    def test_part_count_mismatch(self, scene):
        pred = ground_truth(scene)
        pred.poses, pred.boxes = pred.poses[:1], pred.boxes[:1]
        with pytest.raises(IdMismatch):
            metrics.eval_object([pred], [scene])

    def test_length_mismatch(self, scene):
        with pytest.raises(IdMismatch):
            metrics.eval_object([ground_truth(scene)] * 2, [scene])

    def test_repeated_prediction_names_the_scene(self, scene, other_scene):
        pred = ground_truth(scene)
        with pytest.raises(IdMismatch, match="prediction for scene 's0' given twice"):
            metrics.eval_object([pred, pred], [scene, other_scene])

    def test_repeated_ground_truth_names_the_scene(self, scene, other_scene):
        preds = [ground_truth(scene), ground_truth(other_scene)]
        with pytest.raises(IdMismatch, match="gt scene 's0' given twice"):
            metrics.eval_object(preds, [scene, scene])

    def test_two_scenes_in_another_order(self, scene, other_scene):
        report = metrics.eval_object(
            [ground_truth(other_scene), ground_truth(scene)], [scene, other_scene]
        )
        assert report.scene_count == 2 and report.acc_5deg5cm == 100.0


class TestHandErrors:
    def test_known_offset(self, scene):
        joints, surface = scene.hand_joints, scene.hand_surface
        mpjpe, mpvpe = metrics.hand_errors(joints + [0.003, 0.004, 0.0], joints, surface - [0.0, 0.0, 0.01], surface)
        assert mpjpe == pytest.approx(5.0, abs=1e-9)
        assert mpvpe == pytest.approx(10.0, abs=1e-9)
        assert metrics.hand_errors(joints, joints, surface, surface) == (0.0, 0.0)

    def test_shape_mismatch(self, scene):
        joints, surface = scene.hand_joints, scene.hand_surface
        with pytest.raises(CountMismatch):
            metrics.hand_errors(joints[:20], joints, surface, surface)
        with pytest.raises(CountMismatch):
            metrics.hand_errors(joints, joints, surface, surface[:-1])


def test_write_rows(tmp_path):
    out = tmp_path / "rows.csv"
    metrics.write_rows(out, ["a", "b"], [{"a": 1, "b": 0.5}, {"a": "x"}])
    with open(out, newline="", encoding="utf-8") as f:
        assert list(csv.reader(f)) == [["a", "b"], ["1", "0.5"], ["x", ""]]


def test_summary_json_holds_numbers(tmp_path, scene):
    # every part invalid: the R and T means are NaN, which JSON writes as null
    pred = metrics.ScenePrediction(scene.scene_id, [None, None], [None, None])
    report = metrics.eval_object([pred], [scene])
    out = tmp_path / "report.json"
    metrics.write_summary_json(out, report, extra={"checkpoint": "m.ckpt"})
    assert json.loads(out.read_text()) == {
        "category": "laptop",
        "scenes": 1,
        "acc_5deg5cm": 0.0,
        "mIoU": 0.0,
        "R_err_deg": None,
        "T_err_cm": None,
        "invalid_parts": 2,
        "checkpoint": "m.ckpt",
    }
    assert "NaN" not in out.read_text()


def test_rows_print_as_their_repr(scene):
    # the CSV and the printed lines show str(value), the repr of each number
    report = metrics.eval_object([ground_truth(scene)], [scene])
    for name, value in report.rows()[1:]:
        assert type(value) in (int, float) and str(value) == repr(value), name
