"""CLI smoke runs on a tiny dataset: synth, train, eval, tta, hand-opt,
gradcheck and version through cli.main, checking exit codes and output
files; and the entry point, run as `python -m artipose.cli`."""

import csv
import importlib
import inspect
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import artipose
from artipose import autodiff as ad
from artipose import cli
from artipose import estimator as est_mod
from artipose import nn
from artipose import priors
from artipose import tta as tta_mod
from artipose.estimator import PartPoseEstimate, assemble_graph
from artipose.synth import generate_dataset, load_dataset
from artipose.synth.render import HAND_LABEL

ROOT = Path(__file__).resolve().parents[1]


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Two 512-point laptop scenes and a checkpoint with a discriminator
    group and a 10-step contact diffuser, trained for 15 one-scene batches
    each, so every part of both scenes' first estimates has points and the
    real tta run reaches the Adam loop."""
    root = tmp_path_factory.mktemp("cli")
    ds = root / "ds"
    assert cli.main(
        ["synth", "--category", "laptop", "--count", "2", "--points", "512", "--seed", "0", "--out", str(ds)]
    ) == 0
    config = root / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "dataset": str(ds),
                "epochs": 15,
                "batch_size": 1,
                "lr": 3e-3,
                "lambda_adv": 0.1,
                "lambda_diff": 1.0,
                "diffusion_points": 64,
                "diffusion_steps": 10,
            }
        )
    )
    assert cli.main(["train", "--config", str(config), "--out", str(root / "train")]) == 0
    return root, ds, root / "train" / "model.ckpt"


def check_hand_opt_summary(out, rows):
    """The summary counts the scenes with lower MPJPE and the aborted rows."""
    rows = [dict(zip(rows[0], row)) for row in rows[1:]]
    reduced = sum(float(r["mpjpe_after"]) < float(r["mpjpe_before"]) for r in rows)
    aborted = sum(1 for r in rows if r["aborted"])
    pct = 100 * reduced / max(1, len(rows))
    assert f"MPJPE reduced on {reduced}/{len(rows)} scenes ({pct:.0f}%); aborted on {aborted}\n" in out
    return aborted


class TestHandOpt:
    def test_sampled_contacts(self, trained, capsys):
        root, ds, ckpt = trained
        out = root / "sampled.csv"
        argv = ["hand-opt", "--checkpoint", str(ckpt), "--dataset", str(ds), "--iters", "5"]
        assert cli.main(argv + ["--generations", "2", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert rows[0] == cli.HAND_OPT_FIELDS
        assert len(rows) == 3
        assert all(row[0].startswith("scene_") for row in rows[1:])
        records = load_dataset(ds)[1]
        for row, rec in zip(rows[1:], records):
            row = dict(zip(rows[0], row))
            assert row["contacts_gt"] == str(int(rec.contact.sum()))
            assert 0.0 <= float(row["contact_iou"]) <= 1.0
        check_hand_opt_summary(capsys.readouterr().out, rows)

    def test_sampled_contacts_all_empty_abort(self, trained, capsys, monkeypatch):
        root, ds, ckpt = trained
        out = root / "sampled_empty.csv"

        def no_contacts(diffuser, z, generations=5, seed=0):
            return np.zeros(len(z), dtype=np.uint8), np.full(len(z), -1.0)

        monkeypatch.setattr(cli.priors_mod, "sample_contact_map", no_contacts)
        argv = ["hand-opt", "--checkpoint", str(ckpt), "--dataset", str(ds), "--iters", "5"]
        assert cli.main(argv + ["--out", str(out)]) == 0
        rows = read_rows(out)
        col = cli.HAND_OPT_FIELDS.index("aborted")
        assert [row[col] for row in rows[1:]] == ["no contact points"] * 2
        assert check_hand_opt_summary(capsys.readouterr().out, rows) == 2

    def test_gt_contact(self, trained, capsys):
        root, ds, _ = trained
        out = root / "gt.csv"
        argv = ["hand-opt", "--gt-contact", "--dataset", str(ds), "--iters", "5", "--out", str(out)]
        assert cli.main(argv) == 0
        rows = read_rows(out)
        assert rows[0] == cli.HAND_OPT_FIELDS
        assert len(rows) == 3
        records = load_dataset(ds)[1]
        for row, rec in zip(rows[1:], records):
            row = dict(zip(rows[0], row))
            assert row["contact_iou"] == "1.0"
            assert row["contacts"] == row["contacts_gt"] == str(int(rec.contact.sum()))
        assert check_hand_opt_summary(capsys.readouterr().out, rows) == 0

    def test_limit_zero_writes_header_only(self, trained):
        root, ds, _ = trained
        out = root / "empty.csv"
        argv = ["hand-opt", "--gt-contact", "--dataset", str(ds), "--limit", "0", "--out", str(out)]
        assert cli.main(argv) == 0
        assert read_rows(out) == [cli.HAND_OPT_FIELDS]

    def test_sampled_contacts_need_checkpoint(self, trained):
        _, ds, _ = trained
        assert cli.main(["hand-opt", "--dataset", str(ds)]) == 1

    def test_missing_checkpoint_is_reported_before_reading_the_dataset(self, tmp_path, capsys):
        assert cli.main(["hand-opt", "--dataset", str(tmp_path / "no_such_dataset")]) == 1
        assert "usage error: --checkpoint required unless --gt-contact is set" in capsys.readouterr().err

    def test_checkpoint_without_diffusion_steps_is_runtime_error(self, trained, capsys):
        root, ds, ckpt = trained
        stores, meta = nn.load_checkpoint(ckpt)
        del meta["diffusion_steps"]
        other = root / "no_steps.ckpt"
        nn.save_checkpoint(other, stores, meta=meta)
        out = root / "no_steps.csv"
        argv = ["hand-opt", "--checkpoint", str(other), "--dataset", str(ds), "--out", str(out)]
        assert cli.main(argv) == 2
        assert "error: KeyError: 'diffusion_steps'" in capsys.readouterr().err
        assert not out.exists()

    def test_same_initial_hands_in_both_modes(self, trained):
        root, ds, ckpt = trained
        argv = ["hand-opt", "--dataset", str(ds), "--iters", "1", "--seed", "3"]
        gt, sampled = root / "init_gt.csv", root / "init_sampled.csv"
        assert cli.main(argv + ["--gt-contact", "--out", str(gt)]) == 0
        assert cli.main(argv + ["--checkpoint", str(ckpt), "--generations", "1", "--out", str(sampled)]) == 0
        col = cli.HAND_OPT_FIELDS.index("mpjpe_before")
        before_gt = [row[col] for row in read_rows(gt)[1:]]
        assert len(before_gt) == 2
        assert before_gt == [row[col] for row in read_rows(sampled)[1:]]


class TestEval:
    def test_writes_report_and_summary(self, trained, capsys):
        root, ds, ckpt = trained
        out = root / "report.csv"
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--dataset", str(ds), "--out", str(out)]) == 0
        rows = dict(read_rows(out))
        assert rows["metric"] == "value"
        assert rows["scenes"] == "2"
        assert 0.0 <= float(rows["mIoU"]) <= 100.0
        summary = json.loads(out.with_suffix(".json").read_text())
        assert summary["mIoU"] == float(rows["mIoU"]) and summary["scenes"] == 2
        assert summary["checkpoint"] == str(ckpt)
        assert "mIoU: " in capsys.readouterr().out

    def test_zero_scenes_write_null_means(self, trained, tmp_path):
        _, ds, ckpt = trained
        out = tmp_path / "report.csv"
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--dataset", str(ds), "--out", str(out), "--limit", "0"]) == 0
        summary = json.loads(out.with_suffix(".json").read_text())
        assert summary["scenes"] == 0
        assert [summary[k] for k in ("acc_5deg5cm", "mIoU", "R_err_deg", "T_err_cm")] == [None] * 4

    def test_json_out_is_usage_error_before_loading(self, trained, tmp_path, capsys, monkeypatch):
        # the summary would take the CSV's place
        _, ds, ckpt = trained
        monkeypatch.setattr(cli.est_mod, "load_estimator", lambda path: pytest.fail("checkpoint loaded"))
        out = tmp_path / "r.json"
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--dataset", str(ds), "--out", str(out)]) == 1
        assert f"usage error: --out {out} is where the JSON summary goes" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["eval", "tta"])
    def test_iou_samples_flag_rejected(self, trained, command):
        root, ds, ckpt = trained
        argv = [command, "--checkpoint", str(ckpt), "--dataset", str(ds), "--iou-samples", "1000"]
        assert cli.main(argv + ["--out", str(root / f"rejected_{command}.csv")]) == 1
        assert not (root / f"rejected_{command}.csv").exists()


    @pytest.mark.parametrize("prefix", ["rot.", "nocs.", ""])
    def test_nan_weights_give_invalid_parts(self, trained, capsys, prefix):
        # NaN rot or NOCS heads leave the segmentation intact: every part has
        # points and its fit is recorded as non-finite; NaN everywhere
        # starves the parts instead
        root, ds, ckpt = trained
        stores, meta = nn.load_checkpoint(ckpt)
        for name, value in stores["estimator"].params.items():
            if name.startswith(prefix):
                value[...] = np.nan
        bad = root / f"nan_{prefix or 'all'}.ckpt"
        nn.save_checkpoint(bad, stores, meta=meta)
        out = root / f"nan_{prefix or 'all'}.csv"
        assert cli.main(["eval", "--checkpoint", str(bad), "--dataset", str(ds), "--out", str(out)]) == 0
        rows = dict(read_rows(out))
        assert rows["invalid_parts"] == "4"
        assert rows["mIoU"] == "0.0"
        assert "invalid_parts: 4" in capsys.readouterr().out

    def test_nan_weights_are_a_non_finite_segmentation(self, trained, tmp_path, monkeypatch):
        root, ds, ckpt = trained
        stores, meta = nn.load_checkpoint(ckpt)
        for value in stores["estimator"].params.values():
            value[...] = np.nan
        bad = tmp_path / "nan.ckpt"
        nn.save_checkpoint(bad, stores, meta=meta)
        reasons = []
        assemble = est_mod.assemble_pose

        def spy(*args):
            ests = assemble(*args)
            reasons.append([e.reason for e in ests])
            return ests

        monkeypatch.setattr(est_mod, "assemble_pose", spy)
        assert cli.main(["eval", "--checkpoint", str(bad), "--dataset", str(ds), "--out", str(tmp_path / "r.csv")]) == 0
        assert reasons == [["non-finite segmentation"] * 2] * 2

    def test_truncated_scene_file_is_runtime_error(self, trained, tmp_path, capsys):
        root, ds, ckpt = trained
        bad = shutil.copytree(ds, tmp_path / "ds")
        cloud = bad / "scenes" / "scene_000001" / "cloud.f32"
        cloud.write_bytes(cloud.read_bytes()[:12])
        out = tmp_path / "report.csv"
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--dataset", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: ValueError: scene scene_000001: cloud.f32 has 12 bytes, not a (512, 3) <f4 array\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("head_hidden", 64), ("center_input", False)])
    def test_other_architecture_is_runtime_error(self, trained, capsys, key, value):
        root, ds, ckpt = trained
        stores, meta = nn.load_checkpoint(ckpt)
        other = root / f"other_{key}.ckpt"
        nn.save_checkpoint(other, stores, meta={**meta, key: value})
        out = root / f"other_{key}.csv"
        assert cli.main(["eval", "--checkpoint", str(other), "--dataset", str(ds), "--out", str(out)]) == 2
        assert f"error: ValueError: checkpoint {key} is {value!r}" in capsys.readouterr().err
        assert not out.exists()


class TestTrainConfig:
    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"batch_size": 0}, "batch_size must be positive"),
            ({"epochs": -1}, "epochs must be >= 0"),
            ({"lr": -1}, "lr must be positive"),
            ({"diffusion_points": 0, "lambda_diff": 1}, "diffusion_points must be positive"),
            ({"checkpoint": 3}, "checkpoint must be a string"),
            ({"dataset": 5}, "dataset must be a string"),
            ({"seed": "a"}, "seed must be an integer"),
            ({"seed": -1}, "seed must be >= 0"),
            ({"lr_schedule": None}, "lr_schedule must be a list"),
        ],
    )
    def test_invalid_setting_is_runtime_error_before_writing(self, trained, tmp_path, capsys, setting, message):
        _, ds, _ = trained
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"dataset": str(ds), "epochs": 1, **setting}))
        out = tmp_path / "train"
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 2
        assert f"error: ValueError: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_config_that_is_not_an_object_is_runtime_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text("[1, 2]")
        out = tmp_path / "train"
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: ValueError: config must be a JSON object\n"
        assert not out.exists()


class TestNegativeCounts:
    def test_synth_count(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert cli.main(["synth", "--category", "laptop", "--count", "-1", "--out", str(out)]) == 1
        assert "argument --count: must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--points", "0", "must be >= 8, got 0"),
            ("--points", "7", "must be >= 8, got 7"),
            ("--seed", "-3", "must be >= 0, got -3"),
        ],
    )
    def test_synth_settings(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "ds"
        argv = ["synth", "--category", "laptop", "--count", "1", "--out", str(out), flag, value]
        assert cli.main(argv) == 1
        assert f"argument {flag}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--tau", "0.02"), ("--min-contacts", "2"), ("--surface-samples", "256")])
    def test_fixed_synth_settings_are_not_flags(self, tmp_path, capsys, flag, value):
        # the contact threshold, the contact floor and the hand's surface
        # samples are library constants
        out = tmp_path / "ds"
        argv = ["synth", "--category", "laptop", "--count", "1", "--out", str(out), flag, value]
        assert cli.main(argv) == 1
        assert f"usage error: unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag, value, message",
        [
            ("tta", "--steps", "-1", "must be >= 0, got -1"),
            ("tta", "--lr", "0", "must be > 0, got 0.0"),
            ("tta", "--lr", "nan", "must be > 0, got nan"),
            ("hand-opt", "--iters", "0", "must be >= 1, got 0"),
            ("hand-opt", "--generations", "0", "must be >= 1, got 0"),
            ("hand-opt", "--lr", "-1", "must be > 0, got -1.0"),
            ("hand-opt", "--lr", "0", "must be > 0, got 0.0"),
            ("hand-opt", "--perturb", "nan", "must be finite and >= 0, got nan"),
            ("hand-opt", "--perturb", "-0.1", "must be finite and >= 0, got -0.1"),
            ("hand-opt", "--seed", "-1", "must be >= 0, got -1"),
        ],
    )
    def test_numbers_checked_before_loading(self, tmp_path, capsys, monkeypatch, command, flag, value, message):
        monkeypatch.setattr(cli, "load_dataset", lambda *args, **kwargs: pytest.fail("dataset loaded"))
        monkeypatch.setattr(cli.est_mod, "load_estimator", lambda path: pytest.fail("checkpoint loaded"))
        out = tmp_path / "report.csv"
        argv = [command, "--checkpoint", str(tmp_path / "m.ckpt"), "--dataset", str(tmp_path / "ds")]
        assert cli.main(argv + ["--out", str(out), flag, value]) == 1
        assert f"argument {flag}: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["eval", "tta", "hand-opt"])
    def test_limit(self, trained, capsys, command):
        root, ds, ckpt = trained
        out = root / f"limit_{command}.csv"
        argv = [command, "--checkpoint", str(ckpt), "--dataset", str(ds), "--limit", "-1"]
        assert cli.main(argv + ["--out", str(out)]) == 1
        assert "argument --limit: must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()


def test_defaults_are_the_library_defaults():
    parser = cli.build_parser()
    synth = parser.parse_args(["synth", "--category", "drawer", "--count", "1", "--out", "ds"])
    dataset = inspect.signature(generate_dataset).parameters
    assert synth.points == dataset["n_points"].default
    adapt = parser.parse_args(["tta", "--checkpoint", "m.ckpt", "--dataset", "ds"])
    tta_cfg = tta_mod.TtaConfig()
    assert (adapt.steps, adapt.lr) == (tta_cfg.steps, tta_cfg.lr)
    hand = parser.parse_args(["hand-opt", "--dataset", "ds"])
    hand_cfg = tta_mod.HandOptConfig()
    assert (hand.iters, hand.lr, hand.generations) == (hand_cfg.iters, hand_cfg.lr, priors.DEFAULT_GENERATIONS)


class TestTta:
    def run(self, root, ds, ckpt, name, *extra):
        out = root / name
        argv = ["tta", "--checkpoint", str(ckpt), "--dataset", str(ds), "--steps", "2", "--out", str(out)]
        assert cli.main(argv + list(extra)) == 0
        with open(out, newline="", encoding="utf-8") as f:
            return list(csv.DictReader(f))

    def test_one_row_per_part(self, trained):
        root, ds, ckpt = trained
        rows = self.run(root, ds, ckpt, "tta.csv")
        assert list(rows[0]) == cli.TTA_FIELDS
        assert [(r["scene"], r["part"]) for r in rows] == [
            (f"scene_{i:06d}", str(p)) for i in range(2) for p in range(2)
        ]

    def test_adapted_rows_are_finite(self, trained):
        root, ds, ckpt = trained
        rows = self.run(root, ds, ckpt, "tta_finite.csv")
        for row in rows:
            assert row["aborted"] == ""
            for name in cli.TTA_FIELDS[2:8]:
                assert math.isfinite(float(row[name]))
            assert 0.0 <= float(row["iou_after"]) <= 1.0
        traces = [row["l_adv_trace"].split(";") for row in rows if row["l_adv_trace"]]
        assert len(traces) == 2
        assert all(len(t) == 3 and all(math.isfinite(float(v)) for v in t) for t in traces)

    @pytest.mark.parametrize("trace, reduced", [([1.0, 0.5], 2), ([1.0, 1.0], 0), ([1.0, 1.5], 0)])
    def test_summary_counts_strictly_reduced_loss(self, trained, monkeypatch, capsys, trace, reduced):
        root, ds, ckpt = trained

        def fixed(est, disc, cloud, canonical_boxes, cfg):
            before = est_mod.assemble_pose(cloud, est.head_output(cloud), canonical_boxes)
            return tta_mod.AdaptResult(before, before, list(trace))

        monkeypatch.setattr(tta_mod, "adapt_object", fixed)
        self.run(root, ds, ckpt, "tta_summary.csv")
        assert f"adapted 2 of 2 scenes; adversarial loss reduced on {reduced}\n" in capsys.readouterr().out

    def test_ground_truth_estimates_score_exactly(self, trained, monkeypatch):
        root, ds, ckpt = trained
        records = iter(load_dataset(ds)[1])

        def perfect(est, disc, cloud, canonical_boxes, cfg):
            rec = next(records)
            ests = [
                PartPoseEstimate(p, True, pose, box, np.arange(3))
                for p, (pose, box) in enumerate(zip(rec.part_poses, rec.posed_boxes))
            ]
            return tta_mod.AdaptResult(ests, ests, [1.0, 0.5])

        monkeypatch.setattr(tta_mod, "adapt_object", perfect)
        rows = self.run(root, ds, ckpt, "tta_perfect.csv")
        assert len(rows) == 4
        for row in rows:
            assert row["aborted"] == ""
            for tag in ("before", "after"):
                assert float(row[f"r_err_{tag}"]) == pytest.approx(0.0, abs=1e-4)
                assert float(row[f"t_err_{tag}"]) == 0.0
                assert float(row[f"iou_{tag}"]) == pytest.approx(1.0, abs=1e-12)
        assert [row["l_adv_trace"] for row in rows] == ["", "1.0;0.5", "", "1.0;0.5"]

    def check_step_0_abort(self, rows, out, bad_part, reason):
        """Every row reads the step-0 abort; the bad part is NaN and every
        other part keeps its finite first estimate, after equal to before."""
        assert "adapted 0 of 2 scenes; adversarial loss reduced on 0\n" in out
        assert len(rows) == 4
        for row in rows:
            assert row["aborted"] == f"step 0: part {bad_part}: {reason}"
            assert row["l_adv_trace"] == ""
            before = [row[f"{m}_before"] for m in ("r_err", "t_err", "iou")]
            assert [row[f"{m}_after"] for m in ("r_err", "t_err", "iou")] == before
            if row["part"] == str(bad_part):
                assert all(math.isnan(float(v)) for v in before)
            else:
                assert all(math.isfinite(float(v)) for v in before)

    def corrupt_heads(self, monkeypatch, corrupt):
        """Every head pass goes through corrupt(seg, nocs, rot) -> Vars."""
        heads_graph = est_mod.Estimator.heads_graph

        def heads(self, tape, *features):
            return corrupt(*heads_graph(self, tape, *features))

        monkeypatch.setattr(est_mod.Estimator, "heads_graph", heads)

    @staticmethod
    def two_points_on_part_1(seg, nocs, rot):
        # every object point to part 0, except the first two to part 1
        labels = np.argmax(seg.data, axis=1)
        obj = np.flatnonzero(labels != HAND_LABEL)
        labels[obj] = 1
        labels[obj[:2]] = 2
        return ad.add(ad.mul(seg, 0.0), np.eye(seg.data.shape[1])[labels]), nocs, rot

    def test_too_few_points_recorded_per_scene(self, trained, monkeypatch, capsys):
        root, ds, ckpt = trained
        self.corrupt_heads(monkeypatch, self.two_points_on_part_1)
        rows = self.run(root, ds, ckpt, "tta_starved.csv")
        self.check_step_0_abort(rows, capsys.readouterr().out, 1, "2 points")

    def test_too_few_points_recorded_with_zero_steps(self, trained, monkeypatch, capsys):
        # with --steps 0 the first pass is also the final one
        root, ds, ckpt = trained
        self.corrupt_heads(monkeypatch, self.two_points_on_part_1)
        rows = self.run(root, ds, ckpt, "tta_starved_0.csv", "--steps", "0")
        self.check_step_0_abort(rows, capsys.readouterr().out, 1, "2 points")

    def test_degenerate_first_estimate_recorded_per_scene(self, trained, monkeypatch, capsys):
        root, ds, ckpt = trained

        def zero_part_0_rotation(seg, nocs, rot):
            return seg, nocs, ad.mul(rot, np.array([0.0, 1.0])[:, None])

        self.corrupt_heads(monkeypatch, zero_part_0_rotation)
        rows = self.run(root, ds, ckpt, "tta_degenerate.csv")
        self.check_step_0_abort(rows, capsys.readouterr().out, 0, "first column near zero")

    def test_abort_at_step_1_not_counted_as_adapted(self, trained, monkeypatch, capsys):
        root, ds, ckpt = trained
        calls = []

        def fit_lost_at_step_1(*args):
            # --steps 2: each scene's second call is its step 1
            calls.append(args)
            *fit, reasons = assemble_graph(*args)
            if len(calls) % 2 == 0:
                reasons = np.array([["0 points"] * reasons.shape[1]])
            return (*fit, reasons)

        monkeypatch.setattr(tta_mod, "assemble_graph", fit_lost_at_step_1)
        rows = self.run(root, ds, ckpt, "tta_step_1.csv")
        assert "adapted 0 of 2 scenes; adversarial loss reduced on 0\n" in capsys.readouterr().out
        assert len(calls) == 4
        for row in rows:
            assert row["aborted"] == "step 1: part 0: 0 points"
            for m in ("r_err", "t_err", "iou"):
                assert row[f"{m}_after"] == row[f"{m}_before"]
                assert math.isfinite(float(row[f"{m}_before"]))
        assert [len(row["l_adv_trace"].split(";")) for row in rows[1::2]] == [1, 1]


def test_version(capsys):
    assert cli.main(["version"]) == 0
    assert capsys.readouterr().out.strip() == artipose.__version__


class TestEntryPoint:
    """The module run as a program, and the script that pyproject.toml
    installs."""

    @staticmethod
    def run_module(*argv):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        return subprocess.run(
            [sys.executable, "-m", "artipose.cli", *argv], capture_output=True, text=True, env=env, timeout=120
        )

    def test_version_exits_0(self):
        done = self.run_module("version")
        assert (done.returncode, done.stdout, done.stderr) == (0, f"{artipose.__version__}\n", "")

    def test_missing_arguments_exit_1(self):
        done = self.run_module("eval")
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.startswith("usage error: ")

    def test_numpy_floor_is_2(self):
        # the autodiff dtypes, PINNED_TREE_SHA256 and the bench digests rest
        # on NumPy 2's promotion rules (NEP 50)
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as f:
            assert tomllib.load(f)["project"]["dependencies"] == ["numpy>=2"]

    def test_version_is_read_from_the_package(self):
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as f:
            config = tomllib.load(f)
        assert "version" not in config["project"] and config["project"]["dynamic"] == ["version"]
        assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "artipose.__version__"}

    def test_script_is_cli_entry(self):
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["artipose"]
        assert target == "artipose.cli:entry"
        module, name = target.split(":")
        assert callable(getattr(importlib.import_module(module), name))


@pytest.mark.parametrize(
    "argv",
    [
        ["tta", "--checkpoint", "m.ckpt", "--dataset", "ds", "--scope", "heads_only"],
        ["gradcheck", "--seed", "7"],
        ["gradcheck", "--tol", "1e-3"],
        ["synth", "--category", "drawer", "--count", "1", "--out", "ds", "--drawers", "2"],
        ["tta", "--checkpoint", "m.ckpt", "--dataset", "ds", "--disc", "x"],
    ],
    ids=["tta-scope", "gradcheck-seed", "gradcheck-tol", "synth-drawers", "tta-disc"],
)
def test_removed_options_are_not_flags(capsys, argv):
    # TTA adapts the heads only, against the checkpoint's own discriminator;
    # gradcheck runs each suite at its own seed against gradcheck.TOL; a
    # drawer has synth.instances.DRAWERS sliding parts
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"usage error: unrecognized arguments: {' '.join(argv[-2:])}" in captured.err


@pytest.mark.parametrize(
    "command, group, message",
    [
        ("tta", "discriminator", "checkpoint has no discriminator group; train with lambda_adv > 0"),
        ("hand-opt", "diffuser", "checkpoint has no diffuser group; train with lambda_diff > 0"),
    ],
    ids=["tta", "hand-opt"],
)
def test_checkpoint_without_the_prior_is_usage_error(trained, tmp_path, capsys, monkeypatch, command, group, message):
    # what training writes with that prior's weight at 0
    root, ds, ckpt = trained
    stores, meta = nn.load_checkpoint(ckpt)
    del stores[group]
    other = tmp_path / "other.ckpt"
    nn.save_checkpoint(other, stores, meta=meta)
    out = tmp_path / "report.csv"

    def no_dataset(*args, **kwargs):
        raise AssertionError("the dataset was read before the checkpoint was checked")

    # the checkpoint is checked before any scene is read
    monkeypatch.setattr(cli, "load_dataset", no_dataset)
    assert cli.main([command, "--checkpoint", str(other), "--dataset", str(ds), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "tta", "hand-opt"])
def test_checkpoint_of_another_category_is_usage_error(trained, tmp_path, capsys, monkeypatch, command):
    # trashcan has 2 parts like laptop, so no shape check would trip
    root, _, ckpt = trained
    other = tmp_path / "trashcan"
    generate_dataset(other, "trashcan", 1, seed=0, n_points=512)
    out = tmp_path / "report.csv"

    def no_scenes(*args, **kwargs):
        raise AssertionError("a scene was read before the categories were compared")

    monkeypatch.setattr(cli, "load_dataset", no_scenes)
    assert cli.main([command, "--checkpoint", str(ckpt), "--dataset", str(other), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"usage error: checkpoint {ckpt} was trained on category 'laptop', dataset {other} is 'trashcan'\n"
    )
    assert not out.exists()


def test_gradcheck_passes(capsys):
    assert cli.main(["gradcheck"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert all(line.startswith("[PASS]") for line in lines)
