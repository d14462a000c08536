"""CLI smoke runs on a tiny dataset: synth, train, hand-opt and gradcheck
through cli.main, checking exit codes and output files."""

import csv
import json

import pytest

from artipose import cli


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Two 512-point laptop scenes and a one-epoch checkpoint with a
    10-step contact diffuser."""
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
                "epochs": 1,
                "batch_size": 2,
                "lambda_diff": 1.0,
                "diffusion_points": 64,
                "diffusion_steps": 10,
            }
        )
    )
    assert cli.main(["train", "--config", str(config), "--out", str(root / "train")]) == 0
    return root, ds, root / "train" / "model.ckpt"


class TestHandOpt:
    def test_sampled_contacts(self, trained):
        root, ds, ckpt = trained
        out = root / "sampled.csv"
        argv = ["hand-opt", "--checkpoint", str(ckpt), "--dataset", str(ds), "--iters", "5"]
        assert cli.main(argv + ["--generations", "2", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert rows[0] == cli.HAND_OPT_FIELDS
        assert len(rows) == 3
        assert all(row[0].startswith("scene_") for row in rows[1:])

    def test_gt_contact(self, trained):
        root, ds, _ = trained
        out = root / "gt.csv"
        argv = ["hand-opt", "--gt-contact", "--dataset", str(ds), "--iters", "5", "--out", str(out)]
        assert cli.main(argv) == 0
        rows = read_rows(out)
        assert rows[0] == cli.HAND_OPT_FIELDS
        assert len(rows) == 3

    def test_limit_zero_writes_header_only(self, trained):
        root, ds, _ = trained
        out = root / "empty.csv"
        argv = ["hand-opt", "--gt-contact", "--dataset", str(ds), "--limit", "0", "--out", str(out)]
        assert cli.main(argv) == 0
        assert read_rows(out) == [cli.HAND_OPT_FIELDS]

    def test_sampled_contacts_need_checkpoint(self, trained):
        _, ds, _ = trained
        assert cli.main(["hand-opt", "--dataset", str(ds)]) == 1


def test_gradcheck_passes(capsys):
    assert cli.main(["gradcheck"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert all(line.startswith("[PASS]") for line in lines)
