"""Fixtures for the train, eval and refine workloads.

Run as a child process of `run.py`, so that the training done here does not
count towards the measuring process's peak RSS:

    python3 perfbench/fixtures.py {dataset,model} SEED OUT_DIR

`dataset` writes the laptop training set to OUT_DIR/train. `model` also
trains a checkpoint with both priors (OUT_DIR/model/model.ckpt), writes
held-out candidate scenes to OUT_DIR/held<k> and keeps those on which every
part of the initial estimate has at least MIN_PART_POINTS points.
`tta.adapt_object` needs 3 (it raises TooFewPoints below that), and the
margin keeps a part from losing all its points during adaptation. Both
write OUT_DIR/fixture.json with a digest of everything they produced; the
same SEED gives the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

CATEGORY = "laptop"
TRAIN_SCENES = 8  # one batch of B = 8
HELD_CANDIDATES = 6
HELD_MIN = 2
HELD_TRIES = 4
MIN_PART_POINTS = 16
# 20 epochs: with 10, some seeds gave a checkpoint that puts no point on
# one of the two parts of any held-out scene
MODEL_CONFIG = {"epochs": 20, "lr": 3e-3, "lambda_adv": 0.1, "lambda_diff": 1.0}


def derive(seed: int, *tags) -> int:
    """A 31-bit seed for one use of the benchmark seed."""
    words = [seed] + [int.from_bytes(hashlib.sha256(str(t).encode()).digest()[:4], "little") for t in tags]
    return int(np.random.SeedSequence(words).generate_state(1)[0] & 0x7FFFFFFF)


def tree_digest(root) -> str:
    """sha256 over the relative paths and bytes of every file under root."""
    h = hashlib.sha256()
    root = Path(root)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def build_dataset(seed: int, out: Path) -> dict:
    from artipose.synth import generate_dataset

    generate_dataset(out / "train", CATEGORY, TRAIN_SCENES, seed=derive(seed, "fixture-train"))
    return {"train": "train"}


def usable_held_out(est, scenes) -> list:
    from artipose.estimator import assemble_pose

    keep = []
    for rec in scenes:
        ests = assemble_pose(rec.cloud, est.head_output(rec.cloud), rec.canonical_boxes)
        if all(e.valid and len(e.members) >= MIN_PART_POINTS for e in ests):
            keep.append(rec.scene_id)
    return keep


def build_model(seed: int, out: Path) -> dict:
    from artipose.estimator import TrainConfig, load_estimator, train_estimator
    from artipose.synth import generate_dataset, load_dataset

    info = build_dataset(seed, out)
    _, scenes = load_dataset(out / "train")
    config = TrainConfig(seed=derive(seed, "fixture-model"), **MODEL_CONFIG)
    train_estimator(scenes, config, out / "model")
    est, _, _ = load_estimator(out / "model" / config.checkpoint)
    keep = []  # [dataset dir, scene id]
    for attempt in range(HELD_TRIES):
        held = f"held{attempt}"
        generate_dataset(out / held, CATEGORY, HELD_CANDIDATES, seed=derive(seed, "fixture-held", attempt))
        _, candidates = load_dataset(out / held)
        keep += [[held, scene_id] for scene_id in usable_held_out(est, candidates)]
        if len(keep) >= HELD_MIN:
            break
    else:
        raise RuntimeError(f"fewer than {HELD_MIN} usable held-out scenes in {HELD_TRIES} tries")
    info.update(
        checkpoint=f"model/{config.checkpoint}",
        held=keep,
        held_candidates=HELD_CANDIDATES * (attempt + 1),
    )
    return info


def main(argv) -> int:
    kind, seed, out = argv[0], int(argv[1]), Path(argv[2])
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    out.mkdir(parents=True, exist_ok=True)
    info = {"dataset": build_dataset, "model": build_model}[kind](seed, out)
    info["digest"] = tree_digest(out)
    (out / "fixture.json").write_text(json.dumps(info), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
