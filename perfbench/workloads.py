"""The four closed-loop workloads: synth, train, eval and refine.

Each workload is driven by one caller that sends its next unit only after
the previous one returned. A workload object provides:

    setup()        one full set-up (fixtures built in a child process,
                   loaded here, then a fixed warm-up); run.py repeats it
    inputs(i)      the input of unit i, made from the benchmark seed and i
                   (None when the workload has no fresh input left)
    run(inp)       the timed call into the package
    check(inp, out)  validates the output outside the timed region and
                   returns a Done record (scenes, failure, digest, extras)
    final_check()  checks made once after measuring
    layer_metrics(tracer, dones)  derived per-layer numbers (ratios and
                   quality guards) of a traced run

plus `trace_units`, the fixed unit count of a traced run, `required`, the
per-layer names that must record at least one call, and `observers` for
the tracer.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fixtures import CATEGORY, derive, tree_digest

from artipose import estimator as est_mod
from artipose import metrics as metrics_mod
from artipose import nn
from artipose import priors as priors_mod
from artipose import tta as tta_mod
from artipose.synth import CATEGORIES
from artipose.synth import io as synth_io

HERE = Path(__file__).resolve().parent
SYNTH_POOL = HERE / "synth_pool.json"
FIXTURE_TIMEOUT_S = 150

TRAIN_CONFIG = {"epochs": 12, "lr": 3e-3, "lambda_adv": 0.1, "lambda_diff": 1.0}
WARMUP_TRAIN_EPOCHS = 2
# graph-building calls of a training step; their sum is the forward pass
FORWARD_GRAPHS = [
    "estimator.Estimator.encode_graph",
    "estimator.Estimator.heads_graph",
    "estimator.pose_loss_graph",
    "estimator.assemble_graph",
    "priors.g_adv_loss_graph",
    "priors.diff_loss_graph",
    "priors.d_loss_graph",
]
GENERATIONS = 5  # K contact-map generations per refine unit
TTA = tta_mod.TtaConfig(steps=10, scope=tta_mod.HEADS_ONLY)


class CheckFailed(Exception):
    """An output of the package is wrong."""


@dataclass
class Done:
    scenes: int  # scenes counted towards scenes_per_s
    failure: str  # "" when the operation succeeded
    digest: str
    extras: dict = field(default_factory=dict)


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def digest_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def build_fixture(kind: str, seed: int, out: Path) -> dict:
    """Build one fixture in a child process and return its fixture.json."""
    if out.exists():
        shutil.rmtree(out)
    subprocess.run(
        [sys.executable, str(HERE / "fixtures.py"), kind, str(seed), str(out)],
        check=True,
        timeout=FIXTURE_TIMEOUT_S,
    )
    return json.loads((out / "fixture.json").read_text(encoding="utf-8"))


class Workload:
    name = ""
    trace_units = 1
    unit_block = 1  # a measured run stops only after a whole block of units
    required: list = []
    observers: dict = {}

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.setups = 0
        self.fixture_digests = []
        self.notes = {}  # facts about the inputs, added to the info record

    def next_dir(self, tag) -> Path:
        d = self.work / str(tag)
        if d.exists():
            shutil.rmtree(d)
        return d

    def fixture(self, kind: str) -> tuple:
        """Build the fixture for set-up number self.setups; returns (dir, info).

        Every set-up builds afresh; the digests of all set-ups must agree.
        """
        out = self.next_dir(f"fixture{self.setups}")
        info = build_fixture(kind, self.seed, out)
        self.fixture_digests.append(info["digest"])
        require(len(set(self.fixture_digests)) == 1, "fixture bytes differ between set-ups")
        if self.setups:
            shutil.rmtree(self.work / f"fixture{self.setups - 1}")
        self.setups += 1
        return out, info

    def final_check(self):
        pass

    def layer_metrics(self, tracer, dones) -> dict:
        return {}


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

class Synth(Workload):
    """generate_dataset calls of a few scenes, cycling the five categories
    in a fixed order. Dataset seeds come from synth_pool.json: per category,
    seeds whose calls need the category's median number of draws in about
    the median time, so every cycle does about the same work. The benchmark
    seed picks which pool seeds are used and in what order."""

    name = "synth"
    trace_units = len(CATEGORIES)  # one cycle
    unit_block = len(CATEGORIES)
    required = [
        "synth.io.generate_dataset.ms",
        "synth.instances.make_instance.ms",
        "synth.hand.pose_hand_grasp.ms",
        "synth.hand.fk_vars.ms",
        "synth.render.render_partial_cloud.self_ms",
        "synth.render.furthest_point_sample.ms",
        "geometry.compute_contact_map.ms",
        "synth.io.save_scene.ms",
        "synth.hand.fk_vars.calls",
        "synth.scene.sample_scene.calls",
    ]
    WARMUP_SEED = 1_000_000  # outside the scanned pool range

    def __init__(self, seed, work):
        super().__init__(seed, work)
        pool = json.loads(SYNTH_POOL.read_text(encoding="utf-8"))
        self.scenes_per_unit = pool["scenes_per_unit"]
        rng = np.random.default_rng(derive(seed, "synth"))
        self.order = {c: rng.permutation(pool["categories"][c]["seeds"]) for c in CATEGORIES}

    def setup(self):
        out = self.next_dir("warmup")
        synth_io.generate_dataset(out, CATEGORY, 1, seed=self.WARMUP_SEED)
        shutil.rmtree(out)
        self.setups += 1

    def inputs(self, i):
        category = CATEGORIES[i % len(CATEGORIES)]
        k = i // len(CATEGORIES)
        if k >= len(self.order[category]):
            return None
        return category, int(self.order[category][k]), self.next_dir(f"unit{i}")

    def run(self, inp):
        category, seed, out = inp
        return synth_io.generate_dataset(out, category, self.scenes_per_unit, seed=seed)

    def check(self, inp, out):
        category, _, root = inp
        manifest, scenes = synth_io.load_dataset(root)
        require(manifest["category"] == category, "manifest category")
        require(len(scenes) == self.scenes_per_unit == manifest["count"], "scene count")
        n = manifest["n_points"]
        for rec in scenes:
            p = rec.part_count
            require(p == manifest["part_count"] and p >= 1, "part count")
            require(rec.cloud.shape == (n, 3) and np.isfinite(rec.cloud).all(), "cloud shape")
            require(rec.seg.shape == (n,) and int(rec.seg.max()) <= p, "seg label range")
            require(rec.contact.shape == (n,) and set(np.unique(rec.contact)) <= {0, 1}, "contact labels")
            require(not rec.contact[rec.seg == 0].any(), "contact on hand points")
            obj = rec.nocs[rec.seg > 0]
            require(obj.size and obj.min() > -1e-3 and obj.max() < 1 + 1e-3, "nocs range")
            require(rec.hand_joints.shape == (21, 3), "hand joints shape")
        digest = tree_digest(root)
        shutil.rmtree(root)
        return Done(self.scenes_per_unit, "", digest)

    def layer_metrics(self, tracer, dones):
        return {"synth.accept_ratio": sum(d.scenes for d in dones) / tracer.calls("synth.scene.sample_scene")}


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

class Train(Workload):
    """train_estimator runs over a fixed laptop fixture with both priors on.
    Each unit uses its own config seed, so no two units are identical."""

    name = "train"
    trace_units = 2
    required = [
        "estimator.Estimator.encode_graph.ms",
        "estimator.Estimator.heads_graph.ms",
        "estimator.pose_loss_graph.ms",
        "estimator.assemble_graph.ms",
        "priors.g_adv_loss_graph.ms",
        "priors.diff_loss_graph.ms",
        "autodiff.Tape.backward.ms",
        "nn.ParamStore.flush_tape_grads.ms",
        "nn.adam_step.ms",
        "priors.d_train_step.ms",
        "autodiff.Tape.record.calls",
    ]

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.batch_scenes = 0
        self.adv_scenes = 0
        self.observers = {
            "estimator.Estimator.encode_graph": self._count_batch,
            "priors.g_adv_loss_graph": self._count_adv,
        }

    def _count_batch(self, args, kwargs, result):
        self.batch_scenes += args[2].shape[0]

    def _count_adv(self, args, kwargs, result):
        self.adv_scenes += len(args[2])

    def setup(self):
        root, info = self.fixture("dataset")
        _, self.scenes = synth_io.load_dataset(root / info["train"])
        warm = est_mod.TrainConfig(
            **dict(TRAIN_CONFIG, epochs=WARMUP_TRAIN_EPOCHS), seed=derive(self.seed, "train-warmup")
        )
        est_mod.train_estimator(self.scenes, warm, self.next_dir("warmup"))

    def inputs(self, i):
        config = est_mod.TrainConfig(**TRAIN_CONFIG, seed=derive(self.seed, "train", i))
        return config, self.next_dir(f"unit{i}")

    def run(self, inp):
        config, out = inp
        return est_mod.train_estimator(self.scenes, config, out)

    def check(self, inp, ckpt):
        config, out = inp
        log = (out / config.loss_log).read_bytes()
        rows = list(csv.DictReader(log.decode("utf-8").splitlines()))
        require(len(rows) == config.epochs, "one loss row per epoch")
        values = [float(r[c]) for r in rows for c in est_mod.LOG_COLUMNS[1:]]
        require(all(math.isfinite(v) for v in values), "non-finite logged loss")
        stores, _ = nn.load_checkpoint(ckpt)
        require(set(stores) == {"estimator", "discriminator", "diffuser"}, "checkpoint stores")
        h = hashlib.sha256(Path(ckpt).read_bytes())
        h.update(log)
        shutil.rmtree(out)
        return Done(config.epochs * len(self.scenes), "", h.hexdigest(), {"loss_pose_last": float(rows[-1]["L_pose"])})

    def layer_metrics(self, tracer, dones):
        forward = sum(tracer.ms(name) for name in FORWARD_GRAPHS)
        return {
            "train.backward_to_forward": tracer.ms("autodiff.Tape.backward") / forward,
            "train.adv_scene_ratio": self.adv_scenes / self.batch_scenes,
            "train.loss_pose_last": dones[0].extras.get("loss_pose_last", 0.0),
        }


# ---------------------------------------------------------------------------
# eval and refine: held-out scenes through a fixed checkpoint
# ---------------------------------------------------------------------------

class HeldOut(Workload):
    """Loads the model fixture; unit i takes held-out scene i mod H under a
    fresh seeded point-order permutation, so no input repeats."""

    def setup(self):
        root, info = self.fixture("model")
        self.est, self.meta, self.stores = est_mod.load_estimator(root / info["checkpoint"])
        self.held = []
        for held_dir, scene_id in info["held"]:
            manifest = synth_io.load_manifest(root / held_dir)
            entry = next(e for e in manifest["scenes"] if e["id"] == scene_id)
            self.held.append(synth_io.load_scene(root / held_dir, manifest, entry))
        self.notes = {"held_scenes": len(self.held), "held_candidates": info["held_candidates"]}
        self.disc = priors_mod.Discriminator(self.meta["part_count"], self.stores["discriminator"])
        self.diffuser = priors_mod.ContactDiffuser(
            self.est.spec.feature_dim,
            self.stores["diffuser"],
            priors_mod.NoiseSchedule.linear(self.meta["diffusion_steps"]),
        )
        for j in range(self.warmup_units):
            self.run(self.permuted(j, "warmup"))

    def permuted(self, i, tag):
        rec = self.held[i % len(self.held)]
        perm = np.random.default_rng(derive(self.seed, tag, i)).permutation(len(rec.cloud))
        return {
            "rec": rec,
            "cloud": rec.cloud[perm],
            "contact": rec.contact[perm],
            "sampler_seed": derive(self.seed, tag, "sampler", i),
        }

    def inputs(self, i):
        return self.permuted(i, self.name)


class Eval(HeldOut):
    """head_output -> assemble_pose -> eval_object, the `eval` CLI path."""

    name = "eval"
    trace_units = 60
    warmup_units = 5
    required = [
        "estimator.Estimator.encode.ms",
        "estimator.Estimator.predict.ms",
        "estimator.assemble_pose.ms",
        "metrics.eval_object.ms",
        "geometry.box_iou.ms",
        "geometry.box_iou.calls",
    ]

    def run(self, inp):
        rec = inp["rec"]
        out = self.est.head_output(inp["cloud"])
        ests = est_mod.assemble_pose(inp["cloud"], out, rec.canonical_boxes)
        pred = metrics_mod.ScenePrediction(
            scene_id=rec.scene_id,
            poses=[e.pose if e.valid else None for e in ests],
            boxes=[e.box if e.valid else None for e in ests],
        )
        return ests, metrics_mod.eval_object([pred], [rec])

    def check(self, inp, out):
        ests, report = out
        rec = inp["rec"]
        require(len(ests) == rec.part_count, "one estimate per part")
        require(report.scene_count == 1, "report scene count")
        require(0.0 <= report.miou <= 100.0 and 0.0 <= report.acc_5deg5cm <= 100.0, "metric range")
        arrays = []
        for e in ests:
            if e.valid:
                require(np.isfinite(e.box.vertices).all(), "non-finite box")
                arrays += [e.pose.R, e.pose.t, np.array(e.pose.s), e.box.vertices]
        h = digest_arrays(*arrays, np.array([report.acc_5deg5cm, report.miou]))
        valid = sum(e.valid for e in ests)
        return Done(1, "", h, {"valid": valid, "parts": len(ests), "acc": report.acc_5deg5cm, "miou": report.miou})

    def final_check(self):
        preds = [
            metrics_mod.ScenePrediction(rec.scene_id, list(rec.part_poses), list(rec.posed_boxes)) for rec in self.held
        ]
        report = metrics_mod.eval_object(preds, self.held)
        require(report.acc_5deg5cm == 100.0, f"ground truth scores {report.acc_5deg5cm}% 5deg5cm")
        require(report.miou >= 99.0, f"ground truth scores mIoU {report.miou}%")

    def layer_metrics(self, tracer, dones):
        dones = [d for d in dones if not d.failure]
        if not dones:
            return {}
        return {
            "eval.valid_part_ratio": sum(d.extras["valid"] for d in dones) / sum(d.extras["parts"] for d in dones),
            "eval.acc_5deg5cm_pct": float(np.mean([d.extras["acc"] for d in dones])),
            "eval.miou_pct": float(np.mean([d.extras["miou"] for d in dones])),
        }


class Refine(HeldOut):
    """sample_contact_map (K = 5, T from the checkpoint) then adapt_object
    (10 steps, heads only), the contact prior and TTA paths."""

    name = "refine"
    trace_units = 3
    warmup_units = 1
    required = [
        "priors.sample_contact_map.ms",
        "tta.adapt_object.ms",
        "estimator.Estimator.encode_graph.ms",
        "estimator.Estimator.heads_graph.ms",
        "estimator.assemble_graph.ms",
        "priors.Discriminator.score_graph.ms",
        "autodiff.Tape.backward.ms",
        "nn.adam_step.ms",
        "priors.ContactDiffuser.denoise_value.calls",
    ]

    def run(self, inp):
        rec = inp["rec"]
        enc = self.est.encode(self.est.prepare_input(inp["cloud"]))
        contact, confidence = priors_mod.sample_contact_map(
            self.diffuser, enc.z, generations=GENERATIONS, seed=inp["sampler_seed"]
        )
        result = tta_mod.adapt_object(self.est, self.disc, inp["cloud"], rec.canonical_boxes, TTA)
        return contact, confidence, result

    def check(self, inp, out):
        contact, confidence, result = out
        n = len(inp["cloud"])
        require(contact.shape == (n,) and confidence.shape == (n,), "contact map shape")
        require(np.isfinite(confidence).all(), "non-finite contact confidence")
        require(len(result.after) == inp["rec"].part_count, "one estimate per part")
        arrays = [contact, confidence, np.array(result.trace)]
        for e in result.after:
            if e.valid:
                arrays += [e.pose.R, e.pose.t, np.array(e.pose.s)]
        pred, gt = contact.astype(bool), inp["contact"].astype(bool)
        union = int((pred | gt).sum())
        iou = float((pred & gt).sum()) / union if union else 1.0
        done = not result.aborted
        reduced = done and len(result.trace) >= 2 and result.trace[-1] < result.trace[0]
        return Done(
            int(done),
            result.aborted,
            digest_arrays(*arrays),
            {"completed": done, "reduced": reduced, "contact_iou": iou},
        )

    def layer_metrics(self, tracer, dones):
        completed = [d for d in dones if d.extras.get("completed")]
        return {
            "tta.completed_ratio": len(completed) / len(dones),
            "tta.adv_reduced_ratio": sum(d.extras["reduced"] for d in completed) / max(1, len(completed)),
            "refine.contact_iou_pct": 100.0 * float(np.mean([d.extras.get("contact_iou", 0.0) for d in dones])),
        }


WORKLOADS = {w.name: w for w in (Synth, Train, Eval, Refine)}
