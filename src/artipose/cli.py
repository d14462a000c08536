"""Command-line interface.

Subcommands: synth, train, eval, tta, hand-opt, gradcheck, version.
Exit status: 0 success, 1 usage error, 2 runtime failure. All randomness is
driven by --seed (or the seed inside a config file); gradcheck's suites have
fixed seeds.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from . import estimator as est_mod
from . import gradcheck as gradcheck_mod
from . import metrics as metrics_mod
from . import priors as priors_mod
from . import tta as tta_mod
from .errors import ArtiposeError, UsageError
from .synth import CATEGORIES, generate_dataset, load_dataset, load_manifest
from .synth.io import DEFAULT_N_POINTS, MIN_N_POINTS


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _bounded(name: str, cast, rule: str, ok):
    """An argparse type `name`: `cast` of the text, which must pass `ok`."""

    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    parse.__name__ = name  # argparse's "invalid <name> value" message
    return parse


# counts, limits and seeds; iterations and draws; cloud sizes; learning
# rates (NaN is not > 0); distances
non_negative_int = _bounded("non_negative_int", int, ">= 0", lambda v: v >= 0)
positive_int = _bounded("positive_int", int, ">= 1", lambda v: v >= 1)
cloud_size = _bounded("cloud_size", int, f">= {MIN_N_POINTS}", lambda v: v >= MIN_N_POINTS)
positive_float = _bounded("positive_float", float, "> 0", lambda v: v > 0)
non_negative_float = _bounded("non_negative_float", float, "finite and >= 0", lambda v: math.isfinite(v) and v >= 0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="artipose", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.set_defaults(run=cmd_synth)
    p.add_argument("--category", required=True, choices=CATEGORIES)
    p.add_argument("--count", type=non_negative_int, required=True)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--points", type=cloud_size, default=DEFAULT_N_POINTS)

    p = sub.add_parser("train", help="train estimator (+ priors) from a JSON config")
    p.set_defaults(run=cmd_train)
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="train_out")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.set_defaults(run=cmd_eval)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", default="report.csv")
    p.add_argument("--limit", type=non_negative_int, default=None)

    p = sub.add_parser("tta", help="test-time adaptation report (before/after)")
    p.set_defaults(run=cmd_tta)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", default="tta_report.csv")
    p.add_argument("--steps", type=non_negative_int, default=tta_mod.TtaConfig.steps)
    p.add_argument("--lr", type=positive_float, default=tta_mod.TtaConfig.lr)
    p.add_argument("--limit", type=non_negative_int, default=None)

    p = sub.add_parser("hand-opt", help="contact-guided hand optimization report")
    p.set_defaults(run=cmd_hand_opt)
    p.add_argument("--checkpoint", default=None, help="checkpoint with encoder+diffuser (omit with --gt-contact)")
    p.add_argument("--dataset", required=True)
    p.add_argument("--perturb", type=non_negative_float, default=0.10, help="initial root displacement (m)")
    p.add_argument("--gt-contact", action="store_true", help="use ground-truth contact maps")
    p.add_argument("--generations", type=positive_int, default=priors_mod.DEFAULT_GENERATIONS)
    p.add_argument("--iters", type=positive_int, default=tta_mod.HandOptConfig.iters)
    p.add_argument("--lr", type=positive_float, default=tta_mod.HandOptConfig.lr)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--out", default="hand_report.csv")
    p.add_argument("--limit", type=non_negative_int, default=None)

    p = sub.add_parser("gradcheck", help="run all finite-difference suites")
    p.set_defaults(run=cmd_gradcheck)

    sub.add_parser("version", help="print version").set_defaults(run=cmd_version)
    return parser


def cmd_synth(args) -> int:
    generate_dataset(
        args.out,
        args.category,
        args.count,
        seed=args.seed,
        n_points=args.points,
    )
    print(f"wrote {args.count} {args.category} scenes to {args.out}")
    return 0


def cmd_train(args) -> int:
    config = est_mod.TrainConfig.from_json(args.config)
    _, scenes = load_dataset(config.dataset)
    ckpt = est_mod.train_estimator(scenes, config, args.out)
    print(f"checkpoint: {ckpt}")
    print(f"loss log:   {Path(args.out) / config.loss_log}")
    return 0


def _load_models(args) -> est_mod.Models:
    """--checkpoint's networks. A UsageError naming both categories, before
    any scene is read, when they were trained on another category than
    --dataset's manifest names: categories of one part count pass every
    shape check."""
    models, meta = est_mod.Models.load(args.checkpoint)
    category = load_manifest(args.dataset)["category"]
    if meta.get("category") != category:
        raise UsageError(
            f"checkpoint {args.checkpoint} was trained on category {meta.get('category')!r}, "
            f"dataset {args.dataset} is {category!r}"
        )
    return models


def cmd_eval(args) -> int:
    """Metric rows as CSV to --out, the summary to --out with suffix .json."""
    summary = Path(args.out).with_suffix(".json")
    if summary == Path(args.out):
        raise UsageError(f"--out {args.out} is where the JSON summary goes; name the CSV report otherwise")
    est = _load_models(args).est
    _, scenes = load_dataset(args.dataset, limit=args.limit)
    preds = []
    for rec in scenes:
        ests = est_mod.assemble_pose(rec.cloud, est.head_output(rec.cloud), rec.canonical_boxes)
        preds.append(metrics_mod.ScenePrediction(rec.scene_id, [e.pose for e in ests], [e.box for e in ests]))
    report = metrics_mod.eval_object(preds, scenes)
    metrics_mod.write_rows(
        args.out, ["metric", "value"], [{"metric": k, "value": v} for k, v in report.rows()]
    )
    metrics_mod.write_summary_json(summary, report, extra={"checkpoint": str(args.checkpoint)})
    for name, value in report.rows():
        print(f"{name}: {value}")
    return 0


TTA_FIELDS = [
    "scene", "part", "r_err_before", "t_err_before", "iou_before",
    "r_err_after", "t_err_after", "iou_after", "aborted", "l_adv_trace",
]


def cmd_tta(args) -> int:
    """One row per part: errors before and after adaptation, the scene's
    abort reason, and on its last row the scene's adversarial trace. An
    aborted scene's `after` repeats `before`, its first estimate, where a
    part without a fit reads NaN. "adapted" counts the scenes that did not
    abort; "reduced" those of them whose last loss is below the first."""
    models = _load_models(args)
    if models.disc is None:
        raise UsageError("checkpoint has no discriminator group; train with lambda_adv > 0")
    _, scenes = load_dataset(args.dataset, limit=args.limit)
    cfg = tta_mod.TtaConfig(steps=args.steps, lr=args.lr)

    rows = []
    adapted = improved = 0
    for rec in scenes:
        result = tta_mod.adapt_object(models.est, models.disc, rec.cloud, rec.canonical_boxes, cfg)
        trace = result.trace
        if not result.aborted:
            adapted += 1
            if len(trace) >= 2 and trace[-1] < trace[0]:
                improved += 1
        for p in range(rec.part_count):
            row = {"scene": rec.scene_id, "part": p, "aborted": result.aborted}
            for tag, e in (("before", result.before[p]), ("after", result.after[p])):
                errors = metrics_mod.part_errors(e.pose, e.box, rec.part_poses[p], rec.posed_boxes[p])
                row.update(zip((f"r_err_{tag}", f"t_err_{tag}", f"iou_{tag}"), errors))
            rows.append(row)
        rows[-1]["l_adv_trace"] = ";".join(repr(v) for v in trace)
    metrics_mod.write_rows(args.out, TTA_FIELDS, rows)
    print(f"adapted {adapted} of {len(scenes)} scenes; adversarial loss reduced on {improved}")
    print(f"report: {args.out}")
    return 0


HAND_OPT_FIELDS = [
    "scene", "mpjpe_before", "mpjpe_after", "mpvpe_before", "mpvpe_after",
    "contacts", "contacts_gt", "contact_iou", "aborted", "l_cd_trace",
]


def cmd_hand_opt(args) -> int:
    if not args.gt_contact and args.checkpoint is None:
        raise UsageError("--checkpoint required unless --gt-contact is set")
    cfg = tta_mod.HandOptConfig(iters=args.iters, lr=args.lr)
    models = None
    if not args.gt_contact:
        models = _load_models(args)
        if models.diffuser is None:
            raise UsageError("checkpoint has no diffuser group; train with lambda_diff > 0")
    _, scenes = load_dataset(args.dataset, limit=args.limit)
    # Separate streams, so the initial hands do not depend on whether the
    # sampler draws seeds (--gt-contact or not).
    perturb_rng = np.random.default_rng([args.seed, 0])
    sampler_rng = np.random.default_rng([args.seed, 1])

    rows = []
    reduced = 0
    for rec in scenes:
        direction = perturb_rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        init = replace(rec.hand, root_position=rec.hand.root_position + args.perturb * direction)
        if args.gt_contact:
            contact = rec.contact.astype(bool)
        else:
            enc = models.est.encode(models.est.prepare_input(rec.cloud))
            contact, _ = priors_mod.sample_contact_map(
                models.diffuser, enc.z, generations=args.generations, seed=int(sampler_rng.integers(2**31))
            )
            contact = contact.astype(bool) & (rec.seg > 0)
        result = tta_mod.optimize_hand(init, contact, rec.cloud, cfg)
        mpjpe_before, mpvpe_before = metrics_mod.hand_errors(
            init.joints(), rec.hand_joints, init.surface(), rec.hand_surface
        )
        mpjpe_after, mpvpe_after = metrics_mod.hand_errors(
            result.hand.joints(), rec.hand_joints, result.hand.surface(), rec.hand_surface
        )
        if mpjpe_after < mpjpe_before:
            reduced += 1
        rows.append(
            {
                "scene": rec.scene_id,
                "mpjpe_before": mpjpe_before,
                "mpjpe_after": mpjpe_after,
                "mpvpe_before": mpvpe_before,
                "mpvpe_after": mpvpe_after,
                "contacts": int(contact.sum()),
                "contacts_gt": int(rec.contact.sum()),
                "contact_iou": metrics_mod.contact_iou(contact, rec.contact),
                "aborted": result.aborted,
                "l_cd_trace": ";".join(repr(v) for v in result.trace[:: max(1, len(result.trace) // 20)]),
            }
        )
    metrics_mod.write_rows(args.out, HAND_OPT_FIELDS, rows)
    frac = reduced / max(1, len(rows))
    aborted = sum(1 for row in rows if row["aborted"])
    print(f"MPJPE reduced on {reduced}/{len(rows)} scenes ({100*frac:.0f}%); aborted on {aborted}")
    print(f"report: {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    results = gradcheck_mod.run_all()
    for r in results:
        print(r.line())
    return 0 if all(r.passed for r in results) else 2


def cmd_version(args) -> int:
    print(__version__)
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except (ArtiposeError, ValueError, OSError, KeyError) as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
