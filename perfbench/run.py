"""Benchmark of the artipose pipeline: synth, train, eval and refine.

Run from the repository root:

    python3 perfbench/run.py --workload {synth,train,eval,refine,all} \
        --seed N --seconds S --trace {0,1}

The package is imported from src/ and timed from outside through its public
functions. Set-up (fixtures built in a child process, then a fixed warm-up)
is repeated SETUP_REPS times and its median reported as setup_s.

--trace 0 measures units for S seconds and reports the end-to-end metrics.
--trace 1 runs the workload's fixed number of trace units twice, first
untraced and then with spans around the public functions, checks that both
passes produced the same per-unit output digests and that every layer the
workload names recorded a call, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the environment.
--workload all runs the four workloads one after another, each in its own
process, prints every metric by name with its unit, and ends with the same
kind of JSON line, its metrics named workload/metric.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1  # fixed, so results do not follow the host's core count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 3
WORKLOAD_NAMES = ["synth", "train", "eval", "refine"]

END_TO_END = {
    "setup_s": "s",
    "scenes_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Public functions wrapped by the traced run (module path below the package).
TIMED = [
    "synth.io.generate_dataset",
    "synth.io.save_scene",
    "synth.instances.make_instance",
    "synth.scene.sample_scene",
    "synth.hand.pose_hand_grasp",
    "synth.hand.fk_vars",
    "synth.render.render_partial_cloud",
    "synth.render.furthest_point_sample",
    "geometry.compute_contact_map",
    "geometry.box_iou",
    "estimator.Estimator.encode",
    "estimator.Estimator.predict",
    "estimator.Estimator.encode_graph",
    "estimator.Estimator.heads_graph",
    "estimator.pose_loss_graph",
    "estimator.assemble_graph",
    "estimator.assemble_pose",
    "metrics.eval_object",
    "priors.Discriminator.score_graph",
    "priors.g_adv_loss_graph",
    "priors.d_loss_graph",
    "priors.d_train_step",
    "priors.diff_loss_graph",
    "priors.sample_contact_map",
    "priors.ContactDiffuser.denoise_value",
    "tta.adapt_object",
    "autodiff.Tape.backward",
    "nn.ParamStore.flush_tape_grads",
    "nn.adam_step",
]
COUNTED = ["autodiff.Tape.record"]  # thousands of calls per unit: no clock

# name -> unit; values are per unit. `.ms` inclusive time, `.self_ms` time
# minus wrapped calls made under it, `.calls` call count.
PER_LAYER = {
    "synth.io.generate_dataset.ms": "ms",
    "synth.instances.make_instance.ms": "ms",
    "synth.hand.pose_hand_grasp.ms": "ms",
    "synth.hand.fk_vars.ms": "ms",
    "synth.render.render_partial_cloud.self_ms": "ms",
    "synth.render.furthest_point_sample.ms": "ms",
    "geometry.compute_contact_map.ms": "ms",
    "synth.io.save_scene.ms": "ms",
    "synth.hand.fk_vars.calls": "count",
    "synth.scene.sample_scene.calls": "count",
    "synth.accept_ratio": "ratio",
    "estimator.Estimator.encode_graph.ms": "ms",
    "estimator.Estimator.heads_graph.ms": "ms",
    "estimator.pose_loss_graph.ms": "ms",
    "estimator.assemble_graph.ms": "ms",
    "priors.g_adv_loss_graph.ms": "ms",
    "priors.diff_loss_graph.ms": "ms",
    "autodiff.Tape.backward.ms": "ms",
    "nn.ParamStore.flush_tape_grads.ms": "ms",
    "nn.adam_step.ms": "ms",
    "priors.d_train_step.ms": "ms",
    "autodiff.Tape.record.calls": "count",
    "train.backward_to_forward": "ratio",
    "train.adv_scene_ratio": "ratio",
    "train.loss_pose_last": "loss",
    "estimator.Estimator.encode.ms": "ms",
    "estimator.Estimator.predict.ms": "ms",
    "estimator.assemble_pose.ms": "ms",
    "metrics.eval_object.ms": "ms",
    "geometry.box_iou.ms": "ms",
    "geometry.box_iou.calls": "count",
    "eval.valid_part_ratio": "ratio",
    "eval.acc_5deg5cm_pct": "%",
    "eval.miou_pct": "%",
    "priors.sample_contact_map.ms": "ms",
    "tta.adapt_object.ms": "ms",
    "priors.Discriminator.score_graph.ms": "ms",
    "priors.ContactDiffuser.denoise_value.calls": "count",
    "tta.completed_ratio": "ratio",
    "tta.adv_reduced_ratio": "ratio",
    "refine.contact_iou_pct": "%",
    "trace.overhead_pct": "%",
}

SUFFIXES = {".ms": "ms", ".self_ms": "self_ms", ".calls": "calls"}


class Incomplete(Exception):
    """A layer the workload names recorded no call in the traced run."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def split_layer(name):
    for suffix, kind in SUFFIXES.items():
        if name.endswith(suffix):
            return name[: -len(suffix)], kind
    return None, None


def run_units(wl, indices, stop_after=None):
    """Run units in order; returns (seconds per unit, Done per unit, problems).

    With stop_after, no unit starts once that many seconds have passed and
    the units done fill whole blocks of wl.unit_block.
    """
    from workloads import CheckFailed, Done

    from artipose.errors import ArtiposeError

    times, dones, problems = [], [], []
    start = time.perf_counter()
    for i in indices:
        if stop_after is not None and i % wl.unit_block == 0 and times:
            if time.perf_counter() - start >= stop_after:
                break
        inp = wl.inputs(i)
        if inp is None:
            break
        gc.collect()  # between units, outside the timed region
        t0 = time.perf_counter()
        try:
            out = wl.run(inp)
        except ArtiposeError as err:
            times.append(time.perf_counter() - t0)
            dones.append(Done(0, f"{type(err).__name__}: {err}", ""))
            continue
        times.append(time.perf_counter() - t0)
        try:
            dones.append(wl.check(inp, out))
        except CheckFailed as err:
            problems.append(f"unit {i}: {err}")
            break
    return times, dones, problems


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def measure(wl, seconds):
    times, dones, problems = run_units(wl, range(10**9), stop_after=seconds)
    metrics = {
        "scenes_per_s": sum(d.scenes for d in dones) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # Unit-time percentiles are recorded, not gated: on a noisy host the
    # median of many short units snaps between the host's fast and slow
    # states, so it spreads more from run to run than scenes_per_s.
    info = {
        "units": len(times),
        "unit_ms_p50": 1000.0 * statistics.median(times),
        "unit_ms_p90": 1000.0 * percentile(times, 90),
        "digests": [d.digest[:12] for d in dones[:8]],
    }
    return times, dones, problems, metrics, info


def traced(wl):
    from tracer import Tracer

    k = range(wl.trace_units)
    times_a, dones_a, problems = run_units(wl, k)
    tracer = Tracer(TIMED, COUNTED, wl.observers)
    with tracer:
        times_b, dones_b, problems_b = run_units(wl, k)
    problems += problems_b
    if [d.digest for d in dones_a] != [d.digest for d in dones_b]:
        problems.append("traced outputs differ from untraced outputs")
    missing = [name for name in wl.required if tracer.calls(split_layer(name)[0]) == 0]
    if missing:
        raise Incomplete(f"{wl.name}: no calls recorded for {', '.join(missing)}")
    n = len(times_b)
    metrics = {}
    derived = wl.layer_metrics(tracer, dones_b) if n and not problems else {}
    for name in PER_LAYER:
        base, kind = split_layer(name)
        if base is not None:
            value = getattr(tracer, kind)(base) / n
        else:
            value = derived.get(name, 0.0)
        metrics[name] = value
    metrics["trace.overhead_pct"] = 100.0 * (sum(times_b) / sum(times_a) - 1.0)
    info = {"units": n, "digests": [d.digest[:12] for d in dones_b[:8]]}
    return times_a + times_b, dones_a + dones_b, problems, metrics, info


def environment(args):
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_all(args) -> int:
    import subprocess

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode:
            sys.stderr.write(out.stderr)
            return out.returncode
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        print(lines[-2])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            print(f"{name}/{metric} = {value['value']:.6g} {value['unit']}")
            total["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "artipose" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t_import = time.perf_counter()
    from workloads import WORKLOADS, CheckFailed

    import_s = time.perf_counter() - t_import

    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        setup_times = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
            gc.collect()
        if args.trace:
            times, dones, problems, metrics, info = traced(wl)
        else:
            times, dones, problems, metrics, info = measure(wl, args.seconds)
        try:
            wl.final_check()
        except CheckFailed as err:
            problems.append(f"final check: {err}")
    except Incomplete as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass

    failures = [d.failure for d in dones if d.failure]
    if args.trace:
        units = PER_LAYER
    else:
        metrics["setup_s"] = statistics.median(setup_times)
        units = END_TO_END
    record = dict(environment(args), import_s=import_s, setup_s_samples=setup_times, problems=problems,
                  failures=failures[:5], **info, **wl.notes)
    print(json.dumps({"info": record}))
    result = {
        "correct": not problems,
        "attempted": len(times),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
