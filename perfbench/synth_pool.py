"""Rebuild synth_pool.json, the dataset seeds of the synth workload.

    python3 perfbench/synth_pool.py

For each category it runs generate_dataset(count=SCENES_PER_UNIT) for the
dataset seeds 0..SCAN-1 and counts the scene draws each call needs
(rejected draws included). It keeps the seeds whose count equals the
category's median and whose call time (best of two) lies within
TIME_BAND of the median time of those seeds. A synth run then does about
the same work per category cycle whatever the benchmark seed, which a
random choice of seeds would not: draws per unit range from 2 to 21, and
at equal draws the unit times of a category still range over 30-50%.
Takes about fifteen minutes on one core.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from artipose.synth import CATEGORIES  # noqa: E402
from artipose.synth import io as synth_io  # noqa: E402
from tracer import Tracer  # noqa: E402

SCENES_PER_UNIT = 2
SCAN = 90
TIME_BAND = 0.10


def generate(work, category, seed):
    """(draws, seconds) of one synth unit."""
    tracer = Tracer([], counted=["synth.scene.sample_scene"])
    with tracer:
        t0 = time.perf_counter()
        synth_io.generate_dataset(work, category, SCENES_PER_UNIT, seed=seed)
        elapsed = time.perf_counter() - t0
    shutil.rmtree(work)
    return tracer.calls("synth.scene.sample_scene"), elapsed


def format_pool(pool) -> str:
    """JSON with one line per category."""
    head = {k: v for k, v in pool.items() if k != "categories"}
    lines = [json.dumps(head)[:-1] + ', "categories": {']
    rows = [f"  {json.dumps(c)}: {json.dumps(v)}" for c, v in pool["categories"].items()]
    return "\n".join(lines + [",\n".join(rows), "}}"]) + "\n"


def main() -> int:
    work = HERE.parent / ".bench_work" / "synth_pool"
    pool = {"scenes_per_unit": SCENES_PER_UNIT, "scan": SCAN, "time_band": TIME_BAND, "categories": {}}
    try:
        for category in CATEGORIES:
            runs = {seed: generate(work, category, seed) for seed in range(SCAN)}
            median = sorted(d for d, _ in runs.values())[SCAN // 2]
            times = {
                seed: min(t, generate(work, category, seed)[1])
                for seed, (d, t) in runs.items()
                if d == median
            }
            mid = statistics.median(times.values())
            seeds = [seed for seed, t in times.items() if abs(t / mid - 1.0) <= TIME_BAND]
            pool["categories"][category] = {"draws": median, "seeds": seeds}
            print(category, "median draws", median, "median s", round(mid, 3), "seeds kept", len(seeds), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "synth_pool.json").write_text(format_pool(pool), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
