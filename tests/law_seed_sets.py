"""The n = 4 law gate's statistics over disjoint seed sets.

Set k builds target i of a mode from seeds k * 10**6 + 100 * i + (0..99);
set 0 is the one `test_realization_law.py` runs.  Over sets 1..SETS this
records, per mode, the mean, 90th percentile, median and maximum of the
per-target bias, their means and standard deviations over the sets, and
the bounds mean + MARGIN standard deviations that the test pins.

The false-alarm rate is the chance that a new seed set of the same law
breaks a bound.  Under a normal law of each statistic it follows from
MARGIN alone.  The 90th percentile moves in steps, though, since a bias
at 100 seeds takes few values, so the rate is also estimated by
resampling: each synthetic set takes every target's bias from a random
one of the measured sets.

Everything goes to BENCH_realization_law.json.  A set takes 5-8 s per
mode on one core, so the run takes about 10 minutes.

    PYTHONPATH=src python tests/law_seed_sets.py
"""
from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from scipy import stats

from d2k import MODE_DEGREE, MODE_PAIR
from test_realization_law import SEEDS, target_biases

MARGIN = 4
SETS = 40
SET_STRIDE = 10 ** 6
RESAMPLED_SETS = 100_000
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_realization_law.json"


def statistics(biases: np.ndarray) -> dict[str, np.ndarray]:
    """Each statistic of the last axis of biases (one row per set)."""
    return {"mean": biases.mean(axis=-1),
            "p90": np.percentile(biases, 90, axis=-1),
            "median": np.median(biases, axis=-1),
            "max": biases.max(axis=-1)}


def resampled_alarms(biases: np.ndarray, bounds: dict[str, float]) -> dict:
    """The share of RESAMPLED_SETS synthetic sets that break each bound,
    and either; a synthetic set takes each target's bias from a random
    row of biases."""
    rng = np.random.default_rng(0)
    targets = np.arange(biases.shape[1])
    broken = dict.fromkeys([*bounds, "either"], 0)
    for _ in range(RESAMPLED_SETS // 1000):
        rows = rng.integers(len(biases), size=(1000, biases.shape[1]))
        values = statistics(biases[rows, targets])
        over = {name: values[name] > bound for name, bound in bounds.items()}
        for name, hit in over.items():
            broken[name] += int(hit.sum())
        broken["either"] += int(np.logical_or(*over.values()).sum())
    return {name: count / RESAMPLED_SETS for name, count in broken.items()}


def mode_record(mode: str) -> dict:
    started = time.perf_counter()
    biases = np.array([target_biases(mode, k * SET_STRIDE)
                       for k in range(SETS + 1)])
    per_set = statistics(biases[1:])
    row = {"tier1_set_0": {name: round(float(v), 6) for name, v in
                           statistics(biases[0]).items()},
           "over_sets": {}, "bounds": {}}
    for name, values in per_set.items():
        row["over_sets"][name] = {
            "mean": round(float(values.mean()), 6),
            "sd": round(float(values.std(ddof=1)), 6),
            "min": round(float(values.min()), 6),
            "max": round(float(values.max()), 6)}
        if name in ("mean", "p90"):
            bound = values.mean() + MARGIN * values.std(ddof=1)
            row["bounds"][name] = math.ceil(bound * 1e4) / 1e4
    row["resampled_false_alarm_rate"] = resampled_alarms(biases[1:],
                                                         row["bounds"])
    row["sets"] = {k + 1: {name: round(float(v[k]), 6)
                           for name, v in per_set.items()}
                   for k in range(SETS)}
    row["seconds"] = round(time.perf_counter() - started, 1)
    return row


def main() -> int:
    # a new set's statistic less the mean of SETS sets, over their standard
    # deviation, is t-distributed with SETS - 1 degrees of freedom, scaled
    # by sqrt(1 + 1/SETS)
    per_bound = {
        "normal": float(stats.norm.sf(MARGIN)),
        "t_prediction": float(stats.t.sf(MARGIN / math.sqrt(1 + 1 / SETS),
                                         SETS - 1))}
    record = {
        "statistic": "per target, TV of the seed histogram from uniform less "
                     "the expected TV of as many independent uniform draws; "
                     "each target runs from seeds of its own",
        "seed_sets": f"set k builds target i from seeds k * {SET_STRIDE} + "
                     f"{SEEDS} * i + (0..{SEEDS - 1}); the bounds use sets "
                     f"1..{SETS}, and tier-1 runs set 0",
        "margin_sd": MARGIN,
        "normal_false_alarm_rate": {
            "per_bound": per_bound,
            "any_of_four_bounds_at_most": {
                name: round(4 * p, 7) for name, p in per_bound.items()}},
        "provenance": {
            "date": time.strftime("%Y-%m-%d"),
            "git": subprocess.run(
                ["git", "describe", "--always", "--dirty"],
                capture_output=True, text=True).stdout.strip(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "cores": os.cpu_count(),
            "machine": platform.machine()},
        "modes": {}}
    for mode in (MODE_DEGREE, MODE_PAIR):
        row = record["modes"][mode] = mode_record(mode)
        print(f"{mode}: bounds {row['bounds']}, set 0 {row['tier1_set_0']}, "
              f"resampled {row['resampled_false_alarm_rate']}, "
              f"{row['seconds']} s", file=sys.stderr)
    with open(OUTPUT, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
