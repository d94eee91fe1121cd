"""d2k benchmark: drives the CLI in-process on seeded synthetic workloads.

    python3 perfbench/run.py --workload regular-d2k --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

One client runs one CLI op at a time (a closed loop) with D2K_THREADS
unset, so the program uses one worker.  Each run synthesizes its input
edge list from --seed, then repeats rounds of one set-up (`d2k extract`;
on census-compare also one `d2k generate` per model) followed by one op
(`d2k generate --count 1` or `d2k compare`) for about --seconds, and at
least MIN_ROUNDS times.  Every output passes the gate in gate.py, untimed.

--trace 0 prints the end-to-end metrics, measured without tracing, in
reference seconds: each set-up and op is divided by the time of a fixed
numpy kernel timed right before and after it, and multiplied by REF_S.
The shared host's speed drifts by up to 1.8x within one run, and this
ratio cancels most of the drift (see README.md).
--trace 1 sets up once under the tracer, runs one untraced reference op,
then traces the op loop and prints the per-layer metrics (see README.md).
The last line of standard output is the result object; the line before
it, starting with "detail ", holds provenance, input and output hashes and
the samples behind each median.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gate
import inputs
from spans import Tracer, layer_value

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_ROUNDS = 3                 # set-up + op rounds of a --trace 0 run
REF_S = 0.01                   # nominal seconds of one reference_kernel()
REF_REPEAT = 3                 # kernel calls per reference reading
CENSUS_MODELS = ("d0k", "uman", "d1k", "d2k", "d2km")
METRIC_FUNCTIONS = {           # METRIC_NAMES entry -> function structural_suite calls
    "degrees": "degree_histogram",
    "neighbor_degrees": "avg_neighbor_degree",
    "degree_correlation": "extract_d2k",
    "dyad_census": "dyad_census",
    "triad_census": "triad_census",
    "paths": "shortest_path_histogram",
    "scc": "scc_size_histogram",
    "kcore": "core_number_histogram",
    "betweenness": "betweenness_values",
    "eigenvalues": "top_eigenvalues",
    "dsp": "dsp",
    "expansion": "expansion",
}
QUALITY_METRICS = ("dsp", "triad_census", "dyad_census")


@dataclass(frozen=True)
class Workload:
    name: str
    model: str | None            # model of the generate op; None: compare
    make: Callable               # (*size, seed) -> raw input pairs
    sizes: dict                  # size name -> arguments of make before the seed
    dsp_guard: bool = False      # shared-out-partner guard on op 0's output


# "bench" is what BENCHMARK.json runs; "toy" is for the smoke test.
WORKLOADS = {w.name: w for w in (
    Workload("regular-d2k", "d2k", inputs.permutation_union,
             {"bench": (5_000, 10), "toy": (300, 4)},
             dsp_guard=True),
    Workload("d1k-swaps", "d1k", inputs.chung_lu,
             {"bench": (3_000, 15_600, 2.3),
              "toy": (400, 1_500, 2.3)}),
    Workload("census-compare", None, inputs.chung_lu,
             {"bench": (2_500, 5_000, 2.5),
              "toy": (150, 600, 2.5)}),
)}

END_TO_END = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "cli.op_s": "s", "cli.op_self_s": "s", "cli.op_untraced_s": "s",
    "cli.trace_overhead": "ratio",
    "files.read_edge_list_s": "s", "files.save_targets_s": "s",
    "files.load_targets_s": "s", "files.load_targets_calls": "count",
    "files.write_edge_list_s": "s", "files.build_compare_report_s": "s",
    "files.target_json_mb": "MiB",
    "targets.extract_s": "s", "targets.cells": "count",
    "targets.jdam_entries": "count",
    "realizability.check_s": "s", "realizability.check_calls": "count",
    "construct.init_s": "s", "construct.run_s": "s",
    "construct.switches_per_edge": "ratio",
    "graph.audit_s": "s",
    "baselines.gen_d1k_s": "s", "baselines.d1k_greedy_s": "s",
    "baselines.d1k_swap_attempts_per_s": "1/s",
    "baselines.d1k_edges_moved_share": "ratio",
    "baselines.gen_d0k_s": "s", "baselines.gen_uman_s": "s",
    **{f"metrics.{name}_s": "s" for name in METRIC_FUNCTIONS},
    **{f"quality.{model}_{name}_distance": "ratio"
       for model in ("d2k", "d2km") for name in QUALITY_METRICS},
    "quality.max_shared_out": "count", "quality.pairs_shared_out_ge2": "count",
}
# Layer functions timed by the tracer; each gives the per-layer metric <span>_s.
LAYER_SPANS = (
    "files.read_edge_list", "files.save_targets", "files.load_targets",
    "files.write_edge_list", "files.build_compare_report", "targets.extract",
    "realizability.check", "construct.init", "construct.run", "graph.audit",
    "baselines.gen_d1k", "baselines.gen_d0k", "baselines.gen_uman",
    *(f"metrics.{name}" for name in METRIC_FUNCTIONS),
)


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def provenance(seed: int) -> dict:
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "d2k").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "workload_seed": seed,
    }


REF_DATA = np.random.default_rng(0).integers(0, 1 << 30, 50_000)


def reference_kernel() -> int:
    """Fixed work, independent of the program under test: np.unique of
    50k random integers (about 10 ms).  Of the kernels tried (dict
    updates, random reads from a large list, adjacency-list walks), its
    time tracked the ops' wall time most closely (README.md)."""
    return int(np.unique(REF_DATA).size)


def reference_seconds() -> float:
    """The fastest of REF_REPEAT kernel calls: the host's current speed."""
    best = float("inf")
    for _ in range(REF_REPEAT):
        t0 = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def tail(samples: list[float]) -> dict | None:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    q = int(100 * (n - 10) / n)
    value = float(np.percentile(samples, q))
    return {"percentile": q, "value": value}


class Run:
    """One benchmark process: a workload, a seed and a scratch directory."""

    def __init__(self, wl: Workload, seed: int, seconds: float, size: str,
                 work: Path):
        from d2k import cli
        self.cli_main = cli.main
        self.wl = wl
        self.seconds = seconds
        self.work = work
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.hashes: dict[str, str] = {}
        self.input = work / "input.txt"
        raw = wl.make(*wl.sizes[size], seed)
        inputs.write_pairs(raw, self.input)
        self.hashes["input.txt"] = sha256(self.input)
        self.clean = gate.clean_pairs(raw)

    # -- one CLI op ---------------------------------------------------------

    def op(self, argv: list[str], check: Callable[[], str | None]) -> float:
        """Run `d2k <argv>` in-process; return its wall time, gate untimed."""
        self.attempted += 1
        buf = io.StringIO()
        cm = self.tracer.span("cli.main") if self.tracer else contextlib.nullcontext()
        reason = None
        t0 = time.perf_counter()
        try:
            with cm, contextlib.redirect_stdout(buf):
                rc = self.cli_main(argv)
        except Exception:
            rc = None
            reason = traceback.format_exc(limit=3).strip().splitlines()[-1]
        seconds = time.perf_counter() - t0
        if reason is None and rc != 0:
            reason = f"exit code {rc}"
        if reason is None:
            try:
                reason = check()
            except Exception as exc:
                reason = f"gate raised {exc!r}"
        if reason is not None:
            self.failed += 1
            self.failures.append(f"{argv[0]}: {reason}")
            print(f"FAILED d2k {' '.join(map(str, argv))}: {reason}",
                  file=sys.stderr)
        return seconds

    def extract(self, model: str, target: Path) -> float:
        def check():
            reason = gate.check_pairs(self.clean, gate.load_json(target))
            self.hashes[target.name] = sha256(target)
            return reason
        return self.op(["extract", str(self.input), "--model", model,
                        "-o", str(target)], check)

    def generate(self, target: Path, seed: int, out_dir: Path) -> float:
        model = gate.load_json(target)["model"]
        out = out_dir / f"{model}_s{seed}.txt"

        def check():
            self.hashes[f"{out_dir.name}/{out.name}"] = sha256(out)
            return gate.check_graph(out, target)
        return self.op(["generate", str(target), "--seed", str(seed),
                        "--count", "1", "-o", str(out_dir)], check)

    # -- set-up and the op loop ----------------------------------------------

    def setup(self, k: int) -> float:
        """One set-up into directory setup<k>; returns its CLI seconds.

        Census instances use construction seed k+1, so successive rounds
        compare different instances and the op median averages over them.
        """
        d = self.work / f"setup{k}"
        d.mkdir()
        if self.wl.model is not None:
            return self.extract(self.wl.model, d / "target.json")
        total = 0.0
        for model in CENSUS_MODELS:
            target = d / f"target_{model}.json"
            total += self.extract(model, target)
            total += self.generate(target, k + 1, d / "instances")
        return total

    def loop_op(self, setup_dir: Path, k: int) -> float:
        """Op k of the loop; generate ops use construction seed k+1."""
        if self.wl.model is not None:
            return self.generate(setup_dir / "target.json", k + 1,
                                 self.work / f"op{k}")
        instances = sorted(str(p) for p in (setup_dir / "instances").iterdir())
        report = self.work / f"compare{k}.json"
        return self.op(["compare", str(self.input), *instances,
                        "--metrics", "all", "-o", str(report)],
                       lambda: gate.check_compare(report, len(instances)))

    def loop(self, setup_dir: Path, seconds: float) -> list[float]:
        """Ops back to back; the next starts only if it fits in `seconds`."""
        times: list[float] = []
        start = time.perf_counter()
        k = 0
        while True:
            if self.tracer:
                self.tracer.op = f"op{k}"
            t0 = time.perf_counter()
            times.append(self.loop_op(setup_dir, k))
            k += 1
            now = time.perf_counter()
            if now - start + (now - t0) > seconds:
                return times

    # -- the two kinds of run -------------------------------------------------

    def timed(self) -> tuple[dict, dict]:
        """Rounds of one set-up then one op, while the next round would
        end at most half a round after --seconds, so runs end near
        --seconds on average and a long census round is not dropped.

        A reference reading precedes and follows each set-up and op; each
        sample is its wall time over the mean of the two readings around
        it, times REF_S.  At least MIN_ROUNDS rounds run, so that one slow
        round (on census-compare, an instance whose eigenvalue solve
        converges slowly) is outvoted.
        """
        start = time.perf_counter()
        refs = [reference_seconds()]
        setups_raw: list[float] = []
        ops_raw: list[float] = []
        while True:
            t0 = time.perf_counter()
            k = len(ops_raw)
            setups_raw.append(self.setup(k))
            refs.append(reference_seconds())
            ops_raw.append(self.loop_op(self.work / f"setup{k}", k))
            refs.append(reference_seconds())
            now = time.perf_counter()
            if (len(ops_raw) >= MIN_ROUNDS
                    and now - start + (now - t0) / 2 > self.seconds):
                break
        scale = [2 * REF_S / (a + b) for a, b in zip(refs, refs[1:])]
        setups = [t * f for t, f in zip(setups_raw, scale[0::2])]
        ops = [t * f for t, f in zip(ops_raw, scale[1::2])]
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"op_s": statistics.median(ops),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": rss}
        detail = {"op_samples": ops, "op_tail": tail(ops),
                  "setup_samples": setups, "op_wall_samples": ops_raw,
                  "setup_wall_samples": setups_raw, "ref_samples": refs}
        return metrics, detail

    def traced(self) -> tuple[dict, dict]:
        """Set up once traced, one untraced reference op, then traced ops
        for the rest of --seconds; the guards follow, untimed."""
        start = time.perf_counter()
        runs: list[tuple[str, int, int]] = []

        def after_run(tracer, args, result):
            runs.append((tracer.op, args[0].switch_count, args[0].edges_added))
        tracer = Tracer(trace_points(after_run))
        setup_dir = self.work / "setup0"
        with tracer.installed():
            self.tracer, tracer.op = tracer, "setup"
            self.setup(0)
        self.tracer = None
        ref_before = reference_seconds()
        untraced = self.loop_op(setup_dir, 0)    # the same work as traced op 0
        ref_after = reference_seconds()
        with tracer.installed():
            self.tracer = tracer
            self.loop(setup_dir, self.seconds - (time.perf_counter() - start))
        self.tracer = None

        loop_ops, setup_ops = tracer.ops("op"), tracer.ops("setup")
        roots = tracer.roots("cli.main", loop_ops)
        op_times = [tracer.spans[i].seconds for i in roots]
        m = {"cli.op_s": statistics.median(op_times),
             "cli.op_self_s": statistics.median(
                 tracer.self_seconds(i) for i in roots),
             "cli.op_untraced_s": untraced,
             # Both ops over the host speed read next to them.
             "cli.trace_overhead": (op_times[0] / ref_after)
             / (2 * untraced / (ref_before + ref_after)) - 1.0}
        for span in LAYER_SPANS:
            secs, calls = layer_value(tracer, span, loop_ops, setup_ops)
            m[f"{span}_s"] = secs
            if f"{span}_calls" in PER_LAYER:
                m[f"{span}_calls"] = calls
        # Op 0 (construction seed 1) alone, so the guard is a function of
        # the seed and not of how many ops fit in --seconds.
        guarded = [r for r in runs if r[0] == "op0"] or runs
        edges = sum(r[2] for r in guarded)
        m["construct.switches_per_edge"] = (
            sum(r[1] for r in guarded) / edges if edges else 0.0)
        m.update(self.target_counts(setup_dir))
        m.update(self.d1k_guard(setup_dir, m["baselines.gen_d1k_s"]))
        m.update(self.quality_guard(setup_dir))
        children = {tracer.spans[r].op: tracer.children(r) for r in roots}
        detail = {"op_samples": op_times, "op_children": children,
                  "missing_trace_points": tracer.missing,
                  "construct_runs": runs}
        return m, detail

    # -- traced-run extras, all untimed ----------------------------------------

    def target_counts(self, setup_dir: Path) -> dict:
        files = sorted(setup_dir.glob("target*.json"))
        d2k = [gate.load_json(p) for p in files]
        d2k = [t for t in d2k if t["model"] in ("d2k", "d2km")]
        biggest = max(d2k, key=lambda t: len(t["jdam"]), default=None)
        cells = set()
        for row in biggest["jdam"] if biggest else ():
            for c in (row["a"], row["b"]):
                cells.add((c["side"], gate.cell_label(c)))
        return {"files.target_json_mb":
                    sum(p.stat().st_size for p in files) / 2**20,
                "targets.cells": len(cells),
                "targets.jdam_entries": len(biggest["jdam"]) if biggest else 0}

    def d1k_guard(self, setup_dir: Path, gen_d1k_s: float) -> dict:
        """Greedy-only time and the share of edges the swaps moved."""
        names = ("baselines.d1k_greedy_s", "baselines.d1k_swap_attempts_per_s",
                 "baselines.d1k_edges_moved_share")
        if self.wl.model == "d1k":
            target, out = setup_dir / "target.json", self.work / "op0" / "d1k_s1.txt"
        elif self.wl.model is None:
            target = setup_dir / "target_d1k.json"
            out = setup_dir / "instances" / "d1k_s1.txt"
        else:
            return dict.fromkeys(names, 0.0)
        from d2k import baselines, files
        t = files.load_targets(target)
        t0 = time.perf_counter()
        greedy = baselines.gen_d1k(t, 1, randomize_swaps=0)
        greedy_s = time.perf_counter() - t0
        final = {tuple(e) for e in gate.read_pairs(out).tolist()}
        attempts = 10 * greedy.m
        return dict(zip(names, (
            greedy_s,
            attempts / (gen_d1k_s - greedy_s) if gen_d1k_s > greedy_s else 0.0,
            1.0 - len(final & greedy.edge_set()) / greedy.m)))

    def quality_guard(self, setup_dir: Path) -> dict:
        """Counts and distances that a speed-up must leave unchanged."""
        out = dict.fromkeys(
            (k for k in PER_LAYER if k.startswith("quality.")), 0.0)
        from d2k import files, metrics
        if self.wl.dsp_guard:
            g = files.read_edge_list(self.work / "op0" / f"{self.wl.model}_s1.txt")
            hist = metrics.dsp(g, "outgoing")
            out["quality.max_shared_out"] = max(hist)
            out["quality.pairs_shared_out_ge2"] = sum(
                c for k, c in hist.items() if k >= 2)
        if self.wl.model is None:
            for model in ("d2k", "d2km"):
                report = self.work / f"quality_{model}.json"
                inst = setup_dir / "instances" / f"{model}_s1.txt"
                self.op(["compare", str(self.input), str(inst),
                         "--metrics", ",".join(QUALITY_METRICS),
                         "-o", str(report)],
                        lambda: gate.check_compare(report, 1, QUALITY_METRICS))
                rows = gate.load_json(report)["metrics"]
                for name in QUALITY_METRICS:
                    out[f"quality.{model}_{name}_distance"] = \
                        rows[name]["ensemble_distance"]
        return out


def trace_points(after_run):
    """(span name, module, attribute, hook): each layer function at the
    attribute its caller looks up."""
    pts = [
        ("files.read_edge_list", "d2k.files", "read_edge_list", None),
        ("files.save_targets", "d2k.files", "save_targets", None),
        ("files.load_targets", "d2k.files", "load_targets", None),
        ("files.write_edge_list", "d2k.files", "write_edge_list", None),
        ("files.build_compare_report", "d2k.files", "build_compare_report", None),
        ("realizability.check", "d2k.cli", "check", None),
        ("realizability.check", "d2k.construct", "check", None),
        ("construct.init", "d2k.construct", "ConstructionState.__init__", None),
        ("construct.run", "d2k.construct", "ConstructionState.run", after_run),
        ("graph.audit", "d2k.construct", "DirectedGraph", None),
        ("baselines.gen_d0k", "d2k.baselines", "gen_d0k", None),
        ("baselines.gen_uman", "d2k.baselines", "gen_uman", None),
        ("baselines.gen_d1k", "d2k.baselines", "gen_d1k", None),
    ]
    pts += [("targets.extract", "d2k.targets", fn, None)
            for fn in ("extract_size", "extract_uman", "extract_dds",
                       "extract_d2k")]
    pts += [(f"metrics.{name}", "d2k.metrics", fn, None)
            for name, fn in METRIC_FUNCTIONS.items()]
    return pts


def run_one(args) -> int:
    wl = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-s{args.seed}-", dir=WORK))
    try:
        run = Run(wl, args.seed, args.seconds, args.size, work)
        metrics, detail = run.traced() if args.trace else run.timed()
        hashes = run.hashes
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    units = PER_LAYER if args.trace else END_TO_END
    detail.update({"workload": wl.name, "trace": args.trace, "size": args.size,
                   "seconds": args.seconds, "failures": run.failures,
                   "provenance": provenance(args.seed), "sha256": hashes})
    for name, unit in units.items():
        print(f"{wl.name} {name} = {metrics[name]:.6g} {unit}")
    print(f"{wl.name} ops: attempted {run.attempted}, failed {run.failed}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (so peak RSS is its own); one table."""
    ok = True
    rows = []
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
                name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            ok = False
            continue
        res = json.loads(lines[-1])
        ok &= res["correct"]
        for metric, v in res["metrics"].items():
            rows.append((name, metric, v["value"], v["unit"]))
        rows.append((name, "ops_failed_share", res["failed"] / res["attempted"],
                     "ratio"))
        rows.append((name, "ops_attempted", res["attempted"], "count"))
    for name, metric, value, unit in rows:
        print(f"{name:16s} {metric:38s} {value:14.6g} {unit}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("bench", "toy"),
                        default="bench", help="input sizes (see WORKLOADS)")
    args = parser.parse_args(argv)
    if not (SRC / "d2k" / "__init__.py").is_file():
        print(f"d2k sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("D2K_THREADS", None)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
