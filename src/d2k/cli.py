"""Command-line surface: extract, check, generate, measure, compare.

Exit codes: 0 success, 2 unrealizable target, 1 any other failure.
Generation ensembles use a seed ladder (seed, seed+1, ...) so instances
are reproducible piecewise; D2K_THREADS caps worker parallelism for
multi-file generation and measurement.
"""
from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import baselines, construct, files, metrics, targets
from .errors import D2KError, NotGraphicalError, NotRealizableError
from .realizability import check

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNREALIZABLE = 2


def _extract_target(g, model: str):
    if model == "d0k":
        return targets.extract_size(g)
    if model == "uman":
        return targets.extract_uman(g)
    if model == "d1k":
        return targets.extract_dds(g)
    if model in (targets.MODE_DEGREE, targets.MODE_PAIR):
        return targets.extract_d2k(g, model)
    raise ValueError(f"unknown model {model!r}")


def cmd_extract(args) -> int:
    stats: dict = {}
    g = files.read_edge_list(args.input, stats)
    t = _extract_target(g, args.model)
    files.save_targets(t, args.output)
    cells = len(t.cells()) if isinstance(t, targets.D2KTargets) else 0
    print(f"extracted {args.model} target from {args.input}: "
          f"n={g.n} m={g.m} cells={cells} "
          f"(dropped {stats.get('self_loops', 0)} self-loops, "
          f"{stats.get('duplicates', 0)} duplicate edges)")
    return EXIT_OK


def cmd_check(args) -> int:
    t = files.load_targets(args.target)
    if not isinstance(t, targets.D2KTargets):
        raise ValueError("check applies to d2k/d2km targets")
    report = check(t)
    print(report.to_text())
    if args.json:
        files.save_json(report.to_json_dict(), args.json)
    return EXIT_OK if report.realizable else EXIT_UNREALIZABLE


def _generate_one(target_path: str, seed: int, out_path: str,
                  swap_rounds: int | None) -> str:
    t = files.load_targets(target_path)
    if t.model in (targets.MODE_DEGREE, targets.MODE_PAIR):
        g = construct.generate(t, seed)
    elif t.model == "d1k":
        g = baselines.gen_d1k(t, seed, swap_rounds)
    elif t.model == "uman":
        g = baselines.gen_uman(t, seed)
    else:
        g = baselines.gen_d0k(t, seed)
    files.write_edge_list(g, out_path)
    return out_path


def _checked_model(args) -> str:
    """The target's model; NotRealizableError for an unrealizable d2k/d2km
    target.  Each job loads the target again, so this copy is freed before
    the first job runs."""
    t = files.load_targets(args.target)
    if args.swap_rounds is not None and t.model != "d1k":
        raise ValueError(f"--swap-rounds applies to d1k targets only, "
                         f"not to a {t.model} target")
    if isinstance(t, targets.D2KTargets):
        report = check(t)
        if not report.realizable:
            raise NotRealizableError(report)
    return t.model


def cmd_generate(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    workers = _worker_count()
    model = _checked_model(args)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = [(str(args.target), args.seed + i,
             str(out_dir / f"{model}_s{args.seed + i}.txt"), args.swap_rounds)
            for i in range(args.count)]
    for path in _run_jobs(_generate_one, jobs, workers):
        print(f"wrote {path}")
    return EXIT_OK


def _worker_count() -> int:
    """D2K_THREADS as an integer >= 1; unset or empty means 1."""
    raw = os.environ.get("D2K_THREADS") or "1"
    if not raw.isdecimal() or int(raw) < 1:
        raise ValueError(f"D2K_THREADS must be an integer >= 1, got {raw!r}")
    return int(raw)


def _run_jobs(fn, jobs, workers: int):
    """fn over jobs, in order, on at most one worker process per job."""
    workers = min(workers, len(jobs))
    if workers <= 1:
        return [fn(*job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*jobs)))


def _config_from_args(args) -> metrics.MetricsConfig:
    names = tuple(x.strip() for x in args.metrics.split(",") if x.strip())
    return metrics.MetricsConfig(
        metrics=names or ("all",),
        seed=args.seed,
        sample_sources=args.sample_sources,
        eigen_k=args.eigen_k)


def _measure_one(graph_path: str, config: metrics.MetricsConfig):
    g = files.read_edge_list(graph_path)
    return metrics.structural_suite(g, config)


def cmd_measure(args) -> int:
    config = _config_from_args(args)
    report = _measure_one(args.graph, config)
    files.save_metrics_report(report, args.output)
    print(f"measured {args.graph}: n={report.n} m={report.m} "
          f"metrics={','.join(config.selected())}")
    if args.csv_dir:
        for path in files.write_metric_csvs(report, args.csv_dir):
            print(f"wrote {path}")
    return EXIT_OK


def cmd_compare(args) -> int:
    config = _config_from_args(args)
    workers = _worker_count()
    original = _measure_one(args.original, config)
    jobs = [(path, config) for path in args.generated]
    instances = _run_jobs(_measure_one, jobs, workers)
    report = files.build_compare_report(original, list(instances))
    files.save_json(report, args.output)
    for name, row in sorted(report["metrics"].items()):
        print(f"{name}: ensemble={row['ensemble_distance']:.6g} "
              f"instances={row['instance_distance_mean']:.6g}"
              f"±{row['instance_distance_std']:.6g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="d2k",
        description="Directed graphs with prescribed degree sequences and "
                    "degree correlations.")
    sub = parser.add_subparsers(dest="command", required=True)
    census = argparse.ArgumentParser(add_help=False)
    census.add_argument("--metrics", default="all",
                        help="comma list of metric names, or 'all'")
    census.add_argument("--seed", type=int, default=1)
    census.add_argument("--sample-sources", type=int, default=100)
    census.add_argument("--eigen-k", type=int, default=20)

    p = sub.add_parser("extract", help="measure targets from an edge list")
    p.add_argument("input", help="edge-list file (SNAP style)")
    p.add_argument("--model", required=True, choices=targets.MODELS)
    p.add_argument("-o", "--output", required=True, help="target JSON path")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("check", help="test a d2k/d2km target for realizability")
    p.add_argument("target", help="target JSON path")
    p.add_argument("--json", help="write the violation report as JSON")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("generate", help="construct realizations of a target")
    p.add_argument("target", help="target JSON path")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=int, default=1,
                   help="instances (>= 1), seeded seed..seed+count-1")
    p.add_argument("--swap-rounds", type=int, default=None,
                   help="d1k targets only: dds randomization swap "
                        "attempts, >= 0 (default 10*m)")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("measure", parents=[census],
                       help="compute metrics of one graph")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--csv-dir", help="also write per-metric CSV files here")
    p.add_argument("-o", "--output", required=True, help="metrics JSON path")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("compare", parents=[census],
                       help="distances between an original and an ensemble")
    p.add_argument("original", help="edge-list file of the measured graph")
    p.add_argument("generated", nargs="+", help="generated edge-list files")
    p.add_argument("-o", "--output", required=True, help="compare JSON path")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotRealizableError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_UNREALIZABLE
    except NotGraphicalError as exc:
        print(f"target is not graphical: {exc}", file=sys.stderr)
        return EXIT_UNREALIZABLE
    except (D2KError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
