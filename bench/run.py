"""Run the CFPD benchmark and print every metric by name, with its unit.

    PYTHONPATH=src python bench/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--out FILE]

Workloads: ``replay_mn4_sync``, ``replay_mn4_coupled``,
``replay_mn4_hybrid``, ``replay_thunder_coupled``, ``cold_start``,
``campaign`` (all six when none is named).  Without ``--trace`` a run
reports the end-to-end metrics; with ``--trace`` every second operation
runs with the layer wrappers installed and the run reports the per-layer
metrics, and writes the spans as a Chrome trace under ``.bench_work/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero
when an operation failed its checks, or when the repository's ``src/`` is
missing.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_work")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=2018,
                        help="input seed (golden digests exist for 2018)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--out", help="also write the full report as JSON")
    return parser.parse_args(argv)


def summary_line(reports) -> dict:
    """The final JSON object: one run's metrics, or every run's metrics
    prefixed by workload when several ran."""
    metrics = {}
    for r in reports:
        prefix = f"{r.workload}." if len(reports) > 1 else ""
        for name, (value, unit) in r.metrics.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    return {"correct": all(r.correct for r in reports),
            "attempted": sum(r.attempted for r in reports),
            "failed": sum(r.failed for r in reports),
            "metrics": metrics}


def print_report(report) -> None:
    print(f"== {report.workload}  seed={report.seed}  "
          f"seconds={report.seconds:g}  trace={int(report.trace)}")
    for name, (value, unit) in report.metrics.items():
        print(f"  {name:28s} {value:14.6f} {unit}")
    print(f"  {'error_rate':28s} {report.failed / max(report.attempted, 1):14.6f}"
          f" ratio ({report.failed}/{report.attempted})")
    for note in report.notes:
        print(f"  # {note}")
    sys.stdout.flush()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"bench: no repro package under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORKDIR, exist_ok=True)
    tempfile.tempdir = WORKDIR          # keep every temp file in the checkout
    t0 = time.perf_counter()
    import workloads
    import_s = time.perf_counter() - t0
    import golden

    reports = []
    try:
        for name in args.workload or workloads.WORKLOADS:
            trace_path = (os.path.join(WORKDIR, f"trace-{name}.json")
                          if args.trace else None)
            report = workloads.run_workload(
                name, seed=args.seed, seconds=args.seconds,
                trace=bool(args.trace), golden=golden.load(),
                workdir=WORKDIR, import_s=import_s, trace_path=trace_path)
            print_report(report)
            reports.append(report)
    finally:
        for child in multiprocessing.active_children():
            child.terminate()
            child.join()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump([r.to_json() for r in reports], fh, indent=1)
    summary = summary_line(reports)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
