"""Compare two sets of benchmark runs, per end-to-end metric and workload.

    python bench/compare.py --base A1.json A2.json ... --new B1.json ...

Each file is a report written by ``bench/run.py --out``; run ``i`` of the
base side is paired with run ``i`` of the new side, so alternate which
side runs first when producing them.  Bounds and directions come from
``BENCHMARK.json``.  The verdict of each end-to-end metric x workload:

* ``better``     -- the new side wins at least nine tenths of the pairs
                    (ties count for neither) and its median beats the base
                    median by more than the base's interquartile range;
* ``worse``      -- the new median is worse than the base median by more
                    than the metric's bound; for ``error_rate`` (failed /
                    attempted) any increase;
* ``unresolved`` -- otherwise, when the base's own spread (interquartile
                    range / median) is wider than the bound, unless every
                    new run reads better than every base run;
* ``same``       -- otherwise.

Per-layer metrics of traced runs are printed with their medians and never
gate.  The exit code is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json")


def quartiles(values) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, new, better: str, bound: float) -> str:
    """The verdict of one metric (see the module docstring)."""
    sign = 1.0 if better == "higher" else -1.0

    def gain(a, b):            # > 0 when ``b`` reads better than ``a``
        return sign * (b - a)

    q1, med_base, q3 = quartiles(base)
    med_new = statistics.median(new)
    pairs = list(zip(base, new))
    wins = sum(1 for a, b in pairs if gain(a, b) > 0)
    if pairs and wins >= 0.9 * len(pairs) \
            and gain(med_base, med_new) > q3 - q1:
        return "better"
    if gain(med_base, med_new) < -bound * abs(med_base):
        return "worse"
    spread = (q3 - q1) / abs(med_base) if med_base else float("inf")
    if spread > bound and not all(gain(a, b) > 0 for a in base for b in new):
        return "unresolved"
    return "same"


def load_runs(paths) -> dict:
    """``{(workload, traced): [run report, ...]}`` in file order."""
    runs = defaultdict(list)
    for path in paths:
        with open(path) as fh:
            for report in json.load(fh):
                runs[(report["workload"], bool(report["trace"]))].append(
                    report)
    return runs


def _values(reports, name: str) -> list:
    return [r["metrics"][name]["value"] for r in reports
            if name in r["metrics"]]


def _fmt(values) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def compare(base_paths, new_paths, spec: dict) -> bool:
    """Print the comparison; True when no verdict is ``worse``."""
    base, new = load_runs(base_paths), load_runs(new_paths)
    ok = True
    print(f"{'workload':22s} {'metric':17s} {'unit':6s} "
          f"{'base median [q1, q3]':34s} {'new median [q1, q3]':34s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    workloads = sorted({w for w, traced in base.keys() & new.keys()
                        if not traced})
    for workload in workloads:
        a, b = base[(workload, False)], new[(workload, False)]
        rows = []
        for m in spec["end_to_end"]:
            va, vb = _values(a, m["name"]), _values(b, m["name"])
            if not va or not vb:
                continue
            rows.append((m["name"], m["unit"], va, vb, m["bound"],
                         verdict(va, vb, m["better"], m["bound"])))
        ea = sum(r["failed"] for r in a) / max(sum(r["attempted"] for r in a), 1)
        eb = sum(r["failed"] for r in b) / max(sum(r["attempted"] for r in b), 1)
        rows.append(("error_rate", "ratio", [ea], [eb], 0.0,
                     "worse" if eb > ea else "same"))
        for name, unit, va, vb, bound, v in rows:
            med_a, med_b = statistics.median(va), statistics.median(vb)
            change = (med_b / med_a - 1.0) * 100 if med_a else 0.0
            ok &= v != "worse"
            print(f"{workload:22s} {name:17s} {unit:6s} {_fmt(va):34s} "
                  f"{_fmt(vb):34s} {change:+7.1f}% {bound:6.2f}  {v}")
    traced = sorted({w for w, t in base.keys() & new.keys() if t})
    if traced:
        print("\nper-layer metrics (medians of traced runs; never gate)")
    for workload in traced:
        a, b = base[(workload, True)], new[(workload, True)]
        for m in spec["per_layer"]:
            va, vb = _values(a, m["name"]), _values(b, m["name"])
            if not va or not vb or not (any(va) or any(vb)):
                continue
            print(f"{workload:22s} {m['name']:28s} {m['unit']:6s} "
                  f"{statistics.median(va):14.6g} -> "
                  f"{statistics.median(vb):14.6g}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True,
                        help="reports of the parent commit")
    parser.add_argument("--new", nargs="+", required=True,
                        help="reports of the change")
    args = parser.parse_args(argv)
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    return 0 if compare(args.base, args.new, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
