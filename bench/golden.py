"""Absolute golden digests of the default seed (``golden.json``).

Each digest is :func:`repro.campaign.simulated_digest` of one operation's
result, so a change that moves every code path the same way still shows.
Record them from the current commit with::

    PYTHONPATH=src python bench/golden.py

and review the diff before committing it: a changed digest means the
simulated results changed.  The replay digests of ``replay_mn4_sync`` and
``replay_mn4_coupled`` with DLB off and on are the ones every committed
BENCH report holds.

Each workload maps its own input keys to digests: ``dlb=off``/``dlb=on``
for a replay, ``<spec index>/dlb=…`` for ``cold_start`` and
``<pattern>/d<diameter index>/dlb=…`` for ``campaign``.
"""

from __future__ import annotations

import json
import os
import sys

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

#: The longest run, in seconds, whose campaign cells are recorded.
LONGEST_RUN_S = 60.0


def load(path: str = PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def record(workdir: str) -> dict:
    """Run every operation of the default seed once; their digests."""
    from workloads import (COLD_POOL, DEFAULT_SEED, REPLAY_CONFIGS,
                           make_workload)

    def checked(units):
        problems = [p for u in units for o in u.ops for p in o.problems]
        if problems:
            raise RuntimeError(f"cannot record a failing run: {problems}")

    golden = {"seed": DEFAULT_SEED}
    for name in REPLAY_CONFIGS:
        wl = make_workload(name, DEFAULT_SEED, {}, workdir)
        wl.setup()
        golden[name] = dict(wl.reference)
    cold = make_workload("cold_start", DEFAULT_SEED, {}, workdir)
    checked([cold.run_unit(i, None) for i in range(COLD_POOL)])
    golden["cold_start"] = dict(cold.reference)
    campaign = make_workload("campaign", DEFAULT_SEED, {}, workdir)
    campaign.setup()
    try:
        checked([campaign.run_unit(k, None)
                 for k in range(campaign.fixed_units(LONGEST_RUN_S))])
    finally:
        campaign.close()
    golden["campaign"] = dict(campaign.reference)
    return golden


def main() -> int:
    root = os.path.dirname(os.path.dirname(PATH))
    workdir = os.path.join(root, ".bench_work")
    os.makedirs(workdir, exist_ok=True)
    golden = record(workdir)
    with open(PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
