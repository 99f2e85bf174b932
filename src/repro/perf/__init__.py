"""Performance layer: counters and the benchmark runner.

* :mod:`repro.perf.instrument` — named tallies and the engine / fluid
  counter snapshots surfaced through ``RunResult.engine_diag``;
* :mod:`repro.perf.bench` — the benchmark runner that emits the BENCH JSON
  trajectory (``python -m repro.perf.bench``).

``run_benchmarks`` resolves lazily (PEP 562): the runner imports the
application layer, which itself imports :mod:`repro.perf.instrument`.
"""

from __future__ import annotations

from .instrument import Counters, engine_counters

__all__ = ["Counters", "engine_counters", "run_benchmarks"]


def __getattr__(name: str):
    if name == "run_benchmarks":
        from .bench import run_benchmarks
        return run_benchmarks
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
