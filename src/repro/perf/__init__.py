"""Performance layer: the benchmark runner that emits the BENCH JSON
trajectory (``python -m repro.perf.bench``, see :mod:`repro.perf.bench`).

Host-side counters live on the objects whose work they count:
:meth:`repro.sim.Engine.counters` (surfaced as ``RunResult.engine_diag``),
``FractionalStepSolver.counters`` and the per-mesh
:class:`~repro.fem.geometry.GeometryCache`.
"""
