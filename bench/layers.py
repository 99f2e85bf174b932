"""Layer spans for the benchmark: an in-memory tracer, the layer boundary
map, and the counter adapter.

The tracer wraps public functions of :mod:`repro` at each layer boundary,
patched where their caller looks them up, and keeps for every span name
its *self time* (span duration minus the part its child spans cover),
its inclusive time and its call count.  The first ``max_events`` spans are
also kept as Chrome trace events, so a traced run can be opened in
Perfetto or ``chrome://tracing``.  Nothing under ``src/`` is changed: all
wrappers are installed by :meth:`Tracer.installed` and removed when it
exits.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

#: (module, class or None, attribute, span name).  A function is patched in
#: the module its caller reads it from; a method is patched on its class.
#: Several boundaries may share one span name: the layer's self time is
#: then the sum over all of them.
WRAP_POINTS = (
    # numeric build: Workload stages and the kernels they call
    ("repro.app.workload", "Workload", "__init__", "app.build"),
    ("repro.app.workload", None, "build_airway_mesh", "mesh.build"),
    ("repro.app.workload", "Workload", "dt_schedule", "app.schedule"),
    ("repro.app.workload", "Workload", "operators", "fem.assembly"),
    ("repro.app.workload", None, "assemble_operator", "fem.assembly"),
    ("repro.app.workload", "Workload", "decomposition", "app.decomposition"),
    ("repro.app.workload", None, "decompose_mesh", "partition.decompose"),
    ("repro.partition", None, "rcb_partition", "partition.decompose"),
    ("repro.app.workload", None, "element_work_meters", "fem.work_meters"),
    ("repro.app.workload", None, "greedy_coloring", "partition.coloring"),
    ("repro.app.workload", "Workload", "solve_fluid_step", "solver.krylov"),
    ("repro.app.workload", None, "bicgstab", "solver.krylov"),
    ("repro.app.workload", None, "cg", "solver.krylov"),
    ("repro.solver", None, "deflated_cg", "solver.krylov"),
    ("repro.app.workload", "Workload", "sgs_history", "fem.sgs"),
    ("repro.app.workload", "Workload", "trajectory", "particles.track"),
    ("repro.app.workload", "Workload", "particle_histograms",
     "particles.locate"),
    # replay: graph construction, engine, comm, runtime, DLB
    ("repro.app.driver", None, "build_element_loop_graph",
     "core.graph_build"),
    ("repro.app.driver", None, "build_parallel_for_graph",
     "core.graph_build"),
    ("repro.sim", "Engine", "run", "sim.dispatch"),
    ("repro.smpi", "World", "deliver", "smpi.deliver"),
    ("repro.smpi", "World", "maybe_finish_collective", "smpi.collective"),
    ("repro.core", "Team", "set_capacity", "core.set_capacity"),
    ("repro.core", "DLB", "on_mpi_enter", "dlb.callback"),
    ("repro.core", "DLB", "on_mpi_exit", "dlb.callback"),
    ("repro.core", "DLB", "on_team_hungry", "dlb.callback"),
    ("repro.core", "DLB", "on_team_idle", "dlb.callback"),
    # campaign orchestration in the parent process
    ("repro.campaign.executor", None, "warm_workload",
     "campaign.prefork_build"),
    ("repro.campaign", "Supervisor", "run", "campaign.supervise"),
    ("repro.campaign", "ResultStore", "put", "campaign.store_put"),
    ("repro.campaign", "ResultStore", "get", "campaign.store_get"),
    ("repro.campaign", "Journal", "append", "campaign.journal_append"),
)

#: Spans of the numeric build that run inside the first ``run_cfpd`` on a
#: fresh workload (``app.build``/``mesh.build`` run before it, in
#: ``Workload.__init__``).
REPLAY_BUILD_SPANS = (
    "app.schedule", "fem.assembly", "app.decomposition",
    "partition.decompose", "fem.work_meters", "partition.coloring",
    "solver.krylov", "fem.sgs", "particles.track", "particles.locate")

#: Run counters read from a ``RunResult`` by attribute/key path.
COUNTER_PATHS = {
    "sim.events": ("engine_diag", "events_processed"),
    "sim.cohorts": ("engine_diag", "batch", "cohorts"),
    "core.planned_graphs": ("engine_diag", "batch", "plans",
                            "planned_graphs"),
    "core.plan_replans": ("engine_diag", "batch", "plans", "plan_replans"),
    "dlb.lend_events": ("dlb_stats", "lend_events"),
    "dlb.borrow_events": ("dlb_stats", "borrow_events"),
    "solver.momentum_iterations": ("solver_info", "momentum_iterations"),
    "solver.continuity_iterations": ("solver_info", "continuity_iterations"),
}


def read_counter(result, path):
    """The counter at ``path`` in ``result``, or None when it is absent.

    Walks attributes and dict keys alike, so a counter that moves between
    a diagnostics dict and a result attribute only needs a new path here.
    """
    node = result
    for key in path:
        if isinstance(node, dict):
            node = node.get(key)
        else:
            node = getattr(node, key, None)
        if node is None:
            return None
    return node


def run_counters(result) -> tuple[dict, list]:
    """Every counter of one ``RunResult``, and the names that were absent."""
    values, absent = {}, []
    for name, path in COUNTER_PATHS.items():
        value = read_counter(result, path)
        if value is None:
            absent.append(name)
        else:
            values[name] = float(value)
    samples = read_counter(result, ("phase_log", "samples"))
    if samples is None:
        absent.append("trace.phase_samples")
    else:
        values["trace.phase_samples"] = float(len(samples))
    return values, absent


class Tracer:
    """Nested wall-clock spans with per-name self time, kept in memory."""

    #: spans kept as trace events; later spans only add to the totals
    MAX_EVENTS = 100_000

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: name -> summed self seconds / inclusive seconds / calls
        self.self_s: dict = defaultdict(float)
        self.total_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        #: (name, start, duration) of the first ``MAX_EVENTS`` spans
        self.events: list = []
        self.dropped = 0
        #: wrap points that do not resolve at this commit
        self.missing: list = []
        #: False in processes forked while the wrappers were installed
        self.recording = True
        self._stack: list = []          # child seconds of each open span
        self._patches: list = []        # (owner, attr, had_own, raw value)
        self._fork_hook = False

    # -- spans ------------------------------------------------------------
    def _close(self, name: str, t0: float, t1: float) -> None:
        duration = t1 - t0
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += duration
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.calls[name] += 1
        if len(self.events) < self.MAX_EVENTS:
            self.events.append((name, t0, duration))
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span named ``name``."""
        self._stack.append(0.0)
        t0 = self.clock()
        try:
            yield
        finally:
            self._close(name, t0, self.clock())

    def _wrapper(self, name: str, fn):
        clock, stack, close = self.clock, self._stack, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(name, t0, clock())
        return traced

    # -- patching ---------------------------------------------------------
    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`."""
        own = vars(owner)
        had_own = attr in own
        raw = own.get(attr)
        if isinstance(raw, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap {attr!r}: static/class method")
        target = getattr(owner, attr)
        if inspect.isgeneratorfunction(target):
            raise TypeError(f"cannot wrap generator function {attr!r}")
        setattr(owner, attr, self._wrapper(name, target))
        self._patches.append((owner, attr, had_own, raw))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, had_own, raw = self._patches.pop()
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    @contextmanager
    def installed(self):
        """Wrap every resolvable boundary of :data:`WRAP_POINTS` for the
        block."""
        if not self._fork_hook:
            ref = weakref.ref(self)

            def _stop_in_child():
                tracer = ref()
                if tracer is not None:
                    tracer.recording = False
            os.register_at_fork(after_in_child=_stop_in_child)
            self._fork_hook = True
        try:
            for module, cls, attr, name in WRAP_POINTS:
                owner = resolve_owner(module, cls)
                if owner is None or not hasattr(owner, attr):
                    label = f"{module}.{cls + '.' if cls else ''}{attr}"
                    if label not in self.missing:
                        self.missing.append(label)
                    continue
                self.wrap(owner, attr, name)
            yield self
        finally:
            self.restore()

    # -- export -----------------------------------------------------------
    def write_chrome_trace(self, path: str, metadata: dict) -> None:
        """Write the kept spans as Chrome trace-event JSON (microseconds)."""
        pid = os.getpid()
        origin = min((e[1] for e in self.events), default=0.0)
        events = [{"name": name, "cat": name.split(".", 1)[0], "ph": "X",
                   "ts": (t0 - origin) * 1e6, "dur": dur * 1e6,
                   "pid": pid, "tid": 0}
                  for name, t0, dur in self.events]
        payload = {"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": dict(metadata, dropped_events=self.dropped)}
        with open(path, "w") as fh:
            json.dump(payload, fh)


def resolve_owner(module: str, cls):
    """The module (``cls`` None) or class a wrap point patches, or None."""
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return None
    return mod if cls is None else getattr(mod, cls, None)
