"""Task graphs with OpenMP 5.0 / OmpSs dependence semantics.

This is the data model behind the paper's *multidependences* technique.  A
:class:`Task` declares dependences on abstract *data references* (any hashable
object) with one of four access types:

* ``IN`` — reads the ref: ordered after the last writer.
* ``OUT`` / ``INOUT`` — writes the ref: ordered after all previous accesses.
* ``MUTEXINOUTSET`` — the OpenMP 5.0 relationship the paper evaluates: two
  tasks touching the same ref *cannot run concurrently*, but their order is
  irrelevant.  It expresses "incompatibility" without serialization, which is
  exactly what adjacent mesh subdomains need in the FE assembly.

The *multidependence* (dependence iterator) feature — a runtime-computed
list of dependences — is natural here: the strategy code passes the list of
neighbouring subdomain ids produced by the partitioner, whose length is only
known at run time (OpenMP 5.0 ``iterator`` clause; early OmpSs implementation
per the paper).

Ordered dependences become DAG edges; ``MUTEXINOUTSET`` refs become runtime
mutexes acquired atomically by the scheduler (order-free mutual exclusion).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Hashable, Optional

from ..machine import WorkSpec

__all__ = ["DepType", "Task", "TaskGraph", "TaskGraphError"]


class TaskGraphError(RuntimeError):
    """Raised on malformed task graphs (cycles, duplicate ids, ...)."""


class DepType(enum.Enum):
    """Access mode of a task on a data reference."""

    IN = "in"
    OUT = "out"
    INOUT = "inout"
    MUTEXINOUTSET = "mutexinoutset"


@dataclass
class Task:
    """A schedulable unit of work.

    Attributes
    ----------
    tid:
        Unique id within its graph.
    work:
        The :class:`~repro.machine.arch.WorkSpec` the executing core will be
        charged for.
    label:
        Human-readable tag (shows up in traces).
    mutex_refs:
        Data refs this task holds in ``MUTEXINOUTSET`` mode (filled by the
        graph from the dependence declarations).
    """

    tid: int
    work: WorkSpec
    label: str = ""
    mutex_refs: frozenset = field(default_factory=frozenset)
    # Scheduling state (owned by the graph/runtime):
    n_preds: int = 0
    successors: list[int] = field(default_factory=list)
    # Cached nominal duration on a given core (owned by Team: graphs are
    # re-executed every time step with an immutable WorkSpec, so the float
    # is computed once per (task, core) and reused bit-for-bit).
    _dur_core: Optional[object] = field(default=None, repr=False,
                                        compare=False)
    _dur: float = field(default=0.0, repr=False, compare=False)
    # Cached work.instructions (read once per task per lpt scheduler scan;
    # WorkSpec is immutable, so the copy can never go stale).
    _instr: float = field(default=0.0, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._instr = self.work.instructions


class TaskGraph:
    """A DAG of tasks plus mutual-exclusion groups.

    Build with :meth:`add_task`, declaring dependences OmpSs-style::

        g = TaskGraph()
        a = g.add_task(work, depend={DepType.OUT: ["x"]})
        b = g.add_task(work, depend={DepType.IN: ["x"]})          # b after a
        c = g.add_task(work, depend={DepType.MUTEXINOUTSET: [1, 2]})
        d = g.add_task(work, depend={DepType.MUTEXINOUTSET: [2, 3]})
        # c and d are mutually exclusive (share ref 2) but unordered.
    """

    def __init__(self) -> None:
        self.tasks: list[Task] = []
        # last writer / readers-since-last-write, per ordered data ref
        self._last_writer: dict[Hashable, int] = {}
        self._readers_since_write: dict[Hashable, list[int]] = {}
        #: plan templates of the runtime (``repro.core.runtime``), keyed by
        #: the executing team's parameters; dropped whenever the graph
        #: gains a task, since they describe the graph as it was
        self._plan_templates: dict = {}

    def __len__(self) -> int:
        return len(self.tasks)

    @property
    def total_instructions(self) -> float:
        """Sum of instruction counts over all tasks."""
        return sum(t.work.instructions for t in self.tasks)

    def add_task(self, work: WorkSpec, label: str = "",
                 depend: Optional[dict] = None) -> Task:
        """Append a task, wiring dependences against earlier tasks.

        ``depend`` maps :class:`DepType` to an iterable of data refs.  The
        iterable may be computed at run time (multidependences).
        """
        self._plan_templates.clear()
        tid = len(self.tasks)
        task = Task(tid=tid, work=work, label=label or f"task{tid}")
        preds: set[int] = set()
        mutex: set = set()
        if depend:
            for dep_type, refs in depend.items():
                if not isinstance(dep_type, DepType):
                    raise TaskGraphError(
                        f"dependence key must be DepType, got {dep_type!r}")
                for ref in refs:
                    if dep_type is DepType.IN:
                        w = self._last_writer.get(ref)
                        if w is not None:
                            preds.add(w)
                        self._readers_since_write.setdefault(ref, []).append(tid)
                    elif dep_type in (DepType.OUT, DepType.INOUT):
                        readers = self._readers_since_write.get(ref, ())
                        if readers:
                            # The writer edge is implied transitively
                            # through the readers (OmpSs-style tracking).
                            preds.update(readers)
                        else:
                            w = self._last_writer.get(ref)
                            if w is not None:
                                preds.add(w)
                        self._last_writer[ref] = tid
                        self._readers_since_write[ref] = []
                    else:  # MUTEXINOUTSET
                        mutex.add(ref)
        task.mutex_refs = frozenset(mutex)
        preds.discard(tid)
        task.n_preds = len(preds)
        for p in preds:
            self.tasks[p].successors.append(tid)
        self.tasks.append(task)
        return task

    # -- queries -----------------------------------------------------------
    def roots(self) -> list[Task]:
        """Tasks with no predecessors (immediately ready, modulo mutexes)."""
        return [t for t in self.tasks if t.n_preds == 0]

    def critical_path(self) -> tuple[float, list[int]]:
        """Longest instruction-weighted path through the ordered DAG.

        Returns (length in instructions, task ids along the path).  Mutex
        constraints are ignored (they impose no order), so this is a lower
        bound on any schedule's weighted depth and — divided into
        :attr:`total_instructions` — an upper bound on usable parallelism.
        """
        n = len(self.tasks)
        if n == 0:
            return 0.0, []
        indeg = [t.n_preds for t in self.tasks]
        dist = [t.work.instructions for t in self.tasks]
        best_pred = [-1] * n
        stack = [t.tid for t in self.tasks if indeg[t.tid] == 0]
        seen = 0
        while stack:
            tid = stack.pop()
            seen += 1
            for s in self.tasks[tid].successors:
                cand = dist[tid] + self.tasks[s].work.instructions
                if cand > dist[s]:
                    dist[s] = cand
                    best_pred[s] = tid
                indeg[s] -= 1
                if indeg[s] == 0:
                    stack.append(s)
        if seen != n:
            raise TaskGraphError("cycle detected during critical path")
        end = int(max(range(n), key=lambda i: dist[i]))
        path = [end]
        while best_pred[path[-1]] >= 0:
            path.append(best_pred[path[-1]])
        return float(dist[end]), path[::-1]
