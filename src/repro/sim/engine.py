"""Discrete-event simulation (DES) engine.

This module is the substrate on which the whole reproduction runs: simulated
MPI ranks, OpenMP-like worker cores, and the DLB library are all *processes*
(Python generators) advancing a shared simulated clock.  The design follows
the classic event-list pattern (as popularized by SimPy, re-implemented here
from scratch): processes yield :class:`Event` objects and are resumed when the
event triggers.

Only simulated time passes between events; the engine is deterministic given a
deterministic set of processes, which is what makes the paper's experiments
exactly reproducible.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right, insort
from operator import itemgetter
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for illegal engine operations (e.g. re-triggering an event)."""


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; it can be made to :meth:`succeed` (optionally
    carrying a value) or :meth:`fail` (carrying an exception).  Processes that
    yield a pending event are suspended until it triggers.
    """

    __slots__ = ("engine", "callbacks", "_triggered", "_processed", "_ok",
                 "_value")

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self.callbacks: list[Callable[["Event"], None]] = []
        self._triggered = False
        self._processed = False
        self._ok: Optional[bool] = None
        self._value: Any = None

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether the event has already occurred."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already been run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """Whether the event succeeded (only meaningful once triggered)."""
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The value the event carries (or the exception if it failed)."""
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, scheduling its callbacks *now*."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.engine._cur.append(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed; waiting processes see ``exc`` raised."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exc
        self.engine._cur.append(self)
        return self


class Timeout(Event):
    """An event that triggers automatically after ``delay`` simulated time.

    The trigger state is applied when the engine's clock reaches the deadline
    (not at construction), so timeouts compose correctly with :class:`AllOf`.
    """

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(engine)
        self.delay = delay
        self._value = value
        engine._bucket_insert(engine.now + delay, self)


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running simulation process driving a generator of events.

    The process itself is an event: it triggers (with the generator's return
    value) when the generator finishes, so processes can wait on each other.
    """

    __slots__ = ("generator", "name", "_waiting_on")

    def __init__(self, engine: "Engine", generator: ProcessGenerator,
                 name: str = ""):
        super().__init__(engine)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        # Bootstrap: resume once at current time.
        boot = Event(engine)
        boot.callbacks.append(self._resume)
        boot.succeed()

    @property
    def is_alive(self) -> bool:
        """Whether the underlying generator has not yet finished."""
        return not self._triggered

    @property
    def waiting_on(self) -> Optional[Event]:
        """The event this process is currently suspended on (diagnostics)."""
        return self._waiting_on

    def interrupt(self, exc: BaseException) -> None:
        """Throw ``exc`` into the process at the current simulated time.

        The generator sees the exception raised at its current ``yield``
        point; unless the program catches it, the process fails with
        ``exc``.  This is the primitive behind rank-death injection.
        """
        if self._triggered:
            raise SimulationError(
                f"cannot interrupt finished process {self.name!r}")
        if not isinstance(exc, BaseException):
            raise TypeError("interrupt() requires an exception instance")
        relay = Event(self.engine)
        relay.callbacks.append(self._resume)
        relay.fail(exc)

    def _resume(self, event: Event) -> None:
        if self._triggered:
            # Already finished (e.g. interrupted while a pending event still
            # held a callback to us): stale wake-ups are ignored.
            return
        self._waiting_on = None
        try:
            if event.ok:
                target = self.generator.send(event.value)
            else:
                target = self.generator.throw(event.value)
        except StopIteration as stop:
            if not self._triggered:
                self.succeed(stop.value)
            return
        except BaseException as exc:
            if not self._triggered:
                self.fail(exc)
                return
            raise
        if not isinstance(target, Event):
            self.generator.close()
            self.fail(SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an Event"))
            return
        self._waiting_on = target
        if target._processed:
            # Callbacks already ran; schedule an immediate relay carrying the
            # event outcome so this process resumes at the current time.
            relay = Event(self.engine)
            relay.callbacks.append(self._resume)
            if target._ok:
                relay.succeed(target._value)
            else:
                relay.fail(target._value)
        else:
            target.callbacks.append(self._resume)


class AllOf(Event):
    """Triggers when *all* child events have triggered.

    Value is the list of child values in construction order.  Fails as soon
    as any child fails.
    """

    __slots__ = ("events", "_n_done")

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        super().__init__(engine)
        self.events = list(events)
        self._n_done = 0
        if not self.events:
            self.succeed([])
            return
        for ev in self.events:
            if ev._processed:
                self._on_child(ev)
            else:
                ev.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._n_done += 1
        if self._n_done == len(self.events):
            self.succeed([ev.value for ev in self.events])


#: the completion list of a timestamp that has none (shared, never
#: appended to: a completion scheduled for the current time replaces it)
_NO_COMPLETIONS: list = []

#: the key of a ``(key, [fn, args])`` completion entry
_entry_key = itemgetter(0)


def _all_cancelled(bucket: Optional[list], fins: Optional[list]) -> bool:
    """Whether a timestamp holds nothing but cancelled callbacks."""
    for p in bucket or ():
        if type(p) is not list or p[0] is not None:
            return False
    for _key, rec in fins or ():
        if rec[0] is not None:
            return False
    return True


class Engine:
    """The event loop: a calendar of per-timestamp event buckets.

    Usage::

        eng = Engine()

        def prog(eng):
            yield eng.timeout(1.5)
            return "done"

        p = eng.process(prog(eng))
        eng.run()
        assert eng.now == 1.5 and p.value == "done"

    Entries dispatch by simulated time.  Within a timestamp there are two
    kinds of entry:

    * *plain* entries — events, :meth:`defer`/:meth:`call_later`
      callbacks — run in the order they were scheduled;
    * *task completions* (:meth:`schedule_completion`) run after the plain
      entries, in the order of their *dispatch key*, not of their
      insertion.

    A timestamp alternates *segments*: plain entries (segment 0), then every
    pending completion (segment 1), then the plain entries those
    completions scheduled (segment 2), then any completion those scheduled
    at the same time (segment 3), and so on.  A completion segment runs to
    its end before the plain entries it schedules.

    A dispatch key is ``(dispatch time, segment, origin, index)``.  The
    segment is the one the dispatching entry ran in.  ``origin`` is
    ``None`` in a plain segment and the dispatching completion's own key in
    a completion segment.  ``index`` counts insertions.
    :meth:`completion_key` hands out the key of a dispatch made now.
    Keys compare in the order the insertions happen, so a task runtime
    can compute the key of a completion it has not inserted yet, and insert
    it later, at its place.

    The engine keeps a calendar of per-timestamp *buckets* of plain entries
    (lists in scheduling order) and sorted completion lists, plus a heap of
    the distinct populated times.  The run loop drains the current
    timestamp, including everything scheduled for it while it drains, and
    then jumps the clock directly to the next populated time: one heap
    operation per *timestamp* instead of one per event.  A plain entry is
    the payload itself: an :class:`Event`, or the ``[fn, args]`` record of
    a deferred callback.  A completion is a ``(key, [fn, args])`` pair.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._n_events_processed = 0
        self._stop_reason: Optional[str] = None
        self._buckets: dict[float, list] = {}
        self._completions: dict[float, list] = {}
        self._times: list[float] = []
        # plain entries at the current timestamp + their drain cursor;
        # everything scheduled for the current time appends here
        self._cur: list = []
        self._ci = 0
        # completions at the current timestamp (sorted by key) + cursor
        self._fcur: list = _NO_COMPLETIONS
        self._fi = 0
        # segment of the current timestamp, the key of the completion
        # being run (None in a plain segment) and the insertion counter
        # of completion_key
        self._seg = 0
        self._fkey = None
        self._kseq = 0
        # timestamps dispatched (see counters)
        self._n_cohorts = 0
        # the task runtime's plan counters, attached by the first Team
        # (repro.core.runtime); counters() reports them as the plan block
        self._plan_counters = None

    # -- factory helpers ----------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending event bound to this engine."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Register ``generator`` as a new process starting at current time."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event triggering when all ``events`` have triggered."""
        return AllOf(self, events)

    def defer(self, fn: Callable[..., None], *args: Any) -> list:
        """Run ``fn(*args)`` when the engine next reaches the current time.

        Equivalent to a :class:`Process` whose generator would execute
        ``fn`` before its first yield (the bootstrap event is posted at the
        same queue position), without the generator/Process allocation.
        Nonblocking sends and collective completion are built on this.
        Returns the callback's ``[fn, args]`` record as its handle for
        :meth:`cancel_scheduled`.
        """
        rec = [fn, args]
        self._cur.append(rec)
        return rec

    def call_later(self, delay: float, fn: Callable[..., None],
                   *args: Any) -> list:
        """Run ``fn(*args)`` after ``delay`` simulated time.

        Equivalent to a :class:`Timeout` with ``fn`` as its only callback —
        same queue position — without the Timeout construction or the
        callback closure.  Returns a handle (see :meth:`defer`).
        """
        rec = [fn, args]
        self._bucket_insert(self.now + delay, rec)
        return rec

    def completion_key(self) -> tuple:
        """The dispatch key of a task dispatched now (see the class
        docstring); each call takes the next insertion index."""
        k = self._kseq
        self._kseq = k + 1
        return (self.now, self._seg, self._fkey, k)

    def schedule_completion(self, when: float, key: tuple,
                            fn: Callable[..., None], *args: Any) -> list:
        """Run ``fn(*args)`` at the absolute time ``when`` as a task
        completion ordered by ``key`` (see the class docstring).

        A key taken from :meth:`completion_key` at dispatch, or computed
        the same way, places the completion where inserting it at dispatch
        would have: completions may be inserted in any order.  A key that
        sorts before a completion already run at ``when`` is an error.
        Returns a handle (see :meth:`defer`).
        """
        if when < self.now:
            raise SimulationError(f"cannot schedule into the past "
                                  f"({when} < {self.now})")
        rec = [fn, args]
        entry = (key, rec)
        if when == self.now:
            fl = self._fcur
            if fl is _NO_COMPLETIONS:
                fl = self._fcur = []
            if fl and not key > fl[-1][0]:
                pos = bisect_right(fl, key, key=_entry_key)
                if pos < self._fi:
                    raise SimulationError(
                        f"completion key {key!r} precedes a completion "
                        f"already run at t={when}")
                fl.insert(pos, entry)
            else:
                fl.append(entry)
            return rec
        fl = self._completions.get(when)
        if fl is None:
            self._completions[when] = [entry]
            if when not in self._buckets:
                heapq.heappush(self._times, when)
        elif key > fl[-1][0]:
            fl.append(entry)
        else:
            # equal keys: a task's completion after the cancelled plan
            # completion it takes over (Team.leave_plan)
            insort(fl, entry, key=_entry_key)
        return rec

    def cancel_scheduled(self, handle: list) -> None:
        """Cancel a pending :meth:`defer`/:meth:`call_later`/
        :meth:`schedule_completion` call.

        The queue entry stays where it is and is skipped when it surfaces;
        the callback is guaranteed not to run.  The handle of a callback
        that already ran cancels nothing; cancelling a handle twice raises
        :class:`ValueError`.
        """
        if handle[0] is None:
            raise ValueError("callback already cancelled")
        handle[0] = handle[1] = None

    # -- scheduling (internal) ----------------------------------------------
    def _bucket_insert(self, when: float, entry) -> None:
        """Append a plain entry to its timestamp's bucket.

        An entry at the *current* time joins the live bucket directly, so
        it runs after everything already scheduled for now.
        """
        if when == self.now:
            self._cur.append(entry)
            return
        b = self._buckets.get(when)
        if b is None:
            self._buckets[when] = [entry]
            if when not in self._completions:
                heapq.heappush(self._times, when)
        else:
            b.append(entry)

    # -- running --------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock would pass ``until``.

        Per *timestamp* (not per event): pop the next populated time off the
        ``_times`` heap and take its bucket and completion list as the
        current ones.  Drain the bucket, including the entries appended to
        it while it drains; then run every completion of the timestamp in
        key order; then the plain entries those appended; and so on until
        both are empty.  One heap operation per distinct timestamp.  This
        is the engine's only dispatch loop.
        """
        if until is not None and until < self.now:
            raise SimulationError("cannot run into the past")
        buckets = self._buckets
        completions = self._completions
        times = self._times
        heappop = heapq.heappop
        cur = self._cur
        ci = self._ci
        # odd segment: inside a completion segment
        in_fin = self._seg & 1
        n_done = 0
        try:
            while True:
                if self._stop_reason is not None:
                    return
                if in_fin:
                    fcur = self._fcur
                    fi = self._fi
                    if fi < len(fcur):
                        key, rec = fcur[fi]
                        self._fi = fi + 1
                        fn = rec[0]
                        if fn is not None:
                            self._fkey = key
                            n_done += 1
                            fn(*rec[1])
                        continue
                    # completion segment drained: back to plain entries
                    in_fin = 0
                    self._seg += 1
                    self._fkey = None
                    continue
                if ci < len(cur):
                    payload = cur[ci]
                    ci += 1
                elif self._fi < len(self._fcur):
                    in_fin = 1
                    self._seg += 1
                    continue
                else:
                    # timestamp fully drained: bulk-advance the clock to the
                    # next populated time
                    while times:
                        when = heappop(times)
                        bucket = buckets.pop(when, None)
                        fins = completions.pop(when, None)
                        if bucket is not None or fins is not None:
                            break
                    else:
                        if until is not None:
                            self.now = until
                        return
                    if until is not None and when > until:
                        if bucket is not None:
                            buckets[when] = bucket
                        if fins is not None:
                            completions[when] = fins
                        heapq.heappush(times, when)
                        self.now = until
                        return
                    if when < self.now:
                        raise SimulationError("time went backwards")
                    p = bucket[0] if bucket is not None else fins[0][1]
                    if type(p) is list and p[0] is None \
                            and _all_cancelled(bucket, fins):
                        # only cancelled callbacks: pass over them without
                        # moving the clock (a cancelled tail entry must not
                        # drag the simulation end time forward)
                        continue
                    self._n_cohorts += 1
                    self.now = when
                    cur = bucket if bucket is not None else []
                    ci = 0
                    # visible before callbacks run: same-time schedules made
                    # during dispatch append to this cohort
                    self._cur = cur
                    self._fcur = fins if fins is not None \
                        else _NO_COMPLETIONS
                    self._fi = 0
                    self._seg = 0
                    continue
                if type(payload) is list:
                    # deferred callback record; a cancelled one has no fn
                    fn = payload[0]
                    if fn is not None:
                        n_done += 1
                        fn(*payload[1])
                    continue
                event = payload
                if not event._triggered:
                    event._triggered = True
                    event._ok = True
                n_done += 1
                event._processed = True
                callbacks = event.callbacks
                if callbacks:
                    event.callbacks = []
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for cb in callbacks:
                            cb(event)
        finally:
            self._ci = ci
            self._n_events_processed += n_done

    def stop(self, reason: str = "") -> None:
        """Abort :meth:`run` before the queue drains (simulated job kill).

        The current event finishes; no further events are processed.  The
        reason is kept in :attr:`stop_reason` so the MPI layer can surface
        a structured abort instead of a phantom deadlock.
        """
        self._stop_reason = reason or "stopped"

    @property
    def stop_reason(self) -> Optional[str]:
        """Why the engine was stopped, or ``None`` if it was not."""
        return self._stop_reason

    @property
    def events_processed(self) -> int:
        """Total number of events processed so far (diagnostics)."""
        return self._n_events_processed

    def counters(self) -> dict:
        """Host-side progress counters (never part of a simulated result).

        ``events_processed`` plus a ``"batch"`` block: the number of
        dispatched timestamps (``cohorts``) and — once a
        :class:`~repro.core.runtime.Team` attached its plan counters — the
        whole-graph plan counters (``plans``).
        """
        batch = {"cohorts": self._n_cohorts}
        if self._plan_counters is not None:
            batch["plans"] = self._plan_counters.counters()
        return {"events_processed": self._n_events_processed, "batch": batch}
