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

    Events dispatch by simulated time, then in the order they were
    scheduled.  The engine keeps a calendar of per-timestamp *buckets*
    (lists of entries in scheduling order) plus a heap of the distinct
    populated times.  The run loop drains the bucket at the current
    timestamp — anything scheduled for the current time while it drains
    is appended to that same bucket — and then jumps the clock directly to
    the next populated time: one heap operation per *timestamp* instead of
    one per event.  An entry is the payload itself: an :class:`Event`, or
    the ``[fn, args]`` record of a deferred callback.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._n_events_processed = 0
        self._stop_reason: Optional[str] = None
        self._buckets: dict[float, list] = {}
        self._times: list[float] = []
        # bucket at the current timestamp + its drain cursor; everything
        # scheduled for the current time appends here
        self._cur: list = []
        self._ci = 0
        # timestamps dispatched (see counters)
        self._n_cohorts = 0
        # the task runtime's plan arbiter, attached by the first Team
        # (repro.core.runtime); counters() reports its plan block
        self._plan_arbiter = None

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
        Nonblocking sends, collective completion and the task runtime's
        plan arbiter are built on this.  Returns the callback's
        ``[fn, args]`` record as its handle for :meth:`cancel_scheduled`.
        """
        rec = [fn, args]
        self._cur.append(rec)
        return rec

    def call_later(self, delay: float, fn: Callable[..., None],
                   *args: Any) -> list:
        """Run ``fn(*args)`` after ``delay`` simulated time.

        Equivalent to a :class:`Timeout` with ``fn`` as its only callback —
        same queue position — without the Timeout construction or the
        callback closure.  The callback-based task runtime schedules each
        task's finish timer with it, at dispatch.  Returns a handle (see
        :meth:`defer`).
        """
        rec = [fn, args]
        self._bucket_insert(self.now + delay, rec)
        return rec

    def schedule_fn_at(self, when: float, fn: Callable[..., None],
                       *args: Any) -> list:
        """Run ``fn(*args)`` at the *absolute* simulated time ``when``.

        Unlike ``call_later(when - now, ...)`` — which schedules at
        ``now + (when - now)``, a float that can differ from ``when`` in the
        last ulp — the deadline is the exact float given, so precomputed
        execution plans (Team plan mode) land their completion events on
        bit-exact timestamps.  Returns a handle (see :meth:`defer`).
        """
        if when < self.now:
            raise SimulationError(f"cannot schedule into the past "
                                  f"({when} < {self.now})")
        rec = [fn, args]
        self._bucket_insert(when, rec)
        return rec

    def cancel_scheduled(self, handle: list) -> None:
        """Cancel a pending :meth:`defer`/:meth:`call_later`/
        :meth:`schedule_fn_at` call.

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
        """Append an entry to its timestamp's bucket.

        An entry at the *current* time joins the live bucket directly, so
        it runs after everything already scheduled for now.
        """
        if when == self.now:
            self._cur.append(entry)
            return
        b = self._buckets.get(when)
        if b is None:
            self._buckets[when] = [entry]
            heapq.heappush(self._times, when)
        else:
            b.append(entry)

    # -- running --------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock would pass ``until``.

        Per *timestamp* (not per event): pop the next populated time off the
        ``_times`` heap, take its whole bucket as the current cohort, and
        drain it in order, including the entries appended to it while it
        drains — one heap operation per distinct timestamp.  Times whose
        bucket was already consumed (re-pushed while the clock sat on them)
        are skipped lazily.  This is the engine's only dispatch loop.
        """
        if until is not None and until < self.now:
            raise SimulationError("cannot run into the past")
        buckets = self._buckets
        times = self._times
        heappop = heapq.heappop
        cur = self._cur
        ci = self._ci
        n_done = 0
        try:
            while True:
                if self._stop_reason is not None:
                    return
                if ci < len(cur):
                    payload = cur[ci]
                    ci += 1
                else:
                    # timestamp fully drained: bulk-advance the clock to the
                    # next populated time
                    while times:
                        when = heappop(times)
                        bucket = buckets.pop(when, None)
                        if bucket is not None:
                            break
                    else:
                        if until is not None:
                            self.now = until
                        return
                    if until is not None and when > until:
                        buckets[when] = bucket
                        heapq.heappush(times, when)
                        self.now = until
                        return
                    if when < self.now:
                        raise SimulationError("time went backwards")
                    for p in bucket:
                        if type(p) is not list or p[0] is not None:
                            break
                    else:
                        # only cancelled callbacks: pass over them without
                        # moving the clock (a cancelled tail entry must not
                        # drag the simulation end time forward)
                        continue
                    self._n_cohorts += 1
                    self.now = when
                    cur = bucket
                    ci = 0
                    # visible before callbacks run: same-time schedules made
                    # during dispatch append to this cohort
                    self._cur = cur
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
        :class:`~repro.core.runtime.Team` attached its plan arbiter — the
        whole-graph plan counters (``plans``).
        """
        batch = {"cohorts": self._n_cohorts}
        if self._plan_arbiter is not None:
            batch["plans"] = self._plan_arbiter.counters()
        return {"events_processed": self._n_events_processed, "batch": batch}
