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
import itertools
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from .arena import EventArena

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
                 "_value", "_defer")

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self.callbacks: list[Callable[["Event"], None]] = []
        self._triggered = False
        self._processed = False
        self._ok: Optional[bool] = None
        self._value: Any = None
        # (fn, args) invoked directly by the run loop when this event pops —
        # the frame-free form of a single callback (see Engine.defer).
        self._defer: Optional[tuple] = None

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
        # inlined Engine._post — this is the hottest trigger path
        eng = self.engine
        eng._now_queue.append((next(eng._seq), self))
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
        self.engine._post(self)
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
        engine._schedule_at(engine.now + delay, self)


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

    Events dispatch in the total ``(when, seq)`` order: by simulated time,
    then FIFO by the sequence number assigned when they were scheduled.
    Instead of one global heap of entries, the engine keeps a calendar of
    per-timestamp *buckets* plus a heap of the distinct populated times.
    The run loop drains the cohort at the current timestamp (merged by seq
    against a FIFO now-queue of events triggered at the current time) and
    then jumps the clock directly to the next populated time — one heap
    operation per *timestamp* instead of one per event.  Deferred callbacks
    live in a recycled :class:`~repro.sim.arena.EventArena` slot instead of
    an :class:`Event` object; queue payloads are either an int (arena slot)
    or an Event, distinguished by type at dispatch.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._seq = itertools.count()
        self._n_events_processed = 0
        self._stop_reason: Optional[str] = None
        # events triggered at the current time, as (seq, event)
        self._now_queue: deque[tuple[int, Any]] = deque()
        self.arena = EventArena()
        self._buckets: dict[float, list] = {}
        self._times: list[float] = []
        # cohort at the current timestamp + its drain cursor; same-time
        # schedules append here (monotonic seqs keep it sorted)
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

    def defer(self, fn: Callable[..., None], *args: Any) -> int:
        """Run ``fn(*args)`` when the engine next reaches the current time.

        Equivalent to a :class:`Process` whose generator would execute
        ``fn`` before its first yield (the bootstrap event is posted at the
        same queue position), without the generator/Process allocation.
        Nonblocking sends, collective completion and the task runtime's
        plan arbiter are built on this.  Returns an opaque handle (an arena slot); callers that
        need cancellation use :meth:`cancel_scheduled`.
        """
        # the hot path allocates no object at all: the callback rides in
        # a recycled arena slot, the queue entry is (seq, slot).  The
        # arena free-list claim is inlined (see EventArena.alloc) — this
        # and call_later together run ~15k times per CFPD run.
        seq = next(self._seq)
        arena = self.arena
        free = arena._free
        if free:
            slot = free.pop()
            arena._fn[slot] = fn
            arena._args[slot] = args
            arena._state[slot] = 1
        else:
            slot = arena._grow(fn, args)
        arena.allocated += 1
        self._now_queue.append((seq, slot))
        return slot

    def call_later(self, delay: float, fn: Callable[..., None],
                   *args: Any) -> int:
        """Run ``fn(*args)`` after ``delay`` simulated time.

        Equivalent to a :class:`Timeout` with ``fn`` as its only callback —
        same queue entry, same seq — without the Timeout construction or the
        callback closure.  The callback-based task runtime schedules each
        task's finish timer with it, at dispatch.  Returns an opaque handle (see
        :meth:`defer`).
        """
        when = self.now + delay
        seq = next(self._seq)
        # inlined arena alloc + bucket insert (hot: one call per message
        # delivery, collective completion and plan timer)
        arena = self.arena
        free = arena._free
        if free:
            slot = free.pop()
            arena._fn[slot] = fn
            arena._args[slot] = args
            arena._state[slot] = 1
        else:
            slot = arena._grow(fn, args)
        arena.allocated += 1
        if when == self.now:
            self._cur.append((seq, slot))
        else:
            b = self._buckets.get(when)
            if b is None:
                self._buckets[when] = [(seq, slot)]
                heapq.heappush(self._times, when)
            else:
                b.append((seq, slot))
        return slot

    def schedule_fn_at(self, when: float, fn: Callable[..., None],
                       *args: Any) -> int:
        """Run ``fn(*args)`` at the *absolute* simulated time ``when``.

        Unlike ``call_later(when - now, ...)`` — which schedules at
        ``now + (when - now)``, a float that can differ from ``when`` in the
        last ulp — the deadline is the exact float given, so precomputed
        execution plans (Team plan mode) land their completion events on
        bit-exact timestamps.  Returns a handle for :meth:`cancel_scheduled`.
        """
        if when < self.now:
            raise SimulationError(f"cannot schedule into the past "
                                  f"({when} < {self.now})")
        seq = next(self._seq)
        slot = self.arena.alloc(fn, args)
        self._bucket_insert(when, seq, slot)
        return slot

    def cancel_scheduled(self, handle: int) -> None:
        """Cancel a pending :meth:`call_later`/:meth:`schedule_fn_at` call.

        The queue entry stays where it is and is skipped (and its arena slot
        recycled) when it surfaces; the callback is guaranteed not to run.
        """
        self.arena.cancel(handle)

    # -- scheduling (internal) ----------------------------------------------
    def _schedule_at(self, when: float, event: Event) -> None:
        self._bucket_insert(when, next(self._seq), event)

    def _bucket_insert(self, when: float, seq: int, payload) -> None:
        """File a (seq, payload) entry under its timestamp's bucket.

        An entry at the *current* time joins the live cohort directly —
        monotonic seqs keep the cohort list sorted, and the run loop's merge
        against the now-queue preserves the global (when, seq) order.
        """
        if when == self.now:
            self._cur.append((seq, payload))
            return
        b = self._buckets.get(when)
        if b is None:
            self._buckets[when] = [(seq, payload)]
            heapq.heappush(self._times, when)
        else:
            b.append((seq, payload))

    def _post(self, event: Event) -> None:
        """Schedule a just-triggered event's callbacks at the current time."""
        self._now_queue.append((next(self._seq), event))

    # -- running --------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock would pass ``until``.

        Per *timestamp* (not per event): pop the next populated time off the
        ``_times`` heap, take its whole bucket as the current cohort, and
        drain it merged against the now-queue by seq — the exact total
        (when, seq) order while paying one heap operation per distinct
        timestamp.  Times whose bucket was already consumed (re-pushed while
        the clock sat on them) are skipped lazily.  This is the engine's
        only dispatch loop.
        """
        if until is not None and until < self.now:
            raise SimulationError("cannot run into the past")
        nq = self._now_queue
        buckets = self._buckets
        times = self._times
        arena = self.arena
        a_state = arena._state
        a_fn = arena._fn
        a_args = arena._args
        a_free = arena._free
        heappop = heapq.heappop
        cur = self._cur
        ci = self._ci
        n_done = 0
        try:
            while True:
                if self._stop_reason is not None:
                    return
                if nq:
                    if ci < len(cur) and cur[ci][0] < nq[0][0]:
                        payload = cur[ci][1]
                        ci += 1
                    else:
                        payload = nq.popleft()[1]
                elif ci < len(cur):
                    payload = cur[ci][1]
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
                    for _, p in bucket:
                        if type(p) is not int or a_state[p] != 2:
                            break
                    else:
                        # only cancelled slots: recycle them without moving
                        # the clock (a cancelled tail entry must not drag
                        # the simulation end time forward)
                        for _, p in bucket:
                            a_state[p] = 0
                            a_free.append(p)
                        continue
                    self._n_cohorts += 1
                    self.now = when
                    cur = bucket
                    ci = 0
                    # visible before callbacks run: same-time schedules made
                    # during dispatch append to this cohort
                    self._cur = cur
                    continue
                if type(payload) is int:
                    # arena slot: free it, then invoke unless cancelled
                    st = a_state[payload]
                    a_state[payload] = 0
                    fn = a_fn[payload]
                    args = a_args[payload]
                    a_fn[payload] = None
                    a_args[payload] = None
                    a_free.append(payload)
                    if st == 1:  # PENDING
                        n_done += 1
                        fn(*args)
                    continue
                event = payload
                if not event._triggered:
                    event._triggered = True
                    event._ok = True
                n_done += 1
                event._processed = True
                d = event._defer
                if d is not None:
                    event._defer = None
                    d[0](*d[1])
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
        dispatched timestamps (``cohorts``), the event arena's allocation
        counters and — once a :class:`~repro.core.runtime.Team` attached
        its plan arbiter — the whole-graph plan counters (``plans``).
        """
        batch = {"cohorts": self._n_cohorts, "arena": self.arena.counters()}
        if self._plan_arbiter is not None:
            batch["plans"] = self._plan_arbiter.counters()
        return {"events_processed": self._n_events_processed, "batch": batch}
