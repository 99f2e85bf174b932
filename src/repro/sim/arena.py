"""Free-list event arena for the batched DES engine.

A deferred callback (``Engine.defer`` / ``Engine.call_later``) runs once
per task start, task finish, message delivery and collective hop.  Rather
than one :class:`~repro.sim.engine.Event` object per callback, those
callbacks live in this arena: a table of parallel columns
(``when``/``seq``/``kind``/``state`` plus the callback itself) indexed by an
integer *slot* that is recycled through a free list, so steady-state
simulation performs **zero** per-event object allocation.

The hot columns are plain Python lists rather than numpy arrays: the engine
writes and reads single cells on every event, and scalar indexing into a
numpy array is several times slower than a list access.  The structured
numpy view (:meth:`EventArena.as_structured`) is materialized on demand for
instrumentation and debugging only.

Slot lifecycle::

    alloc() -> PENDING --fired by the run loop--> FREE (recycled)
                  |
                  +--- cancel() -> CANCELLED --popped by the run loop--> FREE

A cancelled slot is *not* pushed onto the free list at cancel time: its
(when, seq) entry is still in the engine's calendar, and recycling the slot
before that entry pops would fire the new occupant at the old deadline.  The
run loop frees the slot when the stale entry surfaces, and skips the call.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["EventArena", "FREE", "PENDING", "CANCELLED",
           "KIND_DEFER", "KIND_TIMER", "KIND_COMPLETION"]

#: slot states
FREE, PENDING, CANCELLED = 0, 1, 2

#: slot kinds (instrumentation only — the dispatch path ignores them)
KIND_DEFER, KIND_TIMER, KIND_COMPLETION = 0, 1, 2


class EventArena:
    """Recycled storage for deferred-callback events (see module docstring).

    The engine's run loop reaches into the columns directly (``_fn`` /
    ``_args`` / ``_state`` / ``_free``) — the attribute names are part of the
    engine<->arena contract, not a public API.
    """

    __slots__ = ("_fn", "_args", "_when", "_seq", "_kind", "_state", "_free",
                 "allocated", "cancelled")

    def __init__(self) -> None:
        self._fn: list[Any] = []
        self._args: list[Any] = []
        self._when: list[float] = []
        self._seq: list[int] = []
        self._kind: list[int] = []
        self._state: list[int] = []
        self._free: list[int] = []
        #: total slots ever handed out (recycled allocations included)
        self.allocated = 0
        #: slots cancelled before firing
        self.cancelled = 0

    def alloc(self, when: float, seq: int, fn: Callable[..., None],
              args: tuple, kind: int = KIND_DEFER) -> int:
        """Claim a slot for a callback due at ``when`` and return its index."""
        free = self._free
        if free:
            slot = free.pop()
            self._fn[slot] = fn
            self._args[slot] = args
            self._when[slot] = when
            self._seq[slot] = seq
            self._kind[slot] = kind
            self._state[slot] = PENDING
        else:
            slot = len(self._fn)
            self._fn.append(fn)
            self._args.append(args)
            self._when.append(when)
            self._seq.append(seq)
            self._kind.append(kind)
            self._state.append(PENDING)
        self.allocated += 1
        return slot

    def _grow(self, when: float, seq: int, fn: Callable[..., None],
              args: tuple, kind: int) -> int:
        """Cold path of :meth:`alloc`: append a brand-new slot.

        The engine inlines the free-list claim at its hot call sites
        (``defer``/``call_later``) and falls back here only while the table
        is still growing toward its steady-state size.  Does **not** bump
        ``allocated`` — the inlined caller does.
        """
        slot = len(self._fn)
        self._fn.append(fn)
        self._args.append(args)
        self._when.append(when)
        self._seq.append(seq)
        self._kind.append(kind)
        self._state.append(PENDING)
        return slot

    def cancel(self, slot: int) -> None:
        """Mark a pending slot so the run loop skips (and then recycles) it."""
        if self._state[slot] != PENDING:
            raise ValueError(f"slot {slot} is not pending")
        self._state[slot] = CANCELLED
        self._fn[slot] = None
        self._args[slot] = None
        self.cancelled += 1

    # -- introspection -----------------------------------------------------
    @property
    def capacity(self) -> int:
        """Number of slots ever materialized (the table's physical size)."""
        return len(self._fn)

    @property
    def live(self) -> int:
        """Slots currently pending or cancelled-but-not-yet-popped."""
        return len(self._fn) - len(self._free)

    @property
    def recycled(self) -> int:
        """Allocations served from the free list instead of growing."""
        return self.allocated - len(self._fn)

    def counters(self) -> dict:
        """Allocation statistics for ``engine_counters``."""
        return {
            "allocated": self.allocated,
            "recycled": self.recycled,
            "cancelled": self.cancelled,
            "capacity": self.capacity,
            "live": self.live,
        }

    def as_structured(self):
        """Materialize the when/seq/kind/state columns as a structured
        numpy array (one row per physical slot) for inspection."""
        import numpy as np

        out = np.zeros(len(self._fn), dtype=[("when", "f8"), ("seq", "i8"),
                                             ("kind", "i1"), ("state", "i1")])
        out["when"] = self._when
        out["seq"] = self._seq
        out["kind"] = self._kind
        out["state"] = self._state
        return out
