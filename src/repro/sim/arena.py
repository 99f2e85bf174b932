"""Free-list event arena for the batched DES engine.

A deferred callback (``Engine.defer`` / ``Engine.call_later``) runs once
per task start, task finish, message delivery and collective hop.  Rather
than one :class:`~repro.sim.engine.Event` object per callback, those
callbacks live in this arena: a table of parallel columns
(``fn``/``args``/``state``) indexed by an integer *slot* that is recycled
through a free list, so steady-state simulation performs **zero** per-event
object allocation.  The deadline and seq live only in the engine's calendar
entry, which names the slot.

The columns are plain Python lists rather than numpy arrays: the engine
writes and reads single cells on every event, and scalar indexing into a
numpy array is several times slower than a list access.

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

__all__ = ["EventArena", "FREE", "PENDING", "CANCELLED"]

#: slot states
FREE, PENDING, CANCELLED = 0, 1, 2


class EventArena:
    """Recycled storage for deferred-callback events (see module docstring).

    The engine's run loop reaches into the columns directly (``_fn`` /
    ``_args`` / ``_state`` / ``_free``) — the attribute names are part of the
    engine<->arena contract, not a public API.
    """

    __slots__ = ("_fn", "_args", "_state", "_free", "allocated", "cancelled")

    def __init__(self) -> None:
        self._fn: list[Any] = []
        self._args: list[Any] = []
        self._state: list[int] = []
        self._free: list[int] = []
        #: total slots ever handed out (recycled allocations included)
        self.allocated = 0
        #: slots cancelled before firing
        self.cancelled = 0

    def alloc(self, fn: Callable[..., None], args: tuple) -> int:
        """Claim a slot for a pending callback and return its index."""
        free = self._free
        if free:
            slot = free.pop()
            self._fn[slot] = fn
            self._args[slot] = args
            self._state[slot] = PENDING
        else:
            slot = self._grow(fn, args)
        self.allocated += 1
        return slot

    def _grow(self, fn: Callable[..., None], args: tuple) -> int:
        """Cold path of :meth:`alloc`: append a brand-new slot.

        The engine inlines the free-list claim at its hot call sites
        (``defer``/``call_later``) and falls back here only while the table
        is still growing toward its steady-state size.  Does **not** bump
        ``allocated`` — the inlined caller does.
        """
        slot = len(self._fn)
        self._fn.append(fn)
        self._args.append(args)
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
        """Allocation statistics for :meth:`Engine.counters`."""
        return {
            "allocated": self.allocated,
            "recycled": self.recycled,
            "cancelled": self.cancelled,
            "capacity": self.capacity,
            "live": self.live,
        }
