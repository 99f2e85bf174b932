"""PMPI-style interception layer.

Real DLB attaches to applications *transparently* by interposing on the MPI
profiling interface (PMPI): every blocking MPI call is wrapped so the library
learns when a process stops computing (call entry) and when it resumes (call
exit).  The simulated MPI reproduces that contract: any object implementing
:class:`PMPIHook` can be registered on a communicator and will be notified
around every blocking call, without any change to the application program —
the same "no source changes" property the paper emphasizes.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

__all__ = ["PMPIHook", "HookList"]


@runtime_checkable
class PMPIHook(Protocol):
    """Observer notified at entry/exit of blocking MPI calls."""

    def on_mpi_enter(self, rank: int, call: str) -> None:
        """``rank`` entered blocking MPI call ``call`` (e.g. ``"recv"``)."""

    def on_mpi_exit(self, rank: int, call: str) -> None:
        """``rank`` returned from blocking MPI call ``call``."""


class HookList:
    """An ordered collection of hooks, dispatched around blocking calls."""

    def __init__(self) -> None:
        self._hooks: list[PMPIHook] = []

    def register(self, hook: PMPIHook) -> None:
        """Add ``hook``; it will see every subsequent blocking call."""
        self._hooks.append(hook)

    def enter(self, rank: int, call: str) -> None:
        """Notify every hook that ``rank`` entered blocking ``call``."""
        for hook in self._hooks:
            hook.on_mpi_enter(rank, call)

    def exit(self, rank: int, call: str) -> None:
        """Notify every hook that ``rank`` left blocking ``call``."""
        for hook in self._hooks:
            hook.on_mpi_exit(rank, call)

    def __len__(self) -> int:
        return len(self._hooks)
