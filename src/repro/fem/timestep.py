"""CFL-driven adaptive time stepping under the determinism contract.

The controller picks the time step from the *state* of the simulation —
the velocity field and the cached element sizes of
:mod:`repro.fem.geometry` — never from the wall clock, so a rerun
reproduces the exact same Δt sequence (pinned, with the rung walk, in
``tests/golden_digests.json``).

Two pieces:

* :class:`DtLadder` — a discrete geometric ladder of admissible steps
  ``dt_min * ratio**k``.  Quantizing Δt onto a small set of rungs is what
  makes adaptivity compatible with every Δt-keyed cache in the stack: the
  operator-split constant blocks of :mod:`repro.fem.assembly` are keyed by
  ``mass_coeff = rho/Δt``, and :class:`~repro.fem.fractional_step.
  FractionalStepSolver` keeps per-rung operator state (recycler gathers,
  deflation setups) — a continuous controller would defeat them all with
  a fresh key every step.
* :class:`CflController` — the target-CFL policy on a ladder, with
  hysteresis: a CFL violation drops straight to the admissible rung
  (stability is not negotiable), but climbing happens one rung at a time
  and only with ``climb_margin`` headroom, so a rate hovering at a rung
  boundary cannot flap between two rungs (and thus between two operator
  caches) on round-off.

:func:`cfl_rate` supplies the controller input ``max_e |u_e| / h_e`` from
the cached :class:`~repro.fem.geometry.ElementGeometry` blocks; the CFL
number of a step is then ``rate * dt``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["CflController", "DtLadder", "cfl_rate", "element_cfl_rates"]


@dataclass(frozen=True)
class DtLadder:
    """Geometric ladder of admissible time steps.

    Rung ``k`` carries ``dt_min * ratio**k`` for ``k = 0 .. top``; ``top``
    is the largest rung not exceeding ``dt_max`` (with a relative epsilon
    so ``dt_max = dt_min * ratio**n`` lands exactly on rung ``n``).
    """

    dt_min: float
    dt_max: float
    ratio: float = 2.0

    def __post_init__(self):
        if self.dt_min <= 0:
            raise ValueError(f"dt_min must be > 0, got {self.dt_min}")
        if self.dt_max < self.dt_min:
            raise ValueError(
                f"dt_max ({self.dt_max}) must be >= dt_min ({self.dt_min})")
        if self.ratio <= 1.0:
            raise ValueError(f"ratio must be > 1, got {self.ratio}")

    @property
    def top(self) -> int:
        """Index of the coarsest rung."""
        k = 0
        while self.dt_min * self.ratio ** (k + 1) \
                <= self.dt_max * (1.0 + 1e-9):
            k += 1
        return k

    def dt_of(self, rung: int) -> float:
        """The step size of ``rung`` (clamped into the ladder)."""
        rung = min(max(rung, 0), self.top)
        return self.dt_min * self.ratio ** rung

    def rungs(self) -> list:
        """All admissible step sizes, finest first."""
        return [self.dt_of(k) for k in range(self.top + 1)]

    def quantize(self, dt_target: float) -> int:
        """The coarsest rung whose step does not exceed ``dt_target``.

        Targets below ``dt_min`` floor at rung 0 (the caller may then be
        running above its CFL target — reported, not hidden).
        """
        k = self.top
        while k > 0 and self.dt_of(k) > dt_target * (1.0 + 1e-9):
            k -= 1
        return k


@dataclass(frozen=True)
class CflController:
    """Target-CFL rung selection with anti-flap hysteresis.

    Pure function of ``(rate, current_rung)`` — the deterministic step
    controller of the adaptive modes.  ``rate`` is ``max_e |u_e|/h_e``
    (:func:`cfl_rate`); the unquantized target step is
    ``cfl_target / rate``.
    """

    cfl_target: float = 0.9
    ladder: DtLadder = field(default_factory=lambda: DtLadder(1e-4, 8e-4))
    #: climb only when the target step exceeds the next rung by this
    #: factor — the hysteresis band that keeps a boundary-hovering rate
    #: from alternating between two rungs (and their operator caches)
    climb_margin: float = 1.05

    def __post_init__(self):
        if self.cfl_target <= 0:
            raise ValueError(
                f"cfl_target must be > 0, got {self.cfl_target}")
        if self.climb_margin < 1.0:
            raise ValueError(
                f"climb_margin must be >= 1, got {self.climb_margin}")

    def target_dt(self, rate: float) -> float:
        """Unquantized CFL-limited step for ``rate`` (dt_max when the
        field is at rest)."""
        if rate <= 0.0:
            return self.ladder.dt_max
        return self.cfl_target / rate

    def rung_for(self, rate: float, current: int) -> int:
        """Next rung given the current one.

        Drops directly to the admissible rung on a CFL violation; climbs
        at most one rung per step, and only with ``climb_margin`` headroom
        over the next rung's step.
        """
        target = self.target_dt(rate)
        candidate = self.ladder.quantize(target)
        if candidate < current:
            return candidate
        if candidate > current:
            if target >= self.climb_margin * self.ladder.dt_of(current + 1):
                return current + 1
        return min(current, self.ladder.top)


def cfl_rate(u: np.ndarray, blocks) -> float:
    """``max_e |u_e| / h_e`` over cached geometry ``blocks``.

    ``u`` is the (nnodes, 3) nodal velocity; ``|u_e|`` is the magnitude of
    the element-mean velocity and ``h_e`` the cached element size.  Fixed
    numpy reduction order — bit-reproducible for identical fields.
    """
    rate = 0.0
    for block in blocks:
        if len(block.eids) == 0:
            continue
        u_e = u[block.conn].mean(axis=1)
        speed = np.sqrt((u_e * u_e).sum(axis=1))
        rate = max(rate, float((speed / block.h).max()))
    return rate


def element_cfl_rates(u: np.ndarray, blocks, nelem: int) -> np.ndarray:
    """Per-element ``|u_e| / h_e``, indexed by global element id.

    The local (per-subdomain) adaptive mode reduces this array over each
    rank's element set to derive per-rank rungs and subcycle counts.
    """
    rates = np.zeros(nelem)
    for block in blocks:
        if len(block.eids) == 0:
            continue
        u_e = u[block.conn].mean(axis=1)
        speed = np.sqrt((u_e * u_e).sum(axis=1))
        rates[block.eids] = speed / block.h
    return rates
