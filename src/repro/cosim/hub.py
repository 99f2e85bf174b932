"""Buffered transformer hub between the 0D lung and the CFPD solver.

The two sides advance at different timescales: the lung model lives on
the breathing cycle (seconds, sampled at millisecond resolution), the
CFPD solver walks a CFL-driven Δt ladder at ~1e-4 s of *airway* time that
the workload maps onto a configured number of breathing cycles.  In the
EBRAINS InterscaleHUB style the mediation is split into three pure
stages:

* **receive** — the sampled :class:`~repro.cosim.lung.FlowTrace` is
  partitioned into fixed windows of ``policy.window`` samples (the hub's
  buffer granularity);
* **transform** — each window is reduced to one inlet boundary scale
  factor, ``mean(|Q|) / max|Q|`` floored at
  :data:`~repro.cosim.lung.SCALE_FLOOR`;
* **forward** — :meth:`CosimHub.scale_at` answers the solver's queries at
  any simulated time under an explicit staleness policy: ``"hold"``
  forwards the last *completed* window (zero-order hold — what a real
  asynchronous hub that only ships finished buffers can do), ``"interp"``
  interpolates linearly between window centers (the smoother choice when
  both sides replay a precomputed trace).

Everything is a pure function of simulated state: the trace is
deterministic, the windows are a fixed partition, and ``scale_at`` /
``staleness`` / :meth:`CosimHub.transfer_summary` neither mutate the hub
nor consult the wall clock.  Repeated queries — from a rerun or from
another consumer of the same trace — therefore return bit-identical
values, which is what lets the ventilator-coupled golden digests hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lung import SCALE_FLOOR, BreathingPattern, FlowTrace, \
    simulate_breathing

__all__ = ["CosimHub", "HubPolicy", "hub_for"]

_HOLD, _INTERP = "hold", "interp"


@dataclass(frozen=True)
class HubPolicy:
    """Buffering/staleness policy of the hub."""

    #: samples per buffered window
    window: int = 16
    #: forwarding mode: ``"hold"`` (last completed window) or
    #: ``"interp"`` (linear between window centers)
    mode: str = "interp"
    #: lower bound on forwarded scales (bias-flow floor)
    floor: float = SCALE_FLOOR

    def __post_init__(self):
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.mode not in (_HOLD, _INTERP):
            raise ValueError(
                f"mode must be 'hold' or 'interp', got {self.mode!r}")
        if not 0.0 <= self.floor < 1.0:
            raise ValueError(
                f"floor must be in [0, 1), got {self.floor}")


class CosimHub:
    """Receive / transform / forward mediator over one flow trace.

    ``time_scale`` maps solver time to breathing time (breathing seconds
    per simulated second); queries beyond the trace wrap cyclically, so
    the hub answers for any ``t >= 0`` — including the clipped off-ladder
    final step of an adaptive schedule.
    """

    def __init__(self, trace: FlowTrace, policy: HubPolicy = HubPolicy(),
                 time_scale: float = 1.0):
        if time_scale <= 0:
            raise ValueError(f"time_scale must be > 0, got {time_scale}")
        self.trace = trace
        self.policy = policy
        self.time_scale = time_scale
        # receive: partition the trace into fixed windows
        n = len(trace.flow)
        w = policy.window
        self.n_windows = (n + w - 1) // w
        self.window_dt = w * trace.dt
        self.duration = trace.duration
        # transform: one scale factor per window
        peak = trace.peak_flow
        if peak <= 0:
            raise ValueError("flow trace has no nonzero flow")
        raw = np.array([
            float(np.abs(trace.flow[k * w:(k + 1) * w]).mean()) / peak
            for k in range(self.n_windows)])
        self.scales = np.maximum(policy.floor, raw)
        self._centers = (np.arange(self.n_windows) + 0.5) * self.window_dt

    # -- forward -----------------------------------------------------------

    def _breathing_time(self, t: float) -> float:
        """Solver time mapped into the trace (cyclic)."""
        tb = math.fmod(t * self.time_scale, self.duration)
        if tb < 0.0:
            tb += self.duration
        return tb

    def _window_of(self, tb: float) -> int:
        return min(int(tb // self.window_dt), self.n_windows - 1)

    def scale_at(self, t: float) -> float:
        """Forward the inlet scale factor for solver time ``t``."""
        tb = self._breathing_time(t)
        if self.policy.mode == _HOLD:
            k = self._window_of(tb)
            return float(self.scales[max(k - 1, 0)])
        return float(np.interp(tb, self._centers, self.scales))

    def staleness(self, t: float) -> float:
        """Age (in breathing seconds) of the data behind ``scale_at(t)``.

        ``"hold"``: time since the forwarded window completed (the first
        window bootstraps itself, so its staleness is the query time).
        ``"interp"``: distance to the nearest window center.
        """
        tb = self._breathing_time(t)
        if self.policy.mode == _HOLD:
            k = self._window_of(tb)
            if k == 0:
                return float(tb)
            return float(tb - k * self.window_dt)
        return float(np.abs(self._centers - tb).min())

    # -- diagnostics -------------------------------------------------------

    def buffer_stats(self) -> dict:
        """Static buffering facts of this hub (receive/transform side)."""
        return {
            "samples": int(len(self.trace.flow)),
            "trace_dt": float(self.trace.dt),
            "windows": int(self.n_windows),
            "window_dt": float(self.window_dt),
            "mode": self.policy.mode,
            "floor": float(self.policy.floor),
            "time_scale": float(self.time_scale),
            "scale_min": float(self.scales.min()),
            "scale_max": float(self.scales.max()),
        }

    def transfer_summary(self, times) -> dict:
        """Buffer stats plus forward-side statistics over the query
        schedule ``times`` — a pure function of the schedule, so two runs
        with the same Δt plan report identical summaries regardless of
        how often the live solver actually called :meth:`scale_at`."""
        times = list(times)
        stats = self.buffer_stats()
        stats["forwards"] = len(times)
        if times:
            scales = [self.scale_at(t) for t in times]
            stale = [self.staleness(t) for t in times]
            stats["forward_scale_min"] = float(min(scales))
            stats["forward_scale_max"] = float(max(scales))
            stats["staleness_max"] = float(max(stale))
            stats["staleness_mean"] = float(sum(stale) / len(stale))
        return stats


_HUB_CACHE: dict = {}


def hub_for(pattern: BreathingPattern, n_cycles: int, horizon: float,
            policy: HubPolicy = HubPolicy()) -> CosimHub:
    """The hub mapping ``n_cycles`` (whole) breaths of ``pattern`` onto the
    solver horizon ``[0, horizon]`` — cached per (pattern, cycles,
    horizon, policy), since the underlying trace is a pure function of
    those.

    The cache is a wall-clock-only optimization: a cache hit returns an
    identical (not merely equal) hub, so forwarded scales are unaffected.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    cycles = int(n_cycles)
    if cycles != n_cycles:
        raise ValueError(f"n_cycles must be an integer, got {n_cycles!r}")
    key = (pattern, cycles, float(horizon), policy)
    hub = _HUB_CACHE.get(key)
    if hub is None:
        trace = simulate_breathing(pattern, n_cycles=cycles)
        scale = cycles * pattern.ventilator.cycle_time / horizon
        hub = CosimHub(trace, policy=policy, time_scale=scale)
        _HUB_CACHE[key] = hub
    return hub
