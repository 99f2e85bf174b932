"""Lagrangian particle tracking: Newmark integration, injection, deposition,
and rank ownership for migration.

Matches the paper's setup (Sec. 2.1): particles are injected through the
nasal orifice during the first time step, transported by drag/gravity/
buoyancy with Newmark time integration (dt = 1e-4 s), and deposit on airway
walls.  The *load-balance* signature is the point: at injection all
particles sit in one or few MPI subdomains (L96 = 0.02 in Table 1), and they
spread as the simulation advances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from ..mesh.generator import AirwayMesh
from .flowfield import AirwayFlow
from .forces import (
    FluidProperties,
    ParticleProperties,
    drag_linear_coefficient_d,
    gravity_buoyancy_acceleration,
    particle_mass,
)

__all__ = ["ParticleState", "NewmarkTracker", "inject_at_inlet",
           "ElementLocator", "STATUS_ACTIVE", "STATUS_DEPOSITED",
           "STATUS_ESCAPED"]

STATUS_ACTIVE = 0
STATUS_DEPOSITED = 1
STATUS_ESCAPED = 2


@dataclass
class ParticleState:
    """Positions/velocities/status of a particle population.

    ``diameter`` is optional: when present (one entry per particle) the
    population is polydisperse and the tracker uses per-particle drag.
    """

    x: np.ndarray                    # (n, 3)
    v: np.ndarray                    # (n, 3)
    a: np.ndarray                    # (n, 3) accelerations (Newmark state)
    status: np.ndarray               # (n,) int8
    diameter: Optional[np.ndarray] = None   # (n,) per-particle diameters

    @classmethod
    def empty(cls) -> "ParticleState":
        """A population with no particles."""
        return cls(x=np.zeros((0, 3)), v=np.zeros((0, 3)),
                   a=np.zeros((0, 3)), status=np.zeros(0, dtype=np.int8))

    @property
    def n(self) -> int:
        """Total particles (any status)."""
        return len(self.status)

    @property
    def active(self) -> np.ndarray:
        """Boolean mask of still-moving particles."""
        return self.status == STATUS_ACTIVE

    @property
    def n_active(self) -> int:
        """Number of still-moving particles."""
        return int(self.active.sum())

    def counts(self) -> dict:
        """Histogram {status: count}."""
        return {s: int((self.status == s).sum())
                for s in (STATUS_ACTIVE, STATUS_DEPOSITED, STATUS_ESCAPED)}

    def extend(self, other: "ParticleState") -> None:
        """Append another population in place (repeated injections — the
        paper's pollutant-inhalation scenario injects particles several
        times during the simulation)."""
        if self.n == 0:
            # an empty population carries no dispersity commitment; adopt
            # the incoming one (a zero-length polydisperse remnant from an
            # earlier extend must not survive into a monodisperse append,
            # or ``diameter`` falls out of sync with ``status``)
            self.diameter = None
        if (self.diameter is None) != (other.diameter is None) and self.n:
            raise ValueError(
                "cannot mix mono- and polydisperse populations")
        self.x = np.concatenate([self.x, other.x])
        self.v = np.concatenate([self.v, other.v])
        self.a = np.concatenate([self.a, other.a])
        self.status = np.concatenate([self.status, other.status])
        if other.diameter is not None:
            base = (self.diameter if self.diameter is not None
                    else np.zeros(0))
            self.diameter = np.concatenate([base, other.diameter])
        self.check_invariants()

    def check_invariants(self) -> None:
        """Raise if array lengths fell out of sync (defensive guard)."""
        n = self.n
        for name in ("x", "v", "a"):
            arr = getattr(self, name)
            if arr.shape != (n, 3):
                raise ValueError(
                    f"ParticleState.{name} has shape {arr.shape}, "
                    f"expected ({n}, 3)")
        if self.diameter is not None and self.diameter.shape != (n,):
            raise ValueError(
                f"ParticleState.diameter has length "
                f"{len(self.diameter)}, expected {n}")


def inject_at_inlet(airway: AirwayMesh, n_particles: int,
                    seed: int = 0,
                    speed_fraction: float = 0.5,
                    diameters: Optional[np.ndarray] = None) -> ParticleState:
    """Inject ``n_particles`` uniformly over the inlet disk (nasal orifice).

    Initial velocity is ``speed_fraction`` of the local fluid velocity along
    the inlet axis (aerosol entrained by the inhalation).  Pass
    ``diameters`` (n,) for a polydisperse population (e.g. from
    :func:`repro.particles.lognormal_diameters`).
    """
    if n_particles < 0:
        raise ValueError("n_particles must be >= 0")
    if diameters is not None:
        diameters = np.asarray(diameters, dtype=np.float64)
        if diameters.shape != (n_particles,):
            raise ValueError(
                f"diameters must be ({n_particles},), got {diameters.shape}")
        if (diameters <= 0).any():
            raise ValueError("diameters must be positive")
    center, axis, radius = airway.inlet_disk()
    rng = np.random.default_rng(seed)
    # uniform over the disk, slightly inside the wall
    r = 0.95 * radius * np.sqrt(rng.uniform(size=n_particles))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n_particles)
    helper = np.array([1.0, 0.0, 0.0])
    if abs(np.dot(helper, axis)) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    u = np.cross(axis, helper)
    u /= np.linalg.norm(u)
    w = np.cross(axis, u)
    offset = 1e-4 * radius  # nudge inside the tube
    x = (center[None, :] + axis[None, :] * offset
         + r[:, None] * (np.cos(theta)[:, None] * u[None, :]
                         + np.sin(theta)[:, None] * w[None, :]))
    flow = AirwayFlow(airway.segments)
    v = speed_fraction * flow.velocity(x)
    return ParticleState(x=x, v=v, a=np.zeros_like(x),
                         status=np.zeros(n_particles, dtype=np.int8),
                         diameter=diameters)


class _NewmarkBuffers:
    """Preallocated buffers for the Newmark update (one per tracker,
    grown to the largest active count seen; sliced per step)."""

    def __init__(self, n: int):
        self.capacity = n
        self.k1 = np.empty((n, 1))
        self.denom = np.empty((n, 1))
        self.t1 = np.empty((n, 3))
        self.t2 = np.empty((n, 3))
        self.v1 = np.empty((n, 3))
        self.a1 = np.empty((n, 3))
        self.x1 = np.empty((n, 3))


class NewmarkTracker:
    """Newmark time integrator for particle transport.

    Uses the standard constant-average-acceleration parameters
    (beta = 1/4, gamma = 1/2) with the drag linearized at the current
    relative velocity (semi-implicit), so the stiff small-particle drag
    (relaxation time ~ 5e-5 s vs dt = 1e-4 s) stays stable.
    """

    def __init__(self, flow: AirwayFlow,
                 particles: Optional[ParticleProperties] = None,
                 fluid: Optional[FluidProperties] = None,
                 beta: float = 0.25, gamma: float = 0.5):
        self.flow = flow
        self.particles = particles or ParticleProperties()
        self.fluid = fluid or FluidProperties()
        self.beta = beta
        self.gamma = gamma
        self._g_eff = gravity_buoyancy_acceleration(self.particles,
                                                    self.fluid)
        # locate reuse needs the split locate/velocity API; other carrier
        # fields (e.g. MeshVelocityField hybrids) evaluate velocity directly
        self._reuse_locate = hasattr(flow, "velocity_from_locate")
        # active-set compaction: a stable permutation of particle ids with
        # the active ones in a contiguous prefix; frozen particles swap to
        # the tail once.  ``_status_ref`` detects external status edits.
        self._order: Optional[np.ndarray] = None
        self._nact = 0
        self._status_ref: Optional[np.ndarray] = None
        # cross-step locate reuse: the boundary pass locates every
        # active particle's *post-move* position; those positions are
        # exactly what the next step's velocity evaluation locates again.
        # Cached per absolute particle id; a bitwise position comparison
        # guards against external mutation, so reuse is exact.
        self._loc_x: Optional[np.ndarray] = None      # (n, 3)
        self._loc_seg: Optional[np.ndarray] = None    # (n,)
        self._loc_radial: Optional[np.ndarray] = None  # (n,)
        self._loc_valid: Optional[np.ndarray] = None  # (n,) bool
        self._newmark_ws: Optional[_NewmarkBuffers] = None

    def _active_indices(self, state: ParticleState) -> np.ndarray:
        """Ids of active particles: the prefix of the compacted order."""
        n = state.n
        if (self._order is None or len(self._order) != n
                or not np.array_equal(state.status, self._status_ref)):
            # (re)build: injections or external status edits invalidate
            active = np.nonzero(state.status == STATUS_ACTIVE)[0]
            rest = np.nonzero(state.status != STATUS_ACTIVE)[0]
            self._order = np.concatenate([active, rest])
            self._nact = len(active)
            self._status_ref = state.status.copy()
        return self._order[:self._nact]

    def _fluid_velocity(self, state: ParticleState, idx: np.ndarray,
                        x: np.ndarray) -> np.ndarray:
        """Carrier velocity at ``x`` (= ``state.x[idx]``).

        Rows whose position is bitwise-equal to the one the previous
        boundary pass located reuse that locate result — the velocity
        profile is then applied through
        :meth:`AirwayFlow.velocity_from_locate`, the exact op sequence of
        :meth:`AirwayFlow.velocity`.
        """
        if not self._reuse_locate:
            return self.flow.velocity(x)
        n = state.n
        if self._loc_valid is None or len(self._loc_valid) != n:
            self._loc_x = np.zeros((n, 3))
            self._loc_seg = np.zeros(n, dtype=np.intp)
            self._loc_radial = np.zeros(n)
            self._loc_valid = np.zeros(n, dtype=bool)
        ok = self._loc_valid[idx]
        np.logical_and(ok, (self._loc_x[idx] == x).all(axis=1), out=ok)
        if ok.all():
            seg_idx = self._loc_seg[idx]
            radial = self._loc_radial[idx]
        elif not ok.any():
            seg_idx, _, radial = self.flow.locate(x)
        else:
            seg_idx = np.empty(len(idx), dtype=np.intp)
            radial = np.empty(len(idx))
            hit = idx[ok]
            seg_idx[ok] = self._loc_seg[hit]
            radial[ok] = self._loc_radial[hit]
            miss = ~ok
            s_m, _, r_m = self.flow.locate(x[miss])
            seg_idx[miss] = s_m
            radial[miss] = r_m
        return self.flow.velocity_from_locate(seg_idx, radial)

    def step(self, state: ParticleState, dt: float,
             flow_scale: float = 1.0) -> ParticleState:
        """Advance active particles by ``dt`` and apply wall/outlet rules.

        ``flow_scale`` uniformly scales the carrier velocity the particles
        feel — the hook the breathing-cycle waveforms use to expose the
        inhale/pause/exhale transient to the drag force.  The default 1.0
        takes the exact pre-existing code path (no multiply), so legacy
        trajectories replay bit for bit; any other value scales ``u_f``
        before the Newmark update.
        """
        idx = self._active_indices(state)
        if len(idx) == 0:
            return state
        x, v, a = state.x[idx], state.v[idx], state.a[idx]
        if state.diameter is not None:
            d = state.diameter[idx]
            m = particle_mass(d, self.particles.density)[:, None]
        else:
            d = np.full(len(idx), self.particles.diameter)
            m = self.particles.mass
        u_f = self._fluid_velocity(state, idx, x)
        if flow_scale != 1.0:
            u_f = u_f * flow_scale
        k = drag_linear_coefficient_d(u_f, v, d, self.fluid)[:, None]
        # Newmark: v1 = v + dt[(1-g) a0 + g a1],  a1 = (k (u_f - v1))/m + g_eff
        # solve for v1 (k treated constant over the step):
        #   v1 (1 + g dt k/m) = v + dt (1-g) a0 + g dt (k u_f / m + g_eff)
        x1, v1, a1 = self._newmark(x, v, a, u_f, k, m, dt, self.gamma * dt)
        state.x[idx], state.v[idx], state.a[idx] = x1, v1, a1
        self._apply_boundaries(state, idx, x1)
        return state

    def _newmark(self, x, v, a, u_f, k, m, dt, gdt):
        """The Newmark update through preallocated buffers.

        Every ``out=`` ufunc call evaluates one node of the expression tree
        annotated above it (``denom``, ``v1``, ``a1``, ``x1``).
        """
        n = len(x)
        w = self._newmark_ws
        if w is None or w.capacity < n:
            w = self._newmark_ws = _NewmarkBuffers(
                max(n, 2 * (w.capacity if w else 0)))
        k1, denom = w.k1[:n], w.denom[:n]
        t1, t2 = w.t1[:n], w.t2[:n]
        v1, a1, x1 = w.v1[:n], w.a1[:n], w.x1[:n]
        # denom = 1.0 + gdt * k / m
        np.multiply(k, gdt, out=k1)
        np.divide(k1, m, out=k1)
        np.add(k1, 1.0, out=denom)
        # v1 = (v + dt (1-g) a + gdt (k u_f / m + g_eff)) / denom
        np.multiply(k, u_f, out=t1)
        np.divide(t1, m, out=t1)
        np.add(t1, self._g_eff, out=t1)
        np.multiply(t1, gdt, out=t1)
        np.multiply(a, dt * (1.0 - self.gamma), out=t2)
        np.add(v, t2, out=t2)
        np.add(t2, t1, out=t2)
        np.divide(t2, denom, out=v1)
        # a1 = k (u_f - v1) / m + g_eff
        np.subtract(u_f, v1, out=t1)
        np.multiply(k, t1, out=t1)
        np.divide(t1, m, out=t1)
        np.add(t1, self._g_eff, out=a1)
        # x1 = x + dt v + dt^2 ((0.5-b) a + b a1)
        np.multiply(a, 0.5 - self.beta, out=t1)
        np.multiply(a1, self.beta, out=t2)
        np.add(t1, t2, out=t1)
        np.multiply(t1, dt * dt, out=t1)
        np.multiply(v, dt, out=t2)
        np.add(x, t2, out=t2)
        np.add(t2, t1, out=x1)
        return x1, v1, a1

    def _apply_boundaries(self, state: ParticleState,
                          idx: Optional[np.ndarray] = None,
                          x1: Optional[np.ndarray] = None) -> None:
        if idx is None:
            idx = self._active_indices(state)
        if len(idx) == 0:
            return
        if x1 is None:
            x1 = state.x[idx]
        seg_idx, axial, radial = self.flow.locate(x1)
        deposited = radial >= 1.0
        at_outlet = (self.flow.is_terminal(seg_idx) & (axial >= 1.0 - 1e-9)
                     & ~deposited)
        state.status[idx[deposited]] = STATUS_DEPOSITED
        state.status[idx[at_outlet]] = STATUS_ESCAPED
        # freeze non-active particles
        frozen_mask = deposited | at_outlet
        frozen = idx[frozen_mask]
        state.v[frozen] = 0.0
        state.a[frozen] = 0.0
        if (self._reuse_locate and self._loc_valid is not None
                and len(self._loc_valid) == state.n):
            self._loc_x[idx] = x1
            self._loc_seg[idx] = seg_idx
            self._loc_radial[idx] = radial
            self._loc_valid[idx] = True
        if self._order is not None and len(frozen):
            # stable swap-to-tail: survivors keep their relative order,
            # the newly frozen join the head of the frozen tail
            keep = idx[~frozen_mask]
            self._order[:len(keep)] = keep
            self._order[len(keep):self._nact] = frozen
            self._nact = len(keep)
            self._status_ref[frozen] = state.status[frozen]


class ElementLocator:
    """Maps particle positions to mesh elements / owning MPI ranks.

    Nearest-centroid lookup via a KD-tree — the simulated equivalent of
    Alya's element search, sufficient because ownership (hence load) is what
    the experiments measure.
    """

    def __init__(self, airway: AirwayMesh, labels: Optional[np.ndarray] = None):
        self.mesh = airway.mesh
        self._centroids = self.mesh.centroids()
        self._tree = cKDTree(self._centroids)
        self.labels = labels
        self._adj = None          # ElementAdjacency, built on first warm use
        # Per-particle element cache for population-level queries: a frozen
        # (deposited/escaped) particle never moves again, so its element is
        # located once and reused every subsequent step.  ``_cached_eids``
        # doubles as the warm-start host guess for particles whose host was
        # located on *any* earlier call (``_host_known``).
        self._cached_eids = np.zeros(0, dtype=np.intp)
        self._cached_valid = np.zeros(0, dtype=bool)
        self._host_known = np.zeros(0, dtype=bool)

    def elements_of(self, points: np.ndarray) -> np.ndarray:
        """Nearest element id for each point."""
        if len(points) == 0:
            return np.zeros(0, dtype=np.intp)
        _, eids = self._tree.query(points)
        return eids.astype(np.intp, copy=False)

    def elements_of_state(self, state: "ParticleState") -> np.ndarray:
        """Nearest element id for each particle of ``state`` (any status).

        Unlike :meth:`elements_of`, this only walks the KD-tree for the
        STATUS_ACTIVE particles (plus newly frozen ones, once): deposited
        and escaped particles are stationary, so their cached element
        assignment from the step they froze stays valid forever.
        """
        eids, _ = self._locate_state(state)
        return eids.copy()

    def _locate_state(self, state: "ParticleState"):
        """(element ids view into the cache, active mask) for ``state``.

        The returned array aliases the internal cache — callers must not
        mutate it and must copy before handing it out.
        """
        n = state.n
        active = state.status == STATUS_ACTIVE
        if len(self._cached_eids) < n:
            # population grew (repeated injections): extend the cache
            grow = n - len(self._cached_eids)
            self._cached_eids = np.concatenate(
                [self._cached_eids, np.zeros(grow, dtype=np.intp)])
            self._cached_valid = np.concatenate(
                [self._cached_valid, np.zeros(grow, dtype=bool)])
            self._host_known = np.concatenate(
                [self._host_known, np.zeros(grow, dtype=bool)])
        eids = self._cached_eids[:n]
        valid = self._cached_valid[:n]
        need = active | ~valid
        if need.any():
            need_idx = np.nonzero(need)[0]
            if self._adj is None:
                from ..fem.geometry import element_adjacency
                from .locator_fast import squared_radii
                self._adj = element_adjacency(self.mesh)
                self._r2 = squared_radii(self._adj)
            # warm start from the last known host; first-seen particles
            # take a plain KD-tree query
            known = self._host_known[need_idx]
            warm_idx = need_idx[known]
            cold_idx = need_idx[~known]
            if len(warm_idx):
                from .locator_fast import warm_locate
                found, _ = warm_locate(
                    self._tree, self._centroids, self._adj,
                    state.x[warm_idx], eids[warm_idx], r2=self._r2)
                eids[warm_idx] = found
            if len(cold_idx):
                _, found = self._tree.query(state.x[cold_idx])
                eids[cold_idx] = found
            self._host_known[need_idx] = True
            # frozen particles just located stay cached; active ones move
            # and must be re-queried next call
            valid[need] = ~active[need]
        return eids, active

    def owners_of(self, points: np.ndarray) -> np.ndarray:
        """Owning MPI rank for each point (requires ``labels``)."""
        if self.labels is None:
            raise ValueError("locator built without a rank partition")
        return self.labels[self.elements_of(points)]

    def rank_histogram(self, points: np.ndarray, nranks: int) -> np.ndarray:
        """Particle count per rank."""
        owners = self.owners_of(points)
        return np.bincount(owners, minlength=nranks)

    def rank_histogram_state(self, state: "ParticleState",
                             nranks: int) -> np.ndarray:
        """Active-particle count per owning rank (requires ``labels``).

        Equivalent to ``rank_histogram(state.x[state.active], nranks)`` but
        KD-tree queries are restricted to the active particles.
        """
        if self.labels is None:
            raise ValueError("locator built without a rank partition")
        eids, active = self._locate_state(state)
        owners = self.labels[eids[active]]
        return np.bincount(owners, minlength=nranks)
