"""Analytic carrier-flow field along the airway tree.

The paper solves the incompressible Navier-Stokes equations for the airflow
of a rapid inhalation; the aerosol is transported in that field.  Our
reproduction runs the *numerical machinery* of the fluid step (assembly,
Krylov solvers, SGS — see :mod:`repro.app`), but for transporting particles
we use a conservation-consistent analytic field over the airway tree:

* each segment carries a flow rate ``Q`` — the inlet flow, halved at every
  bifurcation (mass conservation over a symmetric tree);
* within a tube the velocity is a Poiseuille profile along the local axis:
  ``u = 2 (Q / pi R^2) (1 - (r/R)^2) d``.

This keeps the particle physics (drag toward the local fluid velocity,
gravitational drift, wall deposition) realistic while making experiments
deterministic and mesh-independent — the substitution recorded in
DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..mesh.airway import Segment

__all__ = ["AirwayFlow"]


class _LocateWorkspace:
    """Reusable buffers for :meth:`AirwayFlow.locate`.

    One (capacity, ns, 3) block plus per-coordinate (capacity, ns) planes;
    grown geometrically, sliced per call.  ``locate`` writes every
    intermediate into these with ``out=``.
    """

    def __init__(self, n: int, ns: int):
        self.capacity = n
        self.ns = ns
        self.rel = np.empty((n, ns, 3))
        self.p0 = np.empty((n, ns))
        self.p1 = np.empty((n, ns))
        self.p2 = np.empty((n, ns))
        self.t = np.empty((n, ns))
        self.tc = np.empty((n, ns))
        self.r = np.empty((n, ns))
        self.pen = np.empty((n, ns))
        self.b1 = np.empty((n, ns), dtype=bool)
        self.b2 = np.empty((n, ns), dtype=bool)
        self.rows = np.arange(n)


@dataclass(frozen=True)
class _SegArrays:
    starts: np.ndarray      # (ns, 3)
    directions: np.ndarray  # (ns, 3)
    lengths: np.ndarray     # (ns,)
    radii: np.ndarray       # (ns,)
    umax: np.ndarray        # (ns,) peak axial velocity


class AirwayFlow:
    """Poiseuille flow over an airway tree.

    Parameters
    ----------
    segments:
        The centerline tree from :func:`repro.mesh.airway.build_airway_tree`.
    inlet_flow_rate:
        Volumetric flow through the face inlet in m^3/s.  The default of
        1 L/s corresponds to the rapid inhalation the paper simulates.
    """

    def __init__(self, segments: Sequence[Segment],
                 inlet_flow_rate: float = 1.0e-3):
        if inlet_flow_rate <= 0:
            raise ValueError("inlet_flow_rate must be positive")
        self.segments = list(segments)
        self.inlet_flow_rate = inlet_flow_rate
        n_children: dict[int, int] = {}
        for seg in self.segments:
            if seg.parent >= 0:
                n_children[seg.parent] = n_children.get(seg.parent, 0) + 1
        flow: dict[int, float] = {}
        for seg in self.segments:  # parents precede children
            if seg.parent < 0:
                flow[seg.sid] = inlet_flow_rate
            else:
                flow[seg.sid] = flow[seg.parent] / n_children[seg.parent]
        umax = np.array([2.0 * flow[s.sid] / (np.pi * s.radius ** 2)
                         for s in self.segments])
        self._arr = _SegArrays(
            starts=np.array([s.start for s in self.segments]),
            directions=np.array([s.direction for s in self.segments]),
            lengths=np.array([s.length for s in self.segments]),
            radii=np.array([s.radius for s in self.segments]),
            umax=umax)
        self.flow_rates = flow
        has_child = np.zeros(len(self.segments), dtype=bool)
        for seg in self.segments:
            if seg.parent >= 0:
                has_child[seg.parent] = True
        self._has_child = has_child
        self._len_hi = self._arr.lengths + 1e-12
        # contiguous per-coordinate rows for the locate plane kernels
        self._starts_T = np.ascontiguousarray(self._arr.starts.T)
        self._dirs_T = np.ascontiguousarray(self._arr.directions.T)
        self._ws: _LocateWorkspace | None = None

    # -- geometry queries ------------------------------------------------------
    def locate(self, points: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For each point: (segment index, axial fraction, radial fraction).

        The owning segment is the one containing the point (radial fraction
        <= 1 with axial projection inside [0, L]); ties and outside points
        resolve to the segment with the smallest radial fraction.

        The kernel works on three contiguous (n, ns) coordinate planes
        held in a reusable workspace (no large allocations after warm-up):
        the axial projection is an ``einsum`` over the 3-D offset block,
        and the squared distance sums ``(d0² + d1²) + d2²``, the pairing
        ``np.linalg.norm`` uses over a length-3 axis.
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        a = self._arr
        n, ns = len(points), len(a.lengths)
        ws = self._ws
        if ws is None or ws.capacity < n or ws.ns != ns:
            ws = self._ws = _LocateWorkspace(max(n, 2 * (ws.capacity if ws
                                                         else 0)), ns)
        sx, dx = self._starts_T, self._dirs_T
        rel = ws.rel[:n]
        p0, p1, p2 = ws.p0[:n], ws.p1[:n], ws.p2[:n]
        t, tc, r, pen = ws.t[:n], ws.tc[:n], ws.r[:n], ws.pen[:n]
        b1, b2 = ws.b1[:n], ws.b2[:n]
        # rel = points - starts, one coordinate plane at a time
        for j in range(3):
            np.subtract(points[:, j][:, None], sx[j][None, :],
                        out=rel[:, :, j])
        np.einsum("psj,sj->ps", rel, a.directions, out=t)  # axial coord
        np.greater_equal(t, -1e-12, out=b1)
        np.less_equal(t, self._len_hi[None, :], out=b2)
        np.logical_and(b1, b2, out=b1)                 # t_in
        np.clip(t, 0.0, a.lengths[None, :], out=tc)
        # closest_j = starts_j + tc * dir_j; diff_j = points_j - closest_j;
        # then diff_j * diff_j, per coordinate plane
        for j, pj in ((0, p0), (1, p1), (2, p2)):
            np.multiply(tc, dx[j][None, :], out=pj)
            np.add(sx[j][None, :], pj, out=pj)
            np.subtract(points[:, j][:, None], pj, out=pj)
            np.multiply(pj, pj, out=pj)
        # np.linalg.norm(diff, axis=2): add.reduce over axis 2 pairs a
        # length-3 axis as (d0² + d1²) + d2², then sqrt
        np.add(p0, p1, out=r)
        np.add(r, p2, out=r)
        np.sqrt(r, out=r)
        np.divide(r, a.radii[None, :], out=r)          # rfrac
        np.logical_not(b1, out=b2)
        np.multiply(b2, 1e6, out=pen)                  # where(t_in, 0, 1e6)
        np.add(r, pen, out=pen)                        # score
        seg_idx = np.argmin(pen, axis=1)
        rows = ws.rows[:n]
        axial = tc[rows, seg_idx] / a.lengths[seg_idx]
        radial = r[rows, seg_idx]
        return seg_idx, axial, radial

    def velocity(self, points: np.ndarray) -> np.ndarray:
        """Fluid velocity (n, 3) at ``points`` (zero outside the airway)."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        seg_idx, _, radial = self.locate(points)
        return self.velocity_from_locate(seg_idx, radial)

    def velocity_from_locate(self, seg_idx: np.ndarray,
                             radial: np.ndarray) -> np.ndarray:
        """Velocity from an existing :meth:`locate` result (the exact ops
        :meth:`velocity` applies after its internal locate)."""
        a = self._arr
        profile = np.clip(1.0 - radial ** 2, 0.0, None)
        return (a.umax[seg_idx] * profile)[:, None] * a.directions[seg_idx]

    def nodal_velocity(self, coords: np.ndarray) -> np.ndarray:
        """Velocity sampled at mesh nodes (used as the resolved field)."""
        return self.velocity(coords)

    def wall_gap(self, points: np.ndarray) -> np.ndarray:
        """Distance fraction to the wall: 1 - r/R (negative = outside)."""
        _, _, radial = self.locate(points)
        return 1.0 - radial

    def is_terminal(self, seg_idx: np.ndarray) -> np.ndarray:
        """Whether the segment has no children (distal outlet)."""
        return ~self._has_child[seg_idx]
