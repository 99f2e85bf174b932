"""Hybrid tube-mesh generator for the airway tree.

Each :class:`~repro.mesh.airway.Segment` is meshed as a structured tube:

* cross-sections along the axis, each a disk lattice — a center node plus
  ``rings`` concentric rings of ``P`` points;
* between consecutive sections the lattice cells become volume elements:

  - the innermost wedges (center ↔ ring 1) are split into **tetrahedra**
    (core flow),
  - the intermediate annulus is split into **pyramids + tetrahedra**
    (the prism-to-tet transition of the paper's mesh),
  - the outermost annulus — the boundary layer at the airway wall — is kept
    as **prisms**.

Elements are emitted in generation order (axially, ring by ring), which is
spatially coherent: chunking this order preserves locality, exactly the
property the paper's ATOMICS and MULTIDEP strategies rely on.

Segments are meshed independently (junction regions of real patient meshes
are unstructured; we record explicit *junction pairs* instead, so the dual
graph used for partitioning remains connected — see
:meth:`AirwayMesh.dual_with_junctions`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .airway import AirwayConfig, Segment, build_airway_tree
from .elements import ElementType
from .mesh import CSRGraph, Mesh

__all__ = ["MeshResolution", "AirwayMesh", "build_airway_mesh",
           "build_tube_mesh"]


@dataclass(frozen=True)
class MeshResolution:
    """Discretization parameters of the tube mesher.

    ``points_per_ring`` applies at the trachea radius and scales with
    sqrt(radius) for other segments (never below ``min_points``).
    """

    points_per_ring: int = 8
    rings: int = 3
    min_points: int = 6
    section_aspect: float = 1.2     # axial spacing ~ radius * aspect
    min_sections: int = 2
    max_sections: int = 12

    def __post_init__(self):
        if self.rings < 2:
            raise ValueError("rings must be >= 2 (need a boundary layer)")
        if self.min_points < 3:
            raise ValueError("min_points must be >= 3")

    def points_for(self, radius: float, reference_radius: float) -> int:
        """Ring point count for a segment of ``radius``."""
        p = int(round(self.points_per_ring
                      * np.sqrt(radius / reference_radius)))
        return max(self.min_points, p)

    def rings_for(self, radius: float, reference_radius: float) -> int:
        """Radial ring count for a segment of ``radius``.

        Wide segments get more core rings (tet-rich interiors); narrow
        distal branches keep only the boundary layer plus one core ring
        (prism-rich) — like real airway meshes, where the near-wall prism
        layers dominate small branches.  This radius-dependent element mix
        is what makes per-rank assembly cost vary even under a
        count-balanced partition (the paper's L96 ~ 0.66).
        """
        r = int(round(self.rings * np.sqrt(radius / reference_radius)))
        return max(2, min(r, self.rings + 2))

    def sections_for(self, length: float, radius: float) -> int:
        """Number of axial intervals for a segment."""
        s = int(round(length / (radius * self.section_aspect)))
        return int(np.clip(s, self.min_sections, self.max_sections))


def _basis(direction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors spanning the plane perpendicular to ``direction``."""
    helper = np.array([1.0, 0.0, 0.0])
    if abs(np.dot(helper, direction)) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    u = np.cross(direction, helper)
    u /= np.linalg.norm(u)
    v = np.cross(direction, u)
    return u, v


class _MeshBuilder:
    """Accumulates nodes/elements across segments."""

    def __init__(self) -> None:
        self.coords: list[np.ndarray] = []
        self.types: list[int] = []
        self.conn: list[list[int]] = []
        self.regions: list[int] = []
        self.n_nodes = 0

    def add_nodes(self, pts: np.ndarray) -> np.ndarray:
        ids = np.arange(self.n_nodes, self.n_nodes + len(pts))
        self.coords.append(pts)
        self.n_nodes += len(pts)
        return ids

    def add_element(self, etype: ElementType, nodes: list[int],
                    region: int) -> None:
        padded = list(nodes) + [-1] * (6 - len(nodes))
        self.types.append(int(etype))
        self.conn.append(padded)
        self.regions.append(region)

    def build(self) -> Mesh:
        return Mesh(coords=np.vstack(self.coords),
                    elem_types=np.asarray(self.types, dtype=np.int8),
                    elem_nodes=np.asarray(self.conn, dtype=np.int32),
                    regions=np.asarray(self.regions, dtype=np.int32))


def _mesh_segment(builder: _MeshBuilder, seg: Segment, P: int, R: int,
                  S: int) -> tuple[int, int]:
    """Mesh one tube segment; returns its (first, last+1) element id range."""
    u, v = _basis(seg.direction)
    nodes_per_section = 1 + R * P
    theta = 2.0 * np.pi * np.arange(P) / P
    ring_unit = np.outer(np.cos(theta), u) + np.outer(np.sin(theta), v)

    section_ids = []
    for s in range(S + 1):
        origin = seg.start + seg.direction * (seg.length * s / S)
        pts = [origin]
        for k in range(1, R + 1):
            r = seg.radius * k / R
            pts.extend(origin + r * ring_unit)
        section_ids.append(builder.add_nodes(np.asarray(pts)))

    def center(s):
        return int(section_ids[s][0])

    def ring(s, k, j):
        return int(section_ids[s][1 + (k - 1) * P + (j % P)])

    first_elem = len(builder.types)
    region = seg.sid

    def emit_prism_as_tets(a, b, c, d, e, f):
        builder.add_element(ElementType.TET, [a, b, c, d], region)
        builder.add_element(ElementType.TET, [b, c, d, e], region)
        builder.add_element(ElementType.TET, [c, d, e, f], region)

    def emit_prism_as_tet_pyramid(a, b, c, d, e, f):
        # prism (a,b,c | d,e,f) = tet(a,d,e,f) + pyramid(b,c,f,e; apex a)
        builder.add_element(ElementType.TET, [a, d, e, f], region)
        builder.add_element(ElementType.PYRAMID, [b, c, f, e, a], region)

    for s in range(S):
        sn = s + 1
        # innermost wedges: center <-> ring 1 (core tetrahedra)
        for j in range(P):
            a, b, c = center(s), ring(s, 1, j), ring(s, 1, j + 1)
            d, e, f = center(sn), ring(sn, 1, j), ring(sn, 1, j + 1)
            emit_prism_as_tets(a, b, c, d, e, f)
        # annuli between ring k and k+1
        for k in range(1, R):
            is_bl = (k == R - 1)
            is_transition = (R >= 3 and k == R - 2)
            for j in range(P):
                a, b = ring(s, k, j), ring(s, k, j + 1)
                c, d = ring(s, k + 1, j + 1), ring(s, k + 1, j)
                a2, b2 = ring(sn, k, j), ring(sn, k, j + 1)
                c2, d2 = ring(sn, k + 1, j + 1), ring(sn, k + 1, j)
                # split the hex cell into two prisms along diagonal a-c
                prisms = (((a, b, c), (a2, b2, c2)),
                          ((a, c, d), (a2, c2, d2)))
                for (p_bot, p_top) in prisms:
                    nodes = (*p_bot, *p_top)
                    if is_bl:
                        builder.add_element(ElementType.PRISM, list(nodes),
                                            region)
                    elif is_transition:
                        emit_prism_as_tet_pyramid(*nodes)
                    else:
                        emit_prism_as_tets(*nodes)
    return first_elem, len(builder.types)


@dataclass
class AirwayMesh:
    """The generated airway mesh plus the geometry it came from.

    Attributes
    ----------
    mesh:
        The hybrid volume mesh.
    segments:
        Centerline tree (see :mod:`repro.mesh.airway`).
    elem_ranges:
        Per segment sid, the (first, last+1) element-id range.
    junction_pairs:
        One (parent_element, child_element) pair per tree edge; added to the
        dual graph so partitioning sees a connected domain.
    """

    mesh: Mesh
    segments: list[Segment]
    elem_ranges: dict[int, tuple[int, int]]
    junction_pairs: list[tuple[int, int]]

    @property
    def nasal_segment(self) -> Segment:
        """The nasal/pharynx segment whose entrance is the nostril."""
        for seg in self.segments:
            if seg.generation == -1:  # GEN_NASAL
                return seg
        return self.segments[0]

    def inlet_disk(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(center, axis, radius) of the injection disk — the *nasal
        orifice* ("particles are always introduced in the system through
        the nasal orifice", paper Sec. 2.2)."""
        seg = self.nasal_segment
        return seg.start.copy(), seg.direction.copy(), seg.radius

    def dual_with_junctions(self) -> CSRGraph:
        """Face-sharing dual graph plus one edge per segment junction."""
        base = self.mesh.face_adjacency()
        if not self.junction_pairs:
            return base
        extra = np.asarray(self.junction_pairs, dtype=np.int32)
        # rebuild from the combined (deduplicated, one-directional) edge list
        src = np.repeat(np.arange(base.n, dtype=np.int32),
                        np.diff(base.xadj).astype(np.int64))
        dst = base.adjncy
        half = src < dst
        all_a = np.concatenate([src[half], extra[:, 0]])
        all_b = np.concatenate([dst[half], extra[:, 1]])
        return CSRGraph.from_edges(base.n, all_a, all_b)


def build_tube_mesh(segment: Segment,
                    resolution: Optional[MeshResolution] = None,
                    reference_radius: Optional[float] = None) -> Mesh:
    """Mesh a single straight tube (useful for tests and small demos)."""
    res = resolution or MeshResolution()
    ref = reference_radius if reference_radius is not None else segment.radius
    builder = _MeshBuilder()
    P = res.points_for(segment.radius, ref)
    S = res.sections_for(segment.length, segment.radius)
    _mesh_segment(builder, segment, P, res.rings_for(segment.radius, ref), S)
    return builder.build()


def build_airway_mesh(config: Optional[AirwayConfig] = None,
                      resolution: Optional[MeshResolution] = None
                      ) -> AirwayMesh:
    """Generate the full airway mesh from face to the last generation."""
    cfg = config or AirwayConfig()
    res = resolution or MeshResolution()
    segments = build_airway_tree(cfg)
    builder = _MeshBuilder()
    elem_ranges: dict[int, tuple[int, int]] = {}
    for seg in segments:
        P = res.points_for(seg.radius, cfg.trachea_radius)
        S = res.sections_for(seg.length, seg.radius)
        R = res.rings_for(seg.radius, cfg.trachea_radius)
        elem_ranges[seg.sid] = _mesh_segment(builder, seg, P, R, S)
    mesh = builder.build()
    junctions = []
    for seg in segments:
        if seg.parent < 0:
            continue
        parent_range = elem_ranges[seg.parent]
        child_range = elem_ranges[seg.sid]
        # last element of the parent tube touches its outlet; first element
        # of the child tube touches its inlet.
        junctions.append((parent_range[1] - 1, child_range[0]))
    return AirwayMesh(mesh=mesh, segments=segments, elem_ranges=elem_ranges,
                      junction_pairs=junctions)
