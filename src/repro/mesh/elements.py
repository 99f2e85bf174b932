"""Element types of the hybrid respiratory mesh.

The paper's 17.7M-element mesh mixes three volume element types (Sec. 2.1):

* **prisms** in the boundary layer (extruded from the wall surface, to
  resolve near-wall gradients),
* **tetrahedra** in the core flow,
* **pyramids** to transition from the prisms' quadrilateral faces to the
  tetrahedra.

This module defines the type metadata used everywhere: node counts and face
definitions (for dual-graph construction).
"""

from __future__ import annotations

import enum

__all__ = ["ElementType", "NODES_PER_TYPE", "FACES_PER_TYPE"]


class ElementType(enum.IntEnum):
    """Volume element types (values used in ``Mesh.elem_types``)."""

    TET = 0
    PYRAMID = 1
    PRISM = 2


#: Number of nodes per element type.
NODES_PER_TYPE = {
    ElementType.TET: 4,
    ElementType.PYRAMID: 5,
    ElementType.PRISM: 6,
}

#: Local faces per element type (tuples of local node indices).  Triangular
#: and quadrilateral faces; used to build the face-sharing dual graph.
FACES_PER_TYPE = {
    ElementType.TET: (
        (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
    ),
    # pyramid: quad base 0-1-2-3, apex 4
    ElementType.PYRAMID: (
        (0, 1, 2, 3), (0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4),
    ),
    # prism: triangles 0-1-2 (bottom) and 3-4-5 (top), three quads
    ElementType.PRISM: (
        (0, 1, 2), (3, 4, 5), (0, 1, 4, 3), (1, 2, 5, 4), (2, 0, 3, 5),
    ),
}
