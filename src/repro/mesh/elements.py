"""Element types of the hybrid respiratory mesh.

The paper's 17.7M-element mesh mixes three volume element types (Sec. 2.1):

* **prisms** in the boundary layer (extruded from the wall surface, to
  resolve near-wall gradients),
* **tetrahedra** in the core flow,
* **pyramids** to transition from the prisms' quadrilateral faces to the
  tetrahedra.

This module defines the type metadata used everywhere: the node count of
each type.
"""

from __future__ import annotations

import enum

__all__ = ["ElementType", "NODES_PER_TYPE"]


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
