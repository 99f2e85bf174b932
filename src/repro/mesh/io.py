"""Mesh I/O: legacy-VTK text export.

Writes the hybrid airway mesh as a legacy VTK *unstructured grid* — the
format every visualization tool (ParaView, VisIt, PyVista) opens — with the
segment/region id attached as cell data, so deposition maps and partitions
can be inspected visually.

VTK cell-type ids: tetra = 10, pyramid = 14, wedge (triangular prism) = 13.
"""

from __future__ import annotations

from typing import Optional, TextIO, Union

import numpy as np

from .elements import ElementType, NODES_PER_TYPE
from .mesh import Mesh

__all__ = ["write_vtk", "VTK_CELL_TYPES"]

VTK_CELL_TYPES = {
    ElementType.TET: 10,
    ElementType.PYRAMID: 14,
    ElementType.PRISM: 13,
}

# lookup arrays indexed by ElementType value, for vectorized writing
_NN_OF_TYPE = np.zeros(max(ElementType) + 1, dtype=np.int64)
_VTK_ID_OF_TYPE = np.zeros(max(ElementType) + 1, dtype=np.int64)
for _t in ElementType:
    _NN_OF_TYPE[_t] = NODES_PER_TYPE[_t]
    _VTK_ID_OF_TYPE[_t] = VTK_CELL_TYPES[_t]


def _open(dest: Union[str, TextIO], mode: str):
    if isinstance(dest, str):
        return open(dest, mode), True
    return dest, False


def _write_block(fh: TextIO, lines) -> None:
    """Write an iterable of lines as one joined string (single syscall)."""
    block = "\n".join(lines)
    if block:
        fh.write(block + "\n")


def write_vtk(mesh: Mesh, dest: Union[str, TextIO],
              cell_data: Optional[dict] = None,
              title: str = "repro airway mesh") -> None:
    """Write ``mesh`` as a legacy-VTK unstructured grid.

    ``cell_data`` maps names to per-element scalar arrays; the mesh's
    region labels are always included as ``region``.
    """
    data = {"region": mesh.regions}
    if cell_data:
        for name, values in cell_data.items():
            values = np.asarray(values)
            if values.shape != (mesh.nelem,):
                raise ValueError(
                    f"cell data {name!r} must be ({mesh.nelem},), got "
                    f"{values.shape}")
            data[name] = values
    fh, owned = _open(dest, "w")
    try:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(title.replace("\n", " ") + "\n")
        fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        # each block is built as one "\n".join and written in one call;
        # tolist() hands python scalars to repr/str, so the bytes match the
        # old per-row f-string loops exactly
        fh.write(f"POINTS {mesh.nnodes} double\n")
        _write_block(fh, (" ".join(map(repr, row))
                          for row in mesh.coords.tolist()))
        sizes = _NN_OF_TYPE[mesh.elem_types]
        total = int(sizes.sum()) + mesh.nelem
        fh.write(f"CELLS {mesh.nelem} {total}\n")
        _write_block(fh, (f"{s} " + " ".join(map(str, row[:s]))
                          for s, row in zip(sizes.tolist(),
                                            mesh.elem_nodes.tolist())))
        fh.write(f"CELL_TYPES {mesh.nelem}\n")
        _write_block(fh, map(str, _VTK_ID_OF_TYPE[mesh.elem_types].tolist()))
        fh.write(f"CELL_DATA {mesh.nelem}\n")
        for name, values in data.items():
            kind = ("int" if np.issubdtype(values.dtype, np.integer)
                    else "double")
            fh.write(f"SCALARS {name} {kind} 1\nLOOKUP_TABLE default\n")
            _write_block(fh, map(str, values.tolist()))
    finally:
        if owned:
            fh.close()
