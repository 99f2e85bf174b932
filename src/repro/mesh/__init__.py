"""Hybrid unstructured mesh substrate: element types, mesh container,
synthetic airway geometry, and the tube mesher."""

from .airway import AirwayConfig, Segment, build_airway_tree
from .elements import ElementType, NODES_PER_TYPE
from .generator import AirwayMesh, MeshResolution, build_airway_mesh, build_tube_mesh
from .io import write_vtk
from .mesh import CSRGraph, Mesh

__all__ = [
    "AirwayConfig",
    "AirwayMesh",
    "CSRGraph",
    "ElementType",
    "Mesh",
    "MeshResolution",
    "NODES_PER_TYPE",
    "Segment",
    "build_airway_mesh",
    "build_airway_tree",
    "build_tube_mesh",
    "write_vtk",
]
