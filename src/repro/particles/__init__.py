"""Lagrangian particle transport: forces (Ganser drag, gravity, buoyancy),
the analytic airway flow field, Newmark tracking, injection and ownership."""

from .flowfield import AirwayFlow
from .forces import (
    FluidProperties,
    GRAVITY,
    ParticleProperties,
    drag_force,
    drag_linear_coefficient_d,
    ganser_cd,
    gravity_buoyancy_acceleration,
    lognormal_diameters,
    particle_mass,
    reynolds,
)
from .interpolation import MeshVelocityField
from .validation import DepositionPoint, deposition_curve, impaction_parameter
from .tracker import (
    STATUS_ACTIVE,
    STATUS_DEPOSITED,
    STATUS_ESCAPED,
    ElementLocator,
    NewmarkTracker,
    ParticleState,
    inject_at_inlet,
)

__all__ = [
    "AirwayFlow",
    "ElementLocator",
    "FluidProperties",
    "GRAVITY",
    "MeshVelocityField",
    "NewmarkTracker",
    "ParticleProperties",
    "ParticleState",
    "STATUS_ACTIVE",
    "STATUS_DEPOSITED",
    "STATUS_ESCAPED",
    "DepositionPoint",
    "deposition_curve",
    "drag_force",
    "drag_linear_coefficient_d",
    "ganser_cd",
    "gravity_buoyancy_acceleration",
    "impaction_parameter",
    "inject_at_inlet",
    "lognormal_diameters",
    "particle_mass",
    "reynolds",
]
