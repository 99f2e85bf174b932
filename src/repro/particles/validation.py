"""Physics validation helpers: deposition-efficiency curves.

The standard way to validate inertial aerosol deposition models (and how
experimental nasal/airway data is reported, e.g. Cheng 2003) is the
deposition efficiency as a function of the **impaction parameter**

    IP = rho_p d_p^2 Q        [kg m^-1 s^-1 ~ conventionally g cm^3/s-ish]

Efficiency grows sigmoidally with IP: small/slow particles follow the flow,
large/fast particles can't turn at bends and bifurcations.  The tests use
these helpers to check our Ganser-drag + Newmark transport reproduces that
monotone dependence on both particle size and flow rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..mesh.generator import AirwayMesh
from .flowfield import AirwayFlow
from .forces import ParticleProperties
from .tracker import (
    NewmarkTracker,
    STATUS_ACTIVE,
    STATUS_DEPOSITED,
    inject_at_inlet,
)

__all__ = ["DepositionPoint", "impaction_parameter", "deposition_curve"]


@dataclass(frozen=True)
class DepositionPoint:
    """One point of a deposition-efficiency curve."""

    diameter: float
    flow_rate: float
    impaction: float          # rho d^2 Q
    deposited_fraction: float
    airborne_fraction: float


def impaction_parameter(diameter: float, flow_rate: float,
                        density: float = 1000.0) -> float:
    """The classic inertial impaction parameter rho d^2 Q."""
    return density * diameter ** 2 * flow_rate


def deposition_curve(airway: AirwayMesh,
                     diameters_um=(1.0, 2.0, 5.0, 10.0, 20.0),
                     flow_rate: float = 1.0e-3,
                     n_particles: int = 400,
                     n_steps: int = 600,
                     dt: float = 1e-4,
                     density: float = 1000.0,
                     seed: int = 0) -> list[DepositionPoint]:
    """Deposition efficiency vs particle size at a fixed inhalation rate.

    Runs one monodisperse transport per diameter and reports the deposited
    fraction of the *settled* population (deposited + escaped).
    """
    flow = AirwayFlow(airway.segments, inlet_flow_rate=flow_rate)
    points = []
    for d_um in diameters_um:
        d = d_um * 1e-6
        particles = ParticleProperties(diameter=d, density=density)
        state = inject_at_inlet(airway, flow, n_particles, seed=seed)
        tracker = NewmarkTracker(flow, particles=particles)
        for _ in range(n_steps):
            if state.n_active == 0:
                break
            tracker.step(state, dt)
        counts = state.counts()
        settled = n_particles - counts[STATUS_ACTIVE]
        deposited = counts[STATUS_DEPOSITED]
        points.append(DepositionPoint(
            diameter=d,
            flow_rate=flow_rate,
            impaction=impaction_parameter(d, flow_rate, density),
            deposited_fraction=(deposited / settled if settled
                                else 0.0),
            airborne_fraction=counts[STATUS_ACTIVE] / n_particles))
    return points
