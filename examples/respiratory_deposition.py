#!/usr/bin/env python3
"""Aerosol deposition map in the human airway — the paper's use case.

This is the science the paper's runtime work serves: predicting where
inhaled drug particles deposit.  We inject a monodisperse aerosol at the
nasal orifice during a rapid inhalation (1 L/s), track it with the Ganser
drag law + gravity/buoyancy under Newmark integration, and report the
deposition fraction per airway generation — the "deposition map" whose
clinical integration the paper's introduction motivates.

Also demonstrates the classic size dependence: large particles deposit
early (inertial impaction in the extrathoracic airways — the "lost aerosol
fraction"), small particles penetrate deeper.

Run:  python examples/respiratory_deposition.py
"""

import numpy as np

from repro import AirwayConfig, MeshResolution, build_airway_mesh
from repro.mesh.airway import GEN_FACE, GEN_NASAL
from repro.particles import (
    AirwayFlow,
    NewmarkTracker,
    ParticleProperties,
    STATUS_ACTIVE,
    STATUS_DEPOSITED,
    STATUS_ESCAPED,
    inject_at_inlet,
)

GEN_NAMES = {GEN_FACE: "face/hemisphere", GEN_NASAL: "nasal/pharynx",
             0: "trachea"}


def deposition_by_generation(airway, flow, state):
    """Deposited-particle counts per airway generation."""
    dep = state.status == STATUS_DEPOSITED
    out: dict[int, int] = {}
    if dep.any():
        seg_idx, _, _ = flow.locate(state.x[dep])
        for s in seg_idx:
            gen = airway.segments[int(s)].generation
            out[gen] = out.get(gen, 0) + 1
    return out


def main() -> None:
    airway = build_airway_mesh(AirwayConfig(generations=6),
                               MeshResolution(points_per_ring=6))
    flow = AirwayFlow(airway.segments, inlet_flow_rate=1.0e-3)
    print(f"airway: {len(airway.segments)} segments, {airway.mesh}")
    print()

    n_particles = 1200
    n_steps = 1000
    dt = 1e-4

    print(f"{'diameter':>10s} {'deposited':>10s} {'escaped':>8s} "
          f"{'airborne':>9s}   hottest deposition sites")
    for diameter_um in (1.0, 4.0, 10.0, 20.0):
        particles = ParticleProperties(diameter=diameter_um * 1e-6)
        state = inject_at_inlet(airway, flow, n_particles, seed=42)
        tracker = NewmarkTracker(flow, particles=particles)
        for _ in range(n_steps):
            if state.n_active == 0:
                break
            tracker.step(state, dt)
        counts = state.counts()
        by_gen = deposition_by_generation(airway, flow, state)
        hot = sorted(by_gen.items(), key=lambda kv: -kv[1])[:3]
        hot_txt = ", ".join(
            f"{GEN_NAMES.get(g, f'gen {g}')}: {c}" for g, c in hot)
        print(f"{diameter_um:8.1f}um "
              f"{counts[STATUS_DEPOSITED]:10d} "
              f"{counts[STATUS_ESCAPED]:8d} "
              f"{counts[STATUS_ACTIVE]:9d}   {hot_txt}")

    print()
    print("Expected physics: the deposited fraction grows with particle size")
    print("(inertial impaction + sedimentation); large particles are lost in")
    print("the extrathoracic airways — the fraction CFPD studies try to")
    print("reduce (paper, Sec. 1).")


if __name__ == "__main__":
    main()
