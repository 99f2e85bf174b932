"""Particle forces: Ganser drag, gravity, buoyancy (paper Eqs. 3-8).

The transported aerosol particles obey Newton's second law with three
forces:

* gravity             F_g = m_p g                                  (Eq. 4)
* buoyancy            F_b = -m_p g rho_f / rho_p                   (Eq. 5)
* drag                F_D = (pi/8) mu_f d_p C_D Re_p (u_f - u_p)   (Eq. 6)

with the particle Reynolds number Re_p = rho_f d_p |u_f - u_p| / mu_f
(Eq. 7) and Ganser's drag correlation (Eq. 8, spherical limit):

    C_D = 24/Re_p [1 + 0.1118 Re_p^0.6567] + 0.4305 / (1 + 3305/Re_p)

In the Stokes limit (Re -> 0) the drag reduces to 3 pi mu d (u_f - u_p).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FluidProperties", "ParticleProperties", "ganser_cd",
           "reynolds", "drag_coefficient_times_re", "drag_force",
           "drag_linear_coefficient_d", "gravity_buoyancy_acceleration",
           "lognormal_diameters", "particle_mass", "GRAVITY"]

#: Standard gravity vector (z-up convention; airway axis points down -z).
GRAVITY = np.array([0.0, 0.0, -9.81])


@dataclass(frozen=True)
class FluidProperties:
    """Carrier fluid (air at body temperature by default)."""

    density: float = 1.15          # kg/m^3
    viscosity: float = 1.9e-5      # Pa s

    def __post_init__(self):
        if self.density <= 0 or self.viscosity <= 0:
            raise ValueError("fluid properties must be positive")


@dataclass(frozen=True)
class ParticleProperties:
    """Monodisperse spherical aerosol particles."""

    diameter: float = 4e-6         # m (typical inhaled aerosol)
    density: float = 1000.0        # kg/m^3 (aqueous droplet)

    def __post_init__(self):
        if self.diameter <= 0 or self.density <= 0:
            raise ValueError("particle properties must be positive")

    @property
    def mass(self) -> float:
        """Mass of one particle."""
        return self.density * np.pi * self.diameter ** 3 / 6.0

    def relaxation_time(self, fluid: FluidProperties) -> float:
        """Stokes relaxation time rho_p d^2 / (18 mu)."""
        return self.density * self.diameter ** 2 / (18.0 * fluid.viscosity)


def reynolds(rel_speed: np.ndarray, particles: ParticleProperties,
             fluid: FluidProperties) -> np.ndarray:
    """Particle Reynolds number for relative speed |u_f - u_p| (Eq. 7)."""
    return fluid.density * particles.diameter * rel_speed / fluid.viscosity


def ganser_cd(re: np.ndarray) -> np.ndarray:
    """Ganser drag coefficient, spherical-particle limit (Eq. 8).

    Vectorized and safe at Re = 0 (where C_D diverges but C_D * Re is
    finite; use :func:`drag_coefficient_times_re` in force computations).
    """
    re = np.asarray(re, dtype=np.float64)
    re_safe = np.maximum(re, 1e-30)
    return (24.0 / re_safe * (1.0 + 0.1118 * re_safe ** 0.6567)
            + 0.4305 / (1.0 + 3305.0 / re_safe))


def drag_coefficient_times_re(re: np.ndarray) -> np.ndarray:
    """C_D * Re, finite at Re = 0 (limit 24)."""
    re = np.asarray(re, dtype=np.float64)
    re_safe = np.maximum(re, 1e-30)
    return (24.0 * (1.0 + 0.1118 * re_safe ** 0.6567)
            + 0.4305 * re_safe / (1.0 + 3305.0 / re_safe))


def drag_force(u_fluid: np.ndarray, u_particle: np.ndarray,
               particles: ParticleProperties,
               fluid: FluidProperties) -> np.ndarray:
    """Ganser drag force (n, 3) on each particle (Eq. 6)."""
    rel = u_fluid - u_particle
    speed = np.linalg.norm(rel, axis=-1)
    re = reynolds(speed, particles, fluid)
    cdre = drag_coefficient_times_re(re)
    coeff = (np.pi / 8.0) * fluid.viscosity * particles.diameter * cdre
    return coeff[..., None] * rel


def gravity_buoyancy_acceleration(particles: ParticleProperties,
                                  fluid: FluidProperties) -> np.ndarray:
    """Combined gravity + buoyancy acceleration (Eqs. 4-5): g (1 - rho_f/rho_p)."""
    return GRAVITY * (1.0 - fluid.density / particles.density)


# ---------------------------------------------------------------------------
# array-capable (polydisperse) variants: diameters vary per particle
# ---------------------------------------------------------------------------

def particle_mass(diameter: np.ndarray, density: float) -> np.ndarray:
    """Mass of spherical particles with per-particle ``diameter``."""
    return density * np.pi * np.asarray(diameter) ** 3 / 6.0


def drag_linear_coefficient_d(u_fluid: np.ndarray, u_particle: np.ndarray,
                              diameter: np.ndarray,
                              fluid: FluidProperties) -> np.ndarray:
    """Per-particle drag coefficient ``k`` with per-particle diameters
    (polydisperse aerosols): F_D = k (u_f - u_p)."""
    diameter = np.asarray(diameter, dtype=np.float64)
    rel = u_fluid - u_particle
    speed = np.linalg.norm(rel, axis=-1)
    re = fluid.density * diameter * speed / fluid.viscosity
    cdre = drag_coefficient_times_re(re)
    return (np.pi / 8.0) * fluid.viscosity * diameter * cdre


def lognormal_diameters(n: int, median: float = 4e-6, gsd: float = 1.8,
                        seed: int = 0) -> np.ndarray:
    """Lognormal aerosol size distribution (median diameter, geometric
    standard deviation) — how real inhaled aerosols are specified."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if median <= 0 or gsd < 1.0:
        raise ValueError("median must be > 0 and gsd >= 1")
    rng = np.random.default_rng(seed)
    return median * np.exp(np.log(gsd) * rng.standard_normal(n))
