"""Calibrated per-phase work constants (the performance model's knobs).

The numeric layer meters *what* is computed (elements assembled, nnz
touched, particles moved); this module supplies the instruction-cost
constants that convert those meters into dynamic instruction counts for the
:mod:`repro.machine` core models.

Calibration (documented in EXPERIMENTS.md):

* **assembly**: instructions per element chosen so the atomic fraction
  (scatter updates ``nn^2 + nn`` per element) lands at ~1.7 % of the
  instruction stream — the value that reproduces the paper's measured IPC
  drop (2.25 -> 1.15 on Intel, 0.49 -> 0.42 on ThunderX, Sec. 4.3).
* **phase ratios**: constants are proportioned so a 96-rank pure-MPI run of
  the reference workload reproduces Table 1's time breakdown (assembly
  ~41 %, Solver1 ~16 %, Solver2 ~4 %, SGS ~21 %, particles ~3 % with the
  small particle load).
* **solver iterations** are fixed per step (the toy operators' conditioning
  differs from Alya's 17.7M-element systems; the *distributed structure* —
  compute + allreduce per phase — is what the experiments exercise).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..mesh.elements import ElementType

__all__ = ["CostModel", "DEFAULT_COSTS"]


@dataclass(frozen=True)
class CostModel:
    """Instruction-cost constants for every phase of the CFPD step."""

    #: assembly instructions per element, by type (quadrature points x
    #: node-pair work; prisms ~2x tets -> the Table 1 imbalance)
    assembly_instr: dict = field(default_factory=lambda: {
        ElementType.TET: 1200.0,
        ElementType.PYRAMID: 1850.0,
        ElementType.PRISM: 3600.0,
    })
    #: SGS instructions per element, by type (roughly half the assembly)
    sgs_instr: dict = field(default_factory=lambda: {
        ElementType.TET: 600.0,
        ElementType.PYRAMID: 920.0,
        ElementType.PRISM: 1800.0,
    })
    #: solver instructions per touched nonzero per iteration (SpMV + axpys
    #: + preconditioner application)
    solver_instr_per_nnz: float = 10.0
    #: fixed iteration counts per time step (see module docstring)
    solver1_iterations: int = 11
    solver2_iterations: int = 3
    #: particle-transport instructions per particle per step
    #: (locate + Ganser drag + Newmark update)
    particle_instr: float = 250.0
    #: bytes exchanged per interface node in halo exchanges
    halo_bytes_per_node: float = 24.0
    #: bytes per migrated particle (position + velocity + ids)
    particle_bytes: float = 80.0
    #: minimum task chunks per phase (malleability floor for DLB)
    min_chunks: int = 8


DEFAULT_COSTS = CostModel()
