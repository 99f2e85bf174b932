"""Incremental pressure-correction (fractional-step) Navier-Stokes solver.

The paper's fluid problem (Eqs. 1-2): incompressible Navier-Stokes for the
airflow.  Alya uses a stabilized FE discretization with split momentum /
continuity solves — the "Solver1"/"Solver2" phases.  This module implements
the classic Chorin-Temam incremental projection on our meshes:

1. **momentum predictor** (Solver1): with A = M/dt + C(u^n) + nu K,

       A u* = M/dt u^n - G p^n        (+ Dirichlet velocity BCs)

2. **pressure Poisson** (Solver2):

       L phi = (1/dt) D u*            (phi pinned at the outlet)

3. **projection / update**:

       u^{n+1} = u* - dt M_L^{-1} G phi,     p^{n+1} = p^n + phi

with lumped mass M_L.  Velocity carries 3 interleaved DOF per node
(:mod:`repro.fem.vector`).

Performance: the per-step *setup* work — vector expansion of the momentum
operator, Dirichlet row replacement, Jacobi rebuild — is recycled: the
expansion permutation and Dirichlet slot maps are computed once per Δt rung
and each step reduces to one gather of the freshly assembled scalar CSR
data (self-checked at build time against ``vector_operator`` +
``apply_dirichlet``).  The continuity solve can optionally use Alya-style
deflated CG (``pressure_solver="deflated"``) whose
:class:`~repro.solver.deflated.DeflationSetup` is paid once per rung.
Each solver tallies that recycling in its own
:attr:`FractionalStepSolver.counters`.

This is the *numeric* fluid path; the tube-flow test in
``tests/test_fluid.py`` drives it end-to-end (inflow/outflow balance,
divergence reduction by the projection).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse

from ..mesh.mesh import Mesh
from ..solver import bicgstab, cg, deflated_cg, jacobi_preconditioner
from ..solver.deflated import DeflationSetup
from .assembly import assemble_operator
from .dirichlet import DirichletSlots, apply_dirichlet, \
    apply_dirichlet_symmetric
from .vector import (
    deinterleave,
    divergence_operator,
    gradient_operator,
    interleave,
    vector_expansion_perm,
    vector_operator,
)

__all__ = ["FlowBC", "FractionalStepSolver", "StepInfo"]

#: RCB parts of the deflated pressure solver's coarse space (one deflation
#: group per part)
_COARSE_PARTS = 16


@dataclass(frozen=True)
class FlowBC:
    """Velocity boundary conditions.

    Attributes
    ----------
    inlet_nodes / inlet_velocity:
        Nodes with prescribed velocity, (k,) ids and (k, 3) values.
    wall_nodes:
        No-slip nodes (velocity zero).
    outlet_nodes:
        Nodes where the pressure increment is pinned to zero (free
        outflow).
    """

    inlet_nodes: np.ndarray
    inlet_velocity: np.ndarray
    wall_nodes: np.ndarray
    outlet_nodes: np.ndarray

    def __post_init__(self):
        if self.inlet_velocity.shape != (len(self.inlet_nodes), 3):
            raise ValueError("inlet_velocity must be (len(inlet_nodes), 3)")
        if len(self.outlet_nodes) == 0:
            raise ValueError("need at least one outlet node to pin pressure")


@dataclass
class StepInfo:
    """Diagnostics of one fractional step.

    The adaptive fields default to "not adaptive": ``dt`` is always
    recorded; ``cfl`` and ``rung`` are filled by :meth:`FractionalStepSolver.
    advance_to` (computing the CFL rate costs an element sweep, so fixed-Δt
    steps skip it); ``subcycles`` is 1 except for local-mode schedule
    entries, where the app layer folds per-subdomain subcycling into one
    global step.
    """

    momentum_iterations: int
    pressure_iterations: int
    div_before: float
    div_after: float
    dt: float = 0.0
    cfl: float = 0.0
    rung: int = -1
    subcycles: int = 1
    #: inlet Dirichlet scale imposed during the step (co-simulation
    #: forwarding; 1.0 when no transient is driving the inlet)
    inlet_scale: float = 1.0


class FractionalStepSolver:
    """Chorin-Temam incremental projection on a mesh with velocity BCs.

    Parameters
    ----------
    mesh, bc, viscosity, density, dt:
        The discrete problem.  The mesh is assumed static for the solver's
        lifetime (the same contract as the assembly pattern cache).
    pressure_solver:
        ``"cg"`` (default) solves the pressure Poisson system with plain
        preconditioned CG; ``"deflated"`` uses Alya-style deflated CG with
        a subdomain coarse space (one group per RCB part of the mesh
        nodes).
    """

    def __init__(self, mesh: Mesh, bc: FlowBC, viscosity: float = 1.9e-5,
                 density: float = 1.15, dt: float = 1e-3,
                 pressure_solver: str = "cg"):
        if pressure_solver not in ("cg", "deflated"):
            raise ValueError("pressure_solver must be 'cg' or 'deflated', "
                             f"got {pressure_solver!r}")
        self.mesh = mesh
        self.bc = bc
        self.viscosity = viscosity
        self.density = density
        self._dt = float(dt)
        #: this solver's running totals (diagnostics, never part of a
        #: result): momentum matrices recycled, deflated continuity solves,
        #: deflation setups built/reused, Δt-rung operator-cache traffic
        #: (hits, misses and rung states built — construction included),
        #: steps taken through advance_to and inlet transient rescales
        self.counters = dict.fromkeys(
            ("momentum_recycled", "pressure_deflated_solves",
             "deflation_setups_built", "deflation_setups_reused",
             "dt_rung_hits", "dt_rung_misses", "dt_rung_rebuilds",
             "adaptive_steps", "inlet_rescales"), 0)
        #: Δt value -> operator state (recycler maps, deflation setup) so
        #: the adaptive ladder revisits a rung without rebuilding anything
        self._rung_states: dict = {}
        n = mesh.nnodes
        self.u = np.zeros((n, 3))
        self.p = np.zeros(n)
        # constant operators
        self.M = assemble_operator(mesh, kappa=0.0, mass_coeff=1.0).matrix
        self.G = gradient_operator(mesh)                   # (3n, n) = D^T
        self.D = divergence_operator(mesh)                 # (n, 3n)
        self._lumped = np.asarray(self.M.sum(axis=1)).ravel()
        self._inv_lumped3 = 1.0 / np.repeat(self._lumped, 3)
        # consistent pressure operator: L = D M_L^{-1} D^T (SPD once pinned),
        # which makes the projection *exactly* kill the discrete divergence.
        Minv3 = sparse.diags(self._inv_lumped3)
        L = (self.D @ Minv3 @ self.G).tocsr()
        self._L, _ = apply_dirichlet_symmetric(
            L, np.zeros(n), bc.outlet_nodes,
            np.zeros(len(bc.outlet_nodes)))
        self._L_pre = jacobi_preconditioner(self._L)
        # velocity Dirichlet DOFs
        vel_nodes = np.concatenate([bc.inlet_nodes, bc.wall_nodes])
        vel_values = np.concatenate(
            [bc.inlet_velocity, np.zeros((len(bc.wall_nodes), 3))])
        self._vel_dofs = (3 * np.repeat(vel_nodes, 3)
                          + np.tile([0, 1, 2], len(vel_nodes)))
        self._vel_values = vel_values.reshape(-1)
        #: unscaled BC values — the reference the inlet transient scales
        self._vel_values_base = self._vel_values
        self._inlet_scale = 1.0
        # seed the prescribed values into the initial field
        self.u[vel_nodes] = vel_values
        self._build_recycler()
        self.pressure_solver = pressure_solver
        self._pressure_groups: Optional[np.ndarray] = None
        self._defl_setup: Optional[DeflationSetup] = None
        if pressure_solver == "deflated":
            from ..partition import rcb_partition
            self._pressure_groups = rcb_partition(mesh.coords, _COARSE_PARTS)
            self._defl_setup = DeflationSetup(self._L, self._pressure_groups)
            self.counters["deflation_setups_built"] += 1
        self._store_rung_state(self._dt)
        self.counters["dt_rung_rebuilds"] += 1

    # -- Δt rung cache -------------------------------------------------------
    @property
    def dt(self) -> float:
        """The current time step.

        Assigning a new value swaps in the Δt-dependent operator state
        through a keyed per-rung cache: the first visit of a Δt rebuilds
        the recycler maps (and, for the deflated pressure solver, the
        deflation setup) at that step size; revisiting a rung restores the
        cached state in O(1).  The Krylov solves keep no state between
        calls and the pressure operator ``L`` carries no Δt, so neither
        can go stale under mutation — this setter is what makes
        ``dt`` safe to change mid-run at all (previously the attribute
        could be reassigned while the recycler kept operators self-checked
        at the construction Δt).
        """
        return self._dt

    @dt.setter
    def dt(self, value: float) -> None:
        value = float(value)
        if value <= 0:
            raise ValueError(f"dt must be > 0, got {value}")
        if value == self._dt:
            return
        self._dt = value
        state = self._rung_states.get(value)
        if state is not None:
            self.counters["dt_rung_hits"] += 1
            self._slots = state["slots"]
            self._gather = state["gather"]
            self._scalar_nnz = state["scalar_nnz"]
            self._defl_setup = state["defl_setup"]
            return
        self.counters["dt_rung_misses"] += 1
        self._build_recycler()
        if self.pressure_solver == "deflated":
            # L is Δt-independent, so this rebuild reproduces the previous
            # setup bit-for-bit — paid once per rung for the invalidation
            # guarantee, then served from the rung cache forever
            self._defl_setup = DeflationSetup(self._L, self._pressure_groups)
            self.counters["deflation_setups_built"] += 1
        self._store_rung_state(value)
        self.counters["dt_rung_rebuilds"] += 1

    def _store_rung_state(self, value: float) -> None:
        self._rung_states[value] = {
            "slots": self._slots,
            "gather": self._gather,
            "scalar_nnz": self._scalar_nnz,
            "defl_setup": self._defl_setup,
        }

    def rung_cache_size(self) -> int:
        """Number of Δt values with resident operator state."""
        return len(self._rung_states)

    # -- operator recycling --------------------------------------------------
    def _build_recycler(self) -> None:
        """Precompute the momentum-operator recycling maps (one-time cost).

        Assembles the scalar momentum operator once to fix its sparsity
        pattern, derives the vector-expansion permutation and the Dirichlet
        slot maps, composes them into a single scalar-data -> constrained-
        vector-data gather, and self-checks the whole chain bit-for-bit
        against the ``vector_operator`` + ``apply_dirichlet`` construction.
        """
        mesh, n = self.mesh, self.mesh.nnodes
        scalar = assemble_operator(mesh, kappa=self.viscosity,
                                   mass_coeff=self.density / self.dt,
                                   velocity=self.u).matrix
        self._scalar_nnz = scalar.nnz
        perm, vind, vptr = vector_expansion_perm(scalar, n)
        pattern = sparse.csr_matrix(
            (np.zeros(len(perm)), vind, vptr), shape=(3 * n, 3 * n))
        slots = DirichletSlots(pattern, self._vel_dofs, self._vel_values)
        # one composed gather: constrained vector slot <- scalar slot
        gather = perm[slots.src]
        # self-check against the direct construction (build-time cost):
        # the same scalar data pushed through both routes must agree
        # bit-for-bit
        data = np.empty(slots.nnz)
        data[slots.dst] = scalar.data[gather]
        data[slots.fixed] = 1.0
        naive = vector_operator(mesh, kappa=self.viscosity,
                                mass_coeff=self.density / self.dt,
                                velocity=self.u)
        naive, _ = apply_dirichlet(naive, np.zeros(3 * n), self._vel_dofs,
                                   self._vel_values)
        if not (np.array_equal(naive.indptr, slots.indptr)
                and np.array_equal(naive.indices, slots.indices)
                and np.array_equal(naive.data, data)):
            raise RuntimeError(
                "momentum operator recycling self-check failed: recycled "
                "matrix differs from vector_operator + apply_dirichlet")
        self._slots = slots
        self._gather = gather

    def _momentum_system(self, rhs: np.ndarray):
        """Constrained momentum matrix + RHS + Jacobi preconditioner.

        Assembles only the *scalar* operator (itself incremental: the
        assembly is operator-split) and gathers its data straight into the
        constrained vector pattern precomputed by :meth:`_build_recycler`.
        """
        mesh = self.mesh
        nu, rho, dt = self.viscosity, self.density, self.dt
        scalar = assemble_operator(mesh, kappa=nu, mass_coeff=rho / dt,
                                   velocity=self.u).matrix
        if scalar.nnz != self._scalar_nnz:
            raise ValueError(
                "momentum recycling pattern is stale: the mesh changed "
                "after solver construction")
        data = np.empty(self._slots.nnz)
        data[self._slots.dst] = scalar.data[self._gather]
        data[self._slots.fixed] = 1.0
        A = self._slots.matrix(data)
        rhs[self._vel_dofs] = self._vel_values
        if self._slots.diag_slots is not None:
            # O(n) Jacobi refresh from the diagonal slot view — identical
            # values to jacobi_preconditioner(A)
            diag = data[self._slots.diag_slots].copy()
            diag[np.abs(diag) < 1e-300] = 1.0
            inv = 1.0 / diag

            def pre(r: np.ndarray) -> np.ndarray:
                return inv * r
        else:  # pragma: no cover - momentum diagonal always stored
            pre = jacobi_preconditioner(A)
        self.counters["momentum_recycled"] += 1
        return A, rhs, pre

    # -- inlet transient ----------------------------------------------------
    def set_inlet_scale(self, scale: float) -> None:
        """Scale every prescribed velocity BC by ``scale``.

        The co-simulation forwarding surface: the hub (or any waveform)
        multiplies the inlet Dirichlet values, and the recycled momentum
        gather reads the rescaled values on the next step, because Dirichlet
        *values* only ever enter through the RHS and the projection
        re-imposition (the recycler's slot structure is value-independent).
        Wall nodes stay exactly zero.  Pure state, no wall clock: a given
        scale sequence reproduces bit-identical fields.
        """
        scale = float(scale)
        if scale <= 0:
            raise ValueError(f"inlet scale must be > 0, got {scale}")
        if scale == self._inlet_scale:
            return
        self._inlet_scale = scale
        if scale == 1.0:
            self._vel_values = self._vel_values_base
        else:
            self._vel_values = self._vel_values_base * scale
        self.counters["inlet_rescales"] += 1

    # -- one time step ------------------------------------------------------
    def step(self, tol: float = 1e-7, maxiter: int = 600) -> StepInfo:
        """Advance one dt; returns solver/divergence diagnostics."""
        dt = self.dt
        rho = self.density
        # 1. momentum predictor.  The weak pressure-gradient term is
        #    (grad p, v) = -(p, div v) = -(D^T p)_v, so it contributes
        #    +D^T p on the RHS once moved across.
        rhs = (rho / dt) * (self._mass3(interleave(self.u))) \
            + self.G @ self.p
        A, rhs, pre = self._momentum_system(rhs)
        res_m = bicgstab(A, rhs, x0=interleave(self.u), tol=tol,
                         maxiter=maxiter, M=pre)
        u_star = res_m.x
        # 2. pressure Poisson for the increment phi:
        #    u^{n+1} = u* + dt/rho M_L^{-1} D^T phi  and  D u^{n+1} = 0
        #    =>  (D M_L^{-1} D^T) phi = -(rho/dt) D u*
        div_star = self.D @ u_star
        div_before = float(np.linalg.norm(div_star))
        b = -(rho / dt) * div_star
        b[self.bc.outlet_nodes] = 0.0
        if self.pressure_solver == "deflated":
            self.counters["deflation_setups_reused"] += 1
            res_p = deflated_cg(self._L, b, self._pressure_groups, tol=tol,
                                maxiter=maxiter, M=self._L_pre,
                                setup=self._defl_setup)
            self.counters["pressure_deflated_solves"] += 1
        else:
            res_p = cg(self._L, b, tol=tol, maxiter=maxiter, M=self._L_pre)
        phi = res_p.x
        # 3. projection
        u_new = u_star + (dt / rho) * (self._inv_lumped3 * (self.G @ phi))
        # re-impose the velocity BCs exactly
        u_new[self._vel_dofs] = self._vel_values
        div_after = float(np.linalg.norm(self.D @ u_new))
        self.u = deinterleave(u_new)
        self.p = self.p + phi
        return StepInfo(momentum_iterations=res_m.iterations,
                        pressure_iterations=res_p.iterations,
                        div_before=div_before, div_after=div_after,
                        dt=dt, inlet_scale=self._inlet_scale)

    def run(self, n_steps: int, tol: float = 1e-7) -> list[StepInfo]:
        """Advance ``n_steps`` steps; returns the per-step diagnostics."""
        return [self.step(tol=tol) for _ in range(n_steps)]

    # -- adaptive time stepping ---------------------------------------------
    def advance_to(self, t_end: float, control=None, tol: float = 1e-7,
                   maxiter: int = 600,
                   inlet_scale=None) -> list[StepInfo]:
        """Advance to simulated time ``t_end`` under a CFL controller.

        ``control`` is a :class:`~repro.fem.timestep.CflController` (default:
        target CFL 0.9 on a 4-rung ladder anchored at the current ``dt``).
        Each step computes the CFL rate from the velocity field and the
        cached element sizes (:func:`repro.fem.timestep.cfl_rate` over
        :func:`repro.fem.geometry.geometry_blocks`), quantizes the target
        step onto the ladder with hysteresis, and advances — so Δt-
        dependent operator state is reused via the per-rung cache instead
        of rebuilt.  The final step is clipped to land exactly on
        ``t_end`` (one off-ladder rung, also cached).

        ``inlet_scale`` is an optional callable ``t -> scale`` — e.g.
        ``CosimHub.scale_at`` — evaluated at each step's start time and
        imposed via :meth:`set_inlet_scale` before the step: the hub-driven
        breathing transient consumed through the CFL controller.

        Deterministic by construction: the controller reads only simulated
        state and every float operation is fixed-order, so the Δt sequence
        replays exactly on any rerun.
        """
        from .geometry import geometry_blocks
        from .timestep import CflController, DtLadder, cfl_rate

        if t_end <= 0:
            raise ValueError(f"t_end must be > 0, got {t_end}")
        if control is None:
            control = CflController(
                ladder=DtLadder(dt_min=self.dt, dt_max=8.0 * self.dt))
        ladder = control.ladder
        blocks = geometry_blocks(self.mesh)
        infos: list[StepInfo] = []
        t = 0.0
        # start optimistic at the top: the controller's first decision
        # drops straight to the CFL-admissible rung of the initial field
        rung = ladder.top
        while t_end - t > 1e-9 * t_end:
            if inlet_scale is not None:
                self.set_inlet_scale(inlet_scale(t))
            rate = cfl_rate(self.u, blocks)
            rung = control.rung_for(rate, rung)
            dt = min(ladder.dt_of(rung), t_end - t)
            self.dt = dt
            info = self.step(tol=tol, maxiter=maxiter)
            info.cfl = rate * dt
            info.rung = rung
            self.counters["adaptive_steps"] += 1
            infos.append(info)
            t += dt
        return infos

    # -- helpers ------------------------------------------------------------
    def _mass3(self, dofs: np.ndarray) -> np.ndarray:
        """Apply the (block-diagonal) vector mass matrix.

        One sparse matrix-matrix product on the (n, 3) field — bit-identical
        to the per-component matvec loop (CSR SpMM accumulates each column
        exactly like the corresponding matvec).
        """
        return interleave(self.M @ deinterleave(dofs))

    def flow_rate_through(self, nodes: np.ndarray,
                          normal: np.ndarray) -> float:
        """Approximate volumetric flow through a node set with unit
        ``normal``: mean normal velocity x (summed lumped nodal area).

        Used by tests to compare inflow and outflow (mass conservation).
        """
        u_n = self.u[nodes] @ normal
        weights = self._lumped[nodes]
        # lumped masses are volumes; normalize to act as area weights
        return float((u_n * weights).sum() / weights.sum())
