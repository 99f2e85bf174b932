"""Numeric workload precomputation for the CFPD experiments.

The driver (see :mod:`repro.app.driver`) separates two layers:

* the **numeric layer** (this module) computes the actual physics — mesh,
  flow, FE operators (really assembled), solver runs, SGS updates,
  particle trajectories — and derives per-rank *work meters*, once per
  *stage*: the mesh, flow and particle stages are each cached under the
  spec fields they read, so workloads that differ only downstream share
  the stages upstream of the difference;
* the **performance layer** replays the distributed execution of that work
  on the simulated cluster (teams, MPI, DLB) for each configuration.

This mirrors the experimental method of the paper: the same simulation is
run under many runtime configurations; only the execution changes, never
the physics.  Everything here is cached aggressively because one figure
sweeps a dozen configurations over the same workload.
"""

from __future__ import annotations

import functools
import numbers
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..cosim import (
    BREATHING_PHASES,
    BreathingPattern,
    CosimHub,
    LungModel,
    VentilatorSettings,
    hub_for,
)
from ..fem import (
    CflController,
    DtLadder,
    SGSState,
    assemble_operator,
    element_cfl_rates,
    element_sizes,
    element_work_meters,
    geometry_blocks,
    node_sharing_graph,
    update_sgs,
)
from ..mesh import AirwayConfig, MeshResolution, build_airway_mesh
from ..mesh.generator import AirwayMesh
from ..partition import (
    Decomposition,
    decompose_mesh,
    greedy_coloring,
    rank_partition,
)
from ..particles import (
    AirwayFlow,
    ElementLocator,
    FluidProperties,
    NewmarkTracker,
    ParticleProperties,
    ParticleState,
    STATUS_ACTIVE,
    STATUS_DEPOSITED,
    STATUS_ESCAPED,
    inject_at_inlet,
)
from ..solver import bicgstab, cg, jacobi_preconditioner
from .costs import DEFAULT_COSTS

__all__ = ["WorkloadSpec", "Workload", "RankWork", "StepPlan",
           "MeshStage", "FlowStage", "ParticleStage", "MESH_FIELDS",
           "FLOW_FIELDS", "PARTICLE_FIELDS", "stage_key", "get_workload",
           "BREATHING_WAVEFORMS", "INLET_WAVEFORMS",
           "SMALL_PARTICLE_RATIO", "LARGE_PARTICLE_RATIO"]

#: The paper's particle:element ratios — 4e5 and 7e6 particles in a
#: 17.7M-element mesh.  Scaled workloads keep these ratios.
SMALL_PARTICLE_RATIO = 4e5 / 17.7e6
LARGE_PARTICLE_RATIO = 7e6 / 17.7e6

#: The breathing waveform family: inlet transients derived from the 0D
#: lung/ventilator model of :mod:`repro.cosim`.  Only these couple the
#: waveform into the particle carrier field (see
#: :meth:`Workload.trajectory`); the synthetic ``ramp``/``sine``
#: transients keep their schedule-only semantics.
BREATHING_WAVEFORMS = ("breathing", "ventilator")

#: Every accepted ``WorkloadSpec.inlet_waveform`` mode.
INLET_WAVEFORMS = ("steady", "ramp", "sine") + BREATHING_WAVEFORMS


@dataclass(frozen=True)
class WorkloadSpec:
    """Reproducible description of one CFPD workload."""

    generations: int = 5
    points_per_ring: int = 8
    rings: int = 3
    mesh_seed: int = 2018
    particle_ratio: float = SMALL_PARTICLE_RATIO
    n_steps: int = 10
    dt: float = 1e-4
    inlet_flow_rate: float = 1.0e-3
    injection_seed: int = 7
    #: re-inject every k steps (0 = single injection during the first step;
    #: the paper's pollutant-inhalation scenario injects "several times
    #: during the simulation")
    injection_interval: int = 0
    #: adaptive time stepping: ``"off"`` runs ``n_steps`` fixed steps of
    #: ``dt``; ``"global"`` walks one CFL-driven Δt ladder to the same
    #: simulated endpoint ``t_end`` in fewer steps; ``"local"`` takes
    #: global steps at the top rung with deterministic per-rank subcycling
    #: (see :meth:`Workload.subcycle_matrix`)
    adaptive: str = "off"
    #: target CFL number of the adaptive controller
    cfl_target: float = 0.9
    #: ladder rungs *above* ``dt``: admissible steps are
    #: ``dt * dt_ladder_ratio**k`` for ``k = 0..dt_ladder_rungs``
    dt_ladder_rungs: int = 3
    dt_ladder_ratio: float = 2.0
    #: inlet transient driving the CFL rate over time: ``"steady"``
    #: (scale 1), ``"ramp"`` (0.2 + 0.8 t/T), ``"sine"``
    #: (0.6 + 0.4 sin(2pi t/T)), ``"breathing"`` (analytic
    #: inhale/pause/exhale cycle of :class:`repro.cosim.BreathingPattern`)
    #: or ``"ventilator"`` (the same cycle integrated by the 0D model and
    #: forwarded through the buffered :class:`repro.cosim.CosimHub`)
    inlet_waveform: str = "steady"
    # -- breathing-cycle parameters (the breathing waveform family) --------
    #: breaths per minute of the ventilator driver
    respiratory_rate: float = 15.0
    #: tidal volume per breath, ml
    tidal_volume: float = 350.0
    #: inspiratory time, s
    inspiratory_time: float = 1.0
    #: end-inspiratory pause, s
    inspiratory_pause: float = 0.25
    #: CPAP support pressure, cmH2O
    cpap: float = 0.0
    #: breathing cycles mapped onto the simulated horizon ``t_end``
    breathing_cycles: int = 1
    #: ``"any"`` injects on the fixed grid; ``"inhale"`` moves each
    #: nominal injection to the next inhalation window (drops those whose
    #: window starts beyond ``t_end``) — requires a breathing waveform
    injection_phase: str = "any"
    #: aerosol particle diameter, m (the deposition-vs-size campaign axis)
    particle_diameter: float = 4e-6

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.injection_interval < 0:
            raise ValueError("injection_interval must be >= 0, "
                             f"got {self.injection_interval}")
        if self.adaptive not in ("off", "global", "local"):
            raise ValueError("adaptive must be 'off', 'global' or 'local', "
                             f"got {self.adaptive!r}")
        if self.inlet_waveform not in INLET_WAVEFORMS:
            accepted = ", ".join(f"'{m}'" for m in INLET_WAVEFORMS)
            raise ValueError(f"inlet_waveform must be one of {accepted}, "
                             f"got {self.inlet_waveform!r}")
        if self.cfl_target <= 0:
            raise ValueError(f"cfl_target must be > 0, got {self.cfl_target}")
        if self.dt_ladder_rungs < 1:
            raise ValueError("dt_ladder_rungs must be >= 1, "
                             f"got {self.dt_ladder_rungs}")
        if self.dt_ladder_ratio <= 1.0:
            raise ValueError("dt_ladder_ratio must be > 1, "
                             f"got {self.dt_ladder_ratio}")
        if self.respiratory_rate <= 0:
            raise ValueError("respiratory_rate must be > 0, "
                             f"got {self.respiratory_rate}")
        if self.tidal_volume <= 0:
            raise ValueError(
                f"tidal_volume must be > 0, got {self.tidal_volume}")
        if self.inspiratory_time <= 0:
            raise ValueError("inspiratory_time must be > 0, "
                             f"got {self.inspiratory_time}")
        if self.inspiratory_pause < 0:
            raise ValueError("inspiratory_pause must be >= 0, "
                             f"got {self.inspiratory_pause}")
        if self.cpap < 0:
            raise ValueError(f"cpap must be >= 0, got {self.cpap}")
        if not isinstance(self.breathing_cycles, numbers.Integral) \
                or self.breathing_cycles < 1:
            raise ValueError("breathing_cycles must be an integer >= 1, "
                             f"got {self.breathing_cycles!r}")
        if self.injection_phase not in ("any", "inhale"):
            raise ValueError("injection_phase must be 'any' or 'inhale', "
                             f"got {self.injection_phase!r}")
        if self.particle_diameter <= 0:
            raise ValueError("particle_diameter must be > 0, "
                             f"got {self.particle_diameter}")
        if self.injection_phase == "inhale" \
                and self.inlet_waveform not in BREATHING_WAVEFORMS:
            raise ValueError(
                "injection_phase='inhale' requires a breathing waveform "
                f"({' or '.join(BREATHING_WAVEFORMS)}), "
                f"got inlet_waveform={self.inlet_waveform!r}")
        if self.inlet_waveform in BREATHING_WAVEFORMS:
            # full cross-field validation (e.g. room to exhale, CPAP not
            # defeating passive exhalation) — eager, like everything else
            self.breathing_pattern()

    def particle_count(self, nelem: int) -> int:
        """Particles injected *per injection* for a mesh of ``nelem``
        elements."""
        return max(1, int(round(self.particle_ratio * nelem)))

    def injection_steps(self) -> list[int]:
        """Fixed-grid steps at which a fresh population enters through the
        nose (adaptive runs map these onto schedule steps by simulated
        time; see :meth:`Workload.injection_step_set`)."""
        if self.injection_interval <= 0:
            return [0]
        return list(range(0, self.n_steps, self.injection_interval))

    # -- adaptive schedule inputs -----------------------------------------
    @property
    def t_end(self) -> float:
        """Simulated endpoint: the fixed-grid horizon ``n_steps * dt``.

        Every adaptive mode integrates to exactly this time — adaptivity
        changes *how many steps* it takes, never *where* the run ends.
        """
        return self.n_steps * self.dt

    def ladder(self) -> DtLadder:
        """The spec's Δt ladder, anchored at ``dt`` (the finest rung)."""
        return DtLadder(
            dt_min=self.dt,
            dt_max=self.dt * self.dt_ladder_ratio ** self.dt_ladder_rungs,
            ratio=self.dt_ladder_ratio)

    def controller(self) -> CflController:
        """The deterministic CFL controller of the adaptive modes."""
        return CflController(cfl_target=self.cfl_target,
                             ladder=self.ladder())

    # -- breathing-cycle mapping ------------------------------------------
    def breathing_pattern(self) -> BreathingPattern:
        """The closed-form lung/ventilator cycle of this spec."""
        return BreathingPattern(
            lung=LungModel(),
            ventilator=VentilatorSettings(
                tidal_volume=self.tidal_volume,
                respiratory_rate=self.respiratory_rate,
                inspiratory_time=self.inspiratory_time,
                inspiratory_pause=self.inspiratory_pause,
                cpap=self.cpap))

    @property
    def breathing_time_scale(self) -> float:
        """Breathing seconds per simulated second: ``breathing_cycles``
        full breaths are mapped onto the solver horizon ``t_end``."""
        return (self.breathing_cycles
                * self.breathing_pattern().ventilator.cycle_time
                / self.t_end)

    def breathing_time(self, t: float) -> float:
        """Simulated time ``t`` mapped to breathing time (cyclic beyond
        ``t_end`` — defined for every ``t`` the solver may query)."""
        return t * self.breathing_time_scale

    def breathing_hub(self) -> CosimHub:
        """The (process-cached) co-simulation hub of a ventilator spec."""
        return hub_for(self.breathing_pattern(), self.breathing_cycles,
                       self.t_end)

    def waveform_scale(self, t: float) -> float:
        """Inlet-magnitude scale at simulated time ``t``.

        Drives the time-varying CFL rate — and, in local mode, the
        per-rank subcycle counts whose shifting profile the DLB study
        targets.  A pure function of ``(spec, t)``: bit-reproducible.
        The breathing family additionally scales the carrier flow the
        particles see (see :meth:`Workload.trajectory`): ``"breathing"``
        evaluates the analytic cycle pointwise, ``"ventilator"`` forwards
        the 0D model's integrated trace through the buffered hub.
        """
        if self.inlet_waveform == "ramp":
            return 0.2 + 0.8 * (t / self.t_end)
        if self.inlet_waveform == "sine":
            return 0.6 + 0.4 * float(np.sin(2.0 * np.pi * t / self.t_end))
        if self.inlet_waveform == "breathing":
            return self.breathing_pattern().scale_at(self.breathing_time(t))
        if self.inlet_waveform == "ventilator":
            return self.breathing_hub().scale_at(t)
        return 1.0


@dataclass
class RankWork:
    """Per-rank work meters for one decomposition."""

    rank: int
    element_ids: np.ndarray
    assembly_instr: np.ndarray       # per local element
    assembly_atomics: np.ndarray     # per local element (scatter updates)
    sgs_instr: np.ndarray            # per local element
    sub_labels: np.ndarray
    sub_adjacency: list
    solver_nnz: float                # nonzeros of locally-owned matrix rows
    halo_bytes: float
    #: (neighbor_rank, bytes) pairs for the halo exchange
    neighbors: list
    #: the decomposition's whole-mesh colors, shared by its ranks and
    #: computed on the first call (see :attr:`colors`)
    mesh_colors: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @functools.cached_property
    def colors(self) -> np.ndarray:
        """Per local element node-sharing colors, computed on demand.

        Only COLORING-strategy graphs read them, so a run that reads
        none never colors; the first read of any rank's colors runs the
        decomposition's one whole-mesh sweep."""
        return self.mesh_colors()[self.element_ids]


@dataclass
class DecompData:
    """A decomposition plus all derived per-rank meters."""

    decomposition: Decomposition
    ranks: list          # list[RankWork]
    labels: np.ndarray


@dataclass(frozen=True)
class StepPlan:
    """One entry of the Δt schedule (a global step of the simulation).

    ``rung`` is -1 for fixed-Δt steps and for the final clipped step of an
    adaptive run (which lands exactly on ``t_end`` with an off-ladder Δt);
    ``cfl`` is the global CFL number ``scale(t) * max_rate * dt`` of the
    step; ``scale`` the inlet waveform factor at the step start.
    """

    t: float
    dt: float
    rung: int
    cfl: float
    scale: float


# -- stages -------------------------------------------------------------------
#
# The numeric workload is built in three stages.  Each reads only the spec
# fields named here and is cached under their values, so two specs that
# differ only in, say, ``particle_diameter`` share the mesh and flow stages
# and build just their own particle stage.  ``tests/test_workload_stages.py``
# derives the keys by changing one field at a time.

#: Spec fields the mesh stage reads: the airway geometry and its mesh.
MESH_FIELDS = ("generations", "points_per_ring", "rings", "mesh_seed")

#: Spec fields the flow stage reads: the mesh, the carrier flow, the Δt
#: schedule and the inlet waveform with its breathing cycle.
FLOW_FIELDS = MESH_FIELDS + (
    "inlet_flow_rate", "dt", "n_steps", "adaptive", "cfl_target",
    "dt_ladder_rungs", "dt_ladder_ratio", "inlet_waveform",
    "respiratory_rate", "tidal_volume", "inspiratory_time",
    "inspiratory_pause", "cpap", "breathing_cycles")

#: Spec fields the particle stage reads: the flow plus the injected
#: population and its tracking.
PARTICLE_FIELDS = FLOW_FIELDS + (
    "particle_ratio", "injection_seed", "injection_interval",
    "injection_phase", "particle_diameter")


def stage_key(spec: WorkloadSpec, fields: tuple) -> tuple:
    """The values of ``fields`` in ``spec``: a stage's cache key."""
    return tuple(getattr(spec, name) for name in fields)


class MeshStage:
    """The mesh stage: everything that reads only :data:`MESH_FIELDS`.

    The airway mesh, its rank labels and two-level decompositions with
    their work meters, partition overlaps, the continuity operator, and
    the driver's fluid task graphs (``graphs``, keyed by configuration).
    """

    def __init__(self, spec: WorkloadSpec):
        self.spec = spec
        self.airway: AirwayMesh = build_airway_mesh(
            AirwayConfig(generations=spec.generations, seed=spec.mesh_seed),
            MeshResolution(points_per_ring=spec.points_per_ring,
                           rings=spec.rings))
        self.mesh = self.airway.mesh
        self._decomps: dict = {}
        self._rank_labels: dict = {}
        self._meters: Optional[tuple] = None
        self._continuity = None
        #: the driver's fluid task graphs and coupled exchange topology,
        #: per run configuration (see :class:`repro.app.driver._RunContext`)
        self.graphs: dict = {}

    def rank_labels(self, nranks: int, method: str = "rcb") -> np.ndarray:
        """(nelem,) owning rank of every element for ``nranks`` (cached).

        The rank level of :meth:`decomposition`, and all that the
        particle-side callers (histograms, overlaps, subcycles) read.
        """
        key = (nranks, method)
        if key not in self._rank_labels:
            self._rank_labels[key] = rank_partition(self.airway, nranks,
                                                    method=method)
        return self._rank_labels[key]

    def decomposition(self, nranks: int, subdomains_per_rank: int = 64,
                      method: str = "rcb",
                      min_shared_nodes: int = 4,
                      min_elements_per_subdomain: int = 3) -> DecompData:
        """The (cached) two-level decomposition + work meters for ``nranks``.

        ``min_shared_nodes=4`` keeps the multidep subdomain adjacency at the
        production-scale degree (~6) on strongly scaled-down meshes, and the
        subdomain granularity floor is low so teams always have several
        times more tasks than threads; see
        :func:`repro.partition.subdomain_decomposition` and EXPERIMENTS.md.

        Every rank is handled at once: the subdomains in one batched pass
        (:func:`repro.partition.decompose_mesh`), the work meters as one
        whole-mesh array each, sliced per rank, and the coloring, on the
        first read of :attr:`RankWork.colors`, as one first-fit sweep over
        the mesh's conflict graph restricted to intra-rank edges (each
        rank's elements ascend, so this equals a per-rank sweep).
        """
        key = (nranks, subdomains_per_rank, method, min_shared_nodes,
               min_elements_per_subdomain)
        if key in self._decomps:
            return self._decomps[key]
        labels = self.rank_labels(nranks, method)
        dec = decompose_mesh(self.airway, nranks,
                             subdomains_per_rank=subdomains_per_rank,
                             method=method,
                             min_shared_nodes=min_shared_nodes,
                             min_elements_per_subdomain=min_elements_per_subdomain,
                             labels=labels)
        row_nnz, node_owner = self._row_structure(labels, nranks)
        solver_nnz = np.bincount(node_owner, weights=row_nnz,
                                 minlength=nranks)
        neighbor_bytes = self._neighbor_bytes(labels, nranks)
        a_instr, atomics, s_instr = self._element_meters()
        mesh = self.mesh
        mesh_colors = functools.cache(lambda: greedy_coloring(
            node_sharing_graph(mesh).within_parts(labels)))
        ranks = [RankWork(
            rank=dom.rank,
            element_ids=dom.element_ids,
            assembly_instr=a_instr[dom.element_ids],
            assembly_atomics=atomics[dom.element_ids],
            sgs_instr=s_instr[dom.element_ids],
            sub_labels=dom.sub_labels,
            sub_adjacency=dom.sub_adjacency,
            solver_nnz=float(solver_nnz[dom.rank]),
            halo_bytes=dom.halo_nodes * DEFAULT_COSTS.halo_bytes_per_node,
            neighbors=neighbor_bytes[dom.rank],
            mesh_colors=mesh_colors) for dom in dec.domains]
        data = DecompData(decomposition=dec, ranks=ranks, labels=labels)
        self._decomps[key] = data
        return data

    def _element_meters(self) -> tuple:
        """Whole-mesh (assembly instructions, assembly atomics, SGS
        instructions) per element — the same meters the assembly kernel
        reports, computed once per mesh."""
        if self._meters is None:
            a_instr, atomics = element_work_meters(
                self.mesh, DEFAULT_COSTS.assembly_instr)
            s_instr, _ = element_work_meters(
                self.mesh, DEFAULT_COSTS.sgs_instr)
            self._meters = (a_instr, atomics, s_instr)
        return self._meters

    def _neighbor_bytes(self, labels: np.ndarray, nranks: int) -> list:
        """Per rank: (neighbor rank, halo bytes) pairs — ranks sharing
        interface nodes exchange their values every step."""
        from scipy import sparse

        valid = self.mesh.elem_nodes.ravel() >= 0
        nodes = self.mesh.elem_nodes.ravel()[valid]
        owners = np.repeat(labels, 6)[valid]
        inc = sparse.csr_matrix(
            (np.ones(len(nodes), dtype=np.int32), (nodes, owners)),
            shape=(self.mesh.nnodes, nranks))
        inc.data[:] = 1
        shared = (inc.T @ inc).tocoo()   # (r, s): nodes touched by both
        out: list[list] = [[] for _ in range(nranks)]
        for r, t, count in zip(shared.row, shared.col, shared.data):
            if r != t and count > 0:
                out[int(r)].append(
                    (int(t), float(count) * DEFAULT_COSTS.halo_bytes_per_node))
        return out

    def _row_structure(self, labels: np.ndarray, nranks: int):
        """Assembled-matrix row sizes and a node -> owning rank map.

        Solver rows follow a *node-balanced* distribution (geometric), as
        Alya's solvers do: the remaining per-rank nnz variation comes from
        connectivity-degree differences, which is why the solver phases are
        much better balanced than the assembly (Table 1: 0.90 vs 0.66).
        """
        from ..partition import rcb_partition

        row_nnz = np.diff(self.continuity().indptr)
        owner = rcb_partition(self.mesh.coords, nranks,
                              weights=row_nnz.astype(np.float64))
        return row_nnz, owner

    def continuity(self):
        """The (cached) assembled continuity operator: unit diffusion plus
        a 1e-3 mass shift — it reads the mesh only."""
        if self._continuity is None:
            stiffness = assemble_operator(self.mesh, kappa=1.0)
            mass = assemble_operator(self.mesh, kappa=0.0,
                                     mass_coeff=1.0).matrix
            self._continuity = (stiffness.matrix + 1e-3 * mass).tocsr()
        return self._continuity

    def overlap_bytes(self, f: int, p: int, method: str = "rcb"
                      ) -> np.ndarray:
        """(f, p) matrix: bytes of velocity data fluid rank i sends particle
        rank j each step (proportional to the element overlap of the two
        partitions)."""
        lf = self.rank_labels(f, method)
        lp = self.rank_labels(p, method)
        counts = np.zeros((f, p))
        np.add.at(counts, (lf, lp), 1.0)
        # ~ nodes per element x bytes per node
        return counts * 4.5 * DEFAULT_COSTS.halo_bytes_per_node


class FlowStage:
    """The flow stage: everything that reads :data:`FLOW_FIELDS`.

    The steady carrier flow and its nodal velocity, CFL rates, the Δt
    schedule and subcycles, the momentum operator, the fluid solves and
    the SGS history, over one :class:`MeshStage`.
    """

    def __init__(self, spec: WorkloadSpec, mesh_stage: MeshStage):
        self.spec = spec
        self.mesh_stage = mesh_stage
        self.mesh = mesh_stage.mesh
        self.flow = AirwayFlow(mesh_stage.airway.segments,
                               inlet_flow_rate=spec.inlet_flow_rate)
        self.nodal_velocity = self.flow.nodal_velocity(self.mesh.coords)
        self._element_rates: Optional[np.ndarray] = None
        self._schedule: Optional[list] = None
        self._subcycles: dict = {}
        self._operators: Optional[dict] = None
        self._solves: Optional[dict] = None
        self._sgs_norms: Optional[list] = None

    # -- adaptive Δt schedule -----------------------------------------------
    def element_rates(self) -> np.ndarray:
        """(nelem,) CFL rates ``|u_e| / h_e`` of the steady flow field.

        The time-varying rate of the transient run is
        ``waveform_scale(t) * element_rates()`` — the inlet waveform scales
        the whole field uniformly, so one cached element sweep serves every
        step of the schedule.
        """
        if self._element_rates is None:
            self._element_rates = element_cfl_rates(
                self.nodal_velocity, geometry_blocks(self.mesh),
                self.mesh.nelem)
        return self._element_rates

    def dt_schedule(self) -> list[StepPlan]:
        """The (cached) deterministic Δt schedule of the run.

        ``off``: ``n_steps`` fixed steps of ``spec.dt`` — bit-identical to
        the pre-adaptive behaviour; the breathing family still reads its
        waveform once per step, so the carrier flow and the injection
        speed follow the cycle (``ramp``/``sine``/steady keep scale 1).
        ``global``: the CFL controller walks
        the ladder against ``waveform_scale(t) * max_rate``, reaching the
        same endpoint ``t_end`` in fewer steps.  ``local``: global steps at
        the ladder's top rung (per-rank refinement happens *inside* each
        global step via :meth:`subcycle_matrix`, keeping the collective
        pattern identical on every rank).  The final adaptive step is
        clipped to land exactly on ``t_end``.
        """
        if self._schedule is not None:
            return self._schedule
        spec = self.spec
        rate_max = float(self.element_rates().max(initial=0.0))
        if spec.adaptive == "off":
            breathing = spec.inlet_waveform in BREATHING_WAVEFORMS
            scales = [spec.waveform_scale(s * spec.dt) if breathing else 1.0
                      for s in range(spec.n_steps)]
            self._schedule = [
                StepPlan(t=s * spec.dt, dt=spec.dt, rung=-1,
                         cfl=scale * rate_max * spec.dt, scale=scale)
                for s, scale in enumerate(scales)]
            return self._schedule
        ladder = spec.ladder()
        control = spec.controller()
        t_end = spec.t_end
        plans: list[StepPlan] = []
        t = 0.0
        rung = ladder.top
        while t_end - t > 1e-9 * t_end:
            scale = spec.waveform_scale(t)
            rate = scale * rate_max
            if spec.adaptive == "global":
                rung = control.rung_for(rate, rung)
            dt = ladder.dt_of(rung)
            clipped = min(dt, t_end - t)
            plans.append(StepPlan(
                t=t, dt=clipped,
                rung=rung if clipped == dt else -1,
                cfl=rate * clipped, scale=scale))
            t += clipped
        self._schedule = plans
        return plans

    def subcycle_matrix(self, nranks: int, method: str = "rcb"
                        ) -> np.ndarray:
        """(n_sim_steps, nranks) fluid subcycles per rank per global step.

        All ones except in ``local`` mode, where each rank walks its own
        rung ladder against ``waveform_scale(t) * max(element_rates)`` over
        its elements and subcycles ``dt_global / dt_rank`` times inside the
        global step — compute repeats, while the halo/allreduce pattern
        stays once per global step, so collectives keep matching across
        ranks.  The time-varying, rank-varying counts are an imbalance
        that shifts every global step, the regime DLB lending targets
        (pinned with DLB by ``e2e/mn4/adaptive_local_sine_dlb``).
        """
        key = (nranks, method)
        if key in self._subcycles:
            return self._subcycles[key]
        schedule = self.dt_schedule()
        sub = np.ones((len(schedule), nranks), dtype=np.int64)
        if self.spec.adaptive == "local":
            labels = self.mesh_stage.rank_labels(nranks, method)
            rates = self.element_rates()
            rank_rate = np.zeros(nranks)
            for r in range(nranks):
                mine = rates[labels == r]
                rank_rate[r] = float(mine.max()) if len(mine) else 0.0
            ladder = self.spec.ladder()
            control = self.spec.controller()
            rungs = np.full(nranks, ladder.top, dtype=np.int64)
            for s, plan in enumerate(schedule):
                for r in range(nranks):
                    rungs[r] = control.rung_for(plan.scale * rank_rate[r],
                                                int(rungs[r]))
                    sub[s, r] = max(
                        1, int(round(plan.dt / ladder.dt_of(int(rungs[r])))))
        self._subcycles[key] = sub
        return sub

    def schedule_summary(self, nranks: Optional[int] = None,
                         method: str = "rcb") -> dict:
        """Diagnostics of the adaptive schedule (for ``RunResult``)."""
        schedule = self.dt_schedule()
        spec = self.spec
        out = {
            "mode": spec.adaptive,
            "waveform": spec.inlet_waveform,
            "n_sim_steps": len(schedule),
            "fixed_steps": spec.n_steps,
            "steps_saved": spec.n_steps - len(schedule),
            "t_end": spec.t_end,
            "dt_values": sorted({plan.dt for plan in schedule}),
            "max_cfl": max(plan.cfl for plan in schedule),
            "h_min": float(element_sizes(self.mesh).min()),
        }
        if nranks is not None and spec.adaptive == "local":
            sub = self.subcycle_matrix(nranks, method=method)
            out["subcycles_total"] = int(sub.sum())
            out["subcycles_max"] = int(sub.max())
            out["subcycle_imbalance"] = float(
                sub.max(axis=1).mean() / max(sub.mean(), 1e-30))
        return out

    # -- real numerics ------------------------------------------------------
    def operators(self) -> dict:
        """The (cached) globally assembled momentum/continuity operators
        (the continuity operator is the mesh stage's)."""
        if self._operators is None:
            momentum = assemble_operator(
                self.mesh, kappa=1.9e-5, mass_coeff=1.15 / self.spec.dt,
                velocity=self.nodal_velocity).matrix.tocsr()
            self._operators = {"momentum": momentum,
                               "continuity": self.mesh_stage.continuity()}
        return self._operators

    def solve_fluid_step(self) -> dict:
        """Really run the momentum + continuity solves once (cached).

        Momentum uses Jacobi-preconditioned BiCGStab; continuity uses
        subdomain-deflated CG (Alya's production combination).  Returns
        iteration counts and convergence flags — the numeric exercise of
        the Solver1/Solver2 code paths.
        """
        from ..partition import rcb_partition
        from ..solver import deflated_cg

        ops = self.operators()
        if self._solves is None:
            rng = np.random.default_rng(0)
            b_m = ops["momentum"] @ rng.normal(size=self.mesh.nnodes)
            res_m = bicgstab(ops["momentum"], b_m, tol=1e-8, maxiter=400,
                             M=jacobi_preconditioner(ops["momentum"]))
            b_c = ops["continuity"] @ rng.normal(size=self.mesh.nnodes)
            groups = rcb_partition(self.mesh.coords,
                                   max(2, min(64, self.mesh.nnodes // 50)))
            res_c = deflated_cg(ops["continuity"], b_c, groups,
                                tol=1e-8, maxiter=800,
                                M=jacobi_preconditioner(ops["continuity"]))
            res_c_plain = cg(ops["continuity"], b_c, tol=1e-8, maxiter=800,
                             M=jacobi_preconditioner(ops["continuity"]))
            self._solves = {
                "momentum_iterations": res_m.iterations,
                "momentum_converged": res_m.converged,
                "continuity_iterations": res_c.iterations,
                "continuity_converged": res_c.converged,
                "continuity_plain_cg_iterations": res_c_plain.iterations,
            }
        return self._solves

    def sgs_history(self) -> list:
        """Really run the SGS update each step (cached); returns the history
        of subgrid-velocity norms."""
        if self._sgs_norms is None:
            state = SGSState.zeros(self.mesh.nelem)
            norms = []
            for plan in self.dt_schedule():
                update_sgs(self.mesh, state, self.nodal_velocity,
                           viscosity=1.9e-5, dt=plan.dt)
                norms.append(float(np.linalg.norm(state.values)))
            self._sgs_norms = norms
        return self._sgs_norms


class ParticleStage:
    """The particle stage: everything that reads :data:`PARTICLE_FIELDS`.

    The injected population, its trajectory and final state, per-rank
    histograms, the deposition and co-simulation summaries, and the
    driver's particle task graphs (``graphs``, keyed by configuration),
    over one :class:`FlowStage`.
    """

    def __init__(self, spec: WorkloadSpec, flow_stage: FlowStage):
        self.spec = spec
        self.flow_stage = flow_stage
        self.mesh_stage = flow_stage.mesh_stage
        self.n_particles = spec.particle_count(self.mesh_stage.mesh.nelem)
        self._trajectory: Optional[list] = None
        self._final_state: Optional[ParticleState] = None
        self._histograms: dict = {}
        #: the driver's particle task graphs and migration volumes, per run
        #: configuration (see :class:`repro.app.driver._RunContext`)
        self.graphs: dict = {}

    def injection_step_set(self) -> set:
        """Schedule indices that inject a fresh particle population.

        Fixed-grid injection steps are mapped onto the schedule by
        simulated time (the first schedule step starting at or after the
        nominal injection time); in ``off`` mode with ungated injection
        this is exactly ``spec.injection_steps()``.

        With ``injection_phase="inhale"`` each nominal injection time is
        first moved to the start of the next inhalation window of the
        breathing cycle (times already inhaling stay put); injections
        whose window begins at or beyond ``t_end`` are dropped — aerosol
        is only released while the subject breathes in.
        """
        spec = self.spec
        gated = spec.injection_phase == "inhale"
        if spec.adaptive == "off" and not gated:
            return set(spec.injection_steps())
        starts = [plan.t for plan in self.flow_stage.dt_schedule()]
        eps = 1e-9 * spec.t_end
        pattern = spec.breathing_pattern() if gated else None
        out = set()
        for s in spec.injection_steps():
            t_inj = s * spec.dt
            if gated:
                t_b = pattern.next_inhale_start(spec.breathing_time(t_inj))
                t_inj = t_b / spec.breathing_time_scale
                if t_inj >= spec.t_end - eps:
                    continue
            idx = len(starts) - 1
            for i, t0 in enumerate(starts):
                if t0 >= t_inj - eps:
                    idx = i
                    break
            out.add(idx)
        return out

    def _tracker(self) -> NewmarkTracker:
        """The spec's particle tracker (diameter from the spec)."""
        return NewmarkTracker(
            self.flow_stage.flow,
            particles=ParticleProperties(
                diameter=self.spec.particle_diameter),
            fluid=FluidProperties())

    def _step_particles(self, tracker, state, plan) -> None:
        """Advance ``state`` by one schedule step.

        For the breathing waveform family the carrier flow (and the
        injection speed, via :meth:`_inject`) is scaled by the step's
        waveform factor — the particles actually feel the inhale /
        pause / exhale transient.  The synthetic ``ramp``/``sine``
        waveforms keep their pre-cosim schedule-only semantics, so every
        existing trajectory replays bit for bit.
        """
        if self.spec.inlet_waveform in BREATHING_WAVEFORMS:
            tracker.step(state, plan.dt, flow_scale=plan.scale)
        else:
            tracker.step(state, plan.dt)

    def _inject(self, state, s: int, plan) -> None:
        """Inject a fresh population at schedule step ``s``."""
        scale = plan.scale \
            if self.spec.inlet_waveform in BREATHING_WAVEFORMS else 1.0
        state.extend(inject_at_inlet(
            self.mesh_stage.airway, self.flow_stage.flow, self.n_particles,
            seed=self.spec.injection_seed + s,
            speed_fraction=0.5 * scale))

    def trajectory(self) -> list:
        """Per step: (positions of active particles at step start, state
        snapshot counts).  Computed once with the real tracker."""
        if self._trajectory is None:
            injection_steps = self.injection_step_set()
            state = ParticleState.empty()
            tracker = self._tracker()
            steps = []
            for s, plan in enumerate(self.flow_stage.dt_schedule()):
                if s in injection_steps:
                    self._inject(state, s, plan)
                act = state.active
                steps.append({"positions": state.x[act].copy(),
                              "counts": state.counts()})
                self._step_particles(tracker, state, plan)
            self._final_state = state
            self._trajectory = steps
        return self._trajectory

    def particle_state_at(self, step: int) -> ParticleState:
        """Particle population at the *start* of ``step``, replayed
        deterministically (injections and tracking of all earlier steps).

        Used by checkpointing: the state is a pure function of the spec,
        so a restarted run can verify a checkpoint bit-for-bit.
        """
        injection_steps = self.injection_step_set()
        state = ParticleState.empty()
        tracker = self._tracker()
        for s, plan in enumerate(self.flow_stage.dt_schedule()[:step]):
            if s in injection_steps:
                self._inject(state, s, plan)
            self._step_particles(tracker, state, plan)
        return state

    @property
    def total_injected(self) -> int:
        """Particles injected over the whole run (all injections)."""
        return self.n_particles * len(self.injection_step_set())

    def deposition_summary(self) -> dict:
        """Particle status counts after the last step."""
        self.trajectory()
        return self._final_state.counts()

    def cosim_summary(self) -> dict:
        """Diagnostics of a breathing-coupled run (for ``RunResult``).

        Per-phase step counts, hub buffer/transfer statistics (ventilator
        waveform), injection windows, and cycle-resolved deposition
        tallies — all derived from the deterministic schedule and
        trajectory, so two bit-identical runs report bit-identical
        summaries.
        """
        spec = self.spec
        if spec.inlet_waveform not in BREATHING_WAVEFORMS:
            return {}
        pattern = spec.breathing_pattern()
        schedule = self.flow_stage.dt_schedule()
        cycle_time = pattern.ventilator.cycle_time
        phases = [pattern.phase_at(spec.breathing_time(plan.t))[0]
                  for plan in schedule]
        cycles = [min(int(spec.breathing_time(plan.t) // cycle_time),
                      spec.breathing_cycles - 1) for plan in schedule]
        steps_by_phase = {name: phases.count(name)
                          for name in BREATHING_PHASES}
        # per-step deposition deltas, attributed to the phase/cycle the
        # step started in
        traj = self.trajectory()
        final = self._final_state.counts()
        deposited_by_phase = {name: 0 for name in BREATHING_PHASES}
        deposited_by_cycle = [0] * spec.breathing_cycles
        for s in range(len(schedule)):
            before = traj[s]["counts"][STATUS_DEPOSITED]
            after = (traj[s + 1]["counts"][STATUS_DEPOSITED]
                     if s + 1 < len(schedule) else final[STATUS_DEPOSITED])
            delta = int(after - before)
            deposited_by_phase[phases[s]] += delta
            deposited_by_cycle[cycles[s]] += delta
        injections = sorted(self.injection_step_set())
        out = {
            "waveform": spec.inlet_waveform,
            "pattern": {
                "respiratory_rate": spec.respiratory_rate,
                "tidal_volume": spec.tidal_volume,
                "inspiratory_time": spec.inspiratory_time,
                "inspiratory_pause": spec.inspiratory_pause,
                "cpap": spec.cpap,
                "cycle_time": cycle_time,
                "cycles": spec.breathing_cycles,
            },
            "n_sim_steps": len(schedule),
            "steps_by_phase": steps_by_phase,
            "injection_steps": injections,
            "injection_phases": [phases[s] for s in injections],
            "injection_phase_policy": spec.injection_phase,
            "total_injected": self.total_injected,
            "deposited": final[STATUS_DEPOSITED],
            "escaped": final[STATUS_ESCAPED],
            "active": final[STATUS_ACTIVE],
            "deposition_fraction": (
                final[STATUS_DEPOSITED] / self.total_injected
                if self.total_injected else 0.0),
            "deposited_by_phase": deposited_by_phase,
            "deposited_by_cycle": deposited_by_cycle,
        }
        if spec.inlet_waveform == "ventilator":
            out["hub"] = spec.breathing_hub().transfer_summary(
                [plan.t for plan in schedule])
        return out

    def particle_histograms(self, nranks: int, method: str = "rcb"
                            ) -> np.ndarray:
        """(n_sim_steps, nranks) active-particle counts per owning rank."""
        key = (nranks, method)
        if key not in self._histograms:
            locator = ElementLocator(
                self.mesh_stage.airway,
                self.mesh_stage.rank_labels(nranks, method))
            trajectory = self.trajectory()
            hist = np.zeros((len(trajectory), nranks), dtype=np.int64)
            for s, step in enumerate(trajectory):
                pos = step["positions"]
                if len(pos):
                    hist[s] = locator.rank_histogram(pos, nranks)
            self._histograms[key] = hist
        return self._histograms[key]


# -- the workload view --------------------------------------------------------

def _forward(stage: str, method, *first: str):
    """A :class:`Workload` method that calls the stage method ``method`` on
    the view's ``stage`` attribute.

    The view methods named in ``first`` run before it: they build the
    products ``method`` reads through the view's own methods, so each is
    computed (and timed, when a tracer wraps the view) under its own name
    rather than inside ``method``.
    """
    @functools.wraps(method)
    def forward(self, *args, **kwargs):
        for name in first:
            getattr(self, name)()
        return method(getattr(self, stage), *args, **kwargs)
    forward.__qualname__ = f"Workload.{method.__name__}"
    return forward


class Workload:
    """All numeric state shared by the experiment configurations.

    A thin view over one :class:`MeshStage`, one :class:`FlowStage` and
    one :class:`ParticleStage`; every product lives on its stage.
    ``Workload(spec)`` builds three fresh stages of its own and never
    touches the process-wide stage caches (a cold build measures the whole
    build); :func:`get_workload` assembles the view from those caches.
    """

    def __init__(self, spec: WorkloadSpec):
        self.spec = spec
        self.particle_stage = self._particle_stage(spec)
        self.flow_stage = self.particle_stage.flow_stage
        self.mesh_stage = self.particle_stage.mesh_stage
        self.airway: AirwayMesh = self.mesh_stage.airway
        self.mesh = self.mesh_stage.mesh
        self.flow = self.flow_stage.flow
        self.nodal_velocity = self.flow_stage.nodal_velocity
        self.n_particles = self.particle_stage.n_particles

    @staticmethod
    def _particle_stage(spec: WorkloadSpec) -> ParticleStage:
        """Three fresh stages of ``spec``, as the particle stage that holds
        the other two."""
        return ParticleStage(spec, FlowStage(spec, MeshStage(spec)))

    # mesh stage
    rank_labels = _forward("mesh_stage", MeshStage.rank_labels)
    decomposition = _forward("mesh_stage", MeshStage.decomposition)
    overlap_bytes = _forward("mesh_stage", MeshStage.overlap_bytes)
    # flow stage
    element_rates = _forward("flow_stage", FlowStage.element_rates)
    dt_schedule = _forward("flow_stage", FlowStage.dt_schedule)
    subcycle_matrix = _forward("flow_stage", FlowStage.subcycle_matrix,
                               "dt_schedule")
    schedule_summary = _forward("flow_stage", FlowStage.schedule_summary,
                                "dt_schedule")
    operators = _forward("flow_stage", FlowStage.operators)
    solve_fluid_step = _forward("flow_stage", FlowStage.solve_fluid_step,
                                "operators")
    sgs_history = _forward("flow_stage", FlowStage.sgs_history,
                           "dt_schedule")
    # particle stage
    injection_step_set = _forward("particle_stage",
                                  ParticleStage.injection_step_set,
                                  "dt_schedule")
    trajectory = _forward("particle_stage", ParticleStage.trajectory,
                          "dt_schedule")
    particle_state_at = _forward("particle_stage",
                                 ParticleStage.particle_state_at,
                                 "dt_schedule")
    deposition_summary = _forward("particle_stage",
                                  ParticleStage.deposition_summary,
                                  "trajectory")
    cosim_summary = _forward("particle_stage", ParticleStage.cosim_summary,
                             "trajectory")
    particle_histograms = _forward("particle_stage",
                                   ParticleStage.particle_histograms,
                                   "trajectory")

    @property
    def n_sim_steps(self) -> int:
        """Steps the schedule actually takes to reach ``t_end``."""
        return len(self.dt_schedule())

    @property
    def total_injected(self) -> int:
        """Particles injected over the whole run (all injections)."""
        return self.particle_stage.total_injected


# -- process-wide stage caches -------------------------------------------------

#: Particle stages :func:`get_workload` keeps alive, least recently used
#: evicted first.  A campaign pass adds one per cell it has not built
#: before, and a rebuilt one costs only its tracking.  Mesh and flow
#: stages are not counted: they live as long as a particle stage (or a
#: view) holds them.
PARTICLE_CACHE_SIZE = 32

_PARTICLE_STAGES: OrderedDict = OrderedDict()
#: every mesh and flow stage still alive, by key: found while anything
#: holds it, freed with its last holder
_MESH_STAGES = weakref.WeakValueDictionary()
_FLOW_STAGES = weakref.WeakValueDictionary()


def _cached_particle_stage(spec: WorkloadSpec) -> ParticleStage:
    """The particle stage of ``spec`` from the process-wide caches,
    building only the stages no live stage shares with ``spec``."""
    key = stage_key(spec, PARTICLE_FIELDS)
    stage = _PARTICLE_STAGES.get(key)
    if stage is None:
        flow_key = stage_key(spec, FLOW_FIELDS)
        flow_stage = _FLOW_STAGES.get(flow_key)
        if flow_stage is None:
            mesh_key = stage_key(spec, MESH_FIELDS)
            mesh_stage = _MESH_STAGES.get(mesh_key)
            if mesh_stage is None:
                mesh_stage = _MESH_STAGES[mesh_key] = MeshStage(spec)
            flow_stage = _FLOW_STAGES[flow_key] = FlowStage(spec,
                                                            mesh_stage)
        stage = _PARTICLE_STAGES[key] = ParticleStage(spec, flow_stage)
    _PARTICLE_STAGES.move_to_end(key)
    while len(_PARTICLE_STAGES) > PARTICLE_CACHE_SIZE:
        _PARTICLE_STAGES.popitem(last=False)
    return stage


class _CachedWorkload(Workload):
    """The view :func:`get_workload` returns: its stages come from the
    process-wide caches."""

    _particle_stage = staticmethod(_cached_particle_stage)


def get_workload(spec: WorkloadSpec) -> Workload:
    """The workload of ``spec``, assembled from the process-wide stage
    caches: only the stages no live stage shares with ``spec`` are built.

    A spec that differs from a cached one only in particle fields builds
    its particle stage alone; one that differs in flow fields also builds
    a flow stage.  The last :data:`PARTICLE_CACHE_SIZE` particle stages
    stay cached; a mesh or flow stage is reused as long as any of them (or
    any view) still holds it.
    """
    return _CachedWorkload(spec)
