"""The CFPD application driver — the Alya work-alike.

Runs the respiratory-simulation time step under a configurable runtime
setup on the simulated cluster:

* **synchronous mode** (paper Fig. 3 top): every rank executes, per step,
  matrix assembly -> momentum solve (Solver1) -> continuity solve
  (Solver2) -> subgrid scale (SGS) -> particle transport -> migration;
* **coupled mode** (Fig. 3 bottom): ``f`` ranks run the fluid phases and
  ship nodal velocities to ``p = n - f`` ranks that run the particle
  transport, pipelined across steps.

Each phase executes as a task graph built by the configured strategy
(ATOMICS / COLORING / MULTIDEP for the racy element loops), on the rank's
malleable thread team; MPI calls go through the simulated MPI layer whose
PMPI hooks feed DLB when enabled.  Phase timings land in a
:class:`~repro.trace.PhaseLog` — the source of every table and figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core import (
    DLB,
    Strategy,
    StrategyParams,
    Team,
    build_element_loop_graph,
    build_parallel_for_graph,
)
from ..machine import get_cluster
from ..smpi import RankDeadError, World
from ..sim import Engine
from ..trace import PhaseLog
from .costs import DEFAULT_COSTS
from .workload import Workload, WorkloadSpec, get_workload

__all__ = ["RunConfig", "RunResult", "run_cfpd"]


@dataclass(frozen=True)
class RunConfig:
    """One runtime configuration of the CFPD simulation."""

    cluster: str = "marenostrum4"
    num_nodes: int = 2
    nranks: int = 96
    threads_per_rank: int = 1
    mode: str = "sync"                 # "sync" | "coupled"
    fluid_ranks: int = 0               # coupled mode: f (particles = n - f)
    assembly_strategy: Strategy = Strategy.MULTIDEP
    sgs_strategy: Strategy = Strategy.ATOMICS
    dlb: bool = False
    mapping: Optional[str] = None      # None: block for sync, cyclic coupled
    subdomains_per_rank: int = 64
    subdomain_min_shared: int = 4
    partition_method: str = "rcb"
    strategy_params: StrategyParams = StrategyParams()
    #: team task scheduler: "lpt" (default), "fifo" or "lifo"
    scheduler: str = "lpt"
    #: coordinated checkpoint barrier every N steps (0: never).  Part of the
    #: run *timing* whether or not a checkpoint path is given, so a full
    #: run and a restarted one stay bit-identical.
    checkpoint_every: int = 0

    def __post_init__(self):
        """Eager validation: fail at construction with an actionable message
        instead of deep inside the simulated run."""
        from ..machine.presets import PRESETS
        if self.nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {self.nranks}")
        if self.threads_per_rank < 1:
            raise ValueError(
                f"threads_per_rank must be >= 1, got {self.threads_per_rank}")
        if self.num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.mode not in ("sync", "coupled"):
            raise ValueError(
                f"unknown mode {self.mode!r}; available: 'sync', 'coupled'")
        if self.mode == "coupled" and not 1 <= self.fluid_ranks \
                <= self.nranks - 1:
            raise ValueError(
                f"coupled mode needs 1 <= fluid_ranks < nranks "
                f"(got {self.fluid_ranks} of {self.nranks})")
        if self.mapping not in (None, "block", "cyclic"):
            raise ValueError(
                f"unknown mapping {self.mapping!r}; available: "
                f"'block', 'cyclic' (or None for the mode default)")
        if self.scheduler not in Team.SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; available: "
                f"{Team.SCHEDULERS}")
        if self.partition_method not in ("rcb", "multilevel"):
            raise ValueError(
                f"unknown partition_method {self.partition_method!r}; "
                f"available: 'rcb', 'multilevel'")
        if self.subdomains_per_rank < 1:
            raise ValueError(f"subdomains_per_rank must be >= 1, "
                             f"got {self.subdomains_per_rank}")
        if self.checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0, "
                             f"got {self.checkpoint_every}")
        if self.cluster.lower() not in PRESETS:
            raise ValueError(
                f"unknown cluster {self.cluster!r}; available: "
                f"{sorted(PRESETS)}")

    def resolved_mapping(self) -> str:
        """Process placement: interleave the two codes in coupled mode so
        DLB (shared-memory only) can lend between them."""
        if self.mapping is not None:
            return self.mapping
        return "cyclic" if self.mode == "coupled" else "block"

    def label(self) -> str:
        """Short human-readable descriptor (figure x-axis labels)."""
        if self.mode == "coupled":
            base = f"{self.fluid_ranks}+{self.nranks - self.fluid_ranks}"
        else:
            base = f"sync {self.nranks}x{self.threads_per_rank}"
        return base + (" +DLB" if self.dlb else "")


@dataclass
class RunResult:
    """Outcome of one simulated CFPD run.

    ``phase_log`` is the run's one simulated-time record (the Extrae
    capture): Table 1, the figures, the POP metrics and the Paraver export
    all read it.  The other fields are summaries and host diagnostics.
    """

    config: RunConfig
    total_time: float                  # simulated seconds for n_steps
    phase_log: PhaseLog
    dlb_stats: object
    solver_info: dict
    deposition: dict
    n_particles: int
    faults: object = None              # FaultInjector if a plan was injected
    #: (step, sim_time) of every checkpoint written during the run
    checkpoints: list = field(default_factory=list)
    #: host-side engine diagnostics (Engine.counters): events processed,
    #: dispatched timestamps (cohorts) and the teams' plan counters
    #: (planned graphs and tasks, template hits and misses; plan_replans
    #: reads 0, since a perturbed plan continues per task).  Wall-clock
    #: instrumentation only — never part of the simulated digest or the
    #: checkpoint bytes.
    engine_diag: dict = field(default_factory=dict)
    #: adaptive-Δt schedule diagnostics (Workload.schedule_summary): mode,
    #: steps taken vs the fixed grid, Δt values, max CFL, and — in local
    #: mode — subcycle totals and imbalance.  Empty for fixed-Δt runs.
    adaptive_diag: dict = field(default_factory=dict)
    #: co-simulation diagnostics (Workload.cosim_summary): per-phase step
    #: counts, hub buffer/transfer stats, injection windows, and
    #: cycle-resolved deposition tallies.  Empty unless the spec uses a
    #: breathing-family inlet waveform.
    cosim_diag: dict = field(default_factory=dict)

    def phase_summary(self) -> list[dict]:
        """Table-1 rows."""
        return self.phase_log.summary()

    def ipc(self, phase: str) -> float:
        """Achieved IPC of ``phase`` on this run's core."""
        freq = get_cluster(self.config.cluster).node.core.freq_ghz
        return self.phase_log.ipc(phase, freq)

    def step_times(self) -> list:
        """Wall-clock duration of each simulated time step."""
        from collections import defaultdict
        spans: dict = defaultdict(lambda: [float("inf"), 0.0])
        for sample in self.phase_log.samples:
            lo, hi = spans[sample.step]
            spans[sample.step] = [min(lo, sample.t0), max(hi, sample.t1)]
        return [spans[s][1] - spans[s][0] for s in sorted(spans)]

    def pop_metrics(self):
        """POP efficiencies (LB x CommE = PE) of the whole run."""
        from ..trace import pop_from_phase_log
        return pop_from_phase_log(self.phase_log, self.total_time)

    def energy_joules(self) -> float:
        """Estimated energy-to-solution (see repro.machine.energy)."""
        import numpy as np

        from ..machine import energy_estimate
        cluster = get_cluster(self.config.cluster, self.config.num_nodes)
        busy = np.zeros(self.config.nranks)
        for s in self.phase_log.samples:
            busy[s.rank] += s.busy
        cores = self.config.nranks * self.config.threads_per_rank
        return energy_estimate(cluster.name, busy, self.total_time, cores,
                               num_nodes=self.config.num_nodes)


# ---------------------------------------------------------------------------
# graph construction
# ---------------------------------------------------------------------------

class _RunContext:
    """Prebuilt graphs and metadata shared by all rank programs of a run."""

    def __init__(self, workload: Workload, config: RunConfig,
                 start_step: int = 0, fault_tolerant: bool = False):
        self.config = config
        self.log = PhaseLog(config.nranks)
        self.teams: dict[int, Team] = {}
        self.start_step = start_step
        #: degrade instead of failing when a peer dies mid-exchange
        self.fault_tolerant = fault_tolerant
        #: global steps of the run — the Δt schedule length (== spec.n_steps
        #: for fixed Δt, fewer under the adaptive modes)
        self.n_steps = workload.n_sim_steps
        #: steps opening with a coordinated checkpoint barrier.  Steps at or
        #: before ``start_step`` are excluded so a restarted run does not
        #: re-checkpoint its own entry point.
        self.checkpoint_steps = {
            s for s in range(1, self.n_steps)
            if config.checkpoint_every
            and s % config.checkpoint_every == 0 and s > start_step}
        #: (step, rank, dead_neighbor) halo exchanges that were degraded
        self.degraded_halos: list[tuple[int, int, int]] = []
        #: set by run_cfpd: callback(world_rank, step) after the barrier
        self.on_checkpoint = None
        self.fluid_world_ranks, self.particle_world_ranks = \
            _world_ranks(config)
        # subcycles: (n_steps, fluid ranks) fluid subcycles — all ones
        # unless the spec runs in local adaptive mode
        self.subcycles, fluid, particles = run_graphs(workload, config)
        (self.assembly, self.sgs, self.solver1, self.solver2,
         self.halo_neighbors, self.sends, self.recvs) = fluid
        self.particles, self.migration_bytes = particles
        self.solver_info = workload.solve_fluid_step()


def _world_ranks(config: RunConfig) -> tuple[list, list]:
    """The world ranks that run the fluid phases and the particle phase."""
    if config.mode == "sync":
        return list(range(config.nranks)), list(range(config.nranks))
    f = config.fluid_ranks  # bounds checked by RunConfig
    return list(range(f)), list(range(f, config.nranks))


def run_graphs(workload: Workload, config: RunConfig) -> tuple:
    """``(subcycles, fluid graphs, particle graphs)`` of a run of
    ``config`` over ``workload``, built on first use.

    Looks up the decomposition, the particle histograms and the subcycle
    matrix, then the task graphs.  Task graphs are stateless between
    executions (all execution state lives in Team), so identical run
    configurations share them across run_cfpd calls.  The fluid graphs and
    the coupled exchange topology read only the decomposition, so they
    ride in the mesh stage and serve every spec on that mesh, plan
    templates and all; the particle graphs read the histograms and ride in
    the particle stage.  Both caches are keyed by everything the graph
    shapes depend on.  :func:`repro.campaign.runner.warm_workload` calls
    this before a pool forks, so the workers inherit what a job reads.

    Raises ``ValueError`` when the configuration needs more cores than its
    cluster has.
    """
    cluster = get_cluster(config.cluster, config.num_nodes)
    needed = config.nranks * config.threads_per_rank
    if needed > cluster.total_cores:
        raise ValueError(
            f"{config.nranks} ranks x {config.threads_per_rank} threads "
            f"exceed the {cluster.total_cores} cores of {cluster.name}")
    fluid_ranks, particle_ranks = _world_ranks(config)
    fluid_n, particle_n = len(fluid_ranks), len(particle_ranks)
    nthreads = config.threads_per_rank
    method = config.partition_method
    fluid_dd = workload.decomposition(
        fluid_n, subdomains_per_rank=config.subdomains_per_rank,
        method=method, min_shared_nodes=config.subdomain_min_shared)
    hist = workload.particle_histograms(particle_n, method=method)
    subcycles = workload.subcycle_matrix(fluid_n, method=method)
    particle_chunks = 2 * cluster.node.cores
    fluid_cache = workload.mesh_stage.graphs
    fluid_key = (
        config.mode, fluid_n, particle_n, nthreads,
        config.assembly_strategy, config.sgs_strategy,
        config.strategy_params, config.subdomains_per_rank,
        config.subdomain_min_shared, method)
    fluid = fluid_cache.get(fluid_key)
    if fluid is None:
        fluid = fluid_cache[fluid_key] = _build_fluid_graphs(
            workload, config, fluid_dd, fluid_ranks, particle_ranks)
    particle_cache = workload.particle_stage.graphs
    particle_key = (particle_n, nthreads, method, particle_chunks)
    particles = particle_cache.get(particle_key)
    if particles is None:
        particles = particle_cache[particle_key] = _build_particle_graphs(
            hist, nthreads, particle_chunks)
    return subcycles, fluid, particles


def _build_fluid_graphs(workload, config, fluid_dd, fluid_ranks,
                        particle_ranks) -> tuple:
    """The per-fluid-rank task graphs and halo neighbours, and the
    coupled-mode exchange topology."""
    nthreads = config.threads_per_rank

    def colors(rw, strategy):
        # colors are computed on demand: only COLORING graphs read them
        return rw.colors if strategy is Strategy.COLORING else None

    assembly, sgs, solver1, solver2, halo_neighbors = [], [], [], [], []
    for rw in fluid_dd.ranks:
        assembly.append(build_element_loop_graph(
            rw.assembly_instr, rw.assembly_atomics,
            config.assembly_strategy, nthreads,
            colors=colors(rw, config.assembly_strategy),
            sub_labels=rw.sub_labels,
            sub_adjacency=rw.sub_adjacency,
            params=config.strategy_params, label="assembly"))
        sgs.append(build_element_loop_graph(
            rw.sgs_instr, np.zeros_like(rw.sgs_instr),
            config.sgs_strategy, nthreads,
            colors=colors(rw, config.sgs_strategy),
            sub_labels=rw.sub_labels,
            sub_adjacency=rw.sub_adjacency, race_free=True,
            params=config.strategy_params, label="sgs"))
        s1_work = (DEFAULT_COSTS.solver1_iterations * rw.solver_nnz
                   * DEFAULT_COSTS.solver_instr_per_nnz)
        s2_work = (DEFAULT_COSTS.solver2_iterations * rw.solver_nnz
                   * DEFAULT_COSTS.solver_instr_per_nnz)
        nchunks = max(DEFAULT_COSTS.min_chunks, nthreads * 4)
        solver1.append(build_parallel_for_graph(
            np.full(nchunks, s1_work / nchunks), nthreads,
            min_chunks=DEFAULT_COSTS.min_chunks, label="solver1"))
        solver2.append(build_parallel_for_graph(
            np.full(nchunks, s2_work / nchunks), nthreads,
            min_chunks=DEFAULT_COSTS.min_chunks, label="solver2"))
        halo_neighbors.append(rw.neighbors)
    # coupled-mode exchange topology
    sends = recvs = None
    if config.mode == "coupled":
        fluid_n, particle_n = len(fluid_ranks), len(particle_ranks)
        overlap = workload.overlap_bytes(
            fluid_n, particle_n, method=config.partition_method)
        sends = [[] for _ in range(fluid_n)]
        recvs = [[] for _ in range(particle_n)]
        # np.nonzero iterates row-major (fluid-major), reproducing the
        # ordering of the former nested python loop exactly
        fi, pj = np.nonzero(overlap > 0)
        for i, j, nbytes in zip(fi.tolist(), pj.tolist(),
                                overlap[fi, pj].tolist()):
            sends[i].append((particle_ranks[j], float(nbytes)))
            recvs[j].append(fluid_ranks[i])
    return assembly, sgs, solver1, solver2, halo_neighbors, sends, recvs


def _build_particle_graphs(hist, nthreads, particle_chunks) -> tuple:
    """The particle-phase graphs ``[particle-local rank][step]`` and the
    migration volume per step, from the ``(n_steps, particle ranks)``
    particle counts ``hist``.

    A particle-phase graph depends only on its particle count, so each
    distinct count is built once and every ``(rank, step)`` with that
    count holds the same graph: a run has a handful of counts but ranks x
    steps slots.  Teams sharing a graph keep their own execution state,
    and its plan templates are keyed by the team's parameters.
    """
    by_count = {count: build_parallel_for_graph(
                    np.full(count, DEFAULT_COSTS.particle_instr), nthreads,
                    min_chunks=particle_chunks, label="particles")
                for count in np.unique(hist).tolist()}
    particles = [[by_count[count] for count in counts]
                 for counts in hist.T.tolist()]
    # migration volume per step (total particles in flight is an upper
    # bound for what crosses rank boundaries)
    particle_n = hist.shape[1]
    migration_bytes = [
        max(1.0, row.sum() * DEFAULT_COSTS.particle_bytes
            / max(1, particle_n))
        for row in hist]
    return particles, migration_bytes


# ---------------------------------------------------------------------------
# rank programs
# ---------------------------------------------------------------------------

def _run_phase(ctx: _RunContext, comm, team, step, phase, graph, repeats=1):
    stats = yield from team.run(graph, repeats=repeats)
    ctx.log.add(step, phase, comm.rank, stats.t_start, stats.t_end,
                stats.busy_seconds, stats.instructions)
    return stats


def _halo_exchange(ctx: _RunContext, sub_comm, local_rank, tag, step=0):
    """Point-to-point halo exchange with the partition neighbours: post
    all sends and receives, then wait (where DLB can lend cores).

    In fault-tolerant runs, neighbours that died are skipped (their halo
    contribution is stale — the degradation is recorded) and a neighbour
    dying mid-exchange downgrades to a partial exchange instead of
    aborting the survivor.
    """
    dead = sub_comm.world.dead_ranks
    neighbors = ctx.halo_neighbors[local_rank]
    if ctx.fault_tolerant and dead:
        live = []
        for nb, nbytes in neighbors:
            if sub_comm.world_rank_of(nb) in dead:
                ctx.degraded_halos.append((step, sub_comm.world_rank, nb))
            else:
                live.append((nb, nbytes))
        neighbors = live
    reqs = [sub_comm.isend(None, dest=nb, tag=tag, nbytes=nbytes)
            for nb, nbytes in neighbors]
    reqs += [sub_comm.irecv(source=nb, tag=tag) for nb, _ in neighbors]
    if not reqs:
        return
    try:
        yield from sub_comm.waitall(reqs)
    except RankDeadError as exc:
        if not ctx.fault_tolerant:
            raise
        ctx.degraded_halos.append((step, sub_comm.world_rank, exc.rank))


def _fluid_phases(ctx: _RunContext, world_comm, sub_comm, team, local_rank,
                  step):
    """Assembly, solvers and SGS of one global step (shared by both modes).

    Synchronization structure follows Alya: the assembly ends with a
    point-to-point halo exchange (neighbour-local sync only); the first
    global synchronization of each solver is its initial residual-norm
    allreduce, which precedes the iteration work — so waiting for slower
    ranks is accounted as MPI time, not as solver time.

    Local adaptive mode subcycles: a rank on a finer Δt rung than the
    global step repeats the *compute* graphs once per subcycle while the
    communication pattern (halo + residual allreduces) stays once per
    global step — every rank issues the same collective sequence, so the
    runs match, and the per-rank, per-step repeat counts are exactly the
    shifting imbalance the DLB study measures.
    """
    reps = int(ctx.subcycles[step, local_rank])
    yield from _run_phase(ctx, world_comm, team, step, "assembly",
                          ctx.assembly[local_rank], repeats=reps)
    yield from _halo_exchange(ctx, sub_comm, local_rank, tag=1000 + step,
                              step=step)
    yield from sub_comm.allreduce(
        0.0, nbytes=16.0 * DEFAULT_COSTS.solver1_iterations)
    yield from _run_phase(ctx, world_comm, team, step, "solver1",
                          ctx.solver1[local_rank], repeats=reps)
    yield from sub_comm.allreduce(
        0.0, nbytes=16.0 * DEFAULT_COSTS.solver2_iterations)
    yield from _run_phase(ctx, world_comm, team, step, "solver2",
                          ctx.solver2[local_rank], repeats=reps)
    yield from sub_comm.allreduce(0.0, nbytes=8.0)
    yield from _run_phase(ctx, world_comm, team, step, "sgs",
                          ctx.sgs[local_rank], repeats=reps)
    yield from sub_comm.allreduce(0.0, nbytes=8.0)


def _checkpoint_barrier(ctx: _RunContext, comm, step):
    """Coordinated checkpoint cut: barrier, then (one rank) write.

    The barrier is unobserved (no PMPI hooks) so DLB neither lends nor
    reclaims across the cut: ranks leaving an observed barrier one event
    at a time would briefly borrow the still-lent cores of slower ranks,
    and a restarted run (which never executes this barrier) could not
    reproduce that transient — breaking restart bit-equivalence.
    """
    yield from comm.barrier(observed=False)
    if ctx.on_checkpoint is not None:
        ctx.on_checkpoint(comm.world_rank, step)


def _sync_program(comm, ctx: _RunContext):
    team = ctx.teams[comm.rank]
    for step in range(ctx.start_step, ctx.n_steps):
        if step in ctx.checkpoint_steps:
            yield from _checkpoint_barrier(ctx, comm, step)
        yield from _fluid_phases(ctx, comm, comm, team, comm.rank, step)
        yield from _run_phase(ctx, comm, team, step, "particles",
                              ctx.particles[comm.rank][step])
        yield from comm.alltoall([None] * comm.size,
                                 nbytes=ctx.migration_bytes[step])
    yield from comm.barrier()


def _coupled_fluid_program(comm, ctx: _RunContext, sub_comm):
    team = ctx.teams[comm.rank]
    local = comm.rank  # fluid world ranks are 0..f-1
    dead = comm.world.dead_ranks
    for step in range(ctx.start_step, ctx.n_steps):
        if step in ctx.checkpoint_steps:
            yield from _checkpoint_barrier(ctx, comm, step)
        yield from _fluid_phases(ctx, comm, sub_comm, team, local, step)
        reqs = [comm.isend(None, dest=pj, tag=step, nbytes=nbytes)
                for pj, nbytes in ctx.sends[local]
                if not (ctx.fault_tolerant and pj in dead)]
        if reqs:
            yield from comm.waitall(reqs)
    yield from comm.barrier()


def _coupled_particle_program(comm, ctx: _RunContext, sub_comm):
    team = ctx.teams[comm.rank]
    local = comm.rank - ctx.config.fluid_ranks
    dead = comm.world.dead_ranks
    for step in range(ctx.start_step, ctx.n_steps):
        if step in ctx.checkpoint_steps:
            yield from _checkpoint_barrier(ctx, comm, step)
        reqs = [comm.irecv(source=fi, tag=step) for fi in ctx.recvs[local]
                if not (ctx.fault_tolerant and fi in dead)]
        if reqs:
            try:
                yield from comm.waitall(reqs)
            except RankDeadError as exc:
                if not ctx.fault_tolerant:
                    raise
                ctx.degraded_halos.append((step, comm.world_rank, exc.rank))
        yield from _run_phase(ctx, comm, team, step, "particles",
                              ctx.particles[local][step])
        yield from sub_comm.alltoall([None] * sub_comm.size,
                                     nbytes=ctx.migration_bytes[step])
    yield from comm.barrier()


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _verify_restart_state(wl: Workload, ckpt) -> None:
    """Check the checkpointed physics against a rebuilt workload.

    The numeric layer is deterministic from the spec, so every array must
    match bit-for-bit; a mismatch means the file is corrupted or the code
    drifted since the checkpoint was taken.
    """
    from ..fault import CheckpointError

    state = wl.particle_state_at(ckpt.step)
    p = ckpt.particles
    same = (np.array_equal(state.x, p.get("x"))
            and np.array_equal(state.v, p.get("v"))
            and np.array_equal(state.a, p.get("a"))
            and np.array_equal(state.status, p.get("status")))
    if not same:
        raise CheckpointError(
            f"checkpoint particle state at step {ckpt.step} does not match "
            f"the deterministic replay — corrupted file or code drift")
    if not np.array_equal(wl.nodal_velocity, ckpt.nodal_velocity):
        raise CheckpointError(
            "checkpoint velocity field does not match the workload")
    if list(wl.sgs_history()[:ckpt.step]) != list(ckpt.sgs_norms):
        raise CheckpointError(
            "checkpoint SGS history does not match the workload")


def run_cfpd(config: RunConfig,
             spec: Optional[WorkloadSpec] = None,
             workload: Optional[Workload] = None, *,
             fault_plan=None,
             checkpoint_path: Optional[str] = None,
             restart_from: Optional[str] = None) -> RunResult:
    """Run the CFPD simulation under ``config`` and return its metrics.

    The numeric workload is computed (or fetched from the cache) once; the
    distributed execution is then simulated on the configured cluster.

    Robustness extensions (all optional):

    * ``fault_plan`` — a :class:`repro.fault.FaultPlan` injected into the
      run; the run becomes *fault tolerant* (survivors degrade around dead
      ranks instead of failing).  The injector lands in ``result.faults``.
    * ``checkpoint_path`` — write a coordinated checkpoint at every
      ``config.checkpoint_every`` steps (the lowest alive rank writes).
    * ``restart_from`` — resume from a checkpoint file; the run continues
      at the checkpointed step and simulated time, and completes with
      results identical to an uninterrupted run of the same config.
    """
    if checkpoint_path is not None and not config.checkpoint_every:
        raise ValueError(
            "checkpoint_path given but config.checkpoint_every is 0 — no "
            "checkpoint would ever be written; set checkpoint_every=N")
    if spec is not None and workload is not None and spec != workload.spec:
        raise ValueError(
            f"spec given but the workload was built for another one — "
            f"spec={spec!r}, workload.spec={workload.spec!r}; pass one of "
            f"the two")
    start_step = 0
    ckpt = None
    if restart_from is not None:
        from ..fault import CheckpointError, load_checkpoint
        ckpt = load_checkpoint(restart_from)
        if ckpt.config != config:
            raise CheckpointError(
                f"checkpoint was taken under config "
                f"{ckpt.config.label()!r}, refusing to resume under "
                f"{config.label()!r} — pass the original RunConfig")
        if spec is not None and spec != ckpt.spec:
            raise CheckpointError(
                "checkpoint workload spec does not match the requested one")
        spec = ckpt.spec
        start_step = ckpt.step
    wl = workload if workload is not None else get_workload(
        spec or WorkloadSpec())
    if ckpt is not None:
        from ..fault import CheckpointError
        if wl.spec != ckpt.spec:
            raise CheckpointError(
                "checkpoint workload spec does not match the requested one")
        _verify_restart_state(wl, ckpt)
    ctx = _RunContext(wl, config, start_step=start_step,
                      fault_tolerant=fault_plan is not None)
    engine = Engine()
    cluster = get_cluster(config.cluster, config.num_nodes)
    world = World(engine, cluster, config.nranks,
                  mapping=config.resolved_mapping())
    if ckpt is not None:
        from ..trace import PhaseSample
        engine.now = ckpt.sim_time
        ctx.log.samples.extend(PhaseSample(*t) for t in ckpt.phase_samples)
    dlb = DLB(world, enabled=config.dlb)
    for r in range(config.nranks):
        team = Team(engine, cluster.node.core, config.threads_per_rank,
                    rank=r, scheduler=config.scheduler)
        ctx.teams[r] = team
        dlb.attach_team(r, team)
    injector = None
    if fault_plan is not None:
        from ..fault import FaultInjector
        injector = FaultInjector(world, fault_plan, teams=ctx.teams,
                                 dlb=dlb, workload=wl)
        injector.start()
    checkpoints: list = []
    if checkpoint_path is not None:
        from ..fault import CHECKPOINT_VERSION, Checkpoint, save_checkpoint

        def on_checkpoint(world_rank: int, step: int) -> None:
            if world_rank != world.lowest_alive_rank():
                return
            if checkpoints and checkpoints[-1][0] == step:
                return
            state = wl.particle_state_at(step)
            save_checkpoint(checkpoint_path, Checkpoint(
                version=CHECKPOINT_VERSION,
                step=step,
                sim_time=engine.now,
                config=config,
                spec=wl.spec,
                phase_samples=[(s.step, s.phase, s.rank, s.t0, s.t1,
                                s.busy, s.instructions)
                               for s in ctx.log.samples],
                particles={
                    "x": state.x.copy(), "v": state.v.copy(),
                    "a": state.a.copy(), "status": state.status.copy(),
                    "diameter": (None if state.diameter is None
                                 else state.diameter.copy())},
                nodal_velocity=wl.nodal_velocity.copy(),
                sgs_norms=list(wl.sgs_history()[:step]),
                rng={"injection_seed": wl.spec.injection_seed},
                written_by_rank=world_rank))
            checkpoints.append((step, engine.now))

        ctx.on_checkpoint = on_checkpoint
    if config.mode == "sync":
        procs = world.launch(_sync_program, ctx)
    elif config.mode == "coupled":
        f = config.fluid_ranks
        groups = world.split([ctx.fluid_world_ranks,
                              ctx.particle_world_ranks])
        fluid_comms, particle_comms = groups
        procs = []
        for r in range(config.nranks):
            comm = world.comm_world(r)
            if r < f:
                proc = engine.process(
                    _coupled_fluid_program(comm, ctx, fluid_comms[r]),
                    name=f"fluid{r}")
            else:
                proc = engine.process(
                    _coupled_particle_program(comm, ctx,
                                              particle_comms[r - f]),
                    name=f"part{r - f}")
            world.register_rank_process(r, proc)
            procs.append(proc)
    else:
        raise ValueError(f"unknown mode {config.mode!r}")
    world.run(procs)
    from .workload import BREATHING_WAVEFORMS
    adaptive_diag = {}
    if wl.spec.adaptive != "off":
        fluid_n = config.nranks if config.mode == "sync" \
            else config.fluid_ranks
        adaptive_diag = wl.schedule_summary(
            nranks=fluid_n, method=config.partition_method)
    cosim_diag = {}
    if wl.spec.inlet_waveform in BREATHING_WAVEFORMS:
        cosim_diag = wl.cosim_summary()
    return RunResult(config=config,
                     total_time=engine.now,
                     phase_log=ctx.log,
                     dlb_stats=dlb.stats,
                     solver_info=ctx.solver_info,
                     deposition=wl.deposition_summary(),
                     n_particles=wl.n_particles,
                     faults=injector,
                     checkpoints=checkpoints,
                     engine_diag=engine.counters(),
                     adaptive_diag=adaptive_diag,
                     cosim_diag=cosim_diag)
