"""Absolute golden pins for every hot path's simulated results.

``tests/golden_digests.json`` records, for each named entry below, the
result one registered workload produces: ``simulated_digest``s of
end-to-end runs, fault firing schedules, exact Krylov iteration counts
and Δt/rung/inlet-scale walks of the tube-flow solver, and norms of the
numeric fields.  Each hot path has one implementation; these pins are
what keeps it honest, across builds as well as within one.

The fixture was recorded while the implementations these paths replaced
were still in the tree, and every entry was checked to agree with them
under the comparison rules before it was written.  For the tube-flow
entries that reference had only the fluid solver's own fast paths off:
the old monolithic assembly differs from the operator-split one in the
last ulp, which changes the deflated solver's iteration counts.

Comparison rules: strings, ints and simulated-time floats must match
exactly; float leaves under a key ending in ``_norm`` are numpy-derived
field norms and match to the entry's relative tolerance (``1e-9`` unless
the entry says otherwise), because CI runs an unpinned numpy.

Re-recording after a deliberate model change::

    PYTHONPATH=src python -m tests.test_golden_digests --record

then review the diff of ``tests/golden_digests.json`` like any other
result change (and ``bench/golden.json``, which pins the benchmark's
digests).
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")
BENCH_GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden.json"

#: relative tolerance for ``*_norm`` leaves unless an entry overrides it
NORM_RTOL = 1e-9

#: name -> (compute function, rtol for ``*_norm`` leaves)
ENTRIES: dict = {}


def entry(name: str, rtol: float = NORM_RTOL):
    """Register ``fn`` as the computation of golden entry ``name``."""
    def register(fn):
        ENTRIES[name] = (fn, rtol)
        return fn
    return register


def jsonable(value):
    """``value`` as plain JSON data (tuples become lists)."""
    return json.loads(json.dumps(value))


def assert_matches(got, want, rtol: float = NORM_RTOL, path: str = "",
                   approx: bool = False) -> None:
    """Recursive comparison under the module's rules (see docstring)."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), \
            f"{path}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            assert_matches(got[key], want[key], rtol, f"{path}/{key}",
                           approx or key.endswith("_norm"))
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), \
            f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, rtol, f"{path}[{i}]", approx)
    elif approx and isinstance(want, float):
        assert math.isclose(got, want, rel_tol=rtol, abs_tol=0.0), \
            f"{path}: {got!r} != {want!r} (rtol {rtol})"
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


def _ints_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()


def _norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=float)))


# -- end-to-end runs ---------------------------------------------------------

#: small but non-trivial workload: enough steps for two checkpoint cuts
SPEC_KW = dict(generations=3, points_per_ring=6, n_steps=4)

SPEC_CONFIGS = {
    "sync": dict(cluster="thunder", num_nodes=1, nranks=8),
    "sync_dlb": dict(cluster="thunder", num_nodes=1, nranks=8, dlb=True),
    "coupled": dict(cluster="thunder", num_nodes=1, nranks=8,
                    mode="coupled", fluid_ranks=6),
    "coupled_dlb": dict(cluster="thunder", num_nodes=1, nranks=8,
                        mode="coupled", fluid_ranks=6, dlb=True),
}

#: the default MareNostrum 4 configurations (the benchmark's replay_mn4_*)
MN4_CONFIGS = {
    "sync": dict(),
    "sync_dlb": dict(dlb=True),
    "coupled": dict(mode="coupled", fluid_ranks=64),
    "coupled_dlb": dict(mode="coupled", fluid_ranks=64, dlb=True),
}

#: default-size local-adaptive transient: per-rank rungs with subcycling
ADAPTIVE_SPEC_KW = dict(adaptive="local", inlet_waveform="sine")

#: default-size ventilator-coupled inlet with inhale-gated injection
BREATHING_SPEC_KW = dict(adaptive="global", inlet_waveform="ventilator",
                         injection_phase="inhale", injection_interval=4,
                         n_steps=16)

#: small ventilator spec on 4 Thunder ranks (every cosim driver path)
VENT_SMALL_SPEC_KW = dict(generations=2, points_per_ring=6, n_steps=16,
                          inlet_waveform="ventilator",
                          injection_phase="inhale", injection_interval=4,
                          adaptive="global", dt_ladder_rungs=2)

#: small local-adaptive spec on 8 Thunder ranks
ADAPTIVE_SMALL_SPEC_KW = dict(generations=2, points_per_ring=6, n_steps=4,
                              adaptive="local", inlet_waveform="sine")


def _digest(result) -> str:
    from repro.campaign import simulated_digest

    return simulated_digest(result)


def _spec_checkpoint_run(name: str) -> dict:
    from repro.app.driver import RunConfig, run_cfpd
    from repro.app.workload import WorkloadSpec, get_workload

    cfg = RunConfig(checkpoint_every=2, **SPEC_CONFIGS[name])
    with tempfile.TemporaryDirectory() as tmp:
        result = run_cfpd(cfg, workload=get_workload(WorkloadSpec(**SPEC_KW)),
                          checkpoint_path=str(Path(tmp) / "run.ckpt"))
    return {"digest": _digest(result), "checkpoints": result.checkpoints}


def _run(config_kw: dict, spec_kw=None):
    from repro.app.driver import RunConfig, run_cfpd
    from repro.app.workload import WorkloadSpec

    spec = WorkloadSpec(**spec_kw) if spec_kw is not None else None
    return run_cfpd(RunConfig(**config_kw), spec=spec)


for _name in SPEC_CONFIGS:
    entry(f"e2e/spec/{_name}")(
        lambda _name=_name: _spec_checkpoint_run(_name))
for _name, _kw in MN4_CONFIGS.items():
    entry(f"e2e/mn4/{_name}")(
        lambda _kw=_kw: {"digest": _digest(_run(_kw))})


@entry("e2e/mn4/adaptive_local_sine")
def _adaptive_default():
    return {"digest": _digest(_run({}, ADAPTIVE_SPEC_KW))}


@entry("e2e/mn4/adaptive_local_sine_dlb")
def _adaptive_default_dlb():
    """Subcycle repeats under DLB: teams on finer rungs replay their graphs
    several times per global step while LeWI moves cores."""
    return {"digest": _digest(_run(dict(dlb=True), ADAPTIVE_SPEC_KW))}


#: hybrid MPI+OpenMP (48 ranks x 2 threads): the default-size pins whose
#: teams run more than one worker, so graph plans compare in-flight finish
#: times
HYBRID_KW = dict(nranks=48, threads_per_rank=2)


@entry("e2e/mn4/hybrid")
def _hybrid():
    return {"digest": _digest(_run(HYBRID_KW))}


@entry("e2e/mn4/hybrid_dlb")
def _hybrid_dlb():
    return {"digest": _digest(_run(dict(HYBRID_KW, dlb=True)))}


@entry("e2e/mn4/adaptive_local_hybrid")
def _adaptive_hybrid():
    return {"digest": _digest(_run(HYBRID_KW, ADAPTIVE_SPEC_KW))}


#: the non-default team schedulers on 8 ranks x 4 threads with multidep
#: assembly and SGS: mutexinoutset tasks keep mutex refs held while other
#: ready tasks are picked, on the plan path (DLB off) and the per-task path
#: (DLB on) alike
SCHEDULER_KW = dict(num_nodes=1, nranks=8, threads_per_rank=4)


def _scheduler_run(scheduler: str, dlb: bool) -> dict:
    from repro.core import Strategy

    result = _run(dict(SCHEDULER_KW, assembly_strategy=Strategy.MULTIDEP,
                       sgs_strategy=Strategy.MULTIDEP, scheduler=scheduler,
                       dlb=dlb), SPEC_KW)
    return {"digest": _digest(result)}


for _sched in ("fifo", "lifo"):
    for _suffix, _dlb in (("", False), ("_dlb", True)):
        entry(f"e2e/mn4/scheduler/{_sched}{_suffix}")(
            lambda _sched=_sched, _dlb=_dlb: _scheduler_run(_sched, _dlb))


@entry("e2e/mn4/breathing_ventilator")
def _breathing_default():
    result = _run({}, BREATHING_SPEC_KW)
    return {"digest": _digest(result),
            "deposited_by_cycle": result.cosim_diag["deposited_by_cycle"]}


@entry("e2e/thunder/adaptive_local_sine")
def _adaptive_small():
    result = _run(dict(cluster="thunder", num_nodes=1, nranks=8),
                  ADAPTIVE_SMALL_SPEC_KW)
    return {"digest": _digest(result),
            "n_sim_steps": result.adaptive_diag["n_sim_steps"]}


#: the benchmark's ``replay_thunder_coupled`` configuration: 64 + 32 ranks
#: on one Arm Thunder node, where LeWI lends across all 96 ranks
THUNDER_COUPLED_KW = dict(cluster="thunder", num_nodes=1, mode="coupled",
                          nranks=96, fluid_ranks=64)


@entry("e2e/thunder/coupled_dlb")
def _thunder_coupled_dlb():
    return {"digest": _digest(_run(dict(THUNDER_COUPLED_KW, dlb=True)))}


@entry("e2e/thunder/ventilator")
def _ventilator_small():
    result = _run(dict(cluster="thunder", num_nodes=1, nranks=4),
                  VENT_SMALL_SPEC_KW)
    return {"digest": _digest(result),
            "deposited_by_cycle": result.cosim_diag["deposited_by_cycle"]}


@entry("e2e/thunder/ventilator_fixed_dt")
def _ventilator_fixed_dt():
    """The small ventilator spec on fixed Δt steps: the waveform scales
    the carrier flow and the injection speed of every step."""
    result = _run(dict(cluster="thunder", num_nodes=1, nranks=4),
                  dict(VENT_SMALL_SPEC_KW, adaptive="off"))
    return {"digest": _digest(result),
            "deposited_by_cycle": result.cosim_diag["deposited_by_cycle"]}


@entry("campaign/bench_grid")
def _campaign_bench_grid():
    """The perf harness's 8-cell campaign sweep run inline, hashed over its
    sorted (fingerprint, digest) map like the ``campaign_throughput`` row."""
    from repro.campaign import run_campaign
    from repro.perf.bench import _campaign_bench_spec, _campaign_digest

    run = run_campaign(_campaign_bench_spec())
    return {"digest": _campaign_digest(run.digest_map())}


# -- fault injection ---------------------------------------------------------

def _fault_run(name: str) -> dict:
    from repro.app.driver import RunConfig, run_cfpd
    from repro.app.workload import WorkloadSpec
    from repro.fault import FaultPlan, FaultSpec

    plan = FaultPlan(specs=(
        FaultSpec(kind="straggler", time=1e-5, rank=0, factor=6.0,
                  duration=2e-4),
        FaultSpec(kind="rank_death", time=3e-4, rank=5),
        FaultSpec(kind="msg_delay", time=0.0, rank=2, delay=1e-5,
                  duration=5e-4),
    ))
    result = run_cfpd(RunConfig(**SPEC_CONFIGS[name]),
                      spec=WorkloadSpec(**SPEC_KW), fault_plan=plan)
    return {"events": [[e.time, e.kind, e.rank]
                       for e in result.faults.events],
            "digest": _digest(result)}


for _name in SPEC_CONFIGS:
    entry(f"faults/{_name}")(lambda _name=_name: _fault_run(_name))


@entry("faults/msg_drop_deadlock")
def _msg_drop_deadlock():
    """A dropped message deadlocks the receiver: the dropped count and the
    simulated time of the deadlock diagnostic."""
    from repro.fault import FaultInjector, FaultPlan, FaultSpec
    from repro.machine import marenostrum4
    from repro.sim import Engine
    from repro.smpi import DeadlockError, World

    eng = Engine()
    world = World(eng, marenostrum4(), 2)
    injector = FaultInjector(world, FaultPlan(specs=(
        FaultSpec(kind="msg_drop", time=0.0, rank=0, count=1),)))
    injector.start()

    def program(comm):
        if comm.rank == 0:
            yield from comm.compute(1e-6)
            yield from comm.send("lost", dest=1)
        else:
            yield from comm.recv(source=0)

    procs = world.launch(program)
    with pytest.raises(DeadlockError):
        world.run(procs)
    return {"dropped": injector.messages_dropped, "now": eng.now}


# -- tube-flow fractional step -----------------------------------------------

_TUBE = None


def tube_problem():
    """Straight tube (parabolic 1 m/s inflow, no-slip wall, outlet pinned):
    the bench's fluid problem, built once."""
    global _TUBE
    if _TUBE is None:
        from repro.fem import FlowBC
        from repro.mesh.airway import Segment
        from repro.mesh.generator import MeshResolution, build_tube_mesh

        seg = Segment(sid=0, parent=-1, generation=0, start=np.zeros(3),
                      direction=np.array([0.0, 0.0, -1.0]), length=0.04,
                      radius=0.01)
        mesh = build_tube_mesh(seg, MeshResolution(points_per_ring=20,
                                                   max_sections=16))
        z = mesh.coords[:, 2]
        r = np.linalg.norm(mesh.coords[:, :2], axis=1)
        inlet = np.nonzero(np.isclose(z, 0.0) & (r < 0.0099))[0]
        outlet = np.nonzero(np.isclose(z, -0.04))[0]
        wall = np.nonzero(np.isclose(r, 0.01))[0]
        u_in = np.zeros((len(inlet), 3))
        u_in[:, 2] = -1.0 * (1.0 - (r[inlet] / 0.01) ** 2)
        _TUBE = (mesh, FlowBC(inlet_nodes=inlet, inlet_velocity=u_in,
                              wall_nodes=wall, outlet_nodes=outlet))
    return _TUBE


def _tube_summary(solver, infos) -> dict:
    return {
        "iterations": [[i.momentum_iterations, i.pressure_iterations]
                       for i in infos],
        "dt": [round(i.dt, 12) for i in infos],
        "rung": [i.rung for i in infos],
        "inlet_scale": [round(i.inlet_scale, 12) for i in infos],
        "u_norm": _norm(solver.u),
        "p_norm": _norm(solver.p),
    }


def _tube_run(mode: str, pressure_solver: str) -> dict:
    from repro.fem import CflController, DtLadder, FractionalStepSolver

    mesh, bc = tube_problem()
    solver = FractionalStepSolver(mesh, bc, viscosity=1e-3, density=1.0,
                                  dt=2e-3, pressure_solver=pressure_solver)
    if mode == "plain":
        infos = solver.run(6, tol=1e-5)
    else:
        control = CflController(ladder=DtLadder(dt_min=5e-4, dt_max=4e-3))
        scale = None
        if mode == "hub":
            from repro.cosim import (BreathingPattern, LungModel,
                                     VENTILATION_PATTERNS,
                                     VentilatorSettings, hub_for)

            pattern = BreathingPattern(LungModel(), VentilatorSettings(
                **VENTILATION_PATTERNS["rest"]))
            scale = hub_for(pattern, n_cycles=1, horizon=8e-3).scale_at
        infos = solver.advance_to(8e-3, control=control, inlet_scale=scale,
                                  tol=1e-5)
    return _tube_summary(solver, infos)


for _mode in ("plain", "adaptive", "hub"):
    for _ps in ("cg", "deflated"):
        entry(f"tube/{_mode}/{_ps}")(
            lambda _mode=_mode, _ps=_ps: _tube_run(_mode, _ps))


# -- mesh export ---------------------------------------------------------------

@entry("mesh/vtk")
def _mesh_vtk():
    """SHA-256 of the legacy-VTK text of the small spec's mesh."""
    import io

    from repro.app.workload import MeshStage, WorkloadSpec
    from repro.mesh import write_vtk

    buf = io.StringIO()
    write_vtk(MeshStage(WorkloadSpec(**SPEC_KW)).mesh, buf)
    return {"sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}


# -- simulated MPI -----------------------------------------------------------

def _collective_round(world):
    """allreduce + reduce + alltoall + barrier on every alive rank."""

    def program(comm):
        red = yield from comm.allreduce(float(comm.rank + 1))
        mx = yield from comm.reduce(comm.rank, root=0,
                                    op=lambda a, b: max(a, b))
        a2a = yield from comm.alltoall(
            [comm.rank * 100 + d for d in range(comm.size)])
        yield from comm.barrier()
        return (red, mx, a2a)

    return world.run(world.launch(program))


@entry("smpi/collectives")
def _collectives():
    from repro.machine import marenostrum4
    from repro.sim import Engine
    from repro.smpi import World

    eng = Engine()
    world = World(eng, marenostrum4(), 8, mapping="block")
    return {"results": _collective_round(world), "now": eng.now}


@entry("smpi/collectives_dead_rank")
def _collectives_dead_rank():
    """Collective completion over the alive-rank scan (rank 3 killed)."""
    from repro.machine import thunder
    from repro.sim import Engine
    from repro.smpi import World

    eng = Engine()
    world = World(eng, thunder(1), 4, mapping="block")

    def program(comm):
        if comm.rank == 3:
            yield from comm.compute(10.0)   # killed before this ends
            return None
        return (yield from comm.allreduce(float(comm.rank + 1)))

    procs = world.launch(program)
    world.kill_rank(3, "fault injection")
    results = world.run(procs)
    return {"results": [repr(r) if isinstance(r, Exception) else r
                        for r in results],
            "now": eng.now}


# -- FE assembly -------------------------------------------------------------

def small_airway():
    from repro.mesh import AirwayConfig, MeshResolution, build_airway_mesh

    return build_airway_mesh(AirwayConfig(generations=3, seed=2018),
                             MeshResolution(points_per_ring=6, rings=2))


def _assembly_summary(res) -> dict:
    m = res.matrix.tocsr()
    m.sum_duplicates()
    m.sort_indices()
    weights = np.cos(np.arange(m.nnz))
    return {
        "pattern": _ints_digest(m.indices, m.indptr),
        "meters": _ints_digest(res.scatter_counts, res.element_nodes),
        "data_norm": _norm(m.data),
        "data_weighted_norm": float(weights @ m.data),
        "rhs_norm": _norm(res.rhs),
    }


@entry("fem/assembly/full", rtol=1e-12)
def _assembly_full():
    from repro.fem import assemble_operator

    mesh = small_airway().mesh
    vel = np.random.default_rng(3).normal(size=(mesh.nnodes, 3))
    return _assembly_summary(assemble_operator(
        mesh, kappa=0.7, mass_coeff=2.0, velocity=vel,
        element_ids=np.arange(mesh.nelem), source=1.5))


@entry("fem/assembly/half", rtol=1e-12)
def _assembly_half():
    from repro.fem import assemble_operator

    mesh = small_airway().mesh
    return _assembly_summary(assemble_operator(
        mesh, kappa=1.0, element_ids=np.arange(mesh.nelem // 2)))


@entry("fem/assembly/convective", rtol=1e-12)
def _assembly_convective():
    from repro.fem import assemble_operator

    mesh = small_airway().mesh
    vel = np.random.default_rng(7).normal(size=(mesh.nnodes, 3))
    return _assembly_summary(assemble_operator(
        mesh, kappa=1.9e-5, mass_coeff=230.0, velocity=vel, source=0.4))


@entry("fem/sgs")
def _sgs():
    from repro.fem import SGSState, update_sgs

    mesh = small_airway().mesh
    vel = np.random.default_rng(5).normal(size=(mesh.nnodes, 3))
    state = SGSState.zeros(mesh.nelem)
    for _ in range(3):
        update_sgs(mesh, state, vel, viscosity=1.9e-5, dt=1e-4)
    return {"values_norm": _norm(state.values)}


# -- Krylov solvers ----------------------------------------------------------

def _krylov(solve_name: str, precondition: bool, guess: bool) -> dict:
    from repro.solver import bicgstab, cg, jacobi_preconditioner
    from tests.test_solver import spd_system

    solve = {"cg": cg, "bicgstab": bicgstab}[solve_name]
    A, b = spd_system(n=120, seed=5)
    M = jacobi_preconditioner(A) if precondition else None
    x0 = np.linspace(-1.0, 1.0, len(b)) if guess else None
    res = solve(A, b, x0=x0, tol=1e-10, maxiter=400, M=M)
    return {"iterations": res.iterations, "matvecs": res.matvecs,
            "x_norm": _norm(res.x), "residuals_norm": list(res.residuals)}


for _solve in ("cg", "bicgstab"):
    for _pre in (False, True):
        for _guess in (False, True):
            entry(f"solver/{_solve}/precondition={_pre}/guess={_guess}")(
                lambda _solve=_solve, _pre=_pre, _guess=_guess:
                _krylov(_solve, _pre, _guess))


# -- particles ---------------------------------------------------------------

def _tracker_setup(n=400, seed=11):
    from repro.particles import (AirwayFlow, FluidProperties, NewmarkTracker,
                                 ParticleProperties, inject_at_inlet)

    airway = small_airway()
    flow = AirwayFlow(airway.segments)
    state = inject_at_inlet(airway, flow, n, seed=seed)
    tracker = NewmarkTracker(flow,
                             particles=ParticleProperties(),
                             fluid=FluidProperties())
    return airway, state, tracker


def _particle_summary(state, elements) -> dict:
    return {
        "counts": state.counts(),
        "status": _ints_digest(state.status),
        "elements": _ints_digest(*elements),
        "x_norm": _norm(state.x),
        "v_norm": _norm(state.v),
        "a_norm": _norm(state.a),
    }


@entry("particles/locator")
def _particles_locator():
    """25 coarse steps with per-step element location of the population."""
    from repro.particles import ElementLocator

    airway, state, tracker = _tracker_setup()
    locator = ElementLocator(airway)
    elements = []
    for _ in range(25):
        tracker.step(state, 1e-3)
        elements.append(locator.elements_of(state.x))
    return _particle_summary(state, elements)


@entry("particles/injection")
def _particles_injection():
    """A Δt switch and a mid-run injection with a frozen/active mix."""
    from repro.particles import ElementLocator, inject_at_inlet

    airway, state, tracker = _tracker_setup()
    locator = ElementLocator(airway)
    elements = []
    for i in range(20):
        tracker.step(state, 1e-3 if i < 10 else 1e-4)
        if i == 10:
            state.extend(inject_at_inlet(airway, tracker.flow, 80, seed=13))
        elements.append(locator.elements_of(state.x))
    return _particle_summary(state, elements)


@entry("particles/flow_locate")
def _flow_locate():
    from repro.particles import AirwayFlow, inject_at_inlet

    airway = small_airway()
    flow = AirwayFlow(airway.segments)
    state = inject_at_inlet(airway, flow, 300, seed=4)
    rng = np.random.default_rng(9)
    seg, axial, radial = flow.locate(
        state.x + 1e-4 * rng.standard_normal(state.x.shape))
    return {"segments": _ints_digest(seg), "axial_norm": _norm(axial),
            "radial_norm": _norm(radial)}


@entry("particles/interpolation")
def _interpolation():
    from repro.mesh import MeshResolution, Segment, build_tube_mesh
    from repro.particles import MeshVelocityField

    tube = build_tube_mesh(
        Segment(sid=0, parent=-1, generation=0, start=np.zeros(3),
                direction=np.array([0.0, 0.0, -1.0]), length=0.04,
                radius=0.01),
        MeshResolution(points_per_ring=8))
    rng = np.random.default_rng(3)
    nodal = rng.normal(size=(tube.nnodes, 3))
    pts = tube.coords[rng.integers(0, tube.nnodes, 200)] \
        + 1e-5 * rng.standard_normal((200, 3))
    field = MeshVelocityField(tube, nodal)
    return {"hosts": _ints_digest(field.host_elements(pts)),
            "velocity_norm": _norm(field.velocity(pts))}


# -- two-level decomposition -------------------------------------------------

#: mesh seeds of the default-size airway whose decompositions are pinned
#: (2018 is the default mesh)
DECOMP_MESH_SEEDS = (2018, 7, 31)

#: (rank-level method, rank counts) pinned on each mesh
DECOMP_CASES = (("rcb", (1, 7, 16, 32, 48, 64, 96)),
                ("multilevel", (8, 24)))


def decomposition_digest(data) -> str:
    """One SHA-256 over every output of ``Workload.decomposition``: labels,
    and per rank the element ids, colors, subdomain labels, sorted
    subdomain adjacency, solver nnz, halo bytes, neighbour list and work
    meters.  Arrays hash with their dtype and shape, scalars through
    ``repr``, so a change of type is caught as well as a change of value.
    """
    h = hashlib.sha256()

    def arr(a):
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())

    arr(data.labels)
    for rw in data.ranks:
        h.update(repr(rw.rank).encode())
        for a in (rw.element_ids, rw.colors, rw.sub_labels,
                  rw.assembly_instr, rw.assembly_atomics, rw.sgs_instr):
            arr(a)
        h.update(repr([sorted(s) for s in rw.sub_adjacency]).encode())
        h.update(repr((rw.solver_nnz, rw.halo_bytes,
                       rw.neighbors)).encode())
    return h.hexdigest()


def _decomposition(mesh_seed: int, method: str, nranks: int) -> dict:
    from repro.app.workload import WorkloadSpec, get_workload

    wl = get_workload(WorkloadSpec(mesh_seed=mesh_seed))
    return {"digest": decomposition_digest(
        wl.decomposition(nranks, method=method))}


for _seed in DECOMP_MESH_SEEDS:
    for _method, _counts in DECOMP_CASES:
        for _nranks in _counts:
            entry(f"decomposition/seed={_seed}/{_method}/{_nranks}")(
                lambda _s=_seed, _m=_method, _n=_nranks:
                _decomposition(_s, _m, _n))


# -- the fixture -------------------------------------------------------------

def compute(name: str):
    """Golden entry ``name`` as the current code produces it."""
    return jsonable(ENTRIES[name][0]())


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def golden():
    return load_golden()


class TestGolden:
    @pytest.mark.parametrize("name", sorted(ENTRIES))
    def test_entry(self, name, golden):
        assert name in golden, f"{name} missing: re-record the fixture"
        assert_matches(compute(name), golden[name], ENTRIES[name][1], name)

    def test_fixture_has_no_stale_entries(self, golden):
        assert set(golden) == set(ENTRIES)

    def test_default_digests_equal_bench_reference(self, golden):
        """The MN4 pins equal the benchmark's own pins of the same runs:
        ``e2e/mn4/<mode>[_dlb]`` is ``replay_mn4_<mode>`` at ``dlb=off|on``
        in ``bench/golden.json``, and ``e2e/thunder/coupled_dlb`` is
        ``replay_thunder_coupled`` at ``dlb=on``."""
        with open(BENCH_GOLDEN) as fh:
            bench = json.load(fh)
        for mode in ("sync", "coupled", "hybrid"):
            for suffix, dlb in (("", "off"), ("_dlb", "on")):
                assert golden[f"e2e/mn4/{mode}{suffix}"]["digest"] == \
                    bench[f"replay_mn4_{mode}"][f"dlb={dlb}"]
        assert golden["e2e/thunder/coupled_dlb"]["digest"] == \
            bench["replay_thunder_coupled"]["dlb=on"]


def record(path: Path = GOLDEN_PATH) -> dict:
    """Compute every entry and write the fixture to ``path``."""
    values = {name: compute(name) for name in sorted(ENTRIES)}
    with open(path, "w") as fh:
        json.dump(values, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return values


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.test_golden_digests --record")
    record()
    print(f"[golden] wrote {GOLDEN_PATH}")
