"""Benchmark runner: the BENCH JSON trajectory of the performance layer.

Times representative workloads — DES micro-benchmarks, numeric kernels and
end-to-end runs — and emits a machine-readable report.  Each hot path has
one implementation, so most rows are *absolute*: their after-time is gated
against the previous report (``--compare``/``--baseline``), and the
simulated results are pinned by ``tests/golden_digests.json``.  Three rows
compare *policies* on the same code and keep a before side with a minimum
speedup: ``time_to_endpoint`` (fixed fine Δt vs CFL-adaptive stepping),
``breathing_cycle`` (transform-per-request vs a buffered co-simulation
hub) and ``campaign_throughput`` (a cold process per job vs the warm
worker pool).

Usage::

    PYTHONPATH=src python -m repro.perf.bench                 # full run
    PYTHONPATH=src python -m repro.perf.bench --quick         # CI smoke
    PYTHONPATH=src python -m repro.perf.bench --compare BENCH_pr5.json \
        --baseline auto

``--compare`` exits non-zero when any benchmark is more than
``SLOWDOWN_TOLERANCE`` times slower than the committed reference report,
or when an end-to-end row's simulated digest differs from the reference
report's after-digest — the CI perf- and result-regression gate.  Quick
mode runs the *same* workload sizes with fewer repeats and fewer
end-to-end variants, so its timings remain comparable (within the 2x gate)
to a committed full-mode report.

``--baseline`` additionally gates the cross-PR *trajectory*: the current
after-times are compared against the previous PR's committed report (its
after-times are this PR's starting point) and the run fails if any
``kernel`` or ``micro`` benchmark regresses beyond host drift — the
median kernel ratio between the two reports — times the noise floor (see
:func:`trajectory_check`).  The comparison, including the estimated
drift factor, is recorded in the report's ``trajectory`` section.
``--baseline auto`` resolves the newest committed ``BENCH_prN.json``
below the current PR number — PRs that shipped no bench report (PR 6)
simply don't break the chain.

Every end-to-end benchmark records the
:func:`repro.campaign.simulated_digest` of its result.
"""

from __future__ import annotations

import argparse
import gc
import glob
import hashlib
import json
import os
import platform
import re
import sys
import time
from typing import Callable, Optional

__all__ = ["run_benchmarks", "trajectory_check", "resolve_auto_reference",
           "main", "SLOWDOWN_TOLERANCE"]

#: --compare fails when current/baseline exceeds this per benchmark
SLOWDOWN_TOLERANCE = 2.0

#: --baseline floor for drift-adjusted kernel speedups (see
#: :func:`trajectory_check`): after the median host-drift factor is
#: divided out, per-kernel best-of-N residual noise is still a few
#: percent, so the gate fails only below this ratio.
TRAJECTORY_NOISE_FLOOR = 0.9

#: the same floor in --quick mode, where single-repeat timings are
#: noisier still.
TRAJECTORY_QUICK_FLOOR = 0.85

_SCHEMA = "repro-bench-v1"
_DEFAULT_OUT = "BENCH_pr10.json"

#: documented accuracy contract of the adaptive time-to-endpoint row:
#: relative L2 distance of the adaptive endpoint velocity from the fine
#: fixed-Δt reference (see docs/performance.md, "Adaptive time stepping")
ENDPOINT_ACCURACY_TOL = 0.05


def _best_of(fn: Callable[[], object], repeats: int) -> tuple[float, object]:
    """Smallest wall-clock of ``repeats`` calls (and the last result).

    The cyclic collector is paused around the timed calls (both sides of
    a policy row get the same treatment): on measurements in the 100 ms range a
    generational pass over the cached workload structures costs several
    percent and lands on random repeats, which is exactly the noise a
    best-of protocol cannot average away.
    """
    best = float("inf")
    result = None
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return best, result


# -- workload pieces ---------------------------------------------------------

def _engine_events_workload() -> int:
    """DES micro-benchmark with the substrate's real event mix.

    Two concurrent streams, matching what the engine actually dispatches in
    a CFPD run: (a) the task runtime executing a stream of small graphs on
    single-worker teams — the regime where whole-graph plans and the
    (cached) plan templates collapse per-task events into one completion
    per graph — and (b) lockstep ``defer``/``call_later`` chains forming
    same-timestamp cohorts that the engine retires as one calendar bucket.

    Returns the engine's ``events_processed``.
    """
    from ..core import Team, TaskGraph
    from ..machine import CoreModel, WorkSpec
    from ..sim import Engine

    core = CoreModel(name="bench", freq_ghz=1.0, base_ipc=1.0,
                     out_of_order=True, atomic_stall_cycles=0.0,
                     mem_stall_cycles=0.0)
    eng = Engine()
    graph = TaskGraph()
    for _ in range(6):
        graph.add_task(WorkSpec(1e3))
    teams = [Team(eng, core, 1) for _ in range(16)]

    def prog(team):
        for _ in range(25):
            yield from team.run(graph)

    for team in teams:
        eng.process(prog(team))

    def tick(chain, r):
        if r:
            if r % 4:
                eng.defer(tick, chain, r - 1)
            else:
                eng.call_later(((r // 4) % 8 + 1) * 1e-6, tick, chain, r - 1)

    for i in range(48):
        eng.call_later(1e-6, tick, i, 100)
    eng.run()
    return eng.events_processed


def _engine_events_manyrank_workload() -> float:
    """Rank-heavy, kernel-light DES benchmark: 96 simulated MPI ranks
    running a p2p ring exchange plus allreduce/barrier rounds with a token
    compute phase.  Nearly all the wall time is engine dispatch and message
    matching — the Amdahl remainder the batched core targets — so this row
    gates the engine/comm stack at production rank counts without any
    numerical kernels in the way."""
    from ..machine import marenostrum4
    from ..sim import Engine
    from ..smpi import World

    eng = Engine()
    world = World(eng, marenostrum4(), 96, mapping="block")
    n_rounds = 12

    def program(comm):
        total = 0.0
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        for r in range(n_rounds):
            yield from comm.compute(5e-7)
            req = comm.isend(float(comm.rank + r), dest=right, tag=r)
            val = yield from comm.recv(source=left, tag=r)
            yield from comm.wait(req)
            total = yield from comm.allreduce(total + val)
            yield from comm.barrier()
        return total

    results = world.run(world.launch(program))
    return float(results[0])


def _collectives_workload() -> float:
    """Simulated-MPI benchmark: allreduce/barrier rounds over 32 ranks."""
    from ..machine import marenostrum4
    from ..sim import Engine
    from ..smpi import World

    eng = Engine()
    world = World(eng, marenostrum4(), 32, mapping="block")
    n_rounds = 30

    def program(comm):
        total = 0.0
        for r in range(n_rounds):
            total = yield from comm.allreduce(float(comm.rank + r))
            yield from comm.barrier()
        return total

    results = world.run(world.launch(program))
    return float(results[0])


def _workload():
    from ..app.workload import WorkloadSpec, get_workload

    return get_workload(WorkloadSpec())


def _assembly_workload() -> str:
    """Repeated operator assembly on the default airway mesh.

    The digest covers what the simulated-time layer consumes — the sparsity
    structure and the per-element work meters.  The matrix *values* are
    pinned separately (to 1e-12) in ``tests/golden_digests.json``, so they
    stay out of the digest.
    """
    from ..fem import assemble_operator

    wl = _workload()
    digest = hashlib.sha256()
    for _ in range(5):
        res = assemble_operator(wl.mesh, kappa=1.9e-5,
                                mass_coeff=1.15 / wl.spec.dt,
                                velocity=wl.nodal_velocity)
        digest.update(res.matrix.indices.tobytes())
        digest.update(res.matrix.indptr.tobytes())
        digest.update(res.scatter_counts.tobytes())
        digest.update(res.element_nodes.tobytes())
    return digest.hexdigest()


def _assembly_constant_workload() -> str:
    """Repeated assembly of the velocity-independent (continuity) operator.

    The operator-split assembly makes this operator fully constant: after
    the first build every repeat reduces to a cached-data copy, so this row
    isolates the assembled-once path from the incremental one.
    """
    from ..fem import assemble_operator

    wl = _workload()
    digest = hashlib.sha256()
    for _ in range(5):
        res = assemble_operator(wl.mesh, kappa=1.9e-5,
                                mass_coeff=1.15 / wl.spec.dt)
        digest.update(res.matrix.indices.tobytes())
        digest.update(res.matrix.indptr.tobytes())
        digest.update(res.scatter_counts.tobytes())
        digest.update(res.element_nodes.tobytes())
    return digest.hexdigest()


def _sgs_workload() -> float:
    """Repeated SGS sweeps (element-local kernel, no scatter)."""
    import numpy as np

    from ..fem import SGSState, update_sgs

    wl = _workload()
    state = SGSState.zeros(wl.mesh.nelem)
    for _ in range(10):
        update_sgs(wl.mesh, state, wl.nodal_velocity,
                   viscosity=1.9e-5, dt=wl.spec.dt)
    return float(np.linalg.norm(state.values))


# -- numeric fluid workload pieces -------------------------------------------

#: (mesh, bc) of the straight-tube flow problem driving the fluid rows;
#: built once, untimed
_FLUID_TUBE: Optional[tuple] = None

#: (solver, u0, p0) — the warm fractional-step solver of the
#: ``fractional_step`` row
_FLUID_SOLVER: Optional[tuple] = None

#: (A, groups, rhs list) of the pressure-solve row: an SPD pressure-like
#: Poisson system on a structured tet cube with a large RCB coarse space
_PRESSURE_SYSTEM: Optional[tuple] = None


def _fluid_tube() -> tuple:
    """Straight-tube mesh + velocity BCs (parabolic inflow, no-slip wall,
    pressure pinned at the outlet) — the ``tests/test_fluid.py`` problem at
    a bench-sized resolution."""
    global _FLUID_TUBE
    if _FLUID_TUBE is None:
        import numpy as np

        from ..fem import FlowBC
        from ..mesh.airway import Segment
        from ..mesh.generator import MeshResolution, build_tube_mesh

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
        bc = FlowBC(inlet_nodes=inlet, inlet_velocity=u_in, wall_nodes=wall,
                    outlet_nodes=outlet)
        _FLUID_TUBE = (mesh, bc)
    return _FLUID_TUBE


def _fluid_solver() -> tuple:
    """Construct the fractional-step solver (untimed): the row measures
    pure per-step cost on a warm solver."""
    global _FLUID_SOLVER
    if _FLUID_SOLVER is None:
        from ..fem import FractionalStepSolver

        mesh, bc = _fluid_tube()
        solver = FractionalStepSolver(mesh, bc, viscosity=1e-3, density=1.0,
                                      dt=1e-3)
        _FLUID_SOLVER = (solver, solver.u.copy(), solver.p.copy())
    return _FLUID_SOLVER


def _fractional_step_workload() -> str:
    """Reset the fields and advance 10 steps (the startup regime, where
    per-step setup dominates the short Krylov solves); digest covers the
    final velocity/pressure bytes and the per-step iteration counts."""
    solver, u0, p0 = _fluid_solver()
    solver.u = u0.copy()
    solver.p = p0.copy()
    infos = solver.run(10, tol=1e-4)
    digest = hashlib.sha256()
    digest.update(solver.u.tobytes())
    digest.update(solver.p.tobytes())
    digest.update(repr([(i.momentum_iterations, i.pressure_iterations)
                        for i in infos]).encode())
    return digest.hexdigest()


def _cube_tet_mesh(n: int):
    """Conforming Kuhn tet mesh of the unit cube: n^3 cells, 6 tets each."""
    import numpy as np

    from ..mesh.elements import ElementType
    from ..mesh.mesh import Mesh

    xs = np.linspace(0.0, 1.0, n + 1)
    coords = np.array([[x, y, z] for x in xs for y in xs for z in xs])

    def vid(i, j, k):
        return (i * (n + 1) + j) * (n + 1) + k

    tets = []
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1),
             (2, 1, 0)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                base = np.array([i, j, k])
                for perm in perms:
                    path = [base.copy()]
                    p = base.copy()
                    for axis in perm:
                        p = p.copy()
                        p[axis] += 1
                        path.append(p)
                    tets.append([vid(*q) for q in path])
    conn = np.full((len(tets), 6), -1, dtype=np.int32)
    conn[:, :4] = np.asarray(tets, dtype=np.int32)
    types = np.full(len(tets), ElementType.TET, dtype=np.int8)
    return Mesh(coords, types, conn)


def _pressure_system() -> tuple:
    """SPD pressure-like system + coarse space + RHS batch (untimed).

    A regularized Poisson operator on a 6859-node tet cube with a 1536-part
    RCB coarse space: large enough that the per-call ``DeflationSetup``
    (sparse coarse products + dense Cholesky of the 1536^2 coarse operator)
    is comparable to a solve — the amortization regime of a production
    continuity solver that builds its deflation once per mesh.
    """
    global _PRESSURE_SYSTEM
    if _PRESSURE_SYSTEM is None:
        import numpy as np

        from ..fem import assemble_operator
        from ..partition import rcb_partition

        mesh = _cube_tet_mesh(18)
        K = assemble_operator(mesh, kappa=1.0).matrix
        M = assemble_operator(mesh, kappa=0.0, mass_coeff=1.0).matrix
        A = (K + 1e-4 * M).tocsr()
        groups = rcb_partition(mesh.coords, 1536)
        rng = np.random.default_rng(0)
        bs = [rng.standard_normal(A.shape[0]) for _ in range(8)]
        _PRESSURE_SYSTEM = (A, groups, bs)
    return _PRESSURE_SYSTEM


def _pressure_digest(results) -> str:
    digest = hashlib.sha256()
    for res in results:
        digest.update(res.x.tobytes())
        digest.update(repr(res.iterations).encode())
    return digest.hexdigest()


def _pressure_solve_workload() -> str:
    """One :class:`DeflationSetup` amortized over the RHS batch.  The setup
    build is *inside* the timed region — the row measures the amortization,
    not its omission."""
    from ..solver import DeflationSetup, deflated_cg

    A, groups, bs = _pressure_system()
    setup = DeflationSetup(A, groups)
    return _pressure_digest(
        [deflated_cg(A, b, tol=1e-4, setup=setup) for b in bs])


#: (mesh, bc, u0, p0, dt_fine, n_fixed, control) of the time-to-endpoint
#: row: a weak-inflow tube spun up (untimed) to its developed state, whose
#: CFL headroom then lets the adaptive controller sit on the top Δt rung
#: while the fixed reference covers the same horizon at the fine Δt — the
#: wall-time-to-endpoint regime adaptivity targets.  Starting from the
#: developed state matters for the accuracy gate too: the impulsive-start
#: entrance transient relaxes on the advective timescale L/U (~0.3 s
#: here), and mid-transient states at 8x Δt differ by O(1) no matter the
#: viscosity — whereas near the attractor the coarse-rung endpoint tracks
#: the fine reference to ~1%.
_ADAPTIVE_ENDPOINT: Optional[tuple] = None


def _adaptive_endpoint() -> tuple:
    global _ADAPTIVE_ENDPOINT
    if _ADAPTIVE_ENDPOINT is None:
        import numpy as np

        from ..fem import CflController, DtLadder, FlowBC, \
            FractionalStepSolver
        from ..mesh.airway import Segment
        from ..mesh.generator import MeshResolution, build_tube_mesh

        seg = Segment(sid=0, parent=-1, generation=0, start=np.zeros(3),
                      direction=np.array([0.0, 0.0, -1.0]), length=0.04,
                      radius=0.01)
        mesh = build_tube_mesh(seg, MeshResolution(points_per_ring=12,
                                                   max_sections=10))
        z = mesh.coords[:, 2]
        r = np.linalg.norm(mesh.coords[:, :2], axis=1)
        inlet = np.nonzero(np.isclose(z, 0.0) & (r < 0.0099))[0]
        outlet = np.nonzero(np.isclose(z, -0.04))[0]
        wall = np.nonzero(np.isclose(r, 0.01))[0]
        u_in = np.zeros((len(inlet), 3))
        # peak 0.25 m/s: slow enough that the CFL target admits the top
        # rung of the 5e-4..4e-3 ladder (a 1 m/s inflow on this mesh pins
        # the controller to the bottom rung and there is nothing to win)
        u_in[:, 2] = -0.25 * (1.0 - (r[inlet] / 0.01) ** 2)
        bc = FlowBC(inlet_nodes=inlet, inlet_velocity=u_in, wall_nodes=wall,
                    outlet_nodes=outlet)
        spinup = FractionalStepSolver(mesh, bc, viscosity=1e-3, density=1.0,
                                      dt=4e-3)
        spinup.run(100, tol=1e-6)
        dt_fine = 5e-4
        control = CflController(
            ladder=DtLadder(dt_min=dt_fine, dt_max=8 * dt_fine))
        _ADAPTIVE_ENDPOINT = (mesh, bc, spinup.u.copy(), spinup.p.copy(),
                              dt_fine, 64, control)
    return _ADAPTIVE_ENDPOINT


def _endpoint_result(solver, infos) -> dict:
    digest = hashlib.sha256()
    digest.update(solver.u.tobytes())
    digest.update(solver.p.tobytes())
    digest.update(repr([(i.momentum_iterations, i.pressure_iterations,
                         round(i.dt, 12), i.rung)
                        for i in infos]).encode())
    return {"steps": len(infos), "u": solver.u.copy(),
            "digest": digest.hexdigest()}


def _endpoint_solver():
    """A fresh fine-Δt solver starting from the spun-up developed state."""
    from ..fem import FractionalStepSolver

    mesh, bc, u0, p0, dt_fine, _, _ = _adaptive_endpoint()
    solver = FractionalStepSolver(mesh, bc, viscosity=1e-3, density=1.0,
                                  dt=dt_fine)
    solver.u = u0.copy()
    solver.p = p0.copy()
    return solver


def _endpoint_fixed() -> dict:
    """Fine fixed-Δt reference advanced to the endpoint.  Solver
    construction stays inside the timed region on both sides: the row
    measures the full wall time to the simulated endpoint, including the
    Δt-dependent operator builds adaptivity amortizes per rung."""
    n_fixed = _adaptive_endpoint()[5]
    solver = _endpoint_solver()
    return _endpoint_result(solver, solver.run(n_fixed, tol=1e-4))


def _endpoint_adaptive() -> dict:
    """CFL-controlled run to the same endpoint on the quantized ladder."""
    dt_fine, n_fixed, control = _adaptive_endpoint()[4:]
    solver = _endpoint_solver()
    infos = solver.advance_to(n_fixed * dt_fine, control=control, tol=1e-4)
    return _endpoint_result(solver, infos)


def _endpoint_detail(before: dict, after: dict) -> dict:
    """Accuracy and determinism cross-checks of the time-to-endpoint row
    (untimed): endpoint error vs the fine fixed-Δt reference, and a rerun
    of the adaptive run, whose digest must match bit for bit."""
    import numpy as np

    err = float(np.linalg.norm(after["u"] - before["u"])
                / np.linalg.norm(before["u"]))
    rerun = _endpoint_adaptive()
    return {
        "steps_fixed": before["steps"],
        "steps_adaptive": after["steps"],
        "step_reduction": round(before["steps"] / after["steps"], 3),
        "endpoint_rel_error": round(err, 6),
        "endpoint_tolerance": ENDPOINT_ACCURACY_TOL,
        "ok": err <= ENDPOINT_ACCURACY_TOL,
        "simulated_digest": {
            "after": after["digest"],
            "rerun": rerun["digest"],
            "identical": after["digest"] == rerun["digest"],
        },
    }


#: (A, M, rhs list) of the Krylov-kernel row: a small, iteration-heavy SPD
#: system where the per-iteration allocation overhead the buffered cores
#: remove is a visible fraction of the solve
_KRYLOV_SYSTEM: Optional[tuple] = None


def _krylov_system() -> tuple:
    global _KRYLOV_SYSTEM
    if _KRYLOV_SYSTEM is None:
        import numpy as np

        from ..fem import assemble_operator
        from ..solver import jacobi_preconditioner

        mesh = _cube_tet_mesh(8)
        K = assemble_operator(mesh, kappa=1.0).matrix
        M = assemble_operator(mesh, kappa=0.0, mass_coeff=1.0).matrix
        A = (K + 1e-4 * M).tocsr()
        rng = np.random.default_rng(0)
        bs = [rng.standard_normal(A.shape[0]) for _ in range(32)]
        _KRYLOV_SYSTEM = (A, jacobi_preconditioner(A), bs)
    return _KRYLOV_SYSTEM


def _krylov_cg_workload() -> str:
    """Repeated tight-tolerance Jacobi-CG solves on the prebuilt system:
    the allocation-free Krylov cores at small size, where per-iteration
    overhead is a visible fraction of the solve."""
    from ..solver import cg

    A, M, bs = _krylov_system()
    return _pressure_digest(
        [cg(A, b, tol=1e-12, maxiter=4000, M=M) for b in bs])


#: (trace, times) of the breathing-cycle row: a multi-cycle ventilator
#: flow trace plus the solver-side query schedule; built once, untimed
#: (the 0D integration is a shared input to both sides)
_COSIM_TRACE: Optional[tuple] = None


def _cosim_trace() -> tuple:
    global _COSIM_TRACE
    if _COSIM_TRACE is None:
        from ..cosim import (BreathingPattern, LungModel,
                             VENTILATION_PATTERNS, VentilatorSettings,
                             simulate_breathing)

        pattern = BreathingPattern(
            LungModel(), VentilatorSettings(**VENTILATION_PATTERNS["rest"]))
        trace = simulate_breathing(pattern, n_cycles=4,
                                   samples_per_cycle=4096)
        times = [i * trace.duration / 200.0 for i in range(200)]
        _COSIM_TRACE = (trace, times)
    return _COSIM_TRACE


def _hub_forward_digest(hub_fn, trace, times) -> str:
    digest = hashlib.sha256()
    for t in times:
        digest.update(repr(round(hub_fn(t), 12)).encode())
    digest.update(repr(round(trace.peak_flow, 12)).encode())
    return digest.hexdigest()


def _breathing_cycle_buffered() -> str:
    """One buffered hub amortized over the query schedule: receive and
    transform run once, every forward is a window lookup."""
    from ..cosim import CosimHub

    trace, times = _cosim_trace()
    hub = CosimHub(trace)
    return _hub_forward_digest(hub.scale_at, trace, times)


def _breathing_cycle_unbuffered() -> str:
    """The transform-per-request model a hub-less coupling degenerates to:
    every solver query re-reduces the full trace to window scales before
    forwarding one value.  Forwards are bit-identical to the buffered
    path by construction (same windows, same reduction)."""
    from ..cosim import CosimHub

    trace, times = _cosim_trace()
    return _hub_forward_digest(
        lambda t: CosimHub(trace).scale_at(t), trace, times)


#: (x, v, a, status) of the pre-rolled particle population
_PARTICLE_PREROLL: Optional[tuple] = None

#: precomputed (positions, status) per step of a depositing trajectory;
#: built once by :func:`_particle_snapshots` so the timed benchmark covers
#: only the element-location work, not the Newmark integration
_PARTICLE_SNAPSHOTS: Optional[list] = None


def _particle_preroll() -> tuple:
    """(x, v, a, status) after 60 coarse steps (dt = 1e-3) of a 20x
    population: a realistic fraction has deposited, the rest has spread
    down the tree — the regime the particle hot paths target."""
    global _PARTICLE_PREROLL
    if _PARTICLE_PREROLL is None:
        from ..particles import (FluidProperties, NewmarkTracker,
                                 ParticleProperties, ParticleState,
                                 inject_at_inlet)

        wl = _workload()
        tracker = NewmarkTracker(wl.flow, particles=ParticleProperties(),
                                 fluid=FluidProperties())
        state = ParticleState.empty()
        state.extend(inject_at_inlet(wl.airway, 20 * wl.n_particles, seed=7))
        for _ in range(60):
            tracker.step(state, 1e-3)
        _PARTICLE_PREROLL = (state.x.copy(), state.v.copy(),
                             state.a.copy(), state.status.copy())
    return _PARTICLE_PREROLL


def _preroll_state():
    """A fresh mutable :class:`ParticleState` copy of the pre-roll."""
    from ..particles import ParticleState

    x, v, a, status = _particle_preroll()
    return ParticleState(x=x.copy(), v=v.copy(), a=a.copy(),
                         status=status.copy())


def _particle_snapshots() -> list:
    global _PARTICLE_SNAPSHOTS
    if _PARTICLE_SNAPSHOTS is None:
        from ..particles import (FluidProperties, NewmarkTracker,
                                 ParticleProperties)

        wl = _workload()
        tracker = NewmarkTracker(wl.flow, particles=ParticleProperties(),
                                 fluid=FluidProperties())
        state = _preroll_state()
        snaps = []
        # the simulation dt from the pre-rolled population: frozen
        # particles dominate and the movers drift a fraction of an
        # element per step — the regime the warm-start locator targets
        for _ in range(60):
            tracker.step(state, 1e-4)
            snaps.append((state.x.copy(), state.status.copy()))
        _PARTICLE_SNAPSHOTS = snaps
    return _PARTICLE_SNAPSHOTS


def _tracker_step_workload() -> str:
    """60 transport steps at the simulation dt from the pre-rolled
    population (fresh tracker per call); digest covers the full final
    particle state."""
    from ..particles import (FluidProperties, NewmarkTracker,
                             ParticleProperties)

    wl = _workload()
    tracker = NewmarkTracker(wl.flow, particles=ParticleProperties(),
                             fluid=FluidProperties())
    state = _preroll_state()
    for _ in range(60):
        tracker.step(state, 1e-4)
    digest = hashlib.sha256()
    for arr in (state.x, state.v, state.a, state.status):
        digest.update(arr.tobytes())
    return digest.hexdigest()


def _interpolation_workload() -> str:
    """Mesh-field velocity interpolation at the pre-rolled particle
    positions (fresh field per call)."""
    from ..particles.interpolation import MeshVelocityField

    wl = _workload()
    field = MeshVelocityField(wl.mesh, wl.nodal_velocity)
    x = _particle_preroll()[0]
    digest = hashlib.sha256()
    for _ in range(10):
        digest.update(field.velocity(x).tobytes())
    return digest.hexdigest()


def _particles_workload() -> str:
    """Per-step rank-ownership histograms over a depositing trajectory
    (the driver's particle load metering; KD-tree element location)."""
    import numpy as np

    from ..particles import ElementLocator, ParticleState

    wl = _workload()
    nranks = 96
    labels = wl.decomposition(nranks).labels
    snaps = _particle_snapshots()
    locator = ElementLocator(wl.airway, labels)
    digest = hashlib.sha256()
    z = np.zeros((0, 3))
    state = ParticleState(x=snaps[0][0], v=z, a=z, status=snaps[0][1])
    for _ in range(4):
        for x, status in snaps:
            # the locator reads only positions and status
            state.x = x
            state.status = status
            hist = locator.rank_histogram_state(state, nranks)
            digest.update(hist.tobytes())
    return digest.hexdigest()


def _run_cfpd(**config_kwargs):
    """End-to-end run returning the :class:`RunResult` (the timed part)."""
    from ..app.driver import RunConfig, run_cfpd

    return run_cfpd(RunConfig(**config_kwargs))


def _campaign_bench_spec():
    """The bench sweep: 8 jobs (2 rank counts x 2 thread counts x DLB)."""
    from ..app import RunConfig, WorkloadSpec
    from ..campaign import CampaignSpec

    return CampaignSpec(
        name="bench-grid",
        base_config=RunConfig(cluster="thunder", num_nodes=1),
        base_spec=WorkloadSpec(generations=3, points_per_ring=6, n_steps=4),
        grid=[("config.nranks", [4, 8]),
              ("config.threads_per_rank", [1, 2]),
              ("config.dlb", [False, True])])


def _campaign_digest(run) -> str:
    h = hashlib.sha256()
    for fp, digest in sorted(run.digest_map().items()):
        h.update(fp.encode())
        h.update(digest.encode())
    return h.hexdigest()


def _campaign_cold_serial() -> str:
    """The pre-campaign execution model: one cold spawned process per job
    (every cell pays interpreter start, imports and the full workload
    precompute — the "ad-hoc script per configuration" status quo)."""
    from ..campaign import run_campaign

    return _campaign_digest(
        run_campaign(_campaign_bench_spec(), fresh_process_per_job=True))


def _campaign_warm_pool() -> str:
    """The campaign executor: a 4-worker pool forked off a warm parent, so
    workers share the precomputed workload instead of rebuilding it."""
    from ..campaign import run_campaign

    return _campaign_digest(
        run_campaign(_campaign_bench_spec(), workers=4))


def _campaign_setup() -> None:
    """Warm the parent-side workload cache (forked into pool workers);
    kept out of the timings like every other setup."""
    from ..campaign.runner import warm_workload

    warm_workload(_campaign_bench_spec().base_spec)


# -- benchmark table ---------------------------------------------------------

def _benchmark_table(quick: bool) -> list[dict]:
    """Benchmark rows for this mode.

    A row times ``fn``; a *policy* row also times ``before_fn`` (the other
    execution model on the same code) and gates their ratio at
    ``min_speedup``.  End-to-end runs digest their result in the ``post``
    hook, outside the timed region: hashing the ~5k phase samples costs
    ~14 ms, a double-digit share of the end-to-end time.
    """
    from ..campaign import simulated_digest

    table = [
        # micro rows finish in milliseconds, so their relative timing noise
        # is the largest in the table: they get a deeper best-of (still
        # the cheapest rows by far) to land on the floor reliably
        {"name": "engine_events", "kind": "micro",
         "fn": _engine_events_workload, "units": "events", "warmup": True,
         "repeats": 7,
         "note": "units count is the engine's own events_processed: "
                 "whole-graph plans and same-timestamp cohorts retire the "
                 "task and timer streams in few dispatches"},
        {"name": "engine_events_manyrank", "kind": "micro",
         "fn": _engine_events_manyrank_workload, "units": None,
         "warmup": True, "repeats": 7,
         "note": "96-rank p2p ring + allreduce/barrier, token compute: "
                 "gates the engine/comm dispatch stack at production rank "
                 "counts"},
        {"name": "collectives", "kind": "micro",
         "fn": _collectives_workload, "units": None, "warmup": True,
         "repeats": 7},
        {"name": "assembly", "kind": "kernel",
         "fn": _assembly_workload, "units": "elements", "warmup": True,
         "unit_count": lambda: 5 * _workload().mesh.nelem},
        # a ~3 ms cached-copy path: deeper best-of for the same reason as
        # the micro rows
        {"name": "assembly_constant", "kind": "kernel",
         "fn": _assembly_constant_workload, "units": "elements",
         "warmup": True, "repeats": 7,
         "unit_count": lambda: 5 * _workload().mesh.nelem},
        {"name": "sgs", "kind": "kernel",
         "fn": _sgs_workload, "units": "elements", "warmup": True,
         "unit_count": lambda: 10 * _workload().mesh.nelem},
        {"name": "fractional_step", "kind": "kernel",
         "fn": _fractional_step_workload, "setup": _fluid_solver,
         "units": "steps", "repeats": 7, "unit_count": lambda: 10,
         "note": "one composed gather of the scalar operator into the "
                 "precomputed constrained momentum pattern per step, "
                 "allocation-free Krylov cores"},
        {"name": "pressure_solve", "kind": "kernel",
         "fn": _pressure_solve_workload, "setup": _pressure_system,
         "units": "solves", "repeats": 3, "unit_count": lambda: 8,
         "note": "deflated CG with one DeflationSetup (built inside the "
                 "timed region) amortized over the RHS batch"},
        # policy row: fixed fine Δt vs the CFL-controlled ladder on the
        # same code; the detail hook cross-checks endpoint accuracy and a
        # bit-identical rerun
        {"name": "time_to_endpoint", "kind": "kernel",
         "fn": _endpoint_adaptive, "before_fn": _endpoint_fixed,
         "setup": _adaptive_endpoint, "units": None, "repeats": 3,
         "min_speedup": 1.5, "detail": _endpoint_detail,
         "note": "before = fixed fine-Δt run to the simulated endpoint; "
                 "after = CFL-driven adaptive stepping on the quantized "
                 "Δt ladder to the same endpoint (solver construction "
                 "timed on both sides)"},
        {"name": "krylov_cg", "kind": "kernel",
         "fn": _krylov_cg_workload, "units": "solves", "warmup": True,
         "setup": _krylov_system, "repeats": 7,
         "unit_count": lambda: 32,
         "note": "allocation-free CG cores on an iteration-heavy small "
                 "system"},
        # policy row: hub execution models (transform-per-request vs one
        # buffered receive/transform amortized over the forwards); forwards
        # are bit-identical by construction
        {"name": "breathing_cycle", "kind": "kernel",
         "fn": _breathing_cycle_buffered,
         "before_fn": _breathing_cycle_unbuffered,
         "setup": _cosim_trace, "units": "forwards", "repeats": 7,
         "unit_count": lambda: 200, "min_speedup": 5.0,
         "note": "before = hub-less coupling re-reducing the 4-cycle flow "
                 "trace to window scales on every solver query; after = "
                 "one buffered CosimHub (receive/transform once) "
                 "answering the same 200 forwards"},
        {"name": "particle_location", "kind": "kernel",
         "fn": _particles_workload, "units": "particles", "warmup": True,
         "setup": _particle_snapshots,
         "unit_count": lambda: 4 * 60 * 20 * _workload().n_particles},
        {"name": "tracker_step", "kind": "kernel",
         "fn": _tracker_step_workload, "units": "particle_steps",
         "warmup": True, "setup": _particle_preroll,
         "unit_count": lambda: 60 * 20 * _workload().n_particles},
        {"name": "interpolation", "kind": "kernel",
         "fn": _interpolation_workload, "units": "points", "warmup": True,
         "setup": _particle_preroll,
         "unit_count": lambda: 10 * 20 * _workload().n_particles},
        # the end-to-end rows keep a fixed best-of-5 in every mode: a single
        # quick-mode repeat is too noisy for the --compare gate
        {"name": "run_cfpd_sync", "kind": "end_to_end",
         "fn": lambda: _run_cfpd(), "post": simulated_digest, "units": None,
         "warmup": True, "repeats": 5},
        {"name": "run_cfpd_coupled", "kind": "end_to_end",
         "fn": lambda: _run_cfpd(mode="coupled", fluid_ranks=64),
         "post": simulated_digest, "units": None, "warmup": True,
         "repeats": 5},
        # policy row: execution models (cold process per job vs the warm
        # 4-worker pool); the host has a single CPU, so the gate measures
        # amortized startup/precompute, not parallel speedup
        {"name": "campaign_throughput", "kind": "end_to_end",
         "fn": _campaign_warm_pool, "before_fn": _campaign_cold_serial,
         "setup": _campaign_setup, "units": "jobs", "repeats": 1,
         "unit_count": lambda: 8, "min_speedup": 1.67,
         "note": "before = one cold spawned process per job (the ad-hoc "
                 "script model); after = campaign executor, 4-worker "
                 "fork pool sharing the warm workload cache"},
    ]
    if not quick:
        table += [
            {"name": "run_cfpd_sync_dlb", "kind": "end_to_end",
             "fn": lambda: _run_cfpd(dlb=True), "post": simulated_digest,
             "units": None},
            {"name": "run_cfpd_coupled_dlb", "kind": "end_to_end",
             "fn": lambda: _run_cfpd(mode="coupled", fluid_ranks=64,
                                     dlb=True),
             "post": simulated_digest, "units": None},
        ]
    return table


def _env_info() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def run_benchmarks(quick: bool = False, repeats: Optional[int] = None,
                   verbose: bool = True) -> dict:
    """Run the benchmark suite; returns the report dict.

    ``quick`` keeps workload sizes identical but uses one repeat and skips
    the DLB end-to-end variants (the CI smoke configuration); ``repeats``
    overrides the per-benchmark repeat count (full default: 3, best-of).
    """
    if repeats is None:
        repeats = 1 if quick else 3
    benchmarks = []
    for row in _benchmark_table(quick):
        name, fn = row["name"], row["fn"]
        if verbose:
            print(f"[bench] {name} ...", flush=True)
        setup = row.get("setup")
        if setup is not None:
            setup()  # precompute, kept out of the timings
        row_repeats = row.get("repeats", repeats)
        # "post" maps the timed callable's return value to the reported
        # result (e.g. the simulated digest) *outside* the timed region
        post = row.get("post", lambda r: r)
        before_fn = row.get("before_fn")
        entry = {"name": name, "kind": row["kind"]}
        if before_fn is not None:
            before_s, before_res = _best_of(before_fn, row_repeats)
            before_res = post(before_res)
            entry["before_seconds"] = round(before_s, 6)
        elif row.get("warmup", False):
            # cache-exercising kernels get one untimed call: the timing then
            # covers the steady state even at --quick's single repeat
            fn()
        after_s, after_res = _best_of(fn, row_repeats)
        after_res = post(after_res)
        entry["after_seconds"] = round(after_s, 6)
        if before_fn is not None:
            entry["speedup"] = (round(before_s / after_s, 3) if after_s > 0
                                else None)
            entry["min_speedup"] = row["min_speedup"]
        if "note" in row:
            entry["note"] = row["note"]
        if row.get("units"):
            # engine_events reports the engine's own processed-event count;
            # the other rows declare their unit counts in the table
            count = (float(after_res) if name == "engine_events"
                     else float(row["unit_count"]()))
            entry["throughput"] = {"units": row["units"], "count": count}
            if before_fn is not None:
                entry["throughput"]["before_per_second"] = round(
                    count / before_s, 1)
            entry["throughput"]["after_per_second"] = round(
                count / after_s, 1)
        if row["kind"] in ("kernel", "end_to_end") and isinstance(
                after_res, str):
            entry["simulated_digest"] = {"after": after_res}
            if before_fn is not None:
                entry["simulated_digest"].update(
                    before=before_res, identical=before_res == after_res)
        # "detail" maps the post-mapped (before, after) results to extra
        # row-specific report fields, outside the timed region; a
        # "simulated_digest" key joins the identity gate and an "ok" key
        # joins the detail-check gate
        detail = row.get("detail")
        if detail is not None:
            extra = dict(detail(before_res, after_res))
            sim = extra.pop("simulated_digest", None)
            if sim is not None:
                entry["simulated_digest"] = sim
            if extra:
                entry["detail"] = extra
        benchmarks.append(entry)
        if verbose:
            timing = f"after={after_s:.3f}s"
            if before_fn is not None:
                timing = (f"before={before_s:.3f}s {timing} "
                          f"speedup={entry['speedup']}x")
            print(f"[bench]   {timing}", flush=True)
    digests = [b["simulated_digest"]["identical"] for b in benchmarks
               if "identical" in b.get("simulated_digest", {})]
    detail_oks = [b["detail"]["ok"] for b in benchmarks
                  if "ok" in b.get("detail", {})]
    gated = [b for b in benchmarks if "min_speedup" in b]
    gates_ok = all(b["speedup"] is not None
                   and b["speedup"] >= b["min_speedup"] for b in gated)
    return {
        "schema": _SCHEMA,
        "generated_by": "python -m repro.perf.bench"
                        + (" --quick" if quick else ""),
        "mode": "quick" if quick else "full",
        "repeats": repeats,
        "env": _env_info(),
        "benchmarks": benchmarks,
        "summary": {
            "all_simulated_results_identical": all(digests) if digests
            else None,
            "speedup_gates_ok": gates_ok if gated else None,
            "detail_checks_ok": all(detail_oks) if detail_oks else None,
        },
    }


def compare_reports(current: dict, reference: dict,
                    tolerance: float = SLOWDOWN_TOLERANCE) -> list[str]:
    """Regression check: current after-times and digests vs a reference.

    Returns human-readable failure lines (empty when everything holds):
    a benchmark more than ``tolerance`` times slower than the reference,
    or an ``end_to_end`` row whose simulated digest differs from the
    reference's after-digest.  Benchmarks missing from either report are
    skipped.
    """
    ref_by_name = {b["name"]: b for b in reference.get("benchmarks", [])}
    failures = []
    for b in current.get("benchmarks", []):
        ref = ref_by_name.get(b["name"])
        if ref is None:
            continue
        cur_s, ref_s = b["after_seconds"], ref["after_seconds"]
        if ref_s > 0 and cur_s > tolerance * ref_s:
            failures.append(
                f"{b['name']}: {cur_s:.3f}s vs reference {ref_s:.3f}s "
                f"({cur_s / ref_s:.2f}x > {tolerance}x tolerance)")
        if b.get("kind") == "end_to_end":
            cur_d = b.get("simulated_digest", {}).get("after")
            ref_d = ref.get("simulated_digest", {}).get("after")
            if cur_d is not None and ref_d is not None and cur_d != ref_d:
                failures.append(
                    f"{b['name']}: simulated digest {cur_d[:16]}... drifted "
                    f"from reference {ref_d[:16]}...")
    return failures


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def trajectory_check(current: dict, reference: dict,
                     min_ratio: float = TRAJECTORY_NOISE_FLOOR,
                     ) -> tuple[dict, list[str], float]:
    """Cross-PR trajectory: current after-times vs the previous PR's report.

    The two reports were measured at different times, possibly under
    different host conditions, so a raw after-time ratio conflates code
    changes with host drift.  The median ratio across all shared ``kernel``
    benchmarks estimates that drift — a uniform host slowdown moves every
    kernel by the same factor, while a genuine regression in one kernel
    cannot move the median — and each kernel is gated on its
    drift-adjusted speedup instead.

    Returns ``(trajectory, failures, host_drift)``: ``trajectory`` maps
    benchmark names to reference/current after-times plus the raw and
    drift-adjusted speedups between them, ``failures`` lists every
    ``kernel`` or ``micro`` benchmark whose adjusted speedup dropped below
    ``min_ratio`` (i.e. this PR made it slower than the committed state it
    started from, beyond what the host explains), and ``host_drift`` is
    the median factor (1.0 means the hosts matched).  The drift estimate
    itself uses only ``kernel`` rows: micro rows are exactly what engine
    PRs move by design, so including them would fold the improvement into
    the drift and mask regressions elsewhere.  Benchmarks missing from
    either report — e.g. rows introduced by this PR — are skipped.
    """
    ref_by_name = {b["name"]: b for b in reference.get("benchmarks", [])}
    shared = []
    for b in current.get("benchmarks", []):
        ref = ref_by_name.get(b["name"])
        if ref is None:
            continue
        ref_s, cur_s = ref["after_seconds"], b["after_seconds"]
        if ref_s <= 0 or cur_s <= 0:
            continue
        shared.append((b, ref_s, cur_s, ref_s / cur_s))
    kernel_ratios = [r for b, _, _, r in shared if b["kind"] == "kernel"]
    host_drift = _median(kernel_ratios) if kernel_ratios else 1.0
    trajectory: dict = {}
    failures = []
    for b, ref_s, cur_s, speedup in shared:
        adjusted = speedup / host_drift if host_drift > 0 else speedup
        trajectory[b["name"]] = {
            "reference_after_seconds": ref_s,
            "after_seconds": cur_s,
            "speedup_vs_reference": round(speedup, 3),
            "speedup_vs_reference_drift_adjusted": round(adjusted, 3),
        }
        if b["kind"] in ("kernel", "micro") and adjusted < min_ratio:
            failures.append(
                f"{b['name']}: drift-adjusted {b['kind']} speedup vs "
                f"reference {adjusted:.3f}x < {min_ratio:.2f}x "
                f"({cur_s:.3f}s vs {ref_s:.3f}s, host drift "
                f"{host_drift:.3f}x)")
    return trajectory, failures, host_drift


def resolve_auto_reference(out_path: str) -> Optional[str]:
    """``--baseline auto``: the newest committed ``BENCH_prN.json`` with
    ``N`` strictly below the output report's PR number.

    Searches the output path's directory.  PR numbers need not be
    consecutive — a PR that shipped no bench report (PR 6) leaves a gap
    that resolution simply skips over.  An output name without a PR
    number (e.g. CI's ``BENCH_smoke.json``) gates against the newest
    committed report outright.  Returns ``None`` (caller skips the
    trajectory gate with a notice) when no earlier report exists.
    """
    m = re.search(r"pr(\d+)", os.path.basename(out_path))
    current = int(m.group(1)) if m else sys.maxsize
    directory = os.path.dirname(out_path) or "."
    best: tuple[int, str] | None = None
    for path in glob.glob(os.path.join(directory, "BENCH_pr*.json")):
        pm = re.match(r"BENCH_pr(\d+)\.json$", os.path.basename(path))
        if pm is None:
            continue
        n = int(pm.group(1))
        if n < current and (best is None or n > best[0]):
            best = (n, path)
    return best[1] if best else None


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.bench",
        description="Benchmark suite (emits BENCH JSON).")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: 1 repeat, fewer end-to-end "
                             "variants, same workload sizes")
    parser.add_argument("--out", default=_DEFAULT_OUT,
                        help=f"output JSON path (default: {_DEFAULT_OUT}; "
                             "'-' for stdout only)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="repeat count per measurement (best-of)")
    parser.add_argument("--compare", metavar="BASELINE_JSON", default=None,
                        help="fail (exit 1) if any benchmark is "
                             f">{SLOWDOWN_TOLERANCE}x slower than this "
                             "reference report, or any end-to-end "
                             "simulated digest differs from it")
    parser.add_argument("--baseline", metavar="REFERENCE_JSON", default=None,
                        help="previous PR's committed report; records the "
                             "cross-PR trajectory in the output and fails "
                             "(exit 1) if any kernel or micro benchmark "
                             "regresses below the drift-adjusted noise "
                             "floor of it.  'auto' resolves the newest "
                             "BENCH_prN.json below the output's PR number "
                             "(gaps from report-less PRs are fine)")
    args = parser.parse_args(argv)

    if args.baseline == "auto":
        resolved = resolve_auto_reference(
            args.out if args.out != "-" else _DEFAULT_OUT)
        if resolved is None:
            print("[bench] --baseline auto: no earlier BENCH_prN.json "
                  "found; skipping the trajectory gate")
        else:
            print(f"[bench] --baseline auto -> {resolved}")
        args.baseline = resolved

    trajectory_failures: list[str] = []
    report = run_benchmarks(quick=args.quick, repeats=args.repeats)
    if args.baseline:
        with open(args.baseline) as fh:
            baseline_report = json.load(fh)
        trajectory, trajectory_failures, host_drift = trajectory_check(
            report, baseline_report,
            min_ratio=TRAJECTORY_QUICK_FLOOR if args.quick
            else TRAJECTORY_NOISE_FLOOR)
        report["trajectory"] = {"reference": args.baseline,
                                "host_drift": round(host_drift, 3),
                                "benchmarks": trajectory}
    text = json.dumps(report, indent=2, sort_keys=False)
    if args.out == "-":
        print(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"[bench] wrote {args.out}")

    identical = report["summary"]["all_simulated_results_identical"]
    if identical is False:
        print("[bench] FAIL: simulated-time results differ between the "
              "two sides of a policy row", file=sys.stderr)
        return 1
    if report["summary"]["speedup_gates_ok"] is False:
        for b in report["benchmarks"]:
            gate = b.get("min_speedup")
            if gate and (b["speedup"] is None or b["speedup"] < gate):
                print(f"[bench] FAIL: {b['name']} speedup {b['speedup']}x "
                      f"below the required {gate}x", file=sys.stderr)
        return 1
    if report["summary"]["detail_checks_ok"] is False:
        for b in report["benchmarks"]:
            if b.get("detail", {}).get("ok") is False:
                print(f"[bench] FAIL: {b['name']} detail check failed: "
                      f"{b['detail']}", file=sys.stderr)
        return 1
    if args.compare:
        with open(args.compare) as fh:
            reference = json.load(fh)
        failures = compare_reports(report, reference)
        if failures:
            for line in failures:
                print(f"[bench] REGRESSION: {line}", file=sys.stderr)
            return 1
        print(f"[bench] within {SLOWDOWN_TOLERANCE}x of {args.compare}, "
              "end-to-end digests unchanged")
    if args.baseline:
        if trajectory_failures:
            for line in trajectory_failures:
                print(f"[bench] REGRESSION: {line}", file=sys.stderr)
            return 1
        print(f"[bench] trajectory holds vs {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
