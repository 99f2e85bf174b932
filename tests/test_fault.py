"""Tests for the fault injection / detection / degradation subsystem."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RunConfig, WorkloadSpec, run_cfpd
from repro.fault import FaultInjector, FaultPlan, FaultSpec, resilience_report
from repro.machine import marenostrum4
from repro.sim import Engine, SimulationError
from repro.smpi import DeadlockError, MPIError, RankDeadError, World
from repro.smpi.comm import ANY_TAG, Message, _KeyedMailbox
from repro.solver import SolverBreakdown, cg, jacobi_preconditioner
from repro.solver.krylov import _cg_core


SPEC = WorkloadSpec(generations=3, points_per_ring=6, n_steps=8)


def small_config(**kw):
    base = dict(cluster="thunder", num_nodes=1, nranks=4,
                threads_per_rank=2, dlb=False)
    base.update(kw)
    return RunConfig(**base)


def spd_system(n=60, seed=3):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, n))
    from scipy import sparse
    A = sparse.csr_matrix(B @ B.T + n * np.eye(n))
    b = rng.normal(size=n)
    return A, b


# ---------------------------------------------------------------------------
# engine-level failure detection primitives
# ---------------------------------------------------------------------------

class TestEngineDiagnostics:
    def test_empty_queue_is_diagnosed_not_indexerror(self):
        eng = Engine()
        world = World(eng, marenostrum4(), 1)

        def stuck(comm):
            yield eng.event()   # nobody will ever trigger this

        procs = world.launch(stuck)
        with pytest.raises(DeadlockError,
                           match="rank0 not inside an MPI call"):
            world.run(procs)    # the engine drains; World.run diagnoses

    def test_empty_queue_message_counts_alive_processes(self):
        eng = Engine()
        world = World(eng, marenostrum4(), 4)

        def program(comm):
            if comm.rank < 3:
                yield eng.event()
            else:
                yield from comm.compute(1e-6)

        with pytest.raises(DeadlockError,
                           match="3 of 4 rank processes never completed"):
            world.run(world.launch(program))

    def test_interrupt_throws_into_process(self):
        eng = Engine()
        seen = []

        def prog(eng):
            try:
                yield eng.timeout(10.0)
            except RankDeadError as exc:
                seen.append(exc.rank)
                return "degraded"

        p = eng.process(prog(eng))
        def killer(eng):
            yield eng.timeout(1.0)
            p.interrupt(RankDeadError(2))

        eng.process(killer(eng))
        eng.run()
        assert seen == [2]
        assert p.value == "degraded"
        assert eng.now == pytest.approx(10.0)  # pending timeout still fires

    def test_interrupt_finished_process_rejected(self):
        eng = Engine()

        def empty(eng):
            return
            yield

        p = eng.process(empty(eng))
        eng.run()
        with pytest.raises(SimulationError, match="finished process"):
            p.interrupt(RuntimeError("late"))

    def test_store_fail_pending_by_meta(self):
        """A rank mailbox fails only the blocked receives whose meta
        matches; the others stay blocked and still take later messages."""
        eng = Engine()
        box = _KeyedMailbox(eng)
        outcomes = {}

        def getter(name, source, meta):
            try:
                msg = yield box.get_keyed(0, source, ANY_TAG, meta)
                outcomes[name] = msg.payload
            except RankDeadError:
                outcomes[name] = "failed"

        eng.process(getter("a", 1, {"src": 1}))
        eng.process(getter("b", 2, {"src": 2}))
        eng.run()
        n = box.fail_pending(
            lambda meta: isinstance(meta, dict) and meta.get("src") == 1,
            RankDeadError(1))
        assert n == 1
        box.put(Message(src=2, dest=0, tag=5, comm_id=0,
                        payload="payload", nbytes=8.0))
        eng.run()
        assert outcomes == {"a": "failed", "b": "payload"}
        assert len(box) == 0


# ---------------------------------------------------------------------------
# smpi: rank death + deadlock diagnostics
# ---------------------------------------------------------------------------

class TestRankDeath:
    def test_recv_from_dead_rank_raises(self):
        eng = Engine()
        world = World(eng, marenostrum4(), 2)

        def program(comm):
            if comm.rank == 0:
                yield from comm.compute(1e-6)
                with pytest.raises(RankDeadError):
                    yield from comm.recv(source=1)
                return "survived"
            yield from comm.compute(10.0)

        procs = world.launch(program)
        world.kill_rank(1, "test kill")
        results = world.run(procs)
        assert results[0] == "survived"
        assert world.dead_ranks == {1}

    def test_pending_recv_fails_when_peer_dies(self):
        eng = Engine()
        world = World(eng, marenostrum4(), 2)

        def program(comm):
            if comm.rank == 0:
                try:
                    yield from comm.recv(source=1)
                except RankDeadError as exc:
                    return ("dead", exc.rank)
            else:
                yield from comm.compute(5.0)

        procs = world.launch(program)

        def killer(eng):
            yield eng.timeout(1.0)
            world.kill_rank(1)

        eng.process(killer(eng))
        results = world.run(procs)
        assert results[0] == ("dead", 1)

    def test_collectives_shrink_to_survivors(self):
        eng = Engine()
        world = World(eng, marenostrum4(), 4)

        def program(comm):
            if comm.rank == 3:
                yield from comm.compute(50.0)   # dies before contributing
                return None
            yield from comm.compute(1e-6)
            total = yield from comm.allreduce(comm.rank)
            return total

        procs = world.launch(program)

        def killer(eng):
            yield eng.timeout(1e-7)
            world.kill_rank(3)

        eng.process(killer(eng))
        results = world.run(procs)
        assert results[0] == results[1] == results[2] == 0 + 1 + 2

    def test_deadlock_error_names_blocked_ranks_and_calls(self):
        eng = Engine()
        world = World(eng, marenostrum4(), 2)

        def program(comm):
            if comm.rank == 0:
                yield from comm.recv(source=1)   # never sent: deadlock
            else:
                yield from comm.compute(1e-6)

        procs = world.launch(program)
        with pytest.raises(DeadlockError) as err:
            world.run(procs)
        msg = str(err.value)
        assert "deadlock" in msg
        assert "rank0" in msg and "'recv'" in msg
        assert isinstance(err.value, MPIError)


# ---------------------------------------------------------------------------
# fault plan + injector
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="gamma_ray", time=0.0)
        with pytest.raises(ValueError, match="duration"):
            FaultSpec(kind="straggler", time=0.0, rank=0)
        with pytest.raises(ValueError, match="delay"):
            FaultSpec(kind="msg_delay", time=0.0, rank=0)
        with pytest.raises(ValueError, match="count"):
            FaultSpec(kind="msg_drop", time=0.0, rank=0)
        with pytest.raises(ValueError, match="target rank"):
            FaultSpec(kind="rank_death", time=0.0)
        with pytest.raises(TypeError, match="FaultSpec"):
            FaultPlan(specs=("not a spec",))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nranks=st.integers(1, 64),
           n_faults=st.integers(0, 8))
    def test_random_plan_is_deterministic(self, seed, nranks, n_faults):
        a = FaultPlan.random(seed, nranks, t_end=1.0, n_faults=n_faults)
        b = FaultPlan.random(seed, nranks, t_end=1.0, n_faults=n_faults)
        assert a.specs == b.specs
        assert len(a) == n_faults
        for s in a:
            assert 0.0 <= s.time < 1.0
            assert 0 <= s.rank < nranks

    def test_for_kind_sorted_by_time(self):
        plan = FaultPlan(specs=(
            FaultSpec(kind="straggler", time=2.0, rank=0, duration=1.0),
            FaultSpec(kind="rank_death", time=0.5, rank=1),
            FaultSpec(kind="straggler", time=1.0, rank=1, duration=1.0),
        ))
        times = [s.time for s in plan.for_kind("straggler")]
        assert times == [1.0, 2.0]

    def test_orchestration_kinds_need_a_grant_number(self):
        from repro.fault import ORCHESTRATION_KINDS

        for kind in ORCHESTRATION_KINDS:
            with pytest.raises(ValueError, match="count >= 1"):
                FaultSpec(kind=kind, time=0.0)
            spec = FaultSpec(kind=kind, time=0.0, count=3)
            assert spec.count == 3

    def test_orchestration_selector_sorted_by_grant(self):
        plan = FaultPlan(specs=(
            FaultSpec(kind="worker_wedge", time=0.0, count=5),
            FaultSpec(kind="rank_death", time=0.5, rank=1),
            FaultSpec(kind="worker_kill", time=0.0, count=2),
            FaultSpec(kind="heartbeat_loss", time=0.0, count=4),
        ))
        assert [(s.count, s.kind) for s in plan.orchestration()] == \
            [(2, "worker_kill"), (4, "heartbeat_loss"), (5, "worker_wedge")]

    def test_injector_ignores_orchestration_kinds(self):
        # worker-level faults act on the campaign executor, not on the
        # simulated DES run: the injector must not schedule any trigger
        eng = Engine()
        world = World(eng, marenostrum4(), 2)
        plan = FaultPlan(specs=(
            FaultSpec(kind="worker_kill", time=0.0, count=1),
            FaultSpec(kind="heartbeat_loss", time=0.0, count=2),
            FaultSpec(kind="worker_wedge", time=0.0, count=3),
        ))
        injector = FaultInjector(world, plan)
        injector.start()

        def program(comm):
            yield from comm.compute(1e-6)
            return "done"

        results = world.run(world.launch(program))
        assert results == ["done", "done"]
        assert injector.events == []  # nothing fired inside the DES run


class TestInjectedRuns:
    def test_straggler_slows_the_run(self):
        cfg = small_config()
        clean = run_cfpd(cfg, spec=SPEC)
        plan = FaultPlan(specs=(
            FaultSpec(kind="straggler", time=0.0, rank=0, factor=8.0,
                      duration=clean.total_time),))
        slow = run_cfpd(cfg, spec=SPEC, fault_plan=plan)
        assert slow.total_time > clean.total_time
        assert slow.faults.summary()["by_kind"] == {"straggler": 1}

    def test_rank_death_run_completes_with_dlb_degradation(self):
        cfg = small_config(dlb=True)
        clean = run_cfpd(cfg, spec=SPEC)
        plan = FaultPlan(specs=(
            FaultSpec(kind="rank_death", time=clean.total_time / 2, rank=3),))
        result = run_cfpd(cfg, spec=SPEC, fault_plan=plan)
        assert result.faults.summary()["dead_ranks"] == [3]
        assert result.dlb_stats.rank_death_events == 1
        # the run finished: the last step produced samples on survivors
        last = max(s.step for s in result.phase_log.samples)
        assert last == SPEC.n_steps - 1

    def test_msg_delay_slows_the_run(self):
        cfg = small_config()
        clean = run_cfpd(cfg, spec=SPEC)
        plan = FaultPlan(specs=(
            FaultSpec(kind="msg_delay", time=0.0, rank=0, delay=1e-4,
                      duration=clean.total_time),))
        slow = run_cfpd(cfg, spec=SPEC, fault_plan=plan)
        assert slow.total_time > clean.total_time
        assert slow.faults.messages_delayed > 0

    def test_msg_drop_turns_into_deadlock_diagnostic(self):
        eng = Engine()
        world = World(eng, marenostrum4(), 2)
        plan = FaultPlan(specs=(
            FaultSpec(kind="msg_drop", time=0.0, rank=0, count=1),))
        injector = FaultInjector(world, plan)
        injector.start()

        def program(comm):
            if comm.rank == 0:
                yield from comm.compute(1e-6)
                yield from comm.send("lost", dest=1)
            else:
                yield from comm.recv(source=0)

        procs = world.launch(program)
        with pytest.raises(DeadlockError, match="'recv'"):
            world.run(procs)
        assert injector.messages_dropped == 1

    def test_solver_perturb_runs_real_recovery(self):
        cfg = small_config()
        plan = FaultPlan(specs=(
            FaultSpec(kind="solver_perturb", time=0.0, count=2),))
        result = run_cfpd(cfg, spec=SPEC, fault_plan=plan)
        assert len(result.faults.solver_results) == 1
        solve = result.faults.solver_results[0]
        assert solve.recovered and solve.converged

    def test_injected_run_is_replayable(self):
        cfg = small_config(dlb=True)
        plan = FaultPlan.random(seed=7, nranks=4, t_end=0.008, n_faults=3,
                                kinds=("straggler", "msg_delay"))
        a = run_cfpd(cfg, spec=SPEC, fault_plan=plan)
        b = run_cfpd(cfg, spec=SPEC, fault_plan=plan)
        assert a.total_time == b.total_time
        assert a.faults.events == b.faults.events

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_any_seeded_straggler_plan_replays_identically(self, seed):
        cfg = small_config()
        plan = FaultPlan.random(seed=seed, nranks=4, t_end=0.008,
                                n_faults=2, kinds=("straggler", "msg_delay"))
        a = run_cfpd(cfg, spec=SPEC, fault_plan=plan)
        b = run_cfpd(cfg, spec=SPEC, fault_plan=plan)
        assert a.total_time == b.total_time

    def test_fault_events_land_in_tracer(self):
        """Fired faults are recorded on the run's injector."""
        cfg = small_config()
        plan = FaultPlan(specs=(
            FaultSpec(kind="straggler", time=0.0, rank=1, duration=0.002),))
        result = run_cfpd(cfg, spec=SPEC, fault_plan=plan)
        events = result.faults.events
        assert len(events) >= 1
        assert (events[0].kind, events[0].rank, events[0].time) == \
            ("straggler", 1, 0.0)


# ---------------------------------------------------------------------------
# solver breakdown guards
# ---------------------------------------------------------------------------

class TestSolverGuards:
    def test_nan_injection_recovers(self):
        A, b = spd_system()

        def contaminate(it, r):
            if it == 3:
                r = r.copy()
                r[0] = np.nan
            return r

        result = cg(A, b, tol=1e-10, maxiter=500,
                    M=jacobi_preconditioner(A), fault=contaminate)
        assert result.converged and result.recovered
        assert np.allclose(A @ result.x, b, atol=1e-6)

    def test_transient_fault_is_dropped_on_retry(self):
        # The retry models a transient fault (bit-flip): the hook is not
        # re-applied, so even an every-iteration fault ends recovered.
        A, b = spd_system()

        def always(it, r):
            r = r.copy()
            r[0] = np.inf
            return r

        result = cg(A, b, fault=always)
        assert result.recovered and result.converged

    def test_double_breakdown_is_structured_failure(self):
        # CG on a negative-definite operator breaks down immediately, and
        # the re-preconditioned retry breaks down the same way: the result
        # is a structured failure naming both causes, not an exception.
        from scipy import sparse
        A = (-1.0 * sparse.identity(20)).tocsr()
        result = cg(A, np.ones(20))
        assert not result.converged
        assert result.breakdown == "indefinite_operator+indefinite_operator"

    def test_no_retry_raises(self):
        A, b = spd_system()

        def nan_at_1(it, r):
            r = r.copy()
            r[0] = np.nan
            return r

        with pytest.raises(SolverBreakdown) as err:
            _cg_core(A, b, None, 1e-8, 100, None, nan_at_1, 100)
        assert err.value.reason == "nonfinite_residual"

    def test_stagnation_guard_trips_after_flat_window(self):
        from repro.solver.krylov import _StagnationGuard
        guard = _StagnationGuard(window=3)
        guard.check(1.0, 0)
        guard.check(0.5, 1)    # improving: counter resets
        guard.check(0.5, 2)
        guard.check(0.5, 3)
        with pytest.raises(SolverBreakdown) as err:
            guard.check(0.5, 4)
        assert err.value.reason == "stagnation"
        with pytest.raises(SolverBreakdown, match="nonfinite"):
            _StagnationGuard(window=3).check(np.nan, 0)

    def test_stagnation_detected_on_badly_scaled_system(self):
        # Unpreconditioned CG on a badly scaled SPD system makes no
        # progress; a small window must classify that instead of burning
        # maxiter (the Jacobi retry then solves it — recovery in action).
        from scipy import sparse
        n = 120
        rng = np.random.default_rng(1)
        scale = sparse.diags(10.0 ** rng.uniform(-3, 3, size=n))
        A0, b = spd_system(n, seed=1)
        A = (scale @ A0 @ scale).tocsr()
        plain = cg(A, b, tol=1e-8, maxiter=2000, stagnation_window=10,
                   retry_on_breakdown=False)
        assert not plain.converged
        assert plain.breakdown == "stagnation"
        recovered = cg(A, b, tol=1e-8, maxiter=2000, stagnation_window=10)
        assert recovered.recovered and recovered.converged

    def test_recovered_result_accounts_total_work(self):
        A, b = spd_system()

        def contaminate(it, r):
            if it == 4:
                r = r.copy()
                r[0] = np.nan
            return r

        clean = cg(A, b, M=jacobi_preconditioner(A))
        hit = cg(A, b, M=jacobi_preconditioner(A), fault=contaminate)
        assert hit.iterations > clean.iterations
        assert hit.matvecs > clean.matvecs


# ---------------------------------------------------------------------------
# config validation + report
# ---------------------------------------------------------------------------

class TestRunConfigValidation:
    def test_bad_values_fail_eagerly(self):
        with pytest.raises(ValueError, match="nranks"):
            small_config(nranks=0)
        with pytest.raises(ValueError, match="threads_per_rank"):
            small_config(threads_per_rank=0)
        with pytest.raises(ValueError, match="unknown mode"):
            small_config(mode="async")
        with pytest.raises(ValueError, match="fluid_ranks"):
            small_config(mode="coupled", fluid_ranks=4)
        with pytest.raises(ValueError, match="unknown mapping"):
            small_config(mapping="diagonal")
        with pytest.raises(ValueError, match="unknown scheduler"):
            small_config(scheduler="random")
        with pytest.raises(ValueError, match="partition_method"):
            small_config(partition_method="metis")
        with pytest.raises(ValueError, match="checkpoint_every"):
            small_config(checkpoint_every=-1)
        with pytest.raises(ValueError, match="unknown cluster"):
            small_config(cluster="summit")


class TestResilienceReport:
    def test_clean_run_reports_no_faults(self):
        result = run_cfpd(small_config(), spec=SPEC)
        text = resilience_report(result)
        assert "Resilience report" in text
        assert "none injected" in text

    def test_faulty_run_report_tells_the_story(self):
        cfg = small_config(dlb=True)
        plan = FaultPlan(specs=(
            FaultSpec(kind="straggler", time=0.0, rank=0, duration=0.002),
            FaultSpec(kind="rank_death", time=0.004, rank=3),
            FaultSpec(kind="solver_perturb", time=0.0, count=2),
        ))
        result = run_cfpd(cfg, spec=SPEC, fault_plan=plan)
        text = resilience_report(result)
        assert "straggler" in text
        assert "dead ranks    : [3]" in text
        assert "solver fault #1" in text
        assert "DLB degradation" in text
