"""Integration tests for DLB (LeWI) over simulated MPI + task teams.

The central scenario is the paper's Fig. 5: an unbalanced hybrid
MPI+OpenMP application in which the under-loaded rank reaches a blocking
MPI call and lends its cores to the overloaded rank on the same node.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import DLB, Team, build_parallel_for_graph
from repro.machine import CoreModel, marenostrum4
from repro.sim import Engine
from repro.smpi import World

#: 1 GHz, IPC 1 core: 1e9 instructions == 1 second.
CORE = CoreModel(name="unit", freq_ghz=1.0, base_ipc=1.0, out_of_order=True,
                 atomic_stall_cycles=0.0, mem_stall_cycles=0.0)
SEC = 1e9


def run_imbalanced(n_tasks_per_rank, threads_per_rank=2, dlb_enabled=True,
                   num_nodes=1, mapping="block"):
    """Each rank runs its task count of 1-second tasks, then a barrier."""
    eng = Engine()
    cluster = marenostrum4(num_nodes=num_nodes)
    nranks = len(n_tasks_per_rank)
    world = World(eng, cluster, nranks, mapping=mapping)
    dlb = DLB(world, enabled=dlb_enabled)
    teams = {}
    for r in range(nranks):
        teams[r] = Team(eng, CORE, threads_per_rank, rank=r)
        dlb.attach_team(r, teams[r])

    finish_times = {}

    def program(comm):
        n = n_tasks_per_rank[comm.rank]
        graph = build_parallel_for_graph(
            np.full(n, SEC), threads_per_rank, min_chunks=n)
        yield from teams[comm.rank].run(graph)
        yield from comm.barrier()
        finish_times[comm.rank] = comm.engine.now

    world.run(world.launch(program))
    return eng.now, dlb, finish_times


class TestFig5Scenario:
    """2 ranks x 2 threads, rank 1 has 4x the work of rank 0."""

    def test_without_dlb_limited_by_slow_rank(self):
        t, dlb, _ = run_imbalanced([2, 8], dlb_enabled=False)
        assert t == pytest.approx(4.0, abs=0.01)
        assert dlb.stats.lend_events == 0

    def test_with_dlb_lends_and_speeds_up(self):
        t, dlb, _ = run_imbalanced([2, 8], dlb_enabled=True)
        # rank 0 blocks at t=1, lends 2 cores; rank 1 finishes 6 remaining
        # tasks on 4 cores: done at t=3 (vs 4 without DLB).
        assert t == pytest.approx(3.0, abs=0.01)
        assert dlb.stats.lend_events >= 1
        assert dlb.stats.cores_borrowed_total >= 2

    def test_dlb_never_slower(self):
        for tasks in ([4, 4], [1, 8], [8, 1], [3, 5]):
            t_off, _, _ = run_imbalanced(list(tasks), dlb_enabled=False)
            t_on, _, _ = run_imbalanced(list(tasks), dlb_enabled=True)
            assert t_on <= t_off + 1e-9

    def test_balanced_load_unaffected(self):
        t_off, _, _ = run_imbalanced([4, 4], dlb_enabled=False)
        t_on, _, _ = run_imbalanced([4, 4], dlb_enabled=True)
        assert t_on == pytest.approx(t_off)


class TestLendReclaim:
    def test_capacity_restored_after_mpi(self):
        eng = Engine()
        world = World(eng, marenostrum4(num_nodes=1), 2)
        dlb = DLB(world)
        teams = {r: Team(eng, CORE, 2, rank=r) for r in range(2)}
        for r, tm in teams.items():
            dlb.attach_team(r, tm)
        capacities = {}

        def program(comm):
            g = build_parallel_for_graph(
                np.full(2 if comm.rank == 0 else 6, SEC), 2,
                chunks_per_thread=1)
            yield from teams[comm.rank].run(g)
            yield from comm.barrier()
            capacities[comm.rank] = teams[comm.rank].capacity
            # run again after the barrier: both teams must work normally
            g2 = build_parallel_for_graph(np.full(2, SEC), 2,
                                          chunks_per_thread=1)
            yield from teams[comm.rank].run(g2)

        world.run(world.launch(program))
        assert capacities == {0: 2, 1: 2}
        assert dlb.borrowed_by(0) == 0 and dlb.borrowed_by(1) == 0
        assert dlb.pool_size(0) == 0

    def test_borrowed_cores_returned_on_idle(self):
        """When the borrower finishes, pooled cores are freed again."""
        t, dlb, _ = run_imbalanced([2, 8, 2], dlb_enabled=True)
        assert dlb.pool_size(0) >= 0  # accounting consistent
        assert dlb.borrowed_by(1) == 0

    def test_three_way_redistribution(self):
        """Two idle ranks feed the single loaded one."""
        t_on, dlb, _ = run_imbalanced([1, 1, 12], dlb_enabled=True)
        t_off, _, _ = run_imbalanced([1, 1, 12], dlb_enabled=False)
        # loaded rank eventually runs with up to 6 cores
        assert dlb.stats.max_team_capacity >= 4
        assert t_on < t_off

    def test_stats_counters_consistent(self):
        _, dlb, _ = run_imbalanced([2, 8], dlb_enabled=True)
        s = dlb.stats
        assert s.lend_events >= 1
        assert s.reclaim_events >= 1
        assert s.cores_lent_total >= s.cores_borrowed_total >= 0


class TestNodeLocality:
    def test_no_lending_across_nodes(self):
        """Ranks on different nodes cannot share cores (DLB is
        shared-memory only)."""
        # 2 ranks over 2 nodes, block mapping: one rank per node.
        t_on, dlb, _ = run_imbalanced([2, 8], dlb_enabled=True, num_nodes=2)
        t_off, _, _ = run_imbalanced([2, 8], dlb_enabled=False, num_nodes=2)
        assert dlb.stats.cores_borrowed_total == 0
        assert t_on == pytest.approx(t_off)

    def test_cyclic_mapping_enables_lending_within_node(self):
        # 4 ranks, 2 nodes, cyclic: ranks 0,2 on node 0 and 1,3 on node 1.
        # make ranks 0,1 idle-ish and 2,3 loaded: each node pairs one idle
        # with one loaded rank -> lending possible on both nodes.
        t_on, dlb, _ = run_imbalanced([1, 1, 8, 8], dlb_enabled=True,
                                      num_nodes=2, mapping="cyclic")
        t_off, _, _ = run_imbalanced([1, 1, 8, 8], dlb_enabled=False,
                                     num_nodes=2, mapping="cyclic")
        assert dlb.stats.cores_borrowed_total > 0
        assert t_on < t_off


class TestManyRanks:
    def test_single_hot_rank_among_many(self):
        """The particle-phase pattern: one rank holds nearly all work."""
        tasks = [1] * 7 + [24]
        t_off, _, _ = run_imbalanced(tasks, threads_per_rank=1,
                                     dlb_enabled=False)
        t_on, dlb, _ = run_imbalanced(tasks, threads_per_rank=1,
                                      dlb_enabled=True)
        # without DLB: 24 s of serial work; with DLB the hot rank borrows
        # up to 7 extra cores.
        assert t_off == pytest.approx(24.0, abs=0.1)
        assert t_on < 0.5 * t_off
        assert dlb.stats.max_team_capacity >= 4


class TestAttach:
    def test_double_attach_rejected(self):
        eng = Engine()
        world = World(eng, marenostrum4(num_nodes=1), 2)
        dlb = DLB(world)
        team = Team(eng, CORE, 2, rank=0)
        dlb.attach_team(0, team)
        with pytest.raises(ValueError, match="rank 0"):
            dlb.attach_team(0, Team(eng, CORE, 2, rank=0))
        assert dlb.teams[0] is team


class _LoggedTeam(Team):
    """A team that logs every capacity change as ``(rank, capacity)``."""

    def __init__(self, log, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._log = log

    def set_capacity(self, n):
        self._log.append((self.rank, n))
        super().set_capacity(n)


class TestFeedOrder:
    """One node, seven teams attached in the order R, L, E, A, C, D, B:

    * R (2 cores) lends, and its reclaim shrinks E, which borrowed them;
    * A and B are hungry one-core teams; A has the higher rank but is
      attached first;
    * C is idle, D is inside MPI with a backlog;
    * L (6 cores) then enters MPI and lends: the feed must grant to E,
      then A, in attach order, and stop when the pool is empty.
    """

    R, L, E, A, C, D, B = 0, 1, 2, 6, 4, 5, 3

    def _scenario(self):
        eng = Engine()
        world = World(eng, marenostrum4(num_nodes=1), 7)
        dlb = DLB(world)
        log = []
        cores = {self.R: 2, self.L: 6}
        teams = {}
        for rank in (self.R, self.L, self.E, self.A, self.C, self.D,
                     self.B):
            teams[rank] = _LoggedTeam(log, eng, CORE, cores.get(rank, 1),
                                      rank=rank)
            dlb.attach_team(rank, teams[rank])
        for rank in (self.E, self.A, self.D, self.B):
            graph = build_parallel_for_graph(np.full(6, SEC), 1,
                                             min_chunks=6)
            eng.process(teams[rank].run(graph))
        seen = {}

        def at(when, fn):
            eng.call_later(when, fn)

        def lend_r():
            dlb.on_mpi_enter(self.R, "recv")
            seen["e_after_lend"] = teams[self.E].capacity

        def d_enters():
            dlb.on_mpi_enter(self.D, "recv")

        def reclaim_r():
            dlb.on_mpi_exit(self.R, "recv")
            seen["e_after_reclaim"] = teams[self.E].capacity
            seen["e_wants"] = teams[self.E].wants_cores

        def lend_l():
            seen["b_wants"] = teams[self.B].wants_cores
            seen["d_wants"] = teams[self.D].wants_cores
            del log[:]
            dlb.on_mpi_enter(self.L, "recv")
            seen["feed"] = list(log)
            seen["pool"] = dlb.pool_size(0)
            seen["capacities"] = {r: t.capacity for r, t in teams.items()}
            # nothing pooled: a hungry notification must change nothing
            stats = dataclasses.asdict(dlb.stats)
            del log[:]
            dlb.on_team_hungry(teams[self.B])
            seen["empty_pool_log"] = list(log)
            seen["stats_unchanged"] = dataclasses.asdict(dlb.stats) == stats
            seen["capacities_after"] = {r: t.capacity
                                        for r, t in teams.items()}

        at(0.25, lend_r)
        at(0.5, d_enters)
        at(0.75, reclaim_r)
        at(0.9, lend_l)
        eng.run()
        return seen

    def test_grants_in_attach_order_until_pool_empty(self):
        seen = self._scenario()
        assert seen["e_after_lend"] == 3         # E borrowed R's 2 cores
        assert seen["e_after_reclaim"] == 1      # the reclaim shrank E
        assert seen["e_wants"]
        assert seen["b_wants"] and seen["d_wants"]
        # L shrinks to 0 and pools 6 cores; E takes its 3 ready tasks' worth,
        # A the remaining 3 of its 5; B (hungry, attached last), C (idle)
        # and D (inside MPI) get nothing
        assert seen["feed"] == [(self.L, 0), (self.E, 4), (self.A, 4)]
        assert seen["pool"] == 0
        caps = seen["capacities"]
        assert caps[self.B] == caps[self.C] == caps[self.D] == 1

    def test_hungry_with_empty_pool_changes_nothing(self):
        seen = self._scenario()
        assert seen["empty_pool_log"] == []
        assert seen["stats_unchanged"]
        assert seen["capacities_after"] == seen["capacities"]


class TestDLBInterplay:
    """A rank waiting in a blocking MPI call lends its cores: a blocking
    allreduce and a wait on a non-blocking receive both engage DLB."""

    def _run(self, use_request):
        eng = Engine()
        cluster = marenostrum4(num_nodes=1)
        world = World(eng, cluster, 2)
        dlb = DLB(world, enabled=True)
        teams = {r: Team(eng, CORE, 2, rank=r) for r in range(2)}
        for r, tm in teams.items():
            dlb.attach_team(r, tm)
        tasks = {0: 2, 1: 8}

        def program(comm):
            n = tasks[comm.rank]
            graph = build_parallel_for_graph(np.full(n, SEC), 2,
                                             min_chunks=n)
            yield from teams[comm.rank].run(graph)
            if use_request:
                peer = 1 - comm.rank
                req = comm.irecv(source=peer)
                comm.isend(1.0, dest=peer)
                return (yield from comm.wait(req)).payload
            return (yield from comm.allreduce(1.0))

        world.run(world.launch(program))
        return eng.now, dlb.stats

    def test_blocking_wait_enables_lending(self):
        t_blocking, stats = self._run(use_request=False)
        assert stats.cores_borrowed_total > 0
        assert t_blocking == pytest.approx(3.0, abs=0.01)

    def test_wait_on_request_also_lends(self):
        """comm.wait() is itself a blocking call, so DLB still engages —
        the behaviour matches the blocking collective here."""
        t_nb, stats = self._run(use_request=True)
        assert stats.cores_borrowed_total > 0
        assert t_nb == pytest.approx(3.0, abs=0.01)


class _Declining:
    """A team listener that declines every plan and forwards hunger and
    idleness to ``inner`` (the DLB, when enabled): its team runs every
    graph task by task."""

    def __init__(self, inner):
        self.inner = inner

    def admit_plan(self, team):
        return False

    def on_team_hungry(self, team):
        if self.inner is not None:
            self.inner.on_team_hungry(team)

    def on_team_idle(self, team):
        if self.inner is not None:
            self.inner.on_team_idle(team)


class TestPlanParity:
    """Runs with every team on the per-task path and with teams planning
    their graphs (DLB on: while their node pools no cores): the same
    simulated results, the same LeWI activity and the same capacity
    changes, team by team."""

    SPEC = dict(generations=3, points_per_ring=6, n_steps=4)
    THUNDER8 = dict(cluster="thunder", num_nodes=1, nranks=8, dlb=True)

    @staticmethod
    def _faults():
        from repro.fault import FaultPlan, FaultSpec

        return FaultPlan(specs=(
            FaultSpec(kind="straggler", time=1e-5, rank=0, factor=6.0,
                      duration=2e-4),
            FaultSpec(kind="rank_death", time=3e-4, rank=5),
            FaultSpec(kind="msg_delay", time=0.0, rank=2, delay=1e-5,
                      duration=5e-4),
        ))

    @staticmethod
    def _run(config_kw, spec_kw, per_task, fault_plan=None):
        from repro.app import driver
        from repro.app.driver import RunConfig, run_cfpd
        from repro.app.workload import WorkloadSpec
        from repro.campaign import simulated_digest

        calls = {}
        left = []

        class CountingTeam(Team):
            @property
            def listener(self):
                return self._listener

            @listener.setter
            def listener(self, listener):
                # the DLB attaches itself after construction
                self._listener = (_Declining(listener) if per_task
                                  else listener)

            def set_capacity(self, n):
                calls[self.rank] = calls.get(self.rank, 0) + 1
                super().set_capacity(n)

            def leave_plan(self):
                if self.planned:
                    left.append(self.rank)
                super().leave_plan()

        saved = driver.Team
        driver.Team = CountingTeam
        try:
            result = run_cfpd(RunConfig(**config_kw),
                              spec=WorkloadSpec(**spec_kw),
                              fault_plan=fault_plan)
        finally:
            driver.Team = saved
        plans = result.engine_diag["batch"]["plans"]
        observed = (simulated_digest(result),
                    dataclasses.asdict(result.dlb_stats), calls)
        return observed, plans["planned_graphs"], left

    def _assert_parity(self, config_kw, spec_kw=None, fault_plan=None):
        """Parity of the two runs; returns the ranks whose running plan a
        perturbation moved to the per-task path."""
        spec_kw = self.SPEC if spec_kw is None else spec_kw
        per_task, none, _ = self._run(config_kw, spec_kw, True, fault_plan)
        planned, n_planned, left = self._run(config_kw, spec_kw, False,
                                             fault_plan)
        assert none == 0 and n_planned > 0
        assert planned == per_task
        if config_kw["dlb"]:
            assert per_task[1]["borrow_events"] > 0
        return left

    def test_small_sync(self):
        self._assert_parity(self.THUNDER8)

    def test_small_coupled(self):
        self._assert_parity(dict(self.THUNDER8, mode="coupled",
                                 fluid_ranks=6))

    def test_hybrid_two_threads(self):
        self._assert_parity(dict(cluster="thunder", num_nodes=1, nranks=8,
                                 threads_per_rank=2, dlb=True))

    @pytest.mark.parametrize("scheduler", ["fifo", "lifo"])
    def test_multidep_four_threads(self, scheduler):
        from repro.core import Strategy

        self._assert_parity(dict(num_nodes=1, nranks=8, threads_per_rank=4,
                                 assembly_strategy=Strategy.MULTIDEP,
                                 sgs_strategy=Strategy.MULTIDEP,
                                 scheduler=scheduler, dlb=True))

    def test_fault_plan(self):
        self._assert_parity(self.THUNDER8, fault_plan=self._faults())

    @pytest.mark.parametrize("mode", ["sync", "coupled"])
    def test_fault_plan_dlb_off(self, mode):
        """Without DLB the faults are the only perturbations: the straggler
        and the rank death land on running plans, which continue task by
        task exactly where the per-task run stands."""
        config_kw = dict(self.THUNDER8, dlb=False, mode=mode)
        if mode == "coupled":
            config_kw["fluid_ranks"] = 6
        left = self._assert_parity(config_kw, fault_plan=self._faults())
        assert left


class _WatchedTeam(Team):
    """A team that logs each capacity change as ``(rank, capacity)`` and
    each ``wants_cores`` read — a feed visiting it — as ``(rank,
    "asked")``; ``on_grow`` is called before its first growth."""

    def __init__(self, log, *args, on_grow=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._log = log
        self._on_grow = on_grow

    def set_capacity(self, n):
        self._log.append((self.rank, n))
        if n > self.capacity and self._on_grow is not None:
            on_grow, self._on_grow = self._on_grow, None
            on_grow()
        super().set_capacity(n)

    @property
    def wants_cores(self):
        self._log.append((self.rank, "asked"))
        return Team.wants_cores.fget(self)


class TestLeWIVisitOrders:
    """LeWI's visit orders on one node with teams attached out of rank
    order: a feed walks the candidates present when it starts in attach
    order, and a reclaim pulls from the largest borrower first, the
    first attached on ties."""

    @staticmethod
    def _world(attach, cores, tasks, seconds=None, on_grow=None):
        """Teams attached in the order of ``attach``; ``cores[rank]``
        (default 1) cores each, and a graph of ``tasks[rank]`` tasks of
        one second (or of ``seconds[rank]``) started at 0 on the ranks
        that have one."""
        eng = Engine()
        world = World(eng, marenostrum4(num_nodes=1), len(attach))
        dlb = DLB(world)
        log = []
        teams = {}
        for rank in attach:
            grow = None if on_grow is None else on_grow.get(rank)
            teams[rank] = _WatchedTeam(log, eng, CORE, cores.get(rank, 1),
                                       rank=rank, on_grow=grow)
            dlb.attach_team(rank, teams[rank])
        for rank, n in tasks.items():
            each = (seconds or {}).get(rank, 1.0) * SEC
            graph = build_parallel_for_graph(np.full(n, each), 1,
                                             min_chunks=n)
            eng.process(teams[rank].run(graph))
        return eng, dlb, teams, log

    @staticmethod
    def _at(eng, log, when, fn):
        """Call ``fn`` at ``when``; returns the log entries it made."""
        seen = []

        def act():
            del log[:]
            fn()
            seen.extend(log)

        eng.call_later(when, act)
        return seen

    def test_feed_walks_candidates_in_attach_order(self):
        L, A, S, B, C = 3, 4, 1, 0, 2
        eng, dlb, teams, log = self._world(
            [L, A, S, B, C], {L: 4}, {A: 2, S: 1, B: 2, C: 2},
            seconds={S: 0.1})
        seen = self._at(eng, log, 0.25,
                        lambda: dlb.on_mpi_enter(L, "recv"))
        eng.run()
        # A, B and C each have one ready task; S became a candidate when
        # it started its graph and finished it at 0.1 s, so it is asked,
        # wants nothing and is dropped
        assert seen == [(L, 0),
                        (A, "asked"), (A, 2),
                        (S, "asked"),
                        (B, "asked"), (B, 2),
                        (C, "asked"), (C, 2)]

    def test_candidate_made_during_a_feed_waits_for_the_next(self):
        L, X, Y, M = 0, 2, 1, 3

        def y_hungry():     # runs inside X's grant, after set-up
            dlb.on_team_hungry(teams[Y])

        eng, dlb, teams, log = self._world(
            [L, X, Y, M], {L: 4, M: 2}, {X: 2}, on_grow={X: y_hungry})
        first = self._at(eng, log, 0.25,
                         lambda: dlb.on_mpi_enter(L, "recv"))
        second = self._at(eng, log, 0.5,
                          lambda: dlb.on_mpi_enter(M, "recv"))
        eng.run()
        # Y notifies hunger inside X's grant, so it is a candidate from
        # then on, but the feed that granted to X does not ask it ...
        assert first == [(L, 0), (X, "asked"), (X, 2)]
        # ... the next feed does, after X, in attach order
        assert second == [(M, 0), (X, "asked"), (Y, "asked")]

    def test_reclaim_pulls_largest_borrower_first_ties_in_attach_order(self):
        R1, R2, B, C, D, A = 0, 5, 4, 1, 3, 2
        eng, dlb, teams, log = self._world(
            [R1, R2, B, C, D, A], {R1: 2, R2: 4},
            {B: 2, C: 2, D: 2, A: 4})
        lend1 = self._at(eng, log, 0.2,
                         lambda: dlb.on_mpi_enter(R1, "recv"))
        lend2 = self._at(eng, log, 0.25,
                         lambda: dlb.on_mpi_enter(R2, "recv"))
        exit1 = self._at(eng, log, 0.5,
                         lambda: dlb.on_mpi_exit(R1, "recv"))
        exit2 = self._at(eng, log, 0.6,
                         lambda: dlb.on_mpi_exit(R2, "recv"))
        eng.run()
        grants = [e for e in lend1 + lend2 if e[1] != "asked"]
        # B, C and D borrow one core each, A (attached last) three
        assert grants == [(R1, 0), (B, 2), (C, 2),
                          (R2, 0), (D, 2), (A, 4)]
        # R1 takes its 2 cores from the largest borrower, A ...
        assert exit1 == [(A, 2), (R1, 2)]
        # ... and R2 its 4 from four borrowers of one core each: attach
        # order, not rank order (C, A, D, B)
        assert exit2 == [(B, 1), (C, 1), (D, 1), (A, 1), (R2, 4)]
        assert all(dlb.borrowed_by(r) == 0 for r in teams)
