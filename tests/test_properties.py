"""Property-based tests across the runtime layers (hypothesis).

Invariants checked on randomly generated workloads:

* **DLB core conservation** — at every instant, own + pooled + borrowed
  cores on a node sum to the node's base allocation; after the run all
  loans are settled.
* **DLB liveness/benefit** — runs always complete; DLB never makes a
  random bulk-synchronous workload slower.
* **Collective semantics** — simulated MPI collectives agree with plain
  Python reference reductions for arbitrary payloads.
* **Determinism** — identical inputs give bit-identical simulated times.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import DLB, Team, build_parallel_for_graph
from repro.machine import CoreModel, marenostrum4
from repro.sim import Engine
from repro.smpi import World

CORE = CoreModel(name="unit", freq_ghz=1.0, base_ipc=1.0, out_of_order=True,
                 atomic_stall_cycles=0.0, mem_stall_cycles=0.0)

workload_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=3),
    min_size=2, max_size=5)


def run_random_workload(phases_per_rank, dlb_enabled, threads=2,
                        check_conservation=True):
    """Each rank runs its list of phases (task counts) with barriers."""
    nranks = len(phases_per_rank)
    nphases = max(len(p) for p in phases_per_rank)
    engine = Engine()
    cluster = marenostrum4(num_nodes=1)
    world = World(engine, cluster, nranks)
    dlb = DLB(world, enabled=dlb_enabled)
    teams = {}
    for r in range(nranks):
        teams[r] = Team(engine, CORE, threads, rank=r)
        dlb.attach_team(r, teams[r])
    base_total = nranks * threads
    violations = []

    if check_conservation:
        def probe():
            while True:
                total = sum(t.capacity for t in teams.values()) \
                    + dlb.pool_size(0)
                if total != base_total:
                    violations.append((engine.now, total))
                yield engine.timeout(0.25)

        engine.process(probe())

    def program(comm):
        my = phases_per_rank[comm.rank]
        for i in range(nphases):
            n = my[i] if i < len(my) else 0
            graph = build_parallel_for_graph(
                np.full(n, 1e9), threads, min_chunks=max(1, n))
            yield from teams[comm.rank].run(graph)
            yield from comm.barrier()

    procs = world.launch(program)
    engine.run(until=10_000.0)
    for p in procs:
        assert p.triggered and p.ok, "workload must complete"
    return engine.now, dlb, violations


class TestDLBProperties:
    @given(workload_strategy)
    @settings(max_examples=30, deadline=None)
    def test_core_conservation_invariant(self, phases):
        _, dlb, violations = run_random_workload(phases, dlb_enabled=True)
        assert violations == []
        # all loans settled at the end
        assert dlb.pool_size(0) == 0
        for r in range(len(phases)):
            assert dlb.borrowed_by(r) == 0

    @given(workload_strategy)
    @settings(max_examples=20, deadline=None)
    def test_dlb_never_slower(self, phases):
        t_off, _, _ = run_random_workload(phases, dlb_enabled=False,
                                          check_conservation=False)
        t_on, _, _ = run_random_workload(phases, dlb_enabled=True,
                                         check_conservation=False)
        assert t_on <= t_off + 1e-9

    @given(workload_strategy)
    @settings(max_examples=10, deadline=None)
    def test_deterministic(self, phases):
        a = run_random_workload(phases, dlb_enabled=True,
                                check_conservation=False)[0]
        b = run_random_workload(phases, dlb_enabled=True,
                                check_conservation=False)[0]
        assert a == b

    @given(workload_strategy)
    @settings(max_examples=10, deadline=None)
    def test_work_conserving(self, phases):
        """Makespan is never below the critical-path lower bound:
        max(total work / cores, longest single phase on one rank)."""
        threads = 2
        t_on, _, _ = run_random_workload(phases, dlb_enabled=True,
                                         threads=threads,
                                         check_conservation=False)
        nranks = len(phases)
        nphases = max(len(p) for p in phases)
        lower = 0.0
        for i in range(nphases):
            counts = [p[i] if i < len(p) else 0 for p in phases]
            # each phase ends with a barrier: at best all cores share it
            lower += sum(counts) / (nranks * threads)
        assert t_on >= lower - 1e-9


class TestCollectiveSemantics:
    @given(st.lists(st.integers(min_value=-1000, max_value=1000),
                    min_size=2, max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_allreduce_matches_python_sum(self, values):
        engine = Engine()
        world = World(engine, marenostrum4(), len(values))

        def program(comm):
            return (yield from comm.allreduce(values[comm.rank]))

        results = world.run(world.launch(program))
        assert results == [sum(values)] * len(values)

    @given(st.integers(min_value=2, max_value=6), st.data())
    @settings(max_examples=20, deadline=None)
    def test_alltoall_is_transpose(self, n, data):
        matrix = [[data.draw(st.integers(0, 99)) for _ in range(n)]
                  for _ in range(n)]
        engine = Engine()
        world = World(engine, marenostrum4(), n)

        def program(comm):
            return (yield from comm.alltoall(matrix[comm.rank]))

        results = world.run(world.launch(program))
        for i in range(n):
            assert results[i] == [matrix[j][i] for j in range(n)]

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              min_value=-1e6, max_value=1e6),
                    min_size=2, max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_reduce_max_matches(self, values):
        engine = Engine()
        world = World(engine, marenostrum4(), len(values))

        def program(comm):
            return (yield from comm.allreduce(values[comm.rank], op=max))

        results = world.run(world.launch(program))
        assert results == [max(values)] * len(values)
