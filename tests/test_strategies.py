"""Unit tests for the atomics/coloring/multidep strategy builders."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import (
    Strategy,
    Team,
    build_element_loop_graph,
    build_parallel_for_graph,
    chunk_sizes,
)
from repro.machine import marenostrum4
from repro.sim import Engine


def make_inputs(n=64, seed=0, nsub=8):
    rng = np.random.default_rng(seed)
    instr = rng.uniform(800, 4000, size=n)
    atomics = rng.uniform(10, 60, size=n)
    colors = rng.integers(0, 4, size=n)
    labels = np.sort(rng.integers(0, nsub, size=n))
    # ring adjacency among subdomains
    adjacency = [frozenset({(s - 1) % nsub, (s + 1) % nsub})
                 for s in range(nsub)]
    return instr, atomics, colors, labels, adjacency


class TestChunking:
    def test_chunk_sizes_sum(self):
        assert sum(chunk_sizes(100, 7)) == 100

    def test_chunk_sizes_near_equal(self):
        sizes = chunk_sizes(100, 7)
        assert max(sizes) - min(sizes) <= 1

    def test_more_chunks_than_items(self):
        assert chunk_sizes(3, 10) == [1, 1, 1]

    def test_empty(self):
        assert chunk_sizes(0, 4) == []

    @given(st.integers(min_value=1, max_value=1000),
           st.integers(min_value=1, max_value=64))
    def test_chunk_invariants(self, n, k):
        sizes = chunk_sizes(n, k)
        assert sum(sizes) == n
        assert all(s > 0 for s in sizes)
        assert len(sizes) <= k


class TestWorkConservation:
    """All strategies must represent exactly the same total work."""

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_total_instructions_preserved(self, strategy):
        instr, atomics, colors, labels, adj = make_inputs()
        g = build_element_loop_graph(instr, atomics, strategy, nthreads=4,
                                     colors=colors, sub_labels=labels,
                                     sub_adjacency=adj)
        expected = instr.sum()
        if strategy is Strategy.MULTIDEP:
            # runtime bookkeeping is charged per task
            from repro.core import DEFAULT_PARAMS
            expected += len(g) * DEFAULT_PARAMS.multidep_task_overhead_instr
        assert g.total_instructions == pytest.approx(expected)

    def test_empty_element_list(self):
        g = build_element_loop_graph(np.array([]), np.array([]),
                                     Strategy.ATOMICS, nthreads=4)
        assert len(g) == 0


class TestStrategyStructure:
    def test_mpi_only_single_task(self):
        instr, atomics, *_ = make_inputs()
        g = build_element_loop_graph(instr, atomics, Strategy.MPI_ONLY,
                                     nthreads=1)
        assert len(g) == 1
        assert g.tasks[0].work.atomic_frac == 0.0

    def test_atomics_chunks_carry_atomic_frac(self):
        instr, atomics, *_ = make_inputs()
        g = build_element_loop_graph(instr, atomics, Strategy.ATOMICS,
                                     nthreads=4)
        fracs = [t.work.atomic_frac for t in g.tasks]
        assert all(f > 0 for f in fracs)
        # overall fraction matches the elementwise ratio
        total_atomic = sum(t.work.atomic_frac * t.work.instructions
                           for t in g.tasks)
        assert total_atomic == pytest.approx(atomics.sum(), rel=1e-9)

    def test_atomics_race_free_has_no_penalty(self):
        instr, atomics, *_ = make_inputs()
        g = build_element_loop_graph(instr, atomics, Strategy.ATOMICS,
                                     nthreads=4, race_free=True)
        assert all(t.work.atomic_frac == 0.0 for t in g.tasks)

    def test_coloring_requires_colors(self):
        instr, atomics, *_ = make_inputs()
        with pytest.raises(ValueError):
            build_element_loop_graph(instr, atomics, Strategy.COLORING,
                                     nthreads=4)

    def test_coloring_has_barriers_and_miss_penalty(self):
        instr, atomics, colors, *_ = make_inputs()
        g = build_element_loop_graph(instr, atomics, Strategy.COLORING,
                                     nthreads=2, colors=colors)
        work_tasks = [t for t in g.tasks if t.work.instructions > 0]
        barriers = [t for t in g.tasks if t.work.instructions == 0]
        assert len(barriers) == len(np.unique(colors))
        assert all(t.work.extra_miss_frac > 0 for t in work_tasks)
        assert all(t.work.atomic_frac == 0 for t in work_tasks)

    def test_coloring_colors_serialize(self):
        """Tasks of color c+1 must depend (transitively) on color c."""
        instr, atomics, colors, *_ = make_inputs()
        g = build_element_loop_graph(instr, atomics, Strategy.COLORING,
                                     nthreads=2, colors=colors)
        g.critical_path()  # raises on a cycle
        # run it: concurrency never exceeds chunks of one color
        eng = Engine()
        team = Team(eng, marenostrum4().node.core, nthreads=64)

        def prog():
            return (yield from team.run(g))

        p = eng.process(prog())
        eng.run()
        stats = p.value
        per_color_chunks = max(
            len([t for t in g.tasks
                 if t.label.startswith(f"assembly:color{c}")])
            for c in np.unique(colors))
        assert stats.max_concurrency <= per_color_chunks

    def test_multidep_requires_subdomains(self):
        instr, atomics, *_ = make_inputs()
        with pytest.raises(ValueError):
            build_element_loop_graph(instr, atomics, Strategy.MULTIDEP,
                                     nthreads=4)

    def test_multidep_one_task_per_subdomain(self):
        instr, atomics, colors, labels, adj = make_inputs()
        g = build_element_loop_graph(instr, atomics, Strategy.MULTIDEP,
                                     nthreads=4, sub_labels=labels,
                                     sub_adjacency=adj)
        nsub_nonempty = len(np.unique(labels))
        assert len(g) == nsub_nonempty
        assert all(t.work.atomic_frac == 0 for t in g.tasks)
        assert all(t.work.ipc_factor == pytest.approx(0.95) for t in g.tasks)

    def test_multidep_adjacent_conflict_nonadjacent_dont(self):
        instr, atomics, colors, labels, adj = make_inputs()
        g = build_element_loop_graph(instr, atomics, Strategy.MULTIDEP,
                                     nthreads=4, sub_labels=labels,
                                     sub_adjacency=adj)
        by_sub = {int(t.label.rsplit("sub", 1)[1]): t for t in g.tasks}
        # ring: 0-1 adjacent, 0-4 not (and share no neighbour pair ref)
        assert by_sub[0].mutex_refs & by_sub[1].mutex_refs
        assert not by_sub[0].mutex_refs & by_sub[4].mutex_refs

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_element_loop_graph(np.ones(4), np.ones(5),
                                     Strategy.ATOMICS, nthreads=1)


class TestPerformanceOrdering:
    """The headline result of Fig. 6, as a property of the builders + model:
    multidep beats coloring beats atomics on a threaded run."""

    def makespan(self, strategy, nthreads=4, cluster=None):
        # Realistic decomposition: many more subdomains than threads, as the
        # paper does (tasks must outnumber cores for the runtime to balance).
        instr, atomics, colors, labels, adj = make_inputs(n=2048, nsub=32)
        g = build_element_loop_graph(instr, atomics, strategy,
                                     nthreads=nthreads, colors=colors,
                                     sub_labels=labels, sub_adjacency=adj)
        eng = Engine()
        core = (cluster or marenostrum4()).node.core
        team = Team(eng, core, nthreads)

        def prog():
            return (yield from team.run(g))

        p = eng.process(prog())
        eng.run()
        return p.value.makespan

    def test_multidep_fastest_on_intel(self):
        t_atomics = self.makespan(Strategy.ATOMICS)
        t_coloring = self.makespan(Strategy.COLORING)
        t_multidep = self.makespan(Strategy.MULTIDEP)
        # Atomics is clearly worst; multidep at least matches coloring up to
        # scheduling slack (this synthetic ring input has random task sizes;
        # the airway-workload integration tests pin the strict ordering).
        assert t_coloring < t_atomics
        assert t_multidep < t_atomics
        assert t_multidep < t_coloring * 1.05

    def test_atomics_penalty_larger_on_intel_than_arm(self):
        from repro.machine import thunder
        ratios = {}
        for name, cluster in (("mn4", marenostrum4()), ("arm", thunder())):
            t_atomics = self.makespan(Strategy.ATOMICS, cluster=cluster)
            t_multidep = self.makespan(Strategy.MULTIDEP, cluster=cluster)
            ratios[name] = t_atomics / t_multidep
        assert ratios["mn4"] > ratios["arm"] > 1.0


class TestParallelFor:
    def test_work_preserved(self):
        items = np.arange(1, 100, dtype=float)
        g = build_parallel_for_graph(items, nthreads=4)
        assert g.total_instructions == pytest.approx(items.sum())

    def test_no_penalties(self):
        g = build_parallel_for_graph(np.ones(50), nthreads=2)
        assert all(t.work.atomic_frac == 0 and t.work.extra_miss_frac == 0
                   for t in g.tasks)

    def test_min_chunks_enables_borrowing(self):
        g = build_parallel_for_graph(np.ones(100), nthreads=1, min_chunks=16)
        assert len(g) == 16

    def test_empty(self):
        assert len(build_parallel_for_graph(np.array([]), nthreads=2)) == 0
