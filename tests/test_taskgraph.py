"""Unit tests for the task-graph dependence model."""

import pytest
from hypothesis import given, strategies as st

from repro.core import DepType, TaskGraph, TaskGraphError
from repro.machine import WorkSpec


W = WorkSpec(100.0)


class TestOrderedDeps:
    def test_in_after_out(self):
        g = TaskGraph()
        a = g.add_task(W, depend={DepType.OUT: ["x"]})
        b = g.add_task(W, depend={DepType.IN: ["x"]})
        assert b.n_preds == 1
        assert b.tid in a.successors

    def test_independent_reads_are_concurrent(self):
        g = TaskGraph()
        g.add_task(W, depend={DepType.OUT: ["x"]})
        r1 = g.add_task(W, depend={DepType.IN: ["x"]})
        r2 = g.add_task(W, depend={DepType.IN: ["x"]})
        assert r1.n_preds == 1 and r2.n_preds == 1
        assert r2.tid not in g.tasks[r1.tid].successors

    def test_write_after_reads(self):
        g = TaskGraph()
        w0 = g.add_task(W, depend={DepType.OUT: ["x"]})
        r1 = g.add_task(W, depend={DepType.IN: ["x"]})
        r2 = g.add_task(W, depend={DepType.IN: ["x"]})
        w1 = g.add_task(W, depend={DepType.OUT: ["x"]})
        # w1 must wait for both readers (and not duplicate the w0 edge twice)
        assert w1.n_preds == 2
        assert w1.tid in g.tasks[r1.tid].successors
        assert w1.tid in g.tasks[r2.tid].successors

    def test_inout_chains_serialize(self):
        g = TaskGraph()
        t0 = g.add_task(W, depend={DepType.INOUT: ["x"]})
        t1 = g.add_task(W, depend={DepType.INOUT: ["x"]})
        t2 = g.add_task(W, depend={DepType.INOUT: ["x"]})
        assert t1.n_preds == 1 and t2.n_preds == 1
        assert t1.tid in t0.successors and t2.tid in t1.successors

    def test_unrelated_refs_no_edges(self):
        g = TaskGraph()
        a = g.add_task(W, depend={DepType.OUT: ["x"]})
        b = g.add_task(W, depend={DepType.OUT: ["y"]})
        assert a.n_preds == 0 and b.n_preds == 0

    def test_invalid_dep_key_rejected(self):
        g = TaskGraph()
        with pytest.raises(TaskGraphError):
            g.add_task(W, depend={"in": ["x"]})


class TestMutexinoutset:
    def test_shared_ref_conflicts(self):
        g = TaskGraph()
        c = g.add_task(W, depend={DepType.MUTEXINOUTSET: [1, 2]})
        d = g.add_task(W, depend={DepType.MUTEXINOUTSET: [2, 3]})
        e = g.add_task(W, depend={DepType.MUTEXINOUTSET: [4]})
        assert c.mutex_refs & d.mutex_refs
        assert not c.mutex_refs & e.mutex_refs
        # mutexinoutset adds no ordering edges
        assert c.n_preds == 0 and d.n_preds == 0

    def test_dynamic_dependence_list(self):
        """The multidependence feature: ref list computed at run time."""
        g = TaskGraph()
        neighbours = [set(), {0}, {0, 1}]  # runtime-computed adjacency
        tasks = [g.add_task(W, depend={
            DepType.MUTEXINOUTSET: {s} | neighbours[s]}) for s in range(3)]
        assert tasks[0].mutex_refs & tasks[1].mutex_refs
        assert tasks[1].mutex_refs & tasks[2].mutex_refs
        assert tasks[0].mutex_refs & tasks[2].mutex_refs  # 2 lists 0


class TestGraphStructure:
    def test_roots(self):
        g = TaskGraph()
        a = g.add_task(W, depend={DepType.OUT: ["x"]})
        g.add_task(W, depend={DepType.IN: ["x"]})
        c = g.add_task(W)
        assert {t.tid for t in g.roots()} == {a.tid, c.tid}

    def test_validate_accepts_dag(self):
        g = TaskGraph()
        g.add_task(W, depend={DepType.OUT: ["x"]})
        g.add_task(W, depend={DepType.INOUT: ["x"]})
        g.add_task(W, depend={DepType.IN: ["x"]})
        g.critical_path()  # no exception: the walk visits every task

    def test_validate_rejects_cycle(self):
        g = TaskGraph()
        a = g.add_task(W)
        b = g.add_task(W)
        # manufacture a cycle by hand
        a.successors.append(b.tid)
        b.successors.append(a.tid)
        a.n_preds = 1
        b.n_preds = 1
        with pytest.raises(TaskGraphError, match="cycle"):
            g.critical_path()

    def test_total_instructions(self):
        g = TaskGraph()
        g.add_task(WorkSpec(10.0))
        g.add_task(WorkSpec(30.0))
        assert g.total_instructions == 40.0

    @given(st.lists(st.sampled_from(["x", "y", "z"]), min_size=1, max_size=30))
    def test_random_inout_chains_are_acyclic(self, refs):
        g = TaskGraph()
        for ref in refs:
            g.add_task(W, depend={DepType.INOUT: [ref]})
        g.critical_path()

    @given(st.lists(
        st.tuples(st.sampled_from([DepType.IN, DepType.OUT, DepType.INOUT]),
                  st.sampled_from(["a", "b"])),
        min_size=1, max_size=40))
    def test_random_dep_sequences_are_acyclic(self, seq):
        g = TaskGraph()
        for dep_type, ref in seq:
            g.add_task(W, depend={dep_type: [ref]})
        g.critical_path()
