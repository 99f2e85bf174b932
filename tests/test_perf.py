"""Unit tests for the performance layer (repro.perf): counters, the
benchmark runner, and the hot paths' structural properties (comm,
assembly, tracker).  Their absolute results are pinned in
``tests/golden_digests.json``."""

import numpy as np
import pytest

from repro.fem import assemble_operator
from repro.machine import marenostrum4
from repro.mesh import AirwayConfig, MeshResolution, build_airway_mesh
from repro.particles import (
    STATUS_ACTIVE,
    ElementLocator,
    FluidProperties,
    NewmarkTracker,
    ParticleProperties,
    inject_at_inlet,
)
from repro.perf import Counters, engine_counters
from repro.sim import Engine
from repro.smpi import World


def small_airway():
    return build_airway_mesh(AirwayConfig(generations=3, seed=2018),
                             MeshResolution(points_per_ring=6, rings=2))


# -- instrumentation -------------------------------------------------------

class TestInstrument:
    def test_counters(self):
        c = Counters()
        c.add("events")
        c.add("events", 9)
        assert c.get("events") == 10
        assert c.get("missing") == 0
        assert c.report() == {"events": 10}

    def test_engine_counters(self):
        eng = Engine()

        def proc():
            yield eng.timeout(1.0)

        eng.process(proc())
        eng.run()
        snap = engine_counters(eng)
        assert snap["events_processed"] > 0
        assert snap["sim_now"] == pytest.approx(1.0)
        assert snap["alive_processes"] == 0


# -- benchmark runner ------------------------------------------------------

class TestBench:
    def test_table_modes(self):
        from repro.perf.bench import _benchmark_table

        full = {r["name"] for r in _benchmark_table(quick=False)}
        quick = {r["name"] for r in _benchmark_table(quick=True)}
        assert quick < full
        assert "run_cfpd_sync" in quick
        assert "run_cfpd_sync_dlb" in full - quick

    def test_compare_reports_flags_regressions(self):
        from repro.perf.bench import compare_reports

        ref = {"benchmarks": [
            {"name": "a", "after_seconds": 1.0},
            {"name": "b", "after_seconds": 1.0}]}
        cur = {"benchmarks": [
            {"name": "a", "after_seconds": 1.5},     # within 2x
            {"name": "b", "after_seconds": 2.5},     # regression
            {"name": "new", "after_seconds": 9.0}]}  # not in ref: skipped
        failures = compare_reports(cur, ref)
        assert len(failures) == 1
        assert failures[0].startswith("b:")

    def test_trajectory_uniform_host_drift_passes(self):
        from repro.perf.bench import trajectory_check

        ref = {"benchmarks": [
            {"name": n, "after_seconds": 1.0, "kind": "kernel"}
            for n in "abc"]}
        cur = {"benchmarks": [  # host 30% slower, code unchanged
            {"name": n, "after_seconds": 1.3, "kind": "kernel"}
            for n in "abc"]}
        trajectory, failures, drift = trajectory_check(cur, ref)
        assert not failures
        assert drift == pytest.approx(1 / 1.3, rel=1e-6)
        for entry in trajectory.values():
            assert entry["speedup_vs_reference"] < 1.0
            assert entry["speedup_vs_reference_drift_adjusted"] == \
                pytest.approx(1.0, abs=1e-3)

    def test_trajectory_real_regression_not_masked_by_drift(self):
        from repro.perf.bench import trajectory_check

        ref = {"benchmarks": [
            {"name": n, "after_seconds": 1.0, "kind": "kernel"}
            for n in "abcd"]}
        cur = {"benchmarks": [
            {"name": "a", "after_seconds": 1.3, "kind": "kernel"},
            {"name": "b", "after_seconds": 1.3, "kind": "kernel"},
            {"name": "c", "after_seconds": 1.3, "kind": "kernel"},
            {"name": "d", "after_seconds": 3.0, "kind": "kernel"}]}
        _, failures, drift = trajectory_check(cur, ref)
        assert drift == pytest.approx(1 / 1.3, rel=1e-6)  # median holds
        assert len(failures) == 1 and failures[0].startswith("d:")

    def test_trajectory_ignores_non_kernel_rows(self):
        from repro.perf.bench import trajectory_check

        ref = {"benchmarks": [
            {"name": "k", "after_seconds": 1.0, "kind": "kernel"},
            {"name": "e2e", "after_seconds": 1.0, "kind": "end_to_end"}]}
        cur = {"benchmarks": [
            {"name": "k", "after_seconds": 1.0, "kind": "kernel"},
            {"name": "e2e", "after_seconds": 5.0, "kind": "end_to_end"},
            {"name": "new", "after_seconds": 9.0, "kind": "kernel"}]}
        trajectory, failures, drift = trajectory_check(cur, ref)
        assert not failures            # e2e rows are recorded, not gated
        assert drift == 1.0            # ...and excluded from the estimate
        assert "e2e" in trajectory and "new" not in trajectory

    def test_run_benchmarks_micro_smoke(self, monkeypatch):
        """One table row end-to-end through the runner (fast smoke)."""
        import repro.perf.bench as bench

        monkeypatch.setattr(
            bench, "_benchmark_table",
            lambda quick: [{"name": "engine_events", "kind": "micro",
                            "fn": bench._engine_events_workload,
                            "units": "events"}])
        report = bench.run_benchmarks(quick=True, verbose=False)
        assert report["schema"] == "repro-bench-v1"
        [b] = report["benchmarks"]
        assert b["name"] == "engine_events"
        assert b["after_seconds"] > 0 and "before_seconds" not in b
        assert b["throughput"]["units"] == "events"
        assert b["throughput"]["after_per_second"] > 0

    def test_compare_reports_flags_digest_drift(self):
        from repro.perf.bench import compare_reports

        ref = {"benchmarks": [
            {"name": "e2e", "kind": "end_to_end", "after_seconds": 1.0,
             "simulated_digest": {"after": "a" * 64}},
            {"name": "k", "kind": "kernel", "after_seconds": 1.0,
             "simulated_digest": {"after": "a" * 64}}]}
        cur = {"benchmarks": [
            {"name": "e2e", "kind": "end_to_end", "after_seconds": 1.0,
             "simulated_digest": {"after": "b" * 64}},
            {"name": "k", "kind": "kernel", "after_seconds": 1.0,
             "simulated_digest": {"after": "b" * 64}}]}
        failures = compare_reports(cur, ref)
        assert len(failures) == 1       # only end-to-end rows are pinned
        assert failures[0].startswith("e2e:") and "digest" in failures[0]
        assert compare_reports(ref, ref) == []


# -- smpi fast-path equivalence --------------------------------------------

class TestCommFastPath:
    def test_isend_fast_path_delivers(self):
        eng = Engine()
        world = World(eng, marenostrum4(), 2)

        def program(comm):
            if comm.rank == 0:
                req = comm.isend(np.arange(4), dest=1, nbytes=32)
                yield from comm.wait(req)
                return None
            data = yield from comm.recv(source=0)
            return list(data)

        results = world.run(world.launch(program))
        assert results[1] == [0, 1, 2, 3]
        assert eng.now > 0.0


# -- assembly fast-path equivalence ----------------------------------------

class TestAssemblyPatternCache:
    def test_pattern_is_the_element_node_adjacency(self):
        """The cached CSR pattern holds exactly the node pairs that share
        an element, in canonical (sorted, duplicate-free) order, and the
        work meters count each element's scattered entries."""
        mesh = small_airway().mesh
        vel = np.random.default_rng(3).normal(size=(mesh.nnodes, 3))
        res = assemble_operator(mesh, kappa=0.7, mass_coeff=2.0,
                                velocity=vel, source=1.5)
        pairs = set()
        for e in range(mesh.nelem):
            nodes = mesh.nodes_of(e)
            pairs.update((int(a), int(b)) for a in nodes for b in nodes)
        m = res.matrix
        got = {(i, int(j)) for i in range(mesh.nnodes)
               for j in m.indices[m.indptr[i]:m.indptr[i + 1]]}
        assert got == pairs and m.nnz == len(pairs)
        assert m.has_sorted_indices
        nn = np.array([len(mesh.nodes_of(e)) for e in range(mesh.nelem)])
        assert np.array_equal(res.element_nodes, nn)
        assert np.array_equal(res.scatter_counts, nn * nn + nn)

    def test_restricted_element_sets_get_separate_patterns(self):
        airway = small_airway()
        mesh = airway.mesh
        half = np.arange(mesh.nelem // 2)
        full = assemble_operator(mesh, kappa=1.0)
        part = assemble_operator(mesh, kappa=1.0, element_ids=half)
        assert full.matrix.nnz > part.matrix.nnz
        assert len(mesh.__dict__["_asm_pattern_cache"]) == 2

    def test_stale_pattern_detected(self):
        from repro.mesh import ElementType

        airway = small_airway()
        mesh = airway.mesh
        assemble_operator(mesh, kappa=1.0)  # populates the cache
        # mutate the connectivity behind the cache's back: a tet becomes a
        # prism, changing the scattered-value count for the same element set
        tet = int(np.nonzero(mesh.elem_types == ElementType.TET)[0][0])
        mesh.elem_types[tet] = ElementType.PRISM
        mesh.elem_nodes[tet, 4:] = mesh.elem_nodes[tet, 0]
        with pytest.raises(ValueError, match="stale"):
            assemble_operator(mesh, kappa=1.0)


# -- tracker fast-path equivalence ----------------------------------------

class TestLocatorActiveOnly:
    def _track(self, n_steps=25):
        airway = small_airway()
        state = inject_at_inlet(airway, 400, seed=11)
        from repro.particles import AirwayFlow

        flow = AirwayFlow(airway.segments)
        tracker = NewmarkTracker(flow, particles=ParticleProperties(),
                                 fluid=FluidProperties())
        return airway, state, tracker

    def test_elements_of_state_matches_full_query(self):
        airway, state, tracker = self._track()
        nranks = 8
        from repro.partition import decompose_mesh

        labels = decompose_mesh(airway, nranks).labels
        locator = ElementLocator(airway, labels)
        for _ in range(25):
            tracker.step(state, 1e-3)
            got = locator.elements_of_state(state)
            ref = locator.elements_of(state.x)
            assert np.array_equal(got, ref)
            assert np.array_equal(
                locator.rank_histogram_state(state, nranks),
                locator.rank_histogram(state.x[state.active], nranks))
        # the run must actually exercise the frozen-particle cache
        assert (state.status != STATUS_ACTIVE).any()

    def test_deposition_and_positions_unchanged_by_fast_locator(self):
        """Locating the population between steps only reads it: the
        trajectory is bit-identical to an unobserved one."""
        def run(observe):
            airway, state, tracker = self._track()
            locator = ElementLocator(airway)
            for _ in range(25):
                tracker.step(state, 1e-3)
                if observe:
                    locator.elements_of_state(state)
            return state

        s_ref, s_obs = run(False), run(True)
        assert np.array_equal(s_ref.status, s_obs.status)
        assert np.array_equal(s_ref.x, s_obs.x)
        assert np.array_equal(s_ref.v, s_obs.v)
        assert s_ref.counts() == s_obs.counts()

    def test_cache_grows_with_repeated_injection(self):
        airway, state, tracker = self._track()
        locator = ElementLocator(airway)
        locator.elements_of_state(state)
        state.extend(inject_at_inlet(airway, 100, seed=12))
        got = locator.elements_of_state(state)
        assert len(got) == state.n
        assert np.array_equal(got, locator.elements_of(state.x))


class TestParticleFastPath:
    """PR 4: warm-start location, active-set compaction, fused kernels."""

    def _track(self, n=400, seed=11):
        airway = small_airway()
        state = inject_at_inlet(airway, n, seed=seed)
        from repro.particles import AirwayFlow

        flow = AirwayFlow(airway.segments)
        tracker = NewmarkTracker(flow, particles=ParticleProperties(),
                                 fluid=FluidProperties())
        return airway, state, tracker

    def test_warm_locate_matches_brute_force_on_random_points(self):
        from scipy.spatial import cKDTree

        from repro.fem.geometry import element_adjacency
        from repro.particles.locator_fast import warm_locate

        airway = small_airway()
        mesh = airway.mesh
        centroids = mesh.centroids()
        tree = cKDTree(centroids)
        adj = element_adjacency(mesh)
        rng = np.random.default_rng(5)
        lo, hi = mesh.coords.min(axis=0), mesh.coords.max(axis=0)
        points = rng.uniform(lo, hi, size=(500, 3))
        # stale and random host guesses alike must stay exact
        hosts = rng.integers(0, mesh.nelem, size=500)
        eids, stats = warm_locate(tree, centroids, adj, points, hosts)
        brute = np.argmin(
            np.linalg.norm(points[:, None, :] - centroids[None, :, :],
                           axis=2), axis=1)
        assert eids.dtype == np.intp
        assert np.array_equal(eids, tree.query(points)[1])
        assert np.array_equal(eids, brute)
        assert stats.self_ball + stats.ring_ball + stats.fallback == stats.n

    def test_warm_locate_accepts_near_hosts(self):
        from scipy.spatial import cKDTree

        from repro.fem.geometry import element_adjacency
        from repro.particles.locator_fast import warm_locate

        airway = small_airway()
        mesh = airway.mesh
        centroids = mesh.centroids()
        tree = cKDTree(centroids)
        adj = element_adjacency(mesh)
        # points very near their host centroid: the self ball must fire
        hosts = np.arange(0, mesh.nelem, 7)
        points = centroids[hosts] + 1e-9
        eids, stats = warm_locate(tree, centroids, adj, points, hosts)
        assert np.array_equal(eids, tree.query(points)[1])
        assert stats.self_ball > 0

    #: tracker caches of each hot spot, dropped before every step to force
    #: the from-scratch path (the locator's reference is its full query)
    COLD = {
        "particle_warm_start": (),
        "particle_compaction": ("_order",),
        "particle_fused_step": ("_newmark_ws", "_loc_valid"),
    }

    def _injection_run(self, cold=()):
        """The golden ``particles/injection`` scenario: a Δt switch and a
        mid-run injection with a frozen/active mix.  Returns the state and,
        per step, the warm-started and the full-query element ids."""
        airway, state, tracker = self._track()
        locator = ElementLocator(airway)
        elems, full = [], []
        for i in range(20):
            for attr in cold:
                setattr(tracker, attr, None)
            tracker.step(state, 1e-3 if i < 10 else 1e-4)
            if i == 10:
                state.extend(inject_at_inlet(airway, 80, seed=13))
            elems.append(locator.elements_of_state(state).copy())
            full.append(locator.elements_of(state.x))
        return state, elems, full

    @pytest.mark.parametrize("toggle", ["particle_warm_start",
                                        "particle_compaction",
                                        "particle_fused_step"])
    def test_single_toggle_off_tracker_bit_identical(self, toggle):
        """Each tracker hot spot against its reference, bit for bit: the
        warm-started locator against the full KD-tree query, the compacted
        active set and the buffered, locate-reusing step against a step
        with that cache dropped.  The run itself matches its golden pin."""
        from tests.test_golden_digests import (_particle_summary,
                                               assert_matches, jsonable,
                                               load_golden)

        warm, elems, full = self._injection_run()
        assert_matches(jsonable(_particle_summary(warm, elems)),
                       load_golden()["particles/injection"],
                       path="particles/injection")
        cold, cold_elems, _ = self._injection_run(self.COLD[toggle])
        reference = full if toggle == "particle_warm_start" else cold_elems
        for a, b in zip(elems, reference):
            assert np.array_equal(a, b)
        assert warm.x.tobytes() == cold.x.tobytes()
        assert warm.v.tobytes() == cold.v.tobytes()
        assert warm.a.tobytes() == cold.a.tobytes()
        assert np.array_equal(warm.status, cold.status)

    def test_all_new_toggles_off_matches_defaults(self):
        """A tracker rebuilt before every step (no compaction order, no
        locate reuse, no step buffers) matches a long-lived one."""
        def run(fresh):
            airway, state, tracker = self._track()
            for _ in range(15):
                if fresh:
                    tracker = NewmarkTracker(tracker.flow,
                                             particles=tracker.particles,
                                             fluid=tracker.fluid)
                tracker.step(state, 1e-3)
            return state

        s_ref = run(False)
        s_cold = run(True)
        assert s_ref.x.tobytes() == s_cold.x.tobytes()
        assert s_ref.v.tobytes() == s_cold.v.tobytes()
        assert np.array_equal(s_ref.status, s_cold.status)

    def test_repeated_injection_keeps_locator_exact(self):
        """Cache growth across several injections with a frozen/active
        mix: the warm-start host cache must stay consistent."""
        airway, state, tracker = self._track()
        locator = ElementLocator(airway)
        for i in range(30):
            tracker.step(state, 1e-3)
            if i % 10 == 9:
                state.extend(inject_at_inlet(airway, 60, seed=100 + i))
            got = locator.elements_of_state(state)
            assert np.array_equal(got, locator.elements_of(state.x))
        assert (state.status != STATUS_ACTIVE).any()
        assert state.n > 400

    def test_locator_dtypes_are_intp(self):
        airway, state, _ = self._track(n=10)
        locator = ElementLocator(airway)
        assert locator.elements_of(state.x).dtype == np.intp
        assert locator.elements_of(np.zeros((0, 3))).dtype == np.intp
        assert locator.elements_of_state(state).dtype == np.intp

    def test_compaction_survives_external_status_edit(self):
        """An external status write between steps invalidates the
        compacted permutation (detected via the status snapshot)."""
        airway, state, tracker = self._track()
        for _ in range(5):
            tracker.step(state, 1e-3)
        # freeze an active particle behind the tracker's back
        idx = int(np.argmax(state.status == STATUS_ACTIVE))
        state.status[idx] = 2  # STATUS_ESCAPED
        x_before = state.x[idx].copy()
        tracker.step(state, 1e-3)
        # the edited particle must not have moved
        assert state.status[idx] == 2
        assert np.array_equal(state.x[idx], x_before)

    def test_bench_rows_present_and_gated(self):
        """Particle rows are absolute (trajectory-gated); only the three
        policy rows carry a before side and a minimum speedup."""
        from repro.perf.bench import _benchmark_table

        rows = {r["name"]: r for r in _benchmark_table(quick=True)}
        for name in ("particle_location", "tracker_step", "interpolation"):
            assert "before_fn" not in rows[name]
        policy = {n for n, r in rows.items() if "before_fn" in r}
        assert policy == {"time_to_endpoint", "breathing_cycle",
                          "campaign_throughput"}
        assert all("min_speedup" in rows[n] for n in policy)
