"""Unit tests for the performance layer (repro.perf): engine counters, the
benchmark runner, and the hot paths' structural properties (comm,
assembly, tracker).  Their absolute results are pinned in
``tests/golden_digests.json``."""

import json

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
from repro.sim import Engine
from repro.smpi import World


def small_airway():
    return build_airway_mesh(AirwayConfig(generations=3, seed=2018),
                             MeshResolution(points_per_ring=6, rings=2))


# -- instrumentation -------------------------------------------------------

class TestInstrument:
    def test_engine_progress_counters(self):
        eng = Engine()

        def proc():
            yield eng.timeout(1.0)

        eng.process(proc())
        eng.run()
        snap = eng.counters()
        assert snap["events_processed"] > 0
        assert set(snap) == {"events_processed", "batch"}
        assert set(snap["batch"]) == {"cohorts"}


# -- benchmark runner ------------------------------------------------------

class TestBench:
    def test_table_modes(self):
        """Quick and full mode share one table of kernel, micro and policy
        rows; the only end-to-end row is the gated campaign policy row
        (end-to-end runs are timed by the ``bench/`` harness)."""
        from repro.perf.bench import _benchmark_table

        rows = {r["name"]: r for r in _benchmark_table()}
        assert [n for n, r in rows.items() if r["kind"] == "end_to_end"] \
            == ["campaign_throughput"]
        gates = {n: r["min_speedup"] for n, r in rows.items()
                 if "before_fn" in r}
        assert gates == {"time_to_endpoint": 1.5, "breathing_cycle": 5.0,
                         "campaign_throughput": 1.67}

    def test_cold_path_rows(self):
        """The decomposition kernel runs in quick and full mode, digesting
        its result outside the timed region."""
        from repro.perf.bench import _benchmark_table

        rows = {r["name"]: r for r in _benchmark_table()}
        assert rows["decomposition"]["kind"] == "kernel"
        assert rows["decomposition"]["repeats"] == 5
        assert rows["decomposition"]["warmup"]
        assert "post" in rows["decomposition"]

    def test_decomposition_row_runs_cold(self, monkeypatch):
        """Each call of the decomposition row partitions from scratch: it
        clears the mesh stage's decompositions, rank labels and meters, so
        it never times a cache hit."""
        import repro.app.workload as workload
        import repro.perf.bench as bench

        monkeypatch.setattr(bench, "_DECOMP_WORKLOAD", workload.Workload(
            workload.WorkloadSpec(generations=3, points_per_ring=6)))
        first = bench._decomposition_workload()
        calls = []
        decompose = workload.decompose_mesh

        def counted(*args, **kwargs):
            calls.append(args[1])
            return decompose(*args, **kwargs)
        monkeypatch.setattr(workload, "decompose_mesh", counted)
        again = bench._decomposition_workload()
        assert calls == [96]
        assert again is not first
        assert bench._decomposition_digest(again) == \
            bench._decomposition_digest(first)

    def test_default_out_is_not_a_committed_report(self):
        """A bare ``python -m repro.perf.bench`` must never overwrite a
        committed ``BENCH_prN.json``."""
        import re

        from repro.perf.bench import _DEFAULT_OUT

        assert re.fullmatch(r"BENCH_pr\d+\.json", _DEFAULT_OUT) is None

    def test_cold_process_before_fn_matches_inline(self):
        """The ``campaign_throughput`` before side (one cold spawned
        process per job) gives the digest map of an inline campaign."""
        from repro.app import RunConfig, WorkloadSpec
        from repro.campaign import CampaignSpec, run_campaign
        from repro.perf.bench import _cold_process_digests

        campaign = CampaignSpec(
            name="cold",
            base_config=RunConfig(cluster="thunder", num_nodes=1, nranks=2,
                                  threads_per_rank=1),
            base_spec=WorkloadSpec(generations=2, points_per_ring=6,
                                   n_steps=2))
        assert _cold_process_digests(campaign) == \
            run_campaign(campaign).digest_map()

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

    def test_failed_trajectory_is_recorded_in_the_report(self, tmp_path,
                                                          monkeypatch):
        """A report written by a run whose ``--baseline`` gate failed says
        so itself, in its summary and its trajectory section."""
        import repro.perf.bench as bench

        def rows(after):
            return [{"name": n, "kind": "kernel", "after_seconds": s}
                    for n, s in zip("abcd", after)]

        ref = tmp_path / "BENCH_pr1.json"
        ref.write_text(json.dumps({"benchmarks": rows([1.0] * 4)}))
        monkeypatch.setattr(
            bench, "run_benchmarks",
            lambda quick: {"benchmarks": rows([1.0, 1.0, 1.0, 3.0]),
                           "summary": dict.fromkeys(
                               ("all_simulated_results_identical",
                                "speedup_gates_ok", "detail_checks_ok"))})
        out = tmp_path / "BENCH_pr2.json"
        assert bench.main(["--out", str(out), "--baseline", "auto"]) == 1
        report = json.loads(out.read_text())
        assert report["summary"]["trajectory_ok"] is False
        [failure] = report["trajectory"]["failures"]
        assert failure.startswith("d:")

    def test_run_benchmarks_micro_smoke(self, monkeypatch):
        """One table row end-to-end through the runner (fast smoke)."""
        import repro.perf.bench as bench

        monkeypatch.setattr(
            bench, "_benchmark_table",
            lambda: [{"name": "engine_events", "kind": "micro",
                      "fn": bench._engine_events_workload,
                      "units": "events"}])
        report = bench.run_benchmarks(quick=True, verbose=False)
        assert report["schema"] == "repro-bench-v1"
        [b] = report["benchmarks"]
        assert b["name"] == "engine_events"
        assert b["after_seconds"] > 0 and "before_seconds" not in b
        assert b["throughput"]["units"] == "events"
        assert b["throughput"]["after_per_second"] > 0


# -- plan templates --------------------------------------------------------

class TestPlanTemplates:
    def test_warm_hybrid_replay_serves_templates(self):
        """On a warm default 48x2 replay every planned graph run is either
        served by the template its graph cached on an earlier run or falls
        back on the order check, and the fallbacks stay rare."""
        from repro.app.driver import RunConfig, run_cfpd

        cfg = RunConfig(nranks=48, threads_per_rank=2)
        run_cfpd(cfg)
        plans = run_cfpd(cfg).engine_diag["batch"]["plans"]
        hits = plans["plan_cache_hits"]
        misses = plans["plan_template_misses"]
        assert hits + misses == plans["planned_graphs"] > 0
        assert misses <= 0.15 * plans["planned_graphs"]


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
        elements = [row[row >= 0] for row in mesh.elem_nodes]
        for nodes in elements:
            pairs.update((int(a), int(b)) for a in nodes for b in nodes)
        m = res.matrix
        got = {(i, int(j)) for i in range(mesh.nnodes)
               for j in m.indices[m.indptr[i]:m.indptr[i + 1]]}
        assert got == pairs and m.nnz == len(pairs)
        assert m.has_sorted_indices
        nn = np.array([len(nodes) for nodes in elements])
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

class TestParticleFastPath:
    """Element location, active-set compaction, fused kernels."""

    def _track(self, n=400, seed=11):
        from repro.particles import AirwayFlow

        airway = small_airway()
        flow = AirwayFlow(airway.segments)
        state = inject_at_inlet(airway, flow, n, seed=seed)
        tracker = NewmarkTracker(flow, particles=ParticleProperties(),
                                 fluid=FluidProperties())
        return airway, state, tracker

    def test_locator_matches_brute_force_on_random_points(self):
        airway = small_airway()
        mesh = airway.mesh
        centroids = mesh.centroids()
        rng = np.random.default_rng(5)
        lo, hi = mesh.coords.min(axis=0), mesh.coords.max(axis=0)
        points = rng.uniform(lo, hi, size=(500, 3))
        eids = ElementLocator(airway).elements_of(points)
        brute = np.argmin(
            np.linalg.norm(points[:, None, :] - centroids[None, :, :],
                           axis=2), axis=1)
        assert eids.dtype == np.intp
        assert np.array_equal(eids, brute)

    #: tracker caches of each hot spot, dropped before every step to force
    #: the from-scratch path
    COLD = {
        "particle_compaction": ("_order",),
        "particle_fused_step": ("_newmark_ws", "_loc_valid"),
    }

    def _injection_run(self, cold=()):
        """The golden ``particles/injection`` scenario: a Δt switch and a
        mid-run injection with a frozen/active mix.  Returns the state and
        the per-step element ids."""
        airway, state, tracker = self._track()
        locator = ElementLocator(airway)
        elems = []
        for i in range(20):
            for attr in cold:
                setattr(tracker, attr, None)
            tracker.step(state, 1e-3 if i < 10 else 1e-4)
            if i == 10:
                state.extend(inject_at_inlet(airway, tracker.flow, 80, seed=13))
            elems.append(locator.elements_of(state.x))
        return state, elems

    @pytest.mark.parametrize("toggle", ["particle_compaction",
                                        "particle_fused_step"])
    def test_single_toggle_off_tracker_bit_identical(self, toggle):
        """Each tracker hot spot against its reference, bit for bit: the
        compacted active set and the buffered, locate-reusing step against
        a step with that cache dropped.  The run itself matches its golden
        pin."""
        from tests.test_golden_digests import (_particle_summary,
                                               assert_matches, jsonable,
                                               load_golden)

        warm, elems = self._injection_run()
        assert_matches(jsonable(_particle_summary(warm, elems)),
                       load_golden()["particles/injection"],
                       path="particles/injection")
        cold, cold_elems = self._injection_run(self.COLD[toggle])
        for a, b in zip(elems, cold_elems):
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

    def test_locator_dtypes_are_intp(self):
        airway, state, _ = self._track(n=10)
        locator = ElementLocator(airway)
        assert locator.elements_of(state.x).dtype == np.intp
        assert locator.elements_of(np.zeros((0, 3))).dtype == np.intp

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

        rows = {r["name"]: r for r in _benchmark_table()}
        for name in ("particle_histograms", "tracker_step", "interpolation"):
            assert "before_fn" not in rows[name]
        policy = {n for n, r in rows.items() if "before_fn" in r}
        assert policy == {"time_to_endpoint", "breathing_cycle",
                          "campaign_throughput"}
        assert all("min_speedup" in rows[n] for n in policy)
