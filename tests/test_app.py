"""Integration tests for the CFPD application driver (workload + driver).

Uses a small workload (3 airway generations, 3 steps) so the whole app
path — mesh, decomposition, real assembly/solvers/SGS/particles, DES
execution — runs in well under a second per configuration.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.app import (
    LARGE_PARTICLE_RATIO,
    RunConfig,
    WorkloadSpec,
    Workload,
    get_workload,
    run_cfpd,
)
from repro.core import Strategy

SMALL = WorkloadSpec(generations=3, points_per_ring=6, n_steps=3)


@pytest.fixture(scope="module")
def wl():
    return get_workload(SMALL)


PHASES = ["assembly", "solver1", "solver2", "sgs", "particles"]


class TestWorkload:
    def test_particle_count_follows_ratio(self, wl):
        expected = int(round(SMALL.particle_ratio * wl.mesh.nelem))
        assert wl.n_particles == max(1, expected)

    def test_decomposition_cached(self, wl):
        a = wl.decomposition(8)
        b = wl.decomposition(8)
        assert a is b
        assert wl.decomposition(4) is not a

    def test_rank_meters_cover_mesh(self, wl):
        dd = wl.decomposition(8)
        total = sum(len(rw.element_ids) for rw in dd.ranks)
        assert total == wl.mesh.nelem
        total_instr = sum(rw.assembly_instr.sum() for rw in dd.ranks)
        assert total_instr > 0

    def test_solver_rows_cover_all_nnz(self, wl):
        dd = wl.decomposition(8)
        K = wl.operators()["continuity"]
        assert sum(rw.solver_nnz for rw in dd.ranks) == pytest.approx(K.nnz)

    def test_colors_valid_per_rank(self, wl):
        from repro.partition import verify_coloring
        dd = wl.decomposition(6)
        for rw in dd.ranks[:3]:
            graph = wl.mesh.node_sharing_adjacency(rw.element_ids)
            assert verify_coloring(graph, rw.colors)

    def test_colors_computed_on_demand(self, monkeypatch):
        """A default-strategy run never colors nor builds the conflict
        graph; a COLORING run does both once, for all its ranks."""
        import repro.app.workload as workload_mod
        from repro.mesh import Mesh

        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(workload_mod, "greedy_coloring", counted(
            "sweep", workload_mod.greedy_coloring))
        monkeypatch.setattr(Mesh, "node_sharing_adjacency", counted(
            "graph", Mesh.node_sharing_adjacency))
        fresh = Workload(SMALL)
        cfg = RunConfig(cluster="thunder", num_nodes=1, nranks=4,
                        threads_per_rank=2)
        run_cfpd(cfg, workload=fresh)
        assert calls == []
        run_cfpd(replace(cfg, assembly_strategy=Strategy.COLORING,
                         sgs_strategy=Strategy.COLORING), workload=fresh)
        assert calls == ["graph", "sweep"]

    def test_real_solves_converge(self, wl):
        info = wl.solve_fluid_step()
        assert info["momentum_converged"]
        assert info["continuity_converged"]
        assert info["momentum_iterations"] >= 1

    def test_sgs_history_runs(self, wl):
        norms = wl.sgs_history()
        assert len(norms) == SMALL.n_steps
        assert all(np.isfinite(n) for n in norms)

    def test_trajectory_counts_conserved(self, wl):
        traj = wl.trajectory()
        assert len(traj) == SMALL.n_steps
        for step in traj:
            counts = step["counts"]
            assert sum(counts.values()) == wl.n_particles

    def test_histograms_match_trajectory(self, wl):
        hist = wl.particle_histograms(8)
        traj = wl.trajectory()
        for s in range(SMALL.n_steps):
            assert hist[s].sum() == len(traj[s]["positions"])

    def test_overlap_matrix_shape(self, wl):
        ov = wl.overlap_bytes(4, 3)
        assert ov.shape == (4, 3)
        assert (ov >= 0).all()
        assert ov.sum() > 0


class TestSyncDriver:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_all_strategies_run(self, wl, strategy):
        cfg = RunConfig(cluster="thunder", num_nodes=1, nranks=8,
                        threads_per_rank=2, assembly_strategy=strategy,
                        sgs_strategy=strategy)
        res = run_cfpd(cfg, workload=wl)
        assert res.total_time > 0
        assert set(p for p in res.phase_log.phases()) == set(PHASES)

    def test_every_rank_logs_every_phase_every_step(self, wl):
        cfg = RunConfig(cluster="thunder", num_nodes=1, nranks=8)
        res = run_cfpd(cfg, workload=wl)
        for phase in PHASES:
            samples = [s for s in res.phase_log.samples if s.phase == phase]
            assert len(samples) == 8 * SMALL.n_steps

    def test_work_conservation_across_rank_counts(self, wl):
        """Total assembly instructions must not depend on the rank count."""
        totals = []
        for nranks in (4, 8):
            cfg = RunConfig(cluster="thunder", num_nodes=1, nranks=nranks,
                            assembly_strategy=Strategy.MPI_ONLY,
                            sgs_strategy=Strategy.MPI_ONLY)
            res = run_cfpd(cfg, workload=wl)
            totals.append(res.phase_log.instructions("assembly"))
        assert totals[0] == pytest.approx(totals[1], rel=1e-9)

    def test_deterministic(self, wl):
        cfg = RunConfig(cluster="thunder", num_nodes=1, nranks=8, dlb=True)
        a = run_cfpd(cfg, workload=wl).total_time
        b = run_cfpd(cfg, workload=wl).total_time
        assert a == b

    def test_more_cores_not_slower(self, wl):
        t8 = run_cfpd(RunConfig(cluster="thunder", num_nodes=1, nranks=8),
                      workload=wl).total_time
        t16 = run_cfpd(RunConfig(cluster="thunder", num_nodes=1, nranks=16),
                       workload=wl).total_time
        assert t16 < t8 * 1.2  # strong scaling, with generous slack

    def test_oversubscription_rejected(self, wl):
        with pytest.raises(ValueError):
            run_cfpd(RunConfig(cluster="thunder", num_nodes=1, nranks=96,
                               threads_per_rank=2), workload=wl)

    def test_conflicting_spec_and_workload_rejected(self, wl):
        cfg = RunConfig(cluster="thunder", num_nodes=1, nranks=4)
        other = replace(wl.spec, n_steps=wl.spec.n_steps + 1)
        with pytest.raises(ValueError, match="spec=.*workload.spec="):
            run_cfpd(cfg, spec=other, workload=wl)
        # the matching spec, or either argument alone, runs as before
        ref = run_cfpd(cfg, workload=wl).total_time
        assert run_cfpd(cfg, spec=wl.spec, workload=wl).total_time == ref
        assert run_cfpd(cfg, spec=wl.spec).total_time == ref

    def test_ipc_reflects_strategy(self, wl):
        ipcs = {}
        for strategy in (Strategy.MPI_ONLY, Strategy.ATOMICS):
            cfg = RunConfig(cluster="marenostrum4", num_nodes=1, nranks=8,
                            assembly_strategy=strategy,
                            sgs_strategy=strategy)
            ipcs[strategy] = run_cfpd(cfg, workload=wl).ipc("assembly")
        assert ipcs[Strategy.MPI_ONLY] == pytest.approx(2.25, abs=0.02)
        assert ipcs[Strategy.ATOMICS] < 1.4


class TestCoupledDriver:
    def test_coupled_runs_and_logs_roles(self, wl):
        cfg = RunConfig(cluster="thunder", num_nodes=1, nranks=8,
                        mode="coupled", fluid_ranks=5)
        res = run_cfpd(cfg, workload=wl)
        fluid_ranks = {s.rank for s in res.phase_log.samples
                       if s.phase == "assembly"}
        particle_ranks = {s.rank for s in res.phase_log.samples
                          if s.phase == "particles"}
        assert fluid_ranks == set(range(5))
        assert particle_ranks == set(range(5, 8))

    def test_particle_ranks_build_labels_only(self):
        """The particle side reads rank labels only, so a cold coupled
        run builds the full two-level decomposition for the fluid ranks
        alone."""
        fresh = Workload(WorkloadSpec(generations=2, points_per_ring=6,
                                      n_steps=2))
        cfg = RunConfig(cluster="thunder", num_nodes=1, nranks=8,
                        mode="coupled", fluid_ranks=5)
        run_cfpd(cfg, workload=fresh)
        assert [key[0] for key in fresh.mesh_stage._decomps] == [5]
        assert set(fresh.mesh_stage._rank_labels) == {(5, "rcb"), (3, "rcb")}
        assert fresh.decomposition(5).labels is fresh.rank_labels(5)

    def test_invalid_split_rejected(self, wl):
        with pytest.raises(ValueError):
            run_cfpd(RunConfig(nranks=8, mode="coupled", fluid_ranks=0),
                     workload=wl)
        with pytest.raises(ValueError):
            run_cfpd(RunConfig(nranks=8, mode="coupled", fluid_ranks=8),
                     workload=wl)

    def test_unknown_mode_rejected(self, wl):
        with pytest.raises(ValueError):
            run_cfpd(RunConfig(nranks=8, mode="fancy"), workload=wl)

    def test_coupled_mapping_defaults_to_cyclic(self):
        assert RunConfig(mode="coupled", fluid_ranks=4).resolved_mapping() \
            == "cyclic"
        assert RunConfig(mode="sync").resolved_mapping() == "block"
        assert RunConfig(mode="sync", mapping="cyclic").resolved_mapping() \
            == "cyclic"

    def test_config_labels(self):
        assert RunConfig(mode="sync", nranks=96).label() == "sync 96x1"
        assert RunConfig(mode="coupled", nranks=96, fluid_ranks=64,
                         dlb=True).label() == "64+32 +DLB"


class TestRunGraphs:
    def test_equal_particle_counts_share_one_graph(self, wl):
        from repro.app.driver import _RunContext

        config = RunConfig(cluster="thunder", num_nodes=1, nranks=4,
                           threads_per_rank=2)
        ctx = _RunContext(wl, config)
        hist = wl.particle_histograms(config.nranks)
        by_count: dict = {}
        for pr, per_step in enumerate(ctx.particles):
            for s, graph in enumerate(per_step):
                by_count.setdefault(int(hist[s, pr]), set()).add(id(graph))
        # some count fills several slots, and there are several counts
        assert len(by_count) > 1 and hist.size > len(by_count)
        assert all(len(ids) == 1 for ids in by_count.values())
        assert len(set.union(*by_count.values())) == len(by_count)


class TestDLBInApp:
    def test_dlb_never_slower_sync(self, wl):
        for nranks in (8, 16):
            cfg = dict(cluster="thunder", num_nodes=1, nranks=nranks)
            t_off = run_cfpd(RunConfig(**cfg, dlb=False),
                             workload=wl).total_time
            t_on = run_cfpd(RunConfig(**cfg, dlb=True),
                            workload=wl).total_time
            assert t_on <= t_off * 1.001

    def test_dlb_helps_heavy_particle_load(self):
        heavy = get_workload(WorkloadSpec(generations=3, points_per_ring=6,
                                          n_steps=3,
                                          particle_ratio=LARGE_PARTICLE_RATIO))
        cfg = dict(cluster="thunder", num_nodes=1, nranks=16)
        t_off = run_cfpd(RunConfig(**cfg, dlb=False),
                         workload=heavy).total_time
        t_on = run_cfpd(RunConfig(**cfg, dlb=True),
                        workload=heavy).total_time
        assert t_on < t_off * 0.95

    def test_dlb_stats_populated(self, wl):
        cfg = RunConfig(cluster="thunder", num_nodes=1, nranks=8, dlb=True)
        res = run_cfpd(cfg, workload=wl)
        assert res.dlb_stats.lend_events > 0

    def test_dlb_coupled_flattens_split_choice(self):
        heavy = get_workload(WorkloadSpec(generations=3, points_per_ring=6,
                                          n_steps=3,
                                          particle_ratio=LARGE_PARTICLE_RATIO))
        times = {}
        for dlb in (False, True):
            per_split = []
            for f in (8, 12):
                cfg = RunConfig(cluster="thunder", num_nodes=1, nranks=16,
                                mode="coupled", fluid_ranks=f, dlb=dlb)
                per_split.append(run_cfpd(cfg, workload=heavy).total_time)
            times[dlb] = max(per_split) / min(per_split)
        assert times[True] <= times[False] + 1e-9


class TestPollutantInjection:
    """The paper's production scenario: particles injected several times
    during the simulation (pollutant inhalation)."""

    SPEC = WorkloadSpec(generations=3, points_per_ring=6, n_steps=6,
                        injection_interval=2)

    def test_injection_schedule(self):
        assert self.SPEC.injection_steps() == [0, 2, 4]
        assert WorkloadSpec(n_steps=4).injection_steps() == [0]

    def test_population_grows(self):
        wl = get_workload(self.SPEC)
        traj = wl.trajectory()
        totals = [sum(step["counts"].values()) for step in traj]
        assert totals[0] == wl.n_particles
        assert totals[-1] == wl.total_injected == 3 * wl.n_particles
        assert all(b >= a for a, b in zip(totals, totals[1:]))

    def test_particle_phase_work_grows(self):
        wl = get_workload(self.SPEC)
        hist = wl.particle_histograms(8)
        per_step = hist.sum(axis=1)
        assert per_step[4] > per_step[0]

    def test_driver_runs_with_injection_schedule(self):
        wl = get_workload(self.SPEC)
        cfg = RunConfig(cluster="thunder", num_nodes=1, nranks=8, dlb=True)
        res = run_cfpd(cfg, workload=wl)
        assert res.total_time > 0
        assert sum(res.deposition.values()) == wl.total_injected


class TestResultObject:
    def test_deposition_and_particle_count(self, wl):
        res = run_cfpd(RunConfig(cluster="thunder", num_nodes=1, nranks=4),
                       workload=wl)
        assert res.n_particles == wl.n_particles
        assert sum(res.deposition.values()) == wl.n_particles

    def test_solver_info_passthrough(self, wl):
        res = run_cfpd(RunConfig(cluster="thunder", num_nodes=1, nranks=4),
                       workload=wl)
        assert res.solver_info["momentum_converged"]
