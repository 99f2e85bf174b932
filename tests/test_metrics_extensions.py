"""Tests for the POP efficiency metrics and the energy model."""

import pytest

from repro.app import RunConfig, WorkloadSpec, get_workload, run_cfpd
from repro.machine import POWER_MODELS, PowerModel, energy_estimate
from repro.trace import PhaseLog, pop_from_phase_log, pop_metrics


class TestPOPMetrics:
    def test_perfect_execution(self):
        m = pop_metrics([2.0, 2.0], runtime=2.0)
        assert m.load_balance == pytest.approx(1.0)
        assert m.communication_efficiency == pytest.approx(1.0)
        assert m.parallel_efficiency == pytest.approx(1.0)

    def test_factorization(self):
        m = pop_metrics([1.0, 3.0], runtime=4.0)
        assert m.load_balance == pytest.approx(2.0 / 3.0)
        assert m.communication_efficiency == pytest.approx(3.0 / 4.0)
        assert m.parallel_efficiency == pytest.approx(0.5)

    def test_comme_capped_at_one(self):
        m = pop_metrics([5.0], runtime=4.0)  # accounting noise
        assert m.communication_efficiency == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            pop_metrics([], runtime=1.0)
        with pytest.raises(ValueError):
            pop_metrics([1.0], runtime=0.0)

    def test_zero_useful(self):
        m = pop_metrics([0.0, 0.0], runtime=1.0)
        assert m.parallel_efficiency == 0.0

    def test_from_phase_log(self):
        log = PhaseLog(2)
        log.add(0, "a", 0, 0.0, 1.0, busy=1.0)
        log.add(0, "a", 1, 0.0, 3.0, busy=3.0)
        m = pop_from_phase_log(log, runtime=4.0)
        assert m.load_balance == pytest.approx(2.0 / 3.0)
        assert m.communication_efficiency == pytest.approx(0.75)

    def test_format(self):
        text = pop_metrics([1.0, 1.0], 1.0).format()
        assert "LB=" in text and "PE=" in text

    def test_dlb_improves_parallel_efficiency(self):
        wl = get_workload(WorkloadSpec(generations=3, points_per_ring=6,
                                       n_steps=3))
        pes = {}
        for dlb in (False, True):
            res = run_cfpd(RunConfig(cluster="thunder", num_nodes=1,
                                     nranks=16, dlb=dlb), workload=wl)
            pes[dlb] = res.pop_metrics().parallel_efficiency
        assert pes[True] >= pes[False]


class TestEnergyModel:
    def test_power_model_validation(self):
        with pytest.raises(ValueError):
            PowerModel(core_active_w=1.0, core_idle_w=2.0, node_static_w=0)
        with pytest.raises(ValueError):
            PowerModel(core_active_w=-1.0, core_idle_w=0.0,
                       node_static_w=0.0)

    def test_presets_exist(self):
        assert "MareNostrum4" in POWER_MODELS
        assert "Thunder" in POWER_MODELS
        # Arm cores draw less than Intel cores
        assert (POWER_MODELS["Thunder"].core_active_w
                < POWER_MODELS["MareNostrum4"].core_active_w)

    def test_hand_computed_energy(self):
        # 2 cores for 10 s, one fully busy, one idle, 1 node
        p = POWER_MODELS["Thunder"]
        e = energy_estimate("Thunder", [10.0, 0.0], runtime=10.0,
                            cores_used=2, num_nodes=1)
        expected = (10.0 * p.core_active_w + 10.0 * p.core_idle_w
                    + 10.0 * p.node_static_w)
        assert e == pytest.approx(expected)

    def test_unknown_cluster(self):
        with pytest.raises(KeyError):
            energy_estimate("Summit", [1.0], 1.0, 1)

    def test_busier_run_costs_more_energy(self):
        base = energy_estimate("Thunder", [1.0, 1.0], 10.0, 2, 1)
        busy = energy_estimate("Thunder", [9.0, 9.0], 10.0, 2, 1)
        assert busy > base

    def test_run_result_energy(self):
        wl = get_workload(WorkloadSpec(generations=3, points_per_ring=6,
                                       n_steps=3))
        res = run_cfpd(RunConfig(cluster="thunder", num_nodes=1, nranks=8),
                       workload=wl)
        e = res.energy_joules()
        assert e > 0
        # bounded by everything-active upper bound
        p = POWER_MODELS["Thunder"]
        upper = res.total_time * (8 * p.core_active_w + p.node_static_w)
        assert e <= upper * 1.001

    def test_dlb_reduces_energy(self):
        """Shorter runtime at the same useful work => less energy."""
        wl = get_workload(WorkloadSpec(generations=3, points_per_ring=6,
                                       n_steps=3))
        energies = {}
        for dlb in (False, True):
            res = run_cfpd(RunConfig(cluster="thunder", num_nodes=1,
                                     nranks=16, dlb=dlb), workload=wl)
            energies[dlb] = res.energy_joules()
        assert energies[True] <= energies[False] * 1.001
