"""Unit tests for the tracing/metrics layer (PhaseLog, timeline)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.trace import (
    PhaseLog,
    load_balance,
    render_timeline,
    timeline_rows,
)


class TestLoadBalanceMetric:
    def test_perfectly_balanced(self):
        assert load_balance([2.0, 2.0, 2.0]) == pytest.approx(1.0)

    def test_paper_formula(self):
        # L_n = sum t_i / (n * max t_i)
        times = [1.0, 2.0, 4.0, 1.0]
        assert load_balance(times) == pytest.approx(8.0 / (4 * 4.0))

    def test_single_worker_dominates(self):
        """The particles-phase case: one rank holds ~all the work."""
        times = [0.0] * 95 + [1.0]
        assert load_balance(times) == pytest.approx(1.0 / 96.0)

    def test_empty_and_zero(self):
        assert load_balance([]) == 1.0
        assert load_balance([0.0, 0.0]) == 1.0

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                    max_size=64))
    def test_bounds(self, times):
        ln = load_balance(times)
        assert 0.0 < ln <= 1.0 + 1e-12

    @given(st.lists(st.floats(min_value=0.1, max_value=1e3), min_size=2,
                    max_size=32), st.floats(min_value=0.1, max_value=10.0))
    def test_scale_invariant(self, times, factor):
        a = load_balance(times)
        b = load_balance([t * factor for t in times])
        assert a == pytest.approx(b, rel=1e-9)


def small_log():
    log = PhaseLog(nranks=3)
    # step 0: assembly unbalanced, solver balanced
    log.add(0, "assembly", 0, 0.0, 1.0, busy=1.0, instructions=100.0)
    log.add(0, "assembly", 1, 0.0, 2.0, busy=2.0, instructions=200.0)
    log.add(0, "assembly", 2, 0.0, 4.0, busy=4.0, instructions=400.0)
    log.add(0, "solver", 0, 4.0, 6.0, busy=2.0, instructions=300.0)
    log.add(0, "solver", 1, 4.0, 6.0, busy=2.0, instructions=300.0)
    log.add(0, "solver", 2, 4.0, 6.0, busy=2.0, instructions=300.0)
    return log


class TestPhaseLog:
    def test_phases_in_order(self):
        assert small_log().phases() == ["assembly", "solver"]

    def test_busy_by_rank(self):
        log = small_log()
        np.testing.assert_allclose(log.busy_by_rank("assembly"),
                                   [1.0, 2.0, 4.0])

    def test_load_balance(self):
        log = small_log()
        assert log.load_balance("assembly") == pytest.approx(7.0 / 12.0)
        assert log.load_balance("solver") == pytest.approx(1.0)

    def test_load_balance_restricted_ranks(self):
        log = small_log()
        assert log.load_balance("assembly", ranks=[0, 1]) == pytest.approx(
            3.0 / 4.0)

    def test_elapsed_and_percent(self):
        log = small_log()
        assert log.elapsed("assembly") == pytest.approx(4.0)
        assert log.elapsed("solver") == pytest.approx(2.0)
        assert log.total_elapsed() == pytest.approx(6.0)
        assert log.percent_time("assembly") == pytest.approx(100 * 4 / 6)

    def test_elapsed_sums_over_steps(self):
        log = small_log()
        log.add(1, "assembly", 0, 10.0, 11.5, busy=1.5)
        assert log.elapsed("assembly") == pytest.approx(4.0 + 1.5)

    def test_ipc(self):
        log = small_log()
        # assembly: 700 instructions over 7 busy seconds at 1 GHz
        assert log.ipc("assembly", freq_ghz=1e-9 * 1) == pytest.approx(
            700.0 / 7.0, rel=1e-9)

    def test_summary_rows(self):
        rows = small_log().summary()
        assert [r["phase"] for r in rows] == ["assembly", "solver"]
        assert rows[0]["load_balance"] == pytest.approx(7.0 / 12.0)

    def test_invalid_interval_rejected(self):
        log = PhaseLog(2)
        with pytest.raises(ValueError):
            log.add(0, "x", 0, 5.0, 4.0, busy=1.0)

    def test_invalid_nranks(self):
        with pytest.raises(ValueError):
            PhaseLog(0)

    def test_empty_log(self):
        log = PhaseLog(4)
        assert log.phases() == []
        assert log.total_elapsed() == 0.0
        assert log.percent_time("nope") == 0.0
        assert log.ipc("nope", 2.0) == 0.0


class TestTimeline:
    def test_rows_sorted(self):
        log = small_log()
        rows = timeline_rows(log, 0)
        assert rows[0][0] == 0
        assert all(rows[i][0] <= rows[i + 1][0] for i in range(len(rows) - 1))

    def test_render_contains_all_ranks(self):
        log = small_log()
        art = render_timeline(log, 0, width=40)
        for rank in range(3):
            assert f"rank {rank:4d}" in art

    def test_render_uses_phase_glyphs(self):
        art = render_timeline(small_log(), 0, width=40,
                              glyphs={"assembly": "A", "solver": "S"})
        assert "A" in art and "S" in art

    def test_render_empty_step(self):
        art = render_timeline(small_log(), step=9)
        assert "no samples" in art

    def test_rank_subsampling(self):
        log = PhaseLog(nranks=100)
        for r in range(100):
            log.add(0, "assembly", r, 0.0, 1.0, busy=1.0)
        art = render_timeline(log, 0, max_ranks=10)
        assert art.count("rank ") == 10


class TestLoadBalanceByStep:
    def test_one_value_per_step(self):
        log = PhaseLog(2)
        log.add(0, "p", 0, 0.0, 1.0, busy=1.0)
        log.add(0, "p", 1, 0.0, 1.0, busy=1.0)
        log.add(1, "p", 0, 2.0, 3.0, busy=1.0)
        log.add(1, "p", 1, 2.0, 5.0, busy=3.0)
        series = log.load_balance_by_step("p")
        assert len(series) == 2
        assert series[0] == pytest.approx(1.0)
        assert series[1] == pytest.approx(4.0 / (2 * 3.0))

    def test_empty_phase(self):
        assert PhaseLog(2).load_balance_by_step("nope") == []
