"""Self-tests of the benchmark: ``PYTHONPATH=src python -m pytest bench -q``."""

from __future__ import annotations

import json
import os

import pytest

import compare
import golden
import workloads
from layers import WRAP_POINTS, Tracer, read_counter, resolve_owner, \
    run_counters


#: attributes the campaign's calibration probes patch during a pass
PROBE_POINTS = (("repro.campaign.executor", None, "warm_workload", ""),
                ("repro.campaign.runner", None, "run_job", ""))


def _snapshot():
    out = {}
    for module, cls, attr, _name in WRAP_POINTS + PROBE_POINTS:
        owner = resolve_owner(module, cls)
        out[(module, cls, attr)] = vars(owner).get(attr)
    return out


def test_every_wrap_point_resolves_and_is_restored():
    before = _snapshot()
    tracer = Tracer()
    with tracer.installed():
        assert tracer.missing == []
        for module, cls, attr, _name in WRAP_POINTS:
            owner = resolve_owner(module, cls)
            assert vars(owner)[attr] is not before[(module, cls, attr)]
    assert _snapshot() == before


def test_wrap_of_an_inherited_method_is_removed_on_restore():
    class Base:
        def f(self):
            return 1

    class Child(Base):
        pass

    tracer = Tracer()
    tracer.wrap(Child, "f", "child.f")
    assert Child().f() == 1 and tracer.calls["child.f"] == 1
    tracer.restore()
    assert "f" not in vars(Child)


def test_self_time_subtracts_nested_child_spans():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 5.25, 5.75, 6.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):              # 0 .. 10
        with tracer.span("a"):              # 1 .. 4
            pass
        with tracer.span("b"):              # 5 .. 6
            with tracer.span("a"):          # 5.25 .. 5.75, same name nested
                pass
    assert tracer.self_s["outer"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert tracer.self_s["a"] == pytest.approx(3.0 + 0.5)
    assert tracer.self_s["b"] == pytest.approx(0.5)
    assert tracer.total_s["outer"] == pytest.approx(10.0)
    assert tracer.calls["a"] == 2
    assert sum(tracer.self_s.values()) == pytest.approx(10.0)


def test_tail_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        workloads.percentile(list(range(99)), 0.9)
    assert workloads.percentile(list(range(100)), 0.9) == pytest.approx(89.1)
    assert workloads.percentile([3.0], 0.5) == 3.0


def test_missing_counters_are_reported_absent():
    class Bare:
        solver_info = {"momentum_iterations": 3}

    assert read_counter(Bare(), ("engine_diag", "batch", "cohorts")) is None
    values, absent = run_counters(Bare())
    assert values == {"solver.momentum_iterations": 3.0}
    assert "sim.events" in absent and "trace.phase_samples" in absent


def test_golden_holds_the_bench_report_digests():
    pins = golden.load()
    assert pins["seed"] == workloads.DEFAULT_SEED
    assert pins["replay_mn4_sync"]["dlb=off"].startswith("b5b7d177")
    assert pins["replay_mn4_coupled"]["dlb=off"].startswith("08cd9564")
    assert pins["replay_mn4_sync"]["dlb=on"].startswith("0eca7576")
    assert pins["replay_mn4_coupled"]["dlb=on"].startswith("6c82a778")
    assert len(pins["cold_start"]) == 2 * workloads.COLD_POOL


def test_golden_covers_every_campaign_cell_of_the_longest_run(tmp_path):
    wl = workloads.make_workload("campaign", workloads.DEFAULT_SEED,
                                 golden.load(), str(tmp_path))
    keys = {wl.cell_key(job)
            for k in range(wl.fixed_units(golden.LONGEST_RUN_S))
            for job in wl.sweep(k).expand()}
    assert keys == set(wl.golden)


def test_an_operation_without_golden_digest_fails_at_the_default_seed(
        tmp_path):
    pinned = workloads.make_workload(
        "replay_mn4_sync", workloads.DEFAULT_SEED,
        {"seed": workloads.DEFAULT_SEED}, str(tmp_path))
    assert pinned._check_digest("dlb=off", "0" * 64) == \
        ["dlb=off: no golden digest"]
    free = workloads.make_workload("replay_mn4_sync", 7, golden.load(),
                                   str(tmp_path))
    assert free._check_digest("dlb=off", "0" * 64) == []


def test_benchmark_json_names_the_reported_metrics():
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == \
        [name for name, _unit in workloads.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _s, _k in workloads.LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_one_reduced_round_matches_golden(name, tmp_path):
    before = _snapshot()
    report = workloads.run_workload(
        name, seconds=0.0, golden=golden.load(), workdir=str(tmp_path),
        setup_repeats=1, max_units=1)
    assert report.correct, report.notes
    assert report.golden_checked >= report.attempted
    assert set(report.metrics) == {n for n, _u in workloads.END_TO_END}
    assert all(value > 0 for value, _unit in report.metrics.values())
    assert _snapshot() == before


def test_campaign_passes_extend_the_sweep(tmp_path):
    wl = workloads.make_workload("campaign", 7, {}, str(tmp_path))
    cells = [{j.fingerprint for j in wl.sweep(k).expand()}
             for k in range(3)]
    assert [len(c) for c in cells] == [6, 12, 12]
    assert cells[0] < cells[1] and len(cells[1] & cells[2]) == 6


def test_host_scale_cancels_a_uniform_slowdown():
    ref = workloads.KERNEL_REF_S
    # twice as slow a host: kernels and operation both take twice as long
    assert 2.0 * workloads.host_scale([2 * ref, 2 * ref]) == pytest.approx(1.0)
    assert workloads.host_scale([ref, 9 * ref, ref]) == pytest.approx(1.0)


def test_traced_run_reproduces_untraced_digests(tmp_path):
    before = _snapshot()
    report = workloads.run_workload(
        "replay_mn4_sync", seconds=0.0, trace=True, golden=golden.load(),
        workdir=str(tmp_path), setup_repeats=1, max_units=2,
        trace_path=str(tmp_path / "trace.json"))
    # unit 0 runs untraced, unit 1 traced; both replay with DLB off and on
    # and are checked against the same golden and earlier-run digests
    assert report.correct, report.notes
    assert report.attempted == 4
    assert _snapshot() == before
    metrics = {k: v for k, (v, _u) in report.metrics.items()}
    assert set(metrics) == {n for n, _u, _s, _k in workloads.LAYER_METRICS}
    assert metrics["trace.coverage_ratio"] > 0.9
    assert metrics["sim.events"] > 0 and metrics["trace.overhead_ratio"] > 0
    with open(tmp_path / "trace.json") as fh:
        events = json.load(fh)["traceEvents"]
    assert {"bench.op", "app.run_cfpd", "sim.dispatch"} <= \
        {e["name"] for e in events}


def test_compare_verdicts():
    base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    faster = [v * 0.8 for v in base]
    slower = [v * 1.2 for v in base]
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0]
    assert compare.verdict(base, faster, "lower", 0.1) == "better"
    assert compare.verdict(base, slower, "lower", 0.1) == "worse"
    assert compare.verdict(base, base, "lower", 0.1) == "same"
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1) == "unresolved"
    assert compare.verdict(base, faster, "higher", 0.1) == "worse"
