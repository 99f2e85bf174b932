"""Determinism guards of the simulated results.

* **determinism** — two runs of the same configuration produce identical
  simulated-time metrics and identical checkpoint bytes (compared inside
  one build);
* **bit-identical before/after** — a run whose numerics all start cold (a
  fresh, uncached workload) lands on the digest recorded in
  ``tests/golden_digests.json`` while the implementations the hot paths
  replaced were still in the tree, and writes the same checkpoint bytes as
  a run served from the process-wide workload cache, across sync/coupled x
  DLB on/off;
* **per-hot-spot bisection** — for every configuration and every hot spot
  that once had a slower twin, the configuration's end-to-end pin and the
  hot spot's own pins hold together, so an end-to-end drift bisects to the
  hot spot whose pins moved;
* **arena recycling** — the event arena serves steady-state allocations
  from its free list and leaks nothing between runs.
"""

import hashlib

import pytest

from repro.app.driver import RunConfig, run_cfpd
from repro.app.workload import Workload, WorkloadSpec, get_workload
from repro.campaign import simulated_digest
from tests.test_golden_digests import ENTRIES, assert_matches, compute, \
    jsonable, load_golden

#: small but non-trivial workload: enough steps for two checkpoint cuts
SPEC = WorkloadSpec(generations=3, points_per_ring=6, n_steps=4)

CONFIGS = {
    "sync": dict(cluster="thunder", num_nodes=1, nranks=8),
    "sync_dlb": dict(cluster="thunder", num_nodes=1, nranks=8, dlb=True),
    "coupled": dict(cluster="thunder", num_nodes=1, nranks=8,
                    mode="coupled", fluid_ranks=6),
    "coupled_dlb": dict(cluster="thunder", num_nodes=1, nranks=8,
                        mode="coupled", fluid_ranks=6, dlb=True),
}

#: hot spot (named after the switch that once selected its slower twin)
#: -> the golden entries that pin its one implementation in isolation
HOT_SPOT_PINS = {
    "geometry_cache": ("fem/assembly/half", "fem/sgs",
                       "particles/interpolation"),
    "operator_split": ("fem/assembly/full", "fem/assembly/half",
                       "fem/assembly/convective"),
    "scheduler_heap": ("e2e/thunder/adaptive_local_sine",
                       "e2e/thunder/ventilator"),
    # pinned by the configuration's own run, served from the graph cache
    "driver_graph_cache": (),
    "particle_warm_start": ("particles/locator",),
    "particle_compaction": ("particles/injection",),
    "particle_fused_step": ("particles/injection", "particles/flow_locate"),
    "engine_batch": ("smpi/collectives", "smpi/collectives_dead_rank",
                     "faults/msg_drop_deadlock"),
    "fluid_operator_recycle": ("tube/plain/cg", "tube/adaptive/cg",
                               "tube/hub/cg"),
    "deflation_setup_cache": ("tube/plain/deflated", "tube/adaptive/deflated",
                              "tube/hub/deflated"),
    "krylov_buffers": tuple(n for n in sorted(ENTRIES)
                            if n.startswith("solver/")),
}


def _digest(result) -> str:
    """Hash of every simulated-time metric of a run."""
    h = hashlib.sha256()
    for s in result.phase_log.samples:
        h.update(repr((s.step, s.rank, s.phase, s.t0, s.t1,
                       s.busy, s.instructions)).encode())
    h.update(repr(result.total_time).encode())
    h.update(repr(result.deposition).encode())
    h.update(repr(result.solver_info).encode())
    h.update(repr(result.checkpoints).encode())
    return h.hexdigest()


def _run(config_kwargs, ckpt_path, workload=None):
    """(digest, checkpoint bytes, ``e2e/spec/*`` golden form) of one run."""
    cfg = RunConfig(checkpoint_every=2, **config_kwargs)
    wl = workload if workload is not None else get_workload(SPEC)
    result = run_cfpd(cfg, workload=wl, checkpoint_path=str(ckpt_path))
    pinned = jsonable({"digest": simulated_digest(result),
                       "checkpoints": result.checkpoints})
    return _digest(result), ckpt_path.read_bytes(), pinned


@pytest.fixture(scope="module")
def golden():
    return load_golden()


@pytest.fixture(scope="module")
def default_digests(tmp_path_factory):
    """Digest + checkpoint bytes of a defaults run, once per config."""
    base = tmp_path_factory.mktemp("defaults")
    return {name: _run(kwargs, base / f"{name}.ckpt")[:2]
            for name, kwargs in CONFIGS.items()}


class TestDeterminism:
    def test_two_optimized_runs_identical(self, tmp_path):
        """Same configuration twice: same digest, same checkpoint bytes."""
        d1, c1, _ = _run(CONFIGS["sync"], tmp_path / "a.ckpt")
        d2, c2, _ = _run(CONFIGS["sync"], tmp_path / "b.ckpt")
        assert d1 == d2
        assert c1 == c2


class TestBitIdenticalBeforeAfter:
    """Fast paths change wall-clock only.

    A fresh workload recomputes every cached numeric (operators, solves,
    trajectory, geometry and assembly patterns, task graphs) inside the
    run; the run must still land on the recorded digest and write the
    checkpoint bytes of a run served from the process-wide cache.
    """

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_fast_paths_change_wall_clock_only(self, name, tmp_path, golden,
                                               default_digests):
        d_cold, c_cold, pinned = _run(CONFIGS[name], tmp_path / "cold.ckpt",
                                      workload=Workload(SPEC))
        assert_matches(pinned, golden[f"e2e/spec/{name}"], path=name)
        d_warm, c_warm = default_digests[name]
        assert d_cold == d_warm, (
            f"{name}: simulated-time metrics depend on the workload caches")
        assert c_cold == c_warm, (
            f"{name}: checkpoint bytes depend on the workload caches")


class TestPerToggleBisection:
    """Each hot spot x each configuration: the hot spot's own golden pins
    hold, and the configuration lands on the digest recorded while the hot
    spot's slower twin was still in the tree — the table the bisection
    workflow reads when an end-to-end digest drifts."""

    @pytest.mark.parametrize("toggle", list(HOT_SPOT_PINS))
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_single_toggle_off_is_identical(self, toggle, name, tmp_path,
                                            golden, default_digests):
        graphs = get_workload(SPEC).__dict__.get("_driver_graph_cache", {})
        n_graphs = len(graphs)
        d_run, c_run, pinned = _run(CONFIGS[name], tmp_path / "run.ckpt")
        if toggle == "driver_graph_cache":
            # the defaults run built this configuration's task graphs
            assert n_graphs and len(graphs) == n_graphs, (
                f"{name}: the run rebuilt its task graphs")
        assert_matches(pinned, golden[f"e2e/spec/{name}"], path=name)
        d_ref, c_ref = default_digests[name]
        assert d_run == d_ref, (
            f"{name}: simulated-time metrics drifted ({toggle} row)")
        assert c_run == c_ref, (
            f"{name}: checkpoint bytes drifted ({toggle} row)")
        for entry in HOT_SPOT_PINS[toggle]:
            assert_matches(compute(entry), golden[entry], ENTRIES[entry][1],
                           entry)


class TestArenaRecycling:
    """``defer``/``call_later`` recycle arena slots: no per-step growth.

    Steady state must serve allocations from the free list (capacity a
    tiny fraction of total allocations) and two identical runs must not
    leak simulation objects between them.
    """

    def test_arena_steady_state(self):
        result = run_cfpd(RunConfig(**CONFIGS["sync"]), spec=SPEC)
        arena = result.engine_diag["batch"]["arena"]
        assert arena["live"] == 0, "slots leaked past the end of the run"
        assert arena["recycled"] > 0
        # steady-state table size is bounded by peak concurrency, not by
        # the number of events: orders of magnitude below total allocations
        assert arena["capacity"] < arena["allocated"] / 10

    def test_no_object_growth_between_runs(self):
        import gc
        cfg = RunConfig(**CONFIGS["sync"])
        run_cfpd(cfg, spec=SPEC)     # warm caches (graphs, geometry, ...)
        gc.collect()
        n0 = len(gc.get_objects())
        run_cfpd(cfg, spec=SPEC)
        gc.collect()
        n1 = len(gc.get_objects())
        # the second run may retain a bounded residue (result object grown
        # lists, memoized helpers) but nothing proportional to the ~1e4
        # events the run processed
        assert n1 - n0 < 2000, f"object count grew by {n1 - n0}"
