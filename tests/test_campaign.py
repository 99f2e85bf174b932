"""Tests for the campaign subsystem (repro.campaign).

Covers the four contracts the subsystem makes:

* deterministic identity — job fingerprints are stable, sensitive to the
  physics/runtime configuration and blind to naming/tags;
* memoization — an identical campaign re-run performs zero simulations,
  and different campaigns visiting the same cell share store objects;
* concurrency — the worker pool produces a store bit-identical to the
  serial run's;
* crash safety — a campaign killed mid-flight (journaled) resumes to a
  store bit-identical to an uninterrupted run's.
"""

import dataclasses
import hashlib
import json
import os

import pytest

from repro.app import RunConfig, WorkloadSpec
from repro.campaign import (
    CampaignSpec,
    Job,
    ResultStore,
    StoreError,
    build_report,
    ci_smoke_campaign,
    classify_failure,
    cross_run_identity,
    diagnose,
    dlb_figure_campaign,
    get_campaign,
    hybrid_sweep_campaign,
    replay,
    run_campaign,
    run_job,
)
from repro.campaign.journal import Journal
from repro.campaign.serialize import canonical_json, job_fingerprint
from repro.fault import CheckpointError, FaultPlan, FaultSpec
from repro.smpi import JobKilledError, MPIError, RankDeadError

TINY = WorkloadSpec(generations=2, points_per_ring=6, n_steps=2)
KILL2 = FaultPlan(specs=(FaultSpec(kind="job_kill", time=0.0, count=2),))


def tiny_campaign(name="tiny"):
    return CampaignSpec(
        name=name,
        base_config=RunConfig(cluster="thunder", num_nodes=1,
                              threads_per_rank=1),
        base_spec=TINY,
        grid=[("config.nranks", [2, 4]),
              ("config.dlb", [False, True])])


def tree_digest(store):
    """SHA-256 over every object file's relative path and bytes."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(store.objects_dir)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, store.objects_dir).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class TestFingerprints:
    def test_deterministic(self):
        cfg = RunConfig(nranks=8)
        assert job_fingerprint(cfg, TINY) == job_fingerprint(cfg, TINY)

    def test_sensitive_to_config_spec_and_plan(self):
        base = job_fingerprint(RunConfig(nranks=8), TINY)
        assert job_fingerprint(RunConfig(nranks=16), TINY) != base
        assert job_fingerprint(
            RunConfig(nranks=8),
            dataclasses.replace(TINY, n_steps=3)) != base
        assert job_fingerprint(RunConfig(nranks=8), TINY, KILL2) != base

    def test_blind_to_campaign_name_index_and_tags(self):
        cfg = RunConfig(nranks=8)
        a = Job(index=0, campaign="a", config=cfg, spec=TINY,
                tags=(("role", "baseline"),))
        b = Job(index=7, campaign="b", config=cfg, spec=TINY,
                tags=(("role", "hybrid"),))
        assert a.fingerprint == b.fingerprint
        assert a.job_id != b.job_id

    def test_fingerprints_pinned(self):
        """Job fingerprints are store keys: a changed payload orphans every
        stored record.  Retired config fields keep their place in it."""
        assert job_fingerprint(RunConfig(), WorkloadSpec()) == (
            "cab90e0adc649501886ff78b96091faaaf0093880d40fbb6bd2b5f24c943f774")
        assert job_fingerprint(
            RunConfig(mode="coupled", nranks=96, fluid_ranks=64, dlb=True),
            WorkloadSpec(generations=3, n_steps=4)) == (
            "4e1d41f1b70502ffe439632b435eb7ba0fac4df9e8dd87815fdd851f1cbe1090")

    def test_canonical_json_is_byte_stable(self):
        assert canonical_json({"b": 1, "a": [True, None]}) == \
            '{"a":[true,null],"b":1}'


class TestCampaignSpec:
    def test_expand_runs_times_grid_in_order(self):
        campaign = CampaignSpec(
            name="x", base_spec=TINY,
            runs=[{"config.nranks": 2}, {"config.nranks": 4}],
            grid=[("config.dlb", [False, True])])
        jobs = campaign.expand()
        assert [(j.config.nranks, j.config.dlb) for j in jobs] == \
            [(2, False), (2, True), (4, False), (4, True)]
        assert [j.job_id for j in jobs] == [f"x-{i:04d}" for i in range(4)]

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ValueError, match="unknown override key"):
            CampaignSpec(name="x", grid=[("nranks", [2])])
        with pytest.raises(ValueError, match="unknown override key"):
            CampaignSpec(name="x", runs=[{"cfg.nranks": 2}])

    def test_unknown_field_rejected_at_expand(self):
        campaign = CampaignSpec(name="x", base_spec=TINY,
                                grid=[("config.nrankz", [2])])
        with pytest.raises(ValueError, match="nrankz"):
            campaign.expand()

    def test_empty_grid_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            CampaignSpec(name="x", grid=[("config.nranks", [])])

    def test_file_roundtrip_preserves_identity(self, tmp_path):
        campaign = tiny_campaign()
        path = str(tmp_path / "campaign.json")
        campaign.to_file(path)
        loaded = CampaignSpec.from_file(path)
        assert loaded.fingerprint == campaign.fingerprint
        assert [j.fingerprint for j in loaded.expand()] == \
            [j.fingerprint for j in campaign.expand()]

    def test_retired_config_field_at_its_value_loads(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps({"name": "x", "base": {"config": {
            "nranks": 4, "collect_mpi_trace": False}}}))
        loaded = CampaignSpec.from_file(str(path))
        assert loaded.base_config == RunConfig(nranks=4)
        assert loaded.expand()[0].fingerprint == \
            job_fingerprint(RunConfig(nranks=4), WorkloadSpec())

    def test_retired_config_field_set_is_rejected(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps({"name": "x", "base": {"config": {
            "collect_mpi_trace": True}}}))
        with pytest.raises(ValueError,
                           match="'collect_mpi_trace' was retired"):
            CampaignSpec.from_file(str(path))

    def test_with_spec_overrides(self):
        campaign = tiny_campaign()
        smaller = campaign.with_spec_overrides(n_steps=1)
        assert smaller.base_spec.n_steps == 1
        assert smaller.fingerprint != campaign.fingerprint

    def test_strategy_strings_become_enums(self):
        campaign = CampaignSpec(
            name="x", base_spec=TINY,
            runs=[{"config.assembly_strategy": "coloring"}])
        job = campaign.expand()[0]
        assert job.config.assembly_strategy.value == "coloring"


class TestResultStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        job = tiny_campaign().expand()[0]
        record = run_job(job)
        store.put(record)
        assert job.fingerprint in store
        assert store.get(job.fingerprint) == record
        assert len(store) == 1
        assert store.digest_map() == \
            {job.fingerprint: record["simulated_digest"]}

    def test_get_miss_returns_none(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        assert store.get("0" * 64) is None

    def test_record_without_fingerprint_rejected(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        with pytest.raises(StoreError, match="no fingerprint"):
            store.put({"simulated_digest": "x"})
        with pytest.raises(StoreError, match="no simulated_digest"):
            store.put({"fingerprint": "0" * 64})

    def test_corrupt_object_raises(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        fp = "ab" + "0" * 62
        path = store._path(fp)
        os.makedirs(os.path.dirname(path))
        with open(path, "w") as fh:
            fh.write("{not json")
        with pytest.raises(StoreError, match="corrupt"):
            store.get(fp)

    def test_fingerprint_mismatch_raises(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        fp = "cd" + "0" * 62
        path = store._path(fp)
        os.makedirs(os.path.dirname(path))
        with open(path, "w") as fh:
            json.dump({"fingerprint": "0" * 64, "simulated_digest": "x"}, fh)
        with pytest.raises(StoreError, match="claims fingerprint"):
            store.get(fp)


class TestStoreRecovery:
    def test_orphaned_temp_files_swept_at_open(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put({"fingerprint": "a" * 64, "simulated_digest": "d"})
        # a crash mid-put leaves a temp file next to the objects
        shard = os.path.join(store.objects_dir, "aa")
        with open(os.path.join(shard, ".tmp-dead.json"), "w") as fh:
            fh.write('{"half": ')
        os.makedirs(store.quarantine_dir, exist_ok=True)
        with open(os.path.join(store.quarantine_dir,
                               ".tmp-dead2.json"), "w") as fh:
            fh.write("{")
        reopened = ResultStore(str(tmp_path))
        assert reopened.orphans_removed == 2
        assert reopened.stats()["orphans_removed"] == 2
        assert not [n for n in os.listdir(shard) if n.startswith(".tmp-")]
        assert reopened.get("a" * 64)["simulated_digest"] == "d"

    def test_clean_store_sweeps_nothing(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put({"fingerprint": "a" * 64, "simulated_digest": "d"})
        assert ResultStore(str(tmp_path)).orphans_removed == 0

    def test_quarantine_roundtrip(self, tmp_path):
        store = ResultStore(str(tmp_path))
        assert store.quarantined() == []
        record = {"fingerprint": "b" * 64, "job_id": "t-0001",
                  "failure_class": "worker_crash", "attempts": 3}
        store.quarantine_put(record)
        (parked,) = store.quarantined()
        assert parked["job_id"] == "t-0001"
        assert store.stats()["quarantined"] == 1
        assert store.clear_quarantine("b" * 64)
        assert store.quarantined() == []
        assert not store.clear_quarantine("b" * 64)  # already gone

    def test_quarantine_requires_fingerprint(self, tmp_path):
        with pytest.raises(StoreError):
            ResultStore(str(tmp_path)).quarantine_put({"job_id": "x"})

    def test_quarantine_outside_identity_surface(self, tmp_path):
        import hashlib

        def objects_digest(store):
            h = hashlib.sha256()
            for dirpath, dirnames, filenames in \
                    sorted(os.walk(store.objects_dir)):
                dirnames.sort()
                for name in sorted(filenames):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(
                        path, store.objects_dir).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
            return h.hexdigest()

        store = ResultStore(str(tmp_path))
        store.put({"fingerprint": "a" * 64, "simulated_digest": "d"})
        before = objects_digest(store)
        store.quarantine_put({"fingerprint": "b" * 64, "job_id": "x"})
        assert objects_digest(store) == before


class TestJournal:
    def test_replay_roundtrip(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with Journal(path) as journal:
            journal.append("campaign_begin", campaign="t",
                           campaign_fingerprint="f" * 64, njobs=2)
            journal.append("job_done", fingerprint="a" * 64, job_id="t-0000",
                           digest="d1")
            journal.append("job_cached", fingerprint="b" * 64,
                           job_id="t-0001")
            journal.append("campaign_end", executed=1, cached=1, failed=0)
        state = replay(path)
        assert state.campaign == "t"
        assert state.finished and not state.killed and not state.truncated
        assert state.done == {"a" * 64: "d1"}
        assert state.cached == {"b" * 64}
        assert state.completed == 2

    def test_later_begin_supersedes(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with Journal(path) as journal:
            journal.append("campaign_begin", campaign="t", njobs=2)
            journal.append("job_done", fingerprint="a" * 64, digest="d1")
            journal.append("campaign_killed", reason="kill", completed=1)
            journal.append("campaign_begin", campaign="t", njobs=2)
            journal.append("job_cached", fingerprint="a" * 64)
            journal.append("job_done", fingerprint="b" * 64, digest="d2")
            journal.append("campaign_end", executed=1, cached=1, failed=0)
        state = replay(path)
        assert state.finished and not state.killed
        assert state.cached == {"a" * 64}
        assert state.done == {"b" * 64: "d2"}

    def test_torn_trailing_line_tolerated(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with Journal(path) as journal:
            journal.append("campaign_begin", campaign="t", njobs=2)
            journal.append("job_done", fingerprint="a" * 64, digest="d1")
        with open(path, "a") as fh:
            fh.write('{"seq": 2, "event": "job_do')  # crash mid-append
        state = replay(path)
        assert state.truncated
        assert state.done == {"a" * 64: "d1"}

    def test_seq_continues_across_reopen(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with Journal(path) as journal:
            journal.append("campaign_begin", campaign="t", njobs=1)
        with Journal(path) as journal:
            journal.append("campaign_end", executed=0, cached=0, failed=0)
        seqs = [e["seq"] for e in replay(path).events]
        assert seqs == [0, 1]

    def test_missing_journal_is_empty_state(self, tmp_path):
        state = replay(str(tmp_path / "nope.jsonl"))
        assert not state.began and state.completed == 0

    def test_lease_lifecycle_replay(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with Journal(path) as journal:
            journal.append("campaign_begin", campaign="t", njobs=2)
            journal.append("worker_spawned", worker="w0")
            journal.append("lease_granted", fingerprint="a" * 64,
                           job_id="t-0000", worker="w0", attempt=1,
                           duration=2.0)
            journal.append("lease_renewed", fingerprint="a" * 64,
                           worker="w0", renewals=1)
            journal.append("lease_expired", fingerprint="a" * 64,
                           job_id="t-0000", worker="w0",
                           reason="heartbeat_timeout", renewals=1)
            journal.append("lease_granted", fingerprint="a" * 64,
                           job_id="t-0000", worker="w1", attempt=2,
                           duration=2.0)
            journal.append("job_done", fingerprint="a" * 64,
                           job_id="t-0000", digest="d1")
        state = replay(path)
        assert state.worker_spawns == 1
        assert state.lease_grants == 2
        assert state.lease_renewals == 1
        assert state.lease_expiries == 1
        assert state.dangling_leases == {}  # the regrant resolved as done
        assert state.summary()["dangling_leases"] == 0

    def test_dangling_lease_flagged(self, tmp_path):
        # the driver died with a job in flight: granted, never resolved
        path = str(tmp_path / "journal.jsonl")
        with Journal(path) as journal:
            journal.append("campaign_begin", campaign="t", njobs=1)
            journal.append("lease_granted", fingerprint="a" * 64,
                           job_id="t-0000", worker="w0", attempt=1,
                           duration=2.0)
        state = replay(path)
        assert state.dangling_leases == {"a" * 64: "w0"}
        assert state.in_progress

    def test_quarantine_resolves_a_lease(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with Journal(path) as journal:
            journal.append("campaign_begin", campaign="t", njobs=1)
            journal.append("lease_granted", fingerprint="a" * 64,
                           job_id="t-0000", worker="w0", attempt=3,
                           duration=2.0)
            journal.append("job_quarantined", fingerprint="a" * 64,
                           job_id="t-0000", failure_class="worker_crash",
                           error="poison", attempts=3, worker_losses=3)
            journal.append("campaign_end", executed=0, cached=0, failed=0,
                           quarantined=1)
        state = replay(path)
        assert state.quarantined == {"a" * 64: "worker_crash"}
        assert state.dangling_leases == {}
        assert state.finished


class TestFailureTaxonomy:
    def test_classification(self):
        assert classify_failure(JobKilledError("x", 0.0)) == "simulated_kill"
        assert classify_failure(RankDeadError("dead")) == "fault"
        assert classify_failure(MPIError("x")) == "fault"
        assert classify_failure(CheckpointError("x")) == "config"
        assert classify_failure(ValueError("x")) == "config"
        assert classify_failure(OSError("x")) == "transient"
        assert classify_failure(TimeoutError("x")) == "transient"
        assert classify_failure(RuntimeError("x")) == "unknown"

    def test_chained_cause_is_traced(self):
        # raise X from Y: a transient root cause wrapped in a generic
        # error must still classify as transient (and thus retry)
        try:
            try:
                raise OSError("pipe broke")
            except OSError as inner:
                raise RuntimeError("job harness failed") from inner
        except RuntimeError as exc:
            chained = exc
        assert classify_failure(chained) == "transient"

    def test_implicit_context_is_traced(self):
        # raise during except: __context__ (no explicit "from")
        try:
            try:
                raise JobKilledError("kill", 0.0)
            except JobKilledError:
                raise RuntimeError("cleanup failed")
        except RuntimeError as exc:
            chained = exc
        assert classify_failure(chained) == "simulated_kill"

    def test_direct_label_wins_over_the_chain(self):
        # the outermost classifiable exception decides; the chain is only
        # consulted for otherwise-unknown wrappers
        try:
            try:
                raise OSError("transient root")
            except OSError as inner:
                raise ValueError("bad config") from inner
        except ValueError as exc:
            chained = exc
        assert classify_failure(chained) == "config"

    def test_unknown_chain_stays_unknown(self):
        try:
            try:
                raise RuntimeError("inner mystery")
            except RuntimeError as inner:
                raise RuntimeError("outer mystery") from inner
        except RuntimeError as exc:
            chained = exc
        assert classify_failure(chained) == "unknown"

    def test_base_exceptions_classify_as_interrupted(self):
        assert classify_failure(KeyboardInterrupt()) == "interrupted"
        assert classify_failure(SystemExit(1)) == "interrupted"
        assert classify_failure(GeneratorExit()) == "interrupted"

    def test_job_level_kill_fails_without_retry(self):
        campaign = CampaignSpec(
            name="killed-cell",
            base_config=RunConfig(cluster="thunder", num_nodes=1, nranks=2,
                                  threads_per_rank=1, checkpoint_every=0),
            base_spec=TINY,
            runs=[{"fault_plan": {
                "seed": 0,
                "specs": [{"kind": "job_kill", "time": 1e-4}]}}])
        run = run_campaign(campaign)
        (outcome,) = run.outcomes
        assert outcome.status == "failed"
        assert outcome.failure_class == "simulated_kill"
        assert outcome.attempts == 1  # deterministic: no retry
        assert not run.ok

    def test_transient_failure_retries(self, monkeypatch):
        import repro.campaign.executor as executor

        real_run_job = executor.run_job
        calls = {"n": 0}

        def flaky(job):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("worker lost")
            return real_run_job(job)

        monkeypatch.setattr(executor, "run_job", flaky)
        campaign = CampaignSpec(
            name="flaky",
            base_config=RunConfig(cluster="thunder", num_nodes=1, nranks=2,
                                  threads_per_rank=1),
            base_spec=TINY)
        run = run_campaign(campaign, backoff_base=0.0)
        (outcome,) = run.outcomes
        assert outcome.status == "done"
        assert outcome.attempts == 2
        assert calls["n"] == 2

    def test_transient_failure_exhausts_retries(self, monkeypatch):
        import repro.campaign.executor as executor

        def always_down(job):
            raise OSError("worker lost")

        monkeypatch.setattr(executor, "run_job", always_down)
        campaign = CampaignSpec(
            name="down",
            base_config=RunConfig(cluster="thunder", num_nodes=1, nranks=2,
                                  threads_per_rank=1),
            base_spec=TINY)
        run = run_campaign(campaign, max_retries=1, backoff_base=0.0)
        (outcome,) = run.outcomes
        assert outcome.status == "failed"
        assert outcome.failure_class == "transient"
        assert outcome.attempts == 2


class TestMemoization:
    def test_rerun_is_pure_cache_hit(self, tmp_path):
        campaign = tiny_campaign()
        store = ResultStore(str(tmp_path / "store"))
        first = run_campaign(campaign, store=store)
        assert first.executed == 4 and first.cached == 0
        again = run_campaign(campaign, store=store)
        assert again.executed == 0 and again.cached == 4
        assert again.digest_map() == first.digest_map()

    def test_overlapping_campaigns_share_cells(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        run_campaign(tiny_campaign("one"), store=store)
        other = run_campaign(tiny_campaign("two"), store=store)
        assert other.executed == 0 and other.cached == 4

    def test_duplicate_cells_share_one_outcome(self, tmp_path):
        campaign = CampaignSpec(
            name="dup",
            base_config=RunConfig(cluster="thunder", num_nodes=1, nranks=2,
                                  threads_per_rank=1),
            base_spec=TINY,
            runs=[{"tags.copy": "a"}, {"tags.copy": "b"}])
        store = ResultStore(str(tmp_path / "store"))
        run = run_campaign(campaign, store=store)
        assert len(run.outcomes) == 2
        assert run.outcomes[0] is run.outcomes[1]  # one simulation, shared
        assert len(store) == 1

    def test_store_objects_bit_identical_across_runs(self, tmp_path):
        campaign = tiny_campaign()
        store_a = ResultStore(str(tmp_path / "a"))
        store_b = ResultStore(str(tmp_path / "b"))
        run_campaign(campaign, store=store_a)
        run_campaign(campaign, store=store_b)
        assert cross_run_identity(store_a, store_b)["identical"]
        assert tree_digest(store_a) == tree_digest(store_b)


class TestWorkerPool:
    def test_pool_matches_serial_bit_for_bit(self, tmp_path):
        campaign = tiny_campaign()
        serial = ResultStore(str(tmp_path / "serial"))
        pooled = ResultStore(str(tmp_path / "pooled"))
        run_campaign(campaign, store=serial)
        run = run_campaign(campaign, store=pooled, workers=2)
        assert run.executed == 4 and run.ok
        assert cross_run_identity(serial, pooled)["identical"]
        assert tree_digest(serial) == tree_digest(pooled)

    def test_extended_sweep_matches_fresh_serial_runs(self, tmp_path):
        """A breathing sweep extended by a diameter in a second pooled run
        on the same store, as the benchmark's campaign passes do: the new
        cells reuse the flow stage the parent warmed for the first run,
        and every digest equals a serial run over a fresh ``Workload``
        (no state leaks through a shared stage)."""
        from repro.app import Workload, run_cfpd
        from repro.campaign.runner import simulated_digest

        def sweep(diameters):
            return CampaignSpec(
                name="breathing",
                base_config=RunConfig(cluster="thunder", num_nodes=1,
                                      nranks=4, threads_per_rank=1),
                base_spec=WorkloadSpec(generations=2, points_per_ring=6,
                                       n_steps=4, inlet_waveform="ventilator",
                                       injection_phase="inhale"),
                grid=[("spec.particle_diameter", diameters),
                      ("config.dlb", [False, True])])
        store = ResultStore(str(tmp_path / "store"))
        first = run_campaign(sweep([4e-6]), store=store, workers=2)
        second = run_campaign(sweep([4e-6, 5.5e-6]), store=store, workers=2)
        assert first.executed == 2 and first.ok
        assert second.executed == 2 and second.cached == 2 and second.ok
        for job in sweep([4e-6, 5.5e-6]).expand():
            fresh = run_cfpd(job.config, workload=Workload(job.spec))
            assert store.get(job.fingerprint)["simulated_digest"] == \
                simulated_digest(fresh), job.label()

    @pytest.mark.parametrize("config", [
        RunConfig(cluster="thunder", num_nodes=1, nranks=4,
                  threads_per_rank=2),
        RunConfig(cluster="thunder", num_nodes=1, nranks=4, mode="coupled",
                  fluid_ranks=3, dlb=True)], ids=["sync", "coupled"])
    def test_warmed_job_builds_no_decomposition_or_graph(self, config,
                                                         monkeypatch):
        """After ``warm_workload(spec, config)`` a run of that job only
        looks up the decomposition and the task graphs the warm built, and
        its digest equals a run over a fresh ``Workload``."""
        import repro.app.driver as driver
        import repro.app.workload as workload
        from repro.app import Workload, get_workload, run_cfpd
        from repro.campaign.runner import simulated_digest, warm_workload

        spec = dataclasses.replace(TINY, mesh_seed=4242)  # a mesh of its own
        fresh = simulated_digest(run_cfpd(config, workload=Workload(spec)))
        warm_workload(spec, config)

        def refuse(*args, **kwargs):
            raise AssertionError("built after the warm")
        monkeypatch.setattr(driver, "build_element_loop_graph", refuse)
        monkeypatch.setattr(driver, "build_parallel_for_graph", refuse)
        monkeypatch.setattr(workload, "decompose_mesh", refuse)
        warmed = run_cfpd(config, workload=get_workload(spec))
        assert simulated_digest(warmed) == fresh

    def test_warm_leaves_a_rejected_config_to_its_job(self):
        """A configuration the run rejects does not stop the prefork: the
        job reports the error itself."""
        from repro.campaign.runner import warm_workload

        config = RunConfig(cluster="thunder", num_nodes=1, nranks=1000)
        warm_workload(TINY, config)
        with pytest.raises(ValueError, match="exceed the"):
            run_job(Job(index=0, campaign="reject", config=config,
                        spec=TINY))

    def test_prefork_warms_specs_in_first_appearance_order(self,
                                                           monkeypatch):
        """The parent warms each pending job's (spec, config) pair once, in
        campaign order — never in set order, which follows the string hash
        seed."""
        import repro.campaign.executor as executor
        import repro.campaign.supervisor as supervisor

        class NoPool:
            stats: dict = {}

            def __init__(self, *args, **kwargs):
                pass

            def run(self):
                pass

        warmed = []
        monkeypatch.setattr(executor, "warm_workload",
                            lambda spec, config: warmed.append((spec, config)))
        monkeypatch.setattr(supervisor, "Supervisor", NoPool)
        campaign = CampaignSpec(
            name="order",
            base_config=RunConfig(cluster="thunder", num_nodes=1, nranks=2,
                                  threads_per_rank=1),
            base_spec=TINY,
            grid=[("spec.particle_diameter",
                   [6e-6, 4e-6, 5e-6, 7e-6, 4.5e-6, 5.5e-6]),
                  ("config.dlb", [False, True])])
        run_campaign(campaign, workers=2)
        assert warmed == list(dict.fromkeys(
            (job.spec, job.config) for job in campaign.expand()))
        assert len(warmed) == 12


class TestKillAndResume:
    def test_kill_gate_journals_and_raises(self, tmp_path):
        campaign = tiny_campaign()
        store = ResultStore(str(tmp_path / "store"))
        with pytest.raises(JobKilledError, match="after 2 completed"):
            run_campaign(campaign, store=store, kill_plan=KILL2)
        state = replay(os.path.join(store.root, "journal.jsonl"))
        assert state.killed and not state.finished
        assert len(state.done) == 2
        # crash-safety contract: everything journaled done is in the store
        assert len(store) == 2
        for fp, digest in state.done.items():
            assert store.get(fp)["simulated_digest"] == digest

    def test_resume_after_kill_bit_identical(self, tmp_path):
        campaign = tiny_campaign()
        uninterrupted = ResultStore(str(tmp_path / "uninterrupted"))
        run_campaign(campaign, store=uninterrupted)

        interrupted = ResultStore(str(tmp_path / "interrupted"))
        with pytest.raises(JobKilledError):
            run_campaign(campaign, store=interrupted, kill_plan=KILL2)
        resumed = run_campaign(campaign, store=interrupted)
        assert resumed.cached == 2 and resumed.executed == 2

        assert cross_run_identity(uninterrupted, interrupted)["identical"]
        assert tree_digest(uninterrupted) == tree_digest(interrupted)
        state = replay(os.path.join(interrupted.root, "journal.jsonl"))
        assert state.finished and not state.killed

    def test_cached_cells_do_not_trip_the_kill_gate(self, tmp_path):
        campaign = tiny_campaign()
        store = ResultStore(str(tmp_path / "store"))
        run_campaign(campaign, store=store)
        # every cell cached: the gate counts executed completions only
        run = run_campaign(campaign, store=store, kill_plan=KILL2)
        assert run.cached == 4


class TestAggregation:
    def test_report_rows_and_summary(self, tmp_path):
        campaign = tiny_campaign()
        store = ResultStore(str(tmp_path / "store"))
        run_campaign(campaign, store=store)
        report = build_report(campaign, store)
        assert len(report.rows) == 4 and not report.pending
        assert report.summary["completed"] == 4
        assert 0 < report.summary["mean_parallel_efficiency"] <= 1
        assert report.summary["fastest"]["total_time"] <= \
            report.summary["slowest"]["total_time"]
        text = report.format()
        assert "Campaign 'tiny'" in text and "4/4 cells complete" in text

    def test_report_flags_pending_cells(self, tmp_path):
        campaign = tiny_campaign()
        store = ResultStore(str(tmp_path / "store"))
        with pytest.raises(JobKilledError):
            run_campaign(campaign, store=store, kill_plan=KILL2)
        report = build_report(campaign, store)
        assert len(report.rows) == 2 and len(report.pending) == 2
        assert "pending: 2" in report.format()

    def test_report_from_run_without_store(self):
        campaign = tiny_campaign()
        run = run_campaign(campaign)
        report = build_report(campaign, store=None, run=run)
        assert len(report.rows) == 4


class TestFigureCampaigns:
    def test_hybrid_sweep_shape(self):
        campaign = hybrid_sweep_campaign(spec=TINY, totals={"thunder": 8})
        jobs = campaign.expand()
        # 1 MPI baseline + 3 strategies x 3 thread counts
        assert len(jobs) == 10
        baseline = jobs[0]
        assert baseline.tag("role") == "baseline"
        assert baseline.config.nranks == 8
        for job in jobs[1:]:
            threads = int(job.tag("threads"))
            assert job.config.nranks * threads == 8

    def test_fig6_and_fig7_memoize_each_other(self):
        fig6 = get_campaign("fig6", TINY)
        fig7 = get_campaign("fig7", TINY)
        assert fig6.name != fig7.name
        assert {j.fingerprint for j in fig6.expand()} == \
            {j.fingerprint for j in fig7.expand()}

    def test_dlb_figure_shape(self):
        campaign = dlb_figure_campaign("thunder", spec=TINY, total=8,
                                       splits=(4, 6))
        jobs = campaign.expand()
        # (sync + 2 splits) x (dlb off, on)
        assert len(jobs) == 6
        assert {j.config.dlb for j in jobs} == {False, True}
        assert jobs[0].config.mode == "sync"
        assert jobs[2].config.mode == "coupled"
        assert jobs[2].config.fluid_ranks == 4

    def test_ci_smoke_campaign_is_four_jobs(self):
        assert len(ci_smoke_campaign().expand()) == 4

    def test_unknown_builtin_rejected(self):
        with pytest.raises(KeyError, match="unknown campaign"):
            get_campaign("fig99")


class TestJobRecord:
    def test_record_shape_and_determinism(self):
        job = tiny_campaign().expand()[3]  # nranks=4, dlb=True
        record = run_job(job)
        assert record["schema"] == "repro-campaign-job-v1"
        assert record["fingerprint"] == job.fingerprint
        assert record["metrics"]["total_time"] > 0
        assert set(record["metrics"]["pop"]) == {
            "load_balance", "communication_efficiency",
            "parallel_efficiency"}
        assert "assembly" in record["metrics"]["phase_elapsed"]
        assert "dlb" in record["metrics"]  # dlb=True cell
        assert run_job(job) == record  # bit-stable
        canonical_json(record)  # JSON-able without loss

    def test_record_has_no_wall_clock_material(self):
        record = run_job(tiny_campaign().expand()[0])
        text = canonical_json(record)
        assert "ts" not in json.loads(text)
        assert "wall" not in text


class TestDoctor:
    def _healthy_store(self, tmp_path):
        root = str(tmp_path / "store")
        run_campaign(tiny_campaign(), ResultStore(root))
        return root

    def test_clean_store_is_clean(self, tmp_path):
        root = self._healthy_store(tmp_path)
        report = diagnose(root)
        assert report.ok
        assert report.objects_checked == 4
        assert report.journal_events > 0
        assert report.summary()["problems"] == []
        assert "verdict: clean" in report.format()

    def test_corrupt_object_is_damage(self, tmp_path):
        root = self._healthy_store(tmp_path)
        store = ResultStore(root)
        fp = next(store.fingerprints())
        with open(store._path(fp), "w") as fh:
            fh.write("{ not json")
        report = diagnose(root)
        assert not report.ok
        assert any("corrupt" in p for p in report.problems)

    def test_fingerprint_mismatch_is_damage(self, tmp_path):
        root = self._healthy_store(tmp_path)
        store = ResultStore(root)
        fps = list(store.fingerprints())
        # object claims a different identity than its address
        record = store.get(fps[0])
        record["fingerprint"] = fps[1]
        with open(store._path(fps[0]), "w") as fh:
            fh.write(canonical_json(record))
        report = diagnose(root)
        assert not report.ok
        assert any("claims fingerprint" in p for p in report.problems)

    def test_done_but_missing_object_is_damage(self, tmp_path):
        root = self._healthy_store(tmp_path)
        store = ResultStore(root)
        fp = next(store.fingerprints())
        os.unlink(store._path(fp))
        report = diagnose(root)
        assert not report.ok
        assert any("store has no object" in p for p in report.problems)

    def test_torn_tail_and_dangling_lease_are_damage(self, tmp_path):
        root = self._healthy_store(tmp_path)
        journal = os.path.join(root, "journal.jsonl")
        with Journal(journal) as jr:
            jr.append("lease_granted", fingerprint="e" * 64,
                      job_id="t-0009", worker="w9", attempt=1,
                      duration=2.0)
        with open(journal, "a") as fh:
            fh.write('{"seq": 99, "event": "job_')
        report = diagnose(root)
        assert not report.ok
        assert any("torn journal tail" in p for p in report.problems)
        assert any("dangling lease" in p for p in report.problems)

    def test_orphan_sweep_reported_as_repair(self, tmp_path):
        root = self._healthy_store(tmp_path)
        store = ResultStore(root)
        shard = os.path.dirname(store._path(next(store.fingerprints())))
        with open(os.path.join(shard, ".tmp-crash.json"), "w") as fh:
            fh.write("{")
        report = diagnose(root)
        assert report.ok  # a repair, not damage
        assert any("orphaned temp" in r for r in report.repairs)

    def test_quarantined_cells_are_notes_not_damage(self, tmp_path):
        root = self._healthy_store(tmp_path)
        ResultStore(root).quarantine_put(
            {"fingerprint": "c" * 64, "job_id": "t-0042",
             "failure_class": "worker_crash", "attempts": 3})
        report = diagnose(root)
        assert report.ok
        assert any("quarantined cell" in n for n in report.notes)

    def test_store_without_journal_is_notes_only(self, tmp_path):
        store = ResultStore(str(tmp_path / "bare"))
        record = run_job(tiny_campaign().expand()[0])
        store.put(record)
        report = diagnose(store.root)
        assert report.ok
        assert any("no campaign journal" in n for n in report.notes)
