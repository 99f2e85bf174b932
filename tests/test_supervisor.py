"""Chaos tests for the supervised campaign executor.

The contracts under test, straight from the supervision design:

* **crash consistency** — ``kill -9`` of any pool worker at any moment
  (injected deterministically through the orchestration fault kinds)
  still yields a final store bit-identical to an undisturbed run;
* **liveness** — silent workers (no heartbeats) and wedged workers
  (heartbeats forever, no result) are detected and their jobs reclaimed;
* **poison quarantine** — a job that repeatedly crashes its workers is
  parked with its failure taxonomy instead of failing the campaign, every
  other cell still executes, and the report says so;
* **virtual time** — retry backoff reads the injected clock, so these
  tests spend no real wall seconds backing off.
"""

import dataclasses
import hashlib
import os

import pytest

from repro.app import RunConfig, WorkloadSpec
from repro.campaign import (
    CampaignSpec,
    ResultStore,
    SupervisorConfig,
    VirtualClock,
    build_report,
    cross_run_identity,
    replay,
    run_campaign,
)
from repro.fault import FaultPlan, FaultSpec

TINY = WorkloadSpec(generations=2, points_per_ring=6, n_steps=2)

#: Tight liveness windows so loss detection takes tenths of a second of
#: real time, not the production-scale defaults.
FAST = SupervisorConfig(heartbeat_interval=0.05, heartbeat_timeout=0.5,
                        lease_duration=0.25, poll_interval=0.02)


def tiny_campaign(name="chaos"):
    return CampaignSpec(
        name=name,
        base_config=RunConfig(cluster="thunder", num_nodes=1,
                              threads_per_rank=1),
        base_spec=TINY,
        grid=[("config.nranks", [2, 4]),
              ("config.dlb", [False, True])])


def tree_digest(store):
    """SHA-256 over every object file's relative path and bytes — the
    bit-identity surface (quarantine/journal live outside it)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(store.objects_dir)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, store.objects_dir).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def chaos_plan(kind, *grants):
    return FaultPlan(specs=tuple(
        FaultSpec(kind=kind, time=0.0, count=g) for g in grants))


def journal_events(store_root, event):
    state = replay(os.path.join(store_root, "journal.jsonl"))
    return [e for e in state.events if e["event"] == event]


class TestCrashConsistency:
    def test_sigkill_mid_flight_store_bit_identical(self, tmp_path):
        campaign = tiny_campaign()
        calm = ResultStore(str(tmp_path / "calm"))
        run_campaign(campaign, calm, workers=2, supervision=FAST)

        chaos = ResultStore(str(tmp_path / "chaos"))
        run = run_campaign(campaign, chaos, workers=2, supervision=FAST,
                           backoff_base=0.0,
                           kill_plan=chaos_plan("worker_kill", 2))
        assert run.ok and run.executed == 4
        assert run.supervision["worker_losses"] == 1
        assert run.supervision["lease_expiries"] == 1
        assert tree_digest(chaos) == tree_digest(calm)
        assert cross_run_identity(calm, chaos)["identical"]

    def test_every_grant_killed_once_still_converges(self, tmp_path):
        # kill the holder of each of the first four leases: every job's
        # first execution dies, every job is reclaimed and re-run
        campaign = tiny_campaign()
        calm = ResultStore(str(tmp_path / "calm"))
        run_campaign(campaign, calm, workers=2, supervision=FAST)

        chaos = ResultStore(str(tmp_path / "chaos"))
        run = run_campaign(campaign, chaos, workers=2, supervision=FAST,
                           backoff_base=0.0,
                           kill_plan=chaos_plan("worker_kill", 1, 2, 3, 4))
        assert run.ok and run.executed == 4
        assert run.supervision["worker_losses"] == 4
        assert tree_digest(chaos) == tree_digest(calm)

    def test_kill_journals_the_lease_lifecycle(self, tmp_path):
        root = str(tmp_path / "chaos")
        run_campaign(tiny_campaign(), ResultStore(root), workers=2,
                     supervision=FAST, backoff_base=0.0,
                     kill_plan=chaos_plan("worker_kill", 1))
        expired = journal_events(root, "lease_expired")
        assert len(expired) == 1
        assert expired[0]["reason"] == "worker_death"
        retries = journal_events(root, "job_retry")
        assert retries and retries[0]["failure_class"] == "worker_crash"
        state = replay(os.path.join(root, "journal.jsonl"))
        assert state.finished and not state.dangling_leases
        assert state.lease_grants == 5 and state.lease_expiries == 1

    def test_killed_grantee_never_finishes_its_job(self, tmp_path,
                                                   monkeypatch):
        """The chaos kill lands before the job reaches the worker, so a job
        that runs faster than the supervisor's next step cannot finish and
        skip the crash."""
        import time

        from repro.campaign import supervisor

        class SlowLease(supervisor._Lease):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                time.sleep(0.3)  # the supervisor stalls mid-grant

        monkeypatch.setattr(supervisor, "_Lease", SlowLease)
        # liveness windows far beyond the stall: only a death loses a lease
        cfg = dataclasses.replace(FAST, heartbeat_timeout=30.0,
                                  lease_duration=30.0)
        root = str(tmp_path / "chaos")
        run = run_campaign(tiny_campaign(), ResultStore(root), workers=1,
                           supervision=cfg, backoff_base=0.0,
                           kill_plan=chaos_plan("worker_kill", 1))
        assert run.ok and run.executed == 4
        assert run.supervision["worker_losses"] == 1
        assert [e["reason"] for e in journal_events(root, "lease_expired")] \
            == ["worker_death"]


class TestLiveness:
    def test_silent_worker_detected_by_heartbeat_loss(self, tmp_path):
        campaign = tiny_campaign()
        calm = ResultStore(str(tmp_path / "calm"))
        run_campaign(campaign, calm, workers=2, supervision=FAST)

        root = str(tmp_path / "chaos")
        run = run_campaign(campaign, ResultStore(root), workers=2,
                           supervision=FAST, backoff_base=0.0,
                           kill_plan=chaos_plan("heartbeat_loss", 1))
        assert run.ok and run.executed == 4
        expired = journal_events(root, "lease_expired")
        assert [e["reason"] for e in expired] == ["heartbeat_timeout"]
        assert tree_digest(ResultStore(root)) == tree_digest(calm)

    def test_wedged_worker_exhausts_renewal_budget(self, tmp_path):
        cfg = dataclasses.replace(FAST, max_lease_renewals=2)
        root = str(tmp_path / "chaos")
        run = run_campaign(tiny_campaign(), ResultStore(root), workers=2,
                           supervision=cfg, backoff_base=0.0,
                           kill_plan=chaos_plan("worker_wedge", 1))
        assert run.ok and run.executed == 4
        expired = journal_events(root, "lease_expired")
        assert [e["reason"] for e in expired] == ["renewals_exhausted"]
        # the wedge heartbeated: its lease was renewed up to the budget
        assert run.supervision["lease_renewals"] >= 2
        assert run.supervision["heartbeats"] >= 2

    def test_job_timeout_reclaims_the_lease(self, tmp_path):
        # an unbounded renewal budget would let a wedge live forever;
        # job_timeout caps the lease lifetime regardless of heartbeats
        root = str(tmp_path / "chaos")
        run = run_campaign(tiny_campaign(), ResultStore(root), workers=2,
                           supervision=FAST, backoff_base=0.0,
                           job_timeout=1.0,
                           kill_plan=chaos_plan("worker_wedge", 1))
        assert run.ok and run.executed == 4
        reasons = {e["reason"]
                   for e in journal_events(root, "lease_expired")}
        assert reasons == {"job_timeout"}


class TestPoisonQuarantine:
    def test_repeated_crashes_quarantine_the_job(self, tmp_path):
        # with one worker the grant order is deterministic: grant 1 is
        # job A; after its worker dies A requeues behind B, C, D, so
        # grant 5 is A again — killing grants 1 and 5 crashes only A
        campaign = tiny_campaign()
        root = str(tmp_path / "store")
        cfg = dataclasses.replace(FAST, poison_attempts=2)
        run = run_campaign(campaign, ResultStore(root), workers=1,
                           supervision=cfg, backoff_base=0.0,
                           kill_plan=chaos_plan("worker_kill", 1, 5))
        assert not run.ok
        assert run.quarantined == 1 and run.executed == 3
        assert run.failed == 0
        assert run.supervision["quarantined"] == 1

        store = ResultStore(root)
        assert len(store) == 3           # every other cell completed
        parked = store.quarantined()
        assert len(parked) == 1
        assert parked[0]["failure_class"] == "worker_crash"
        assert parked[0]["worker_losses"] == 2

        state = replay(os.path.join(root, "journal.jsonl"))
        assert len(state.quarantined) == 1 and state.finished

    def test_quarantine_reported_as_degraded_completion(self, tmp_path):
        campaign = tiny_campaign()
        root = str(tmp_path / "store")
        cfg = dataclasses.replace(FAST, poison_attempts=2)
        run = run_campaign(campaign, ResultStore(root), workers=1,
                           supervision=cfg, backoff_base=0.0,
                           kill_plan=chaos_plan("worker_kill", 1, 5))
        report = build_report(campaign, ResultStore(root), run=run)
        assert len(report.degraded["quarantined"]) == 1
        text = report.format()
        assert "DEGRADED COMPLETION: 1 quarantined cell(s)" in text
        assert "worker_crash" in text
        assert "lease churn" in text

    def test_later_success_clears_the_quarantine(self, tmp_path):
        campaign = tiny_campaign()
        root = str(tmp_path / "store")
        cfg = dataclasses.replace(FAST, poison_attempts=2)
        run_campaign(campaign, ResultStore(root), workers=1,
                     supervision=cfg, backoff_base=0.0,
                     kill_plan=chaos_plan("worker_kill", 1, 5))
        assert len(ResultStore(root).quarantined()) == 1
        # no chaos this time: the parked cell executes and is un-parked
        rerun = run_campaign(campaign, ResultStore(root), workers=1,
                             supervision=FAST)
        assert rerun.ok and rerun.cached == 3 and rerun.executed == 1
        assert ResultStore(root).quarantined() == []

    def test_crashing_worker_process_quarantined(self, tmp_path,
                                                 monkeypatch):
        # not an injected fault: the job genuinely hard-kills whichever
        # worker runs it (os._exit skips all cleanup, like an OOM kill)
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork (workers inherit the monkeypatch)")
        campaign = tiny_campaign()
        poison_fp = campaign.expand()[0].fingerprint
        from repro.campaign import runner
        real_run_job = runner.run_job

        def exploding(job):
            if job.fingerprint == poison_fp:
                os._exit(17)
            return real_run_job(job)

        monkeypatch.setattr(runner, "run_job", exploding)
        cfg = dataclasses.replace(FAST, poison_attempts=2)
        root = str(tmp_path / "store")
        run = run_campaign(campaign, ResultStore(root), workers=2,
                           supervision=cfg, backoff_base=0.0)
        assert not run.ok
        assert run.quarantined == 1 and run.executed == 3
        parked = ResultStore(root).quarantined()
        assert [q["fingerprint"] for q in parked] == [poison_fp]


class TestVirtualTime:
    def test_serial_retry_backoff_spends_no_wall_time(self, monkeypatch):
        from repro.campaign import executor
        from repro.campaign.runner import run_job as real_run_job

        calls = {"n": 0}

        def flaky(job):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("transient worker hiccup")
            return real_run_job(job)

        monkeypatch.setattr(executor, "run_job", flaky)
        clock = VirtualClock()
        campaign = CampaignSpec(name="retry", base_config=RunConfig(),
                                base_spec=TINY,
                                grid=[("config.nranks", [2])])
        run = run_campaign(campaign, None, workers=0, clock=clock,
                           backoff_base=10.0)
        assert run.ok and run.executed == 1
        assert calls["n"] == 2
        # the 10 s backoff happened on the virtual clock, instantly
        assert clock.slept >= 1.0

    def test_supervised_retry_backoff_on_virtual_clock(self, tmp_path):
        clock = VirtualClock()
        root = str(tmp_path / "store")
        run = run_campaign(tiny_campaign(), ResultStore(root), workers=2,
                           supervision=FAST, clock=clock,
                           backoff_base=10.0,
                           kill_plan=chaos_plan("worker_kill", 1))
        assert run.ok and run.executed == 4
        assert run.supervision["retries"] == 1
        # backoff was charged to the virtual clock, not time.sleep
        assert run.supervision["backoff_total"] == pytest.approx(1.0)


class TestSupervisionStats:
    def test_undisturbed_run_reports_clean_counters(self, tmp_path):
        run = run_campaign(tiny_campaign(), ResultStore(str(tmp_path)),
                           workers=2, supervision=FAST)
        sup = run.supervision
        assert sup["lease_grants"] == 4
        assert sup["lease_expiries"] == 0
        assert sup["worker_losses"] == 0
        assert sup["quarantined"] == 0
        assert run.stats()["supervision"]["lease_grants"] == 4

    def test_worker_pool_still_bit_identical_to_serial(self, tmp_path):
        campaign = tiny_campaign()
        serial = ResultStore(str(tmp_path / "serial"))
        run_campaign(campaign, serial, workers=0)
        pooled = ResultStore(str(tmp_path / "pooled"))
        run_campaign(campaign, pooled, workers=3, supervision=FAST)
        assert tree_digest(serial) == tree_digest(pooled)
