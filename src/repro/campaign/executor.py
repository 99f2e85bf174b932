"""Concurrent, memoizing, crash-safe campaign execution.

``run_campaign`` drives a :class:`~repro.campaign.spec.CampaignSpec`
through the store/journal machinery:

* cells whose fingerprint is already in the store are **cache hits** —
  re-running an identical campaign performs zero new simulations;
* pending cells run either inline (``workers=0``, the deterministic serial
  path the figure runners use) or under the **supervised worker pool**
  (``workers=N`` — lease-based work claiming, heartbeat liveness and
  poison-job quarantine, see :mod:`repro.campaign.supervisor`);
* failures are classified against the :mod:`repro.fault` /
  :mod:`repro.smpi` failure taxonomy: only *transient* classes (worker
  crash, timeout) retry, with exponential backoff — a deterministic
  simulated kill or a config error would fail identically forever;
* every completion is published atomically to the store and journaled
  before the next job is scheduled, so a campaign killed mid-flight
  resumes exactly where it stopped.

All orchestration waiting (retry backoff, job timeouts, lease deadlines)
reads time through an injectable :class:`~repro.campaign.clock.Clock`, so
chaos and retry tests run in virtual time instead of sleeping real wall
seconds.

Campaign-level crash injection reuses the :class:`repro.fault.FaultPlan`
vocabulary: ``job_kill`` specs act at the *orchestration* level — the
campaign aborts with :class:`~repro.smpi.JobKilledError` after ``count``
completed jobs (power loss / wall-clock limit on the sweep driver), which
is exactly what the resume-after-kill test injects.  The orchestration
kinds (``worker_kill``, ``heartbeat_loss``, ``worker_wedge``) target
individual pool workers instead and are handled by the supervisor.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import (
    BrokenExecutor,
    TimeoutError as FutureTimeoutError,
)
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..fault import CheckpointError, FaultPlan
from ..smpi import JobKilledError, MPIError, RankDeadError
from .clock import Clock, WallClock
from .journal import Journal
from .runner import run_job, warm_workload
from .spec import CampaignSpec, Job
from .store import ResultStore
from .supervisor import SupervisorConfig

__all__ = ["CampaignRun", "JobOutcome", "QUARANTINE_SCHEMA",
           "classify_failure", "run_campaign"]

#: Exponential-backoff cap between retry attempts [s].
BACKOFF_CAP = 1.0

#: Schema tag of quarantine records parked in the store.
QUARANTINE_SCHEMA = "repro-campaign-quarantine-v1"


def classify_failure(exc: BaseException) -> str:
    """Map an exception onto the campaign failure taxonomy.

    ``transient``       — worker-process crash or timeout; a retry may
                          succeed (the simulation itself is deterministic,
                          the *execution environment* is not);
    ``simulated_kill``  — the job's own fault plan killed the simulated
                          run (:class:`JobKilledError`); deterministic, a
                          retry would die identically;
    ``config``          — invalid configuration or checkpoint mismatch;
    ``fault``           — a simulated MPI-level failure escaped (e.g. rank
                          death without fault tolerance); deterministic;
    ``interrupted``     — a non-``Exception`` :class:`BaseException`
                          (``KeyboardInterrupt``, ``SystemExit``):
                          somebody *asked* the job to stop — never retried.

    A directly-unclassifiable exception is traced through its ``__cause__``
    / ``__context__`` chain (``raise X from Y``), so a transient root cause
    wrapped in a generic error still retries.
    """
    label = _classify_one(exc)
    if label != "unknown":
        return label
    seen = {id(exc)}
    cause = exc.__cause__ if exc.__cause__ is not None else exc.__context__
    while cause is not None and id(cause) not in seen:
        seen.add(id(cause))
        label = _classify_one(cause)
        if label != "unknown":
            return label
        cause = cause.__cause__ if cause.__cause__ is not None \
            else cause.__context__
    return "unknown"


def _classify_one(exc: BaseException) -> str:
    if isinstance(exc, JobKilledError):
        return "simulated_kill"
    if isinstance(exc, (RankDeadError, MPIError)):
        return "fault"
    if isinstance(exc, (CheckpointError, ValueError, TypeError, KeyError)):
        return "config"
    if isinstance(exc, (BrokenExecutor, FutureTimeoutError, TimeoutError,
                        OSError)):
        return "transient"
    if not isinstance(exc, Exception):
        return "interrupted"
    return "unknown"


@dataclass
class JobOutcome:
    """How one cell of the campaign ended."""

    job: Job
    status: str            # "done" | "cached" | "failed" | "quarantined"
    record: Optional[dict] = None
    error: Optional[str] = None
    failure_class: Optional[str] = None
    attempts: int = 0

    @property
    def fingerprint(self) -> str:
        return self.job.fingerprint


@dataclass
class CampaignRun:
    """Result of one ``run_campaign`` invocation."""

    campaign: str
    campaign_fingerprint: str
    outcomes: list = field(default_factory=list)
    #: supervised-pool liveness counters (lease churn, heartbeats, backoff)
    supervision: Optional[dict] = None

    def _count(self, status: str) -> int:
        return sum(1 for o in self.outcomes if o.status == status)

    @property
    def executed(self) -> int:
        return self._count("done")

    @property
    def cached(self) -> int:
        return self._count("cached")

    @property
    def failed(self) -> int:
        return self._count("failed")

    @property
    def quarantined(self) -> int:
        return self._count("quarantined")

    @property
    def ok(self) -> bool:
        return self.failed == 0 and self.quarantined == 0

    def records(self) -> list:
        """Records of every completed cell, in campaign order."""
        return [o.record for o in self.outcomes if o.record is not None]

    def digest_map(self) -> dict:
        return {o.fingerprint: o.record["simulated_digest"]
                for o in self.outcomes if o.record is not None}

    def stats(self) -> dict:
        stats = {"jobs": len(self.outcomes), "executed": self.executed,
                 "cached": self.cached, "failed": self.failed,
                 "quarantined": self.quarantined}
        if self.supervision is not None:
            stats["supervision"] = dict(self.supervision)
        return stats


class _KillGate:
    """Campaign-level ``job_kill`` injection: abort the orchestration after
    ``spec.count`` completed (executed, non-cached) jobs."""

    def __init__(self, plan: Optional[FaultPlan]):
        self._after = sorted(s.count for s in plan.for_kind("job_kill")) \
            if plan is not None else []
        self.completed = 0

    def on_job_done(self) -> None:
        self.completed += 1
        if self._after and self.completed >= self._after[0]:
            raise JobKilledError(
                f"campaign killed by injection after "
                f"{self.completed} completed jobs", float(self.completed))


def _default_mp_context():
    """Fork where available (workers inherit the warm stage caches),
    spawn otherwise."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-posix
        return multiprocessing.get_context("spawn")


def run_campaign(campaign: CampaignSpec,
                 store: Optional[ResultStore] = None,
                 workers: int = 0, *,
                 job_timeout: Optional[float] = None,
                 max_retries: int = 2,
                 backoff_base: float = 0.05,
                 kill_plan: Optional[FaultPlan] = None,
                 journal: Optional[Journal] = None,
                 progress: Optional[Callable[[str], None]] = None,
                 clock: Optional[Clock] = None,
                 supervision: Optional[SupervisorConfig] = None
                 ) -> CampaignRun:
    """Run every cell of ``campaign``, memoized against ``store``.

    ``workers=0`` runs inline (serial, deterministic order); ``workers>=1``
    uses the supervised worker pool (leases, heartbeats, quarantine — see
    :mod:`repro.campaign.supervisor`, tunable via ``supervision``).
    ``kill_plan`` injects orchestration faults:
    campaign-level ``job_kill`` (see :class:`_KillGate`, raises
    :class:`JobKilledError` *after* the journal records the kill so a
    resume picks up exactly where it stopped) and the per-worker kinds
    (``worker_kill`` / ``heartbeat_loss`` / ``worker_wedge``, supervised
    pool only).  ``clock`` injects the orchestration time source (backoff,
    timeouts, leases) — pass a :class:`~repro.campaign.clock.VirtualClock`
    to run retries/chaos in virtual time.
    """
    jobs = campaign.expand()
    run = CampaignRun(campaign=campaign.name,
                      campaign_fingerprint=campaign.fingerprint)
    if clock is None:
        clock = WallClock()
    if supervision is None:
        supervision = SupervisorConfig()
    own_journal = journal is None and store is not None
    if own_journal:
        import os

        journal = Journal(os.path.join(store.root, "journal.jsonl"))
    if journal is not None:
        journal.append("campaign_begin", campaign=campaign.name,
                       campaign_fingerprint=run.campaign_fingerprint,
                       njobs=len(jobs))
    gate = _KillGate(kill_plan)
    try:
        _execute(jobs, run, store, journal, gate, workers=workers,
                 job_timeout=job_timeout, max_retries=max_retries,
                 backoff_base=backoff_base, progress=progress, clock=clock,
                 supervision=supervision, kill_plan=kill_plan)
        if journal is not None:
            journal.append("campaign_end", **run.stats())
    except JobKilledError as exc:
        if journal is not None:
            journal.append("campaign_killed", reason=exc.reason,
                           completed=gate.completed)
        raise
    finally:
        if own_journal:
            journal.close()
    return run


def _execute(jobs, run, store, journal, gate, *, workers, job_timeout,
             max_retries, backoff_base, progress, clock, supervision,
             kill_plan):
    pending = []
    seen: dict = {}
    for job in jobs:
        fp = job.fingerprint
        if fp in seen:  # duplicate cell within the campaign: share outcome
            run.outcomes.append(seen[fp])
            continue
        record = store.get(fp) if store is not None else None
        if record is not None:
            outcome = JobOutcome(job=job, status="cached", record=record)
            if journal is not None:
                journal.append("job_cached", fingerprint=fp,
                               job_id=job.job_id)
            _say(progress, f"{job.job_id}: cached ({fp[:12]})")
        else:
            outcome = JobOutcome(job=job, status="pending")
            pending.append(outcome)
        run.outcomes.append(outcome)
        seen[fp] = outcome

    if not pending:
        return
    if workers >= 1:
        _execute_supervised(pending, run, store, journal, gate,
                            workers=workers, job_timeout=job_timeout,
                            max_retries=max_retries,
                            backoff_base=backoff_base, progress=progress,
                            clock=clock, supervision=supervision,
                            kill_plan=kill_plan)
    else:
        _execute_serial(pending, store, journal, gate,
                        max_retries=max_retries, backoff_base=backoff_base,
                        progress=progress, clock=clock)


def _execute_serial(pending, store, journal, gate, *, max_retries,
                    backoff_base, progress, clock):
    for outcome in pending:
        _run_with_retries(outcome, journal, max_retries=max_retries,
                          backoff_base=backoff_base, clock=clock)
        publish(outcome, store, journal, gate, progress)


def _execute_supervised(pending, run, store, journal, gate, *, workers,
                        job_timeout, max_retries, backoff_base, progress,
                        clock, supervision, kill_plan):
    """The supervised pool: leases, heartbeats, reclamation, quarantine."""
    from .supervisor import Supervisor

    ctx = _default_mp_context()
    if ctx.get_start_method() == "fork":
        # workers inherit these precomputes through the fork; first
        # appearance order keeps the builds (and the stage caches'
        # eviction order) independent of the string hash seed
        for spec, config in dict.fromkeys((o.job.spec, o.job.config)
                                          for o in pending):
            warm_workload(spec, config)
    sup = Supervisor(pending, store, journal, gate, workers=workers,
                     mp_context=ctx, config=supervision, clock=clock,
                     max_retries=max_retries, backoff_base=backoff_base,
                     job_timeout=job_timeout, fault_plan=kill_plan,
                     progress=progress)
    run.supervision = sup.stats
    sup.run()


def _run_with_retries(outcome, journal, *, max_retries, backoff_base, clock):
    job = outcome.job
    for attempt in range(1, max_retries + 2):
        outcome.attempts = attempt
        if journal is not None:
            journal.append("job_start", fingerprint=outcome.fingerprint,
                           job_id=job.job_id, attempt=attempt)
        try:
            outcome.record = run_job(job)
            outcome.status = "done"
            return
        except Exception as exc:  # noqa: BLE001 - classified below
            failure = classify_failure(exc)
            if failure == "transient" and attempt <= max_retries:
                if journal is not None:
                    journal.append("job_retry",
                                   fingerprint=outcome.fingerprint,
                                   job_id=job.job_id, failure_class=failure,
                                   error=str(exc), attempt=attempt)
                clock.sleep(retry_backoff(backoff_base, attempt))
                continue
            outcome.status = "failed"
            outcome.error = str(exc)
            outcome.failure_class = failure
            if journal is not None:
                journal.append("job_failed", fingerprint=outcome.fingerprint,
                               job_id=job.job_id, failure_class=failure,
                               error=str(exc))
            return


def retry_backoff(backoff_base: float, attempt: int) -> float:
    """Seconds to wait after failed ``attempt`` (1-based) before the next:
    exponential in the attempt, capped at :data:`BACKOFF_CAP`."""
    return min(BACKOFF_CAP, backoff_base * 2 ** (attempt - 1))


def publish(outcome, store, journal, gate, progress) -> None:
    """Store + journal one finished outcome, then let the kill gate act.

    The order is the crash-safety contract: the record is durable *before*
    the journal line (store put, then quarantine cleared), and both land
    before the progress line and the gate, which may abort the campaign —
    so anything the journal claims finished is in the store.  The serial
    path and the supervised pool both publish through here.
    """
    if outcome.status == "failed":
        _say(progress, f"{outcome.job.job_id}: FAILED "
                       f"[{outcome.failure_class}] {outcome.error}")
        return
    if store is not None:
        store.put(outcome.record)
        store.clear_quarantine(outcome.fingerprint)
    if journal is not None:
        journal.append("job_done", fingerprint=outcome.fingerprint,
                       job_id=outcome.job.job_id,
                       digest=outcome.record["simulated_digest"])
    _say(progress, f"{outcome.job.job_id}: done "
                   f"({outcome.record['simulated_digest'][:12]})")
    gate.on_job_done()


def _say(progress, message: str) -> None:
    if progress is not None:
        progress(message)
