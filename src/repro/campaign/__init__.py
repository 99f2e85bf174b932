"""Concurrent scenario-sweep orchestration (`repro.campaign`).

Turns the paper's evaluation matrix into a declarative, concurrent,
resumable service:

* :mod:`~repro.campaign.spec` — :class:`CampaignSpec` expands grid/list
  definitions over :class:`~repro.app.RunConfig` /
  :class:`~repro.app.WorkloadSpec` / :class:`~repro.fault.FaultPlan`
  fields into deterministic :class:`Job` cells with stable SHA-256
  fingerprints;
* :mod:`~repro.campaign.store` — content-addressed on-disk result store:
  completed cells are memoized by fingerprint (an identical campaign
  re-run is a 100% cache hit) and store objects are bit-identical across
  runs, the cross-run identity surface;
* :mod:`~repro.campaign.executor` — serial / supervised-pool execution
  with per-job timeouts, fault-aware retry/backoff over the
  :mod:`repro.fault` failure taxonomy, and campaign-level ``job_kill``
  injection;
* :mod:`~repro.campaign.supervisor` — lease-based work claiming with
  heartbeat liveness: dead/silent/wedged workers are detected, their jobs
  reclaimed, capacity respawned, and poison jobs quarantined instead of
  failing the campaign;
* :mod:`~repro.campaign.journal` — crash-safe append-only progress
  journal, so a killed campaign resumes exactly where it stopped;
* :mod:`~repro.campaign.clock` — injectable orchestration time (virtual
  clocks for chaos/retry tests);
* :mod:`~repro.campaign.aggregate` — rolls per-job POP metrics and phase
  timers into a campaign-level report (plus a degraded-completion
  section);
* :mod:`~repro.campaign.doctor` — store/journal integrity verification;
* :mod:`~repro.campaign.figures` — the paper's figure sweeps (Figs. 6-11)
  as thin campaign specs over the same runner.

CLI: ``python -m repro campaign run|status|resume|report|doctor``.
"""

from .aggregate import CampaignReport, build_report
from .clock import Clock, VirtualClock, WallClock
from .doctor import DoctorReport, diagnose
from .executor import (
    QUARANTINE_SCHEMA,
    CampaignRun,
    JobOutcome,
    classify_failure,
    run_campaign,
)
from .figures import (
    BUILTIN_CAMPAIGNS,
    ci_smoke_campaign,
    demo_campaign,
    dlb_figure_campaign,
    get_campaign,
    hybrid_sweep_campaign,
)
from .journal import Journal, JournalState, replay
from .runner import RECORD_SCHEMA, job_record, run_job, simulated_digest
from .spec import CampaignSpec, Job
from .store import ResultStore, StoreError, cross_run_identity
from .supervisor import Supervisor, SupervisorConfig

__all__ = [
    "BUILTIN_CAMPAIGNS",
    "CampaignReport",
    "CampaignRun",
    "CampaignSpec",
    "Clock",
    "DoctorReport",
    "Job",
    "JobOutcome",
    "Journal",
    "JournalState",
    "QUARANTINE_SCHEMA",
    "RECORD_SCHEMA",
    "ResultStore",
    "StoreError",
    "Supervisor",
    "SupervisorConfig",
    "VirtualClock",
    "WallClock",
    "build_report",
    "ci_smoke_campaign",
    "classify_failure",
    "cross_run_identity",
    "demo_campaign",
    "diagnose",
    "dlb_figure_campaign",
    "get_campaign",
    "hybrid_sweep_campaign",
    "job_record",
    "replay",
    "run_campaign",
    "run_job",
    "simulated_digest",
]
