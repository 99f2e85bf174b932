"""Execute one campaign job and shape its result into a store record.

This is the *single* execution path: the experiment figure runners, the
``python -m repro campaign`` CLI and the worker-pool processes all call
:func:`run_job`.  A record carries everything aggregation needs — total
simulated time, per-phase elapsed/summary rows, POP efficiencies, solver
and deposition results — plus a ``simulated_digest`` over every
simulated-time output, the identity surface the determinism and resume
contracts are asserted on.

Records are deliberately wall-clock-free so store objects are bit-identical
across runs; execution timing belongs to the journal and the bench row.
"""

from __future__ import annotations

import hashlib

from ..app import get_workload, run_cfpd
from ..app.driver import run_graphs
from . import serialize
from .spec import Job

__all__ = ["RECORD_SCHEMA", "job_record", "run_job", "simulated_digest",
           "warm_workload"]

RECORD_SCHEMA = "repro-campaign-job-v1"


def simulated_digest(result) -> str:
    """SHA-256 over every simulated-time output of a run.

    Same recipe as the perf bench's end-to-end digest: phase samples
    (rounded to sub-nanosecond), total time, deposition counts and solver
    results.  Two runs of the same cell must agree byte-for-byte.
    """
    h = hashlib.sha256()
    for s in result.phase_log.samples:
        h.update(repr((s.step, s.rank, s.phase,
                       round(s.t0, 12), round(s.t1, 12))).encode())
    h.update(repr(round(result.total_time, 12)).encode())
    h.update(repr(result.deposition).encode())
    h.update(repr(result.solver_info).encode())
    return h.hexdigest()


def job_record(job: Job, result) -> dict:
    """The store record for a completed job (plain JSON-able tree)."""
    log = result.phase_log
    pop = result.pop_metrics()
    metrics = {
        "total_time": result.total_time,
        "n_particles": result.n_particles,
        "phase_elapsed": {p: log.elapsed(p) for p in log.phases()},
        "phase_summary": result.phase_summary(),
        "pop": {
            "load_balance": pop.load_balance,
            "communication_efficiency": pop.communication_efficiency,
            "parallel_efficiency": pop.parallel_efficiency,
        },
        "solver_info": result.solver_info,
        "deposition": result.deposition,
    }
    if job.config.dlb:
        s = result.dlb_stats
        metrics["dlb"] = {
            "lend_events": s.lend_events,
            "borrow_events": s.borrow_events,
            "cores_lent_total": s.cores_lent_total,
            "cores_borrowed_total": s.cores_borrowed_total,
            "max_team_capacity": s.max_team_capacity,
        }
    if result.adaptive_diag:
        metrics["adaptive"] = result.adaptive_diag
    if result.cosim_diag:
        metrics["cosim"] = result.cosim_diag
    return serialize.plain({
        "schema": RECORD_SCHEMA,
        "fingerprint": job.fingerprint,
        "label": job.label(),
        "tags": dict(job.tags),
        "config": serialize.config_to_dict(job.config),
        "spec": serialize.spec_to_dict(job.spec),
        "fault_plan": serialize.plan_to_dict(job.fault_plan),
        "simulated_digest": simulated_digest(result),
        "metrics": metrics,
    })


def run_job(job: Job) -> dict:
    """Run one cell end to end and return its record.

    Module-level (picklable) so worker processes can execute it; the
    process-wide stage caches of :func:`repro.app.get_workload` make jobs
    within one worker share every numeric stage their specs share (all
    three for the same spec, the mesh and flow for a particle-only
    neighbour).
    """
    workload = get_workload(job.spec)
    result = run_cfpd(job.config, workload=workload,
                      fault_plan=job.fault_plan)
    return job_record(job, result)


def warm_workload(spec, config=None) -> None:
    """Precompute what :func:`run_job` reads of ``spec``'s workload in this
    process: the operators, the fluid solves, the Δt schedule and the
    particle trajectory, and with a ``config`` also the decomposition, the
    histograms and the task graphs a run of it reads
    (:func:`repro.app.driver.run_graphs`).

    Called by the executor before forking a pool, once per pending job, so
    every worker inherits the warm stages and graphs instead of rebuilding
    them once per process.  It goes through :func:`repro.app.get_workload`,
    so stages a cached spec already shares are not rebuilt, and graphs a
    job with an equal graph key already built are looked up.  The SGS
    history is left lazy: only checkpoint writing and restart checks read
    it.  A configuration the run rejects with ``ValueError`` (more cores
    than its cluster has) is skipped here: its job meets the same error in
    its own run, where the failure taxonomy records it.
    """
    wl = get_workload(spec)
    wl.operators()
    wl.solve_fluid_step()
    wl.dt_schedule()
    wl.trajectory()
    if config is not None:
        try:
            run_graphs(wl, config)
        except ValueError:
            pass  # the job raises it again and records its failure
