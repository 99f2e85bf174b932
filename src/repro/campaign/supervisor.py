"""Supervised campaign execution: leases, heartbeats, quarantine.

The supervisor replaces the fire-and-forget ``ProcessPoolExecutor`` pool
for ``run_campaign(workers>=1)``.  It owns its worker processes and hands
each job over under a **time-bounded lease**:

* ``lease_granted``   — the job is sent to a worker over its pipe; the
  lease carries a deadline (``lease_duration`` on the injected clock);
* ``lease_renewed``   — each worker heartbeat (a background thread in the
  worker, one beat per ``heartbeat_interval``) pushes the deadline out,
  up to ``max_lease_renewals`` renewals;
* ``lease_expired``   — the worker died (process sentinel), went silent
  (no heartbeat within ``heartbeat_timeout``), wedged (renewal budget
  exhausted) or overran ``job_timeout``.  The worker is SIGKILLed, the
  job is requeued with backoff, and pool capacity is respawned.

A job that costs ``poison_attempts`` workers their lives is **poison**: it
is parked in the store's quarantine area with its failure taxonomy instead
of failing the whole campaign — every other cell still executes and the
run completes with ``ok == False``.

Because completed records are published atomically to the content-addressed
store *before* they are journaled, and a reclaimed job re-executes the same
deterministic simulation, a ``kill -9`` of any worker at any moment yields
a final store bit-identical to an undisturbed run.

Orchestration faults (:data:`repro.fault.ORCHESTRATION_KINDS`) trigger on
the 1-based lease-grant sequence number, so chaos scenarios replay
deterministically: ``worker_kill`` SIGKILLs the grantee the moment the
lease is granted, ``heartbeat_loss`` makes it go silent, ``worker_wedge``
makes it heartbeat forever without finishing.
"""

from __future__ import annotations

import heapq
import itertools
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _conn_wait
from typing import Optional

from .clock import Clock, WallClock

__all__ = ["SupervisorConfig", "Supervisor"]


@dataclass(frozen=True)
class SupervisorConfig:
    """Tunables of the supervision layer (all seconds are orchestration
    wall time, read through the injected clock where noted)."""

    #: worker → supervisor beat period (real time, inside the worker)
    heartbeat_interval: float = 0.25
    #: kill a leased worker silent for this long (clock time)
    heartbeat_timeout: float = 2.0
    #: lease length; every accepted heartbeat renews it (clock time)
    lease_duration: float = 2.0
    #: heartbeats allowed to renew one lease (None = unbounded); a worker
    #: that exhausts the budget without finishing is wedged
    max_lease_renewals: Optional[int] = None
    #: worker losses one job may cause before it is quarantined
    poison_attempts: int = 3
    #: supervisor pipe-wait granularity (real time)
    poll_interval: float = 0.05


@dataclass
class _Lease:
    outcome: object                  # the JobOutcome being executed
    granted_at: float                # clock time of the grant
    deadline: float                  # clock time the lease expires
    grant_seq: int                   # 1-based global grant counter
    renewals: int = 0


@dataclass
class _Worker:
    wid: str
    proc: object                     # multiprocessing Process
    conn: object                     # supervisor end of the duplex pipe
    last_beat: float                 # clock time of the last sign of life
    lease: Optional[_Lease] = None
    eof: bool = False


class Supervisor:
    """Drives pending job outcomes through a supervised worker pool."""

    def __init__(self, pending, store, journal, gate, *, workers: int,
                 mp_context, config: SupervisorConfig, clock: Clock = None,
                 max_retries: int = 2, backoff_base: float = 0.05,
                 job_timeout: Optional[float] = None, fault_plan=None,
                 progress=None):
        self.queue = deque(pending)
        self.store = store
        self.journal = journal
        self.gate = gate
        self.target_workers = max(1, min(workers, len(pending) or 1))
        self.ctx = mp_context
        self.config = config
        self.clock = clock if clock is not None else WallClock()
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.job_timeout = job_timeout
        self.progress = progress
        self.workers: dict[str, _Worker] = {}
        self.retry_heap: list = []           # (ready clock time, tie, outcome)
        self._tie = itertools.count()
        self.remaining = len(pending)
        self.attempts: dict[str, int] = {}   # fingerprint -> starts
        self.crashes: dict[str, int] = {}    # fingerprint -> worker losses
        self.grant_seq = 0
        self._wid = itertools.count()
        self._orch = {}                      # grant seq -> fault kind
        if fault_plan is not None:
            for spec in fault_plan.orchestration():
                self._orch[spec.count] = spec.kind
        #: lease churn / liveness counters (the degraded-completion report)
        self.stats = {
            "workers": self.target_workers,
            "lease_grants": 0, "lease_renewals": 0, "lease_expiries": 0,
            "worker_spawns": 0, "worker_losses": 0,
            "heartbeats": 0, "retries": 0, "backoff_total": 0.0,
            "quarantined": 0,
        }

    # -- main loop ----------------------------------------------------------

    def run(self) -> None:
        try:
            while self.remaining > 0:
                self._promote_due_retries()
                self._schedule()
                self._wait_and_drain()
                self._check_liveness()
        finally:
            self._shutdown()

    # -- worker lifecycle ---------------------------------------------------

    def _spawn(self) -> _Worker:
        wid = f"w{next(self._wid)}"
        parent, child = self.ctx.Pipe(duplex=True)
        proc = self.ctx.Process(
            target=_worker_main,
            args=(wid, child, self.config.heartbeat_interval),
            name=f"campaign-{wid}", daemon=True)
        proc.start()
        child.close()
        worker = _Worker(wid=wid, proc=proc, conn=parent,
                         last_beat=self.clock.now())
        self.workers[wid] = worker
        self.stats["worker_spawns"] += 1
        self._journal("worker_spawned", worker=wid)
        return worker

    def _kill_worker(self, worker: _Worker) -> None:
        proc = worker.proc
        if proc.is_alive():
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except (OSError, TypeError):  # pragma: no cover - already gone
                pass
        proc.join(timeout=5.0)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass

    def _shutdown(self) -> None:
        for worker in list(self.workers.values()):
            try:
                worker.conn.send(None)
            except (OSError, ValueError, BrokenPipeError):
                pass
        deadline = time.monotonic() + 2.0
        for worker in list(self.workers.values()):
            worker.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.proc.is_alive():
                self._kill_worker(worker)
            else:
                try:
                    worker.conn.close()
                except OSError:  # pragma: no cover
                    pass
        self.workers.clear()

    # -- scheduling ---------------------------------------------------------

    def _promote_due_retries(self) -> None:
        now = self.clock.now()
        while self.retry_heap and self.retry_heap[0][0] <= now:
            _, _, outcome = heapq.heappop(self.retry_heap)
            self.queue.append(outcome)
        # nothing runnable, nothing running — jump to the next retry
        if not self.queue and self.retry_heap and not self._busy():
            ready = self.retry_heap[0][0]
            self.clock.sleep(max(0.0, ready - now))
            while self.retry_heap and self.retry_heap[0][0] <= \
                    self.clock.now():
                _, _, outcome = heapq.heappop(self.retry_heap)
                self.queue.append(outcome)

    def _busy(self) -> bool:
        return any(w.lease is not None for w in self.workers.values())

    def _idle_workers(self):
        return [w for w in self.workers.values()
                if w.lease is None and w.proc.is_alive() and not w.eof]

    def _schedule(self) -> None:
        while self.queue:
            idle = self._idle_workers()
            if not idle:
                if len(self.workers) < self.target_workers:
                    idle = [self._spawn()]
                else:
                    return
            self._grant(idle[0], self.queue.popleft())

    def _grant(self, worker: _Worker, outcome) -> None:
        fp = outcome.fingerprint
        attempt = self.attempts.get(fp, 0) + 1
        self.attempts[fp] = attempt
        self.grant_seq += 1
        self.stats["lease_grants"] += 1
        fault = self._orch.pop(self.grant_seq, None)
        flags = {}
        if fault == "heartbeat_loss":
            flags["hang_silent"] = True
        elif fault == "worker_wedge":
            flags["wedge"] = True
        now = self.clock.now()
        self._journal("lease_granted", fingerprint=fp,
                      job_id=outcome.job.job_id, worker=worker.wid,
                      attempt=attempt,
                      duration=self.config.lease_duration)
        if fault == "worker_kill":
            # deterministic chaos: the grantee dies holding the lease.  The
            # kill precedes the send, because a worker woken by the send
            # can run a job of a few milliseconds and send its result
            # before a kill issued after the send lands: no crash at all
            try:
                os.kill(worker.proc.pid, signal.SIGKILL)
            except OSError:  # pragma: no cover
                pass
        try:
            worker.conn.send({"job": outcome.job, "flags": flags})
        except (OSError, ValueError, BrokenPipeError):
            # the worker died between scheduling and the send (or the chaos
            # kill above already closed its pipe): treat it as a crash of
            # this lease — requeue and respawn
            worker.lease = _Lease(outcome=outcome, granted_at=now,
                                  deadline=now, grant_seq=self.grant_seq)
            self._lose_worker(worker, "worker_death")
            return
        worker.lease = _Lease(
            outcome=outcome, granted_at=now,
            deadline=now + self.config.lease_duration,
            grant_seq=self.grant_seq)
        worker.last_beat = now

    # -- pipe draining ------------------------------------------------------

    def _wait_and_drain(self) -> None:
        live = [w for w in self.workers.values()
                if not w.eof and not w.conn.closed]
        if not live:
            return
        waitables = [w.conn for w in live] + [w.proc.sentinel for w in live]
        try:
            _conn_wait(waitables, timeout=self.config.poll_interval)
        except OSError:  # pragma: no cover - race with a dying worker
            pass
        for worker in live:
            self._drain(worker)

    def _drain(self, worker: _Worker) -> None:
        while not worker.eof:
            try:
                if not worker.conn.poll():
                    return
                msg = worker.conn.recv()
            except (EOFError, OSError):
                worker.eof = True
                return
            self._handle_message(worker, msg)

    def _handle_message(self, worker: _Worker, msg) -> None:
        kind, fp, payload = msg
        lease = worker.lease
        if kind == "heartbeat":
            self.stats["heartbeats"] += 1
            worker.last_beat = self.clock.now()
            if lease is not None and lease.outcome.fingerprint == fp:
                budget = self.config.max_lease_renewals
                if budget is None or lease.renewals < budget:
                    lease.renewals += 1
                    lease.deadline = worker.last_beat + \
                        self.config.lease_duration
                    self.stats["lease_renewals"] += 1
                    self._journal("lease_renewed", fingerprint=fp,
                                  worker=worker.wid,
                                  renewals=lease.renewals)
            return
        if lease is None or lease.outcome.fingerprint != fp:
            return  # stale result from a lease already expired
        outcome = lease.outcome
        worker.lease = None
        if kind == "done":
            from .executor import publish

            outcome.status = "done"
            outcome.record = payload
            outcome.attempts = self.attempts[fp]
            self.remaining -= 1
            # the executor's crash-safety order: store, journal, kill gate
            publish(outcome, self.store, self.journal, self.gate,
                    self.progress)
        elif kind == "error":
            self._handle_job_error(outcome, payload)

    # -- failure handling ---------------------------------------------------

    def _handle_job_error(self, outcome, exc: BaseException) -> None:
        from .executor import classify_failure

        fp = outcome.fingerprint
        failure = classify_failure(exc)
        attempt = self.attempts[fp]
        if failure == "transient" and attempt <= self.max_retries:
            self._retry(outcome, failure, str(exc), attempt)
            return
        outcome.status = "failed"
        outcome.error = str(exc)
        outcome.failure_class = failure
        outcome.attempts = attempt
        self.remaining -= 1
        self._journal("job_failed", fingerprint=fp,
                      job_id=outcome.job.job_id, failure_class=failure,
                      error=str(exc))
        self._say(f"{outcome.job.job_id}: FAILED [{failure}] {exc}")

    def _retry(self, outcome, failure: str, error: str,
               attempt: int) -> None:
        from .executor import retry_backoff

        fp = outcome.fingerprint
        self.stats["retries"] += 1
        self._journal("job_retry", fingerprint=fp,
                      job_id=outcome.job.job_id, failure_class=failure,
                      error=error, attempt=attempt)
        backoff = retry_backoff(self.backoff_base, attempt)
        self.stats["backoff_total"] += backoff
        heapq.heappush(self.retry_heap,
                       (self.clock.now() + backoff, next(self._tie),
                        outcome))

    def _lose_worker(self, worker: _Worker, reason: str) -> None:
        """A leased worker is gone/silent/wedged: kill it, reclaim the job,
        respawn capacity."""
        lease = worker.lease
        worker.lease = None
        self._kill_worker(worker)
        self.workers.pop(worker.wid, None)
        self.stats["worker_losses"] += 1
        if lease is None:
            return
        outcome = lease.outcome
        fp = outcome.fingerprint
        self.stats["lease_expiries"] += 1
        self._journal("lease_expired", fingerprint=fp,
                      job_id=outcome.job.job_id, worker=worker.wid,
                      reason=reason, renewals=lease.renewals)
        self._say(f"{outcome.job.job_id}: lease expired ({reason}, "
                  f"worker {worker.wid})")
        crashes = self.crashes.get(fp, 0) + 1
        self.crashes[fp] = crashes
        if crashes >= self.config.poison_attempts:
            self._quarantine(outcome, reason)
        else:
            self._retry(outcome, "worker_crash",
                        f"worker {worker.wid} lost: {reason}",
                        self.attempts[fp])

    def _quarantine(self, outcome, reason: str) -> None:
        from .executor import QUARANTINE_SCHEMA

        fp = outcome.fingerprint
        outcome.status = "quarantined"
        outcome.failure_class = "worker_crash"
        outcome.error = (f"poison job: crashed {self.crashes[fp]} "
                         f"worker(s), last loss: {reason}")
        outcome.attempts = self.attempts[fp]
        self.remaining -= 1
        self.stats["quarantined"] += 1
        record = {
            "schema": QUARANTINE_SCHEMA,
            "fingerprint": fp,
            "job_id": outcome.job.job_id,
            "failure_class": outcome.failure_class,
            "error": outcome.error,
            "attempts": outcome.attempts,
            "worker_losses": self.crashes[fp],
        }
        if self.store is not None:
            self.store.quarantine_put(record)
        self._journal("job_quarantined", **record)
        self._say(f"{outcome.job.job_id}: QUARANTINED after "
                  f"{outcome.attempts} attempt(s) "
                  f"[{outcome.failure_class}] {outcome.error}")

    # -- liveness -----------------------------------------------------------

    def _check_liveness(self) -> None:
        now = self.clock.now()
        for worker in list(self.workers.values()):
            self._drain(worker)  # a buffered result beats the post-mortem
            if not worker.proc.is_alive() or worker.eof:
                if worker.lease is not None:
                    self._lose_worker(worker, "worker_death")
                else:
                    self._kill_worker(worker)
                    self.workers.pop(worker.wid, None)
                continue
            lease = worker.lease
            if lease is None:
                continue
            if self.job_timeout is not None and \
                    now - lease.granted_at > self.job_timeout:
                self._lose_worker(worker, "job_timeout")
            elif now > lease.deadline:
                budget = self.config.max_lease_renewals
                if budget is not None and lease.renewals >= budget:
                    self._lose_worker(worker, "renewals_exhausted")
                elif now - worker.last_beat >= \
                        self.config.heartbeat_timeout:
                    self._lose_worker(worker, "heartbeat_timeout")
                # else: the deadline lapsed but the worker went quiet only
                # recently — grace until the silence window closes

    # -- helpers ------------------------------------------------------------

    def _journal(self, event: str, **fields) -> None:
        if self.journal is not None:
            self.journal.append(event, **fields)

    def _say(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)


# -- worker side -------------------------------------------------------------

def _heartbeat_loop(conn, lock, stop, interval: float, fp: str) -> None:
    while not stop.wait(interval):
        with lock:
            if stop.is_set():
                return
            try:
                conn.send(("heartbeat", fp, None))
            except (OSError, ValueError, BrokenPipeError):
                return


def _worker_main(wid: str, conn, heartbeat_interval: float) -> None:
    """Worker process loop: receive a job envelope, heartbeat while
    executing it, send back ``("done", fp, record)`` or
    ``("error", fp, exception)``.

    Looks ``run_job`` up through :mod:`repro.campaign.runner` on every job
    so fork-inherited monkeypatches apply (the chaos tests lean on this).
    ``flags`` carry the injected orchestration faults: ``hang_silent``
    (no heartbeats, never finishes) and ``wedge`` (heartbeats forever,
    never finishes).
    """
    from . import runner

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if msg is None:
            return
        job, flags = msg["job"], msg.get("flags") or {}
        fp = job.fingerprint
        stop = threading.Event()
        lock = threading.Lock()
        if not flags.get("hang_silent"):
            threading.Thread(
                target=_heartbeat_loop,
                args=(conn, lock, stop, heartbeat_interval, fp),
                daemon=True).start()
        try:
            if flags.get("wedge") or flags.get("hang_silent"):
                while True:          # stuck until the supervisor SIGKILLs
                    time.sleep(3600)
            payload = ("done", fp, runner.run_job(job))
        except BaseException as exc:  # noqa: BLE001 - classified upstream
            payload = ("error", fp, exc)
        finally:
            stop.set()
        with lock:
            try:
                conn.send(payload)
            except (OSError, ValueError, BrokenPipeError):
                return
            except Exception:
                # unpicklable exception object: degrade to its repr
                conn.send(("error", fp,
                           RuntimeError(f"unserializable worker failure: "
                                        f"{payload[2]!r}")))
