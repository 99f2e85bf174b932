"""Crash-safe append-only campaign journal.

One JSON line per event, flushed and fsync'd as it is written, so the
journal survives a ``kill -9`` mid-campaign with at most one torn trailing
line — which :func:`replay` tolerates (it stops at the first unparsable
line and flags ``truncated``).  The journal is the campaign's *progress*
record; the result store is its *content* record.  Resume needs only the
store (memoization skips finished cells), the journal is what lets
``campaign status`` tell an interrupted campaign from a finished one
without re-expanding anything.

Events (all carry ``seq`` and a wall-clock ``ts``; timestamps live only
here, never in store objects, so stores stay bit-identical across runs)::

    campaign_begin    {campaign, campaign_fingerprint, njobs}
    job_cached        {fingerprint, job_id}
    job_start         {fingerprint, job_id, attempt}
    job_done          {fingerprint, job_id, digest}
    job_retry         {fingerprint, job_id, failure_class, error, attempt}
    job_failed        {fingerprint, job_id, failure_class, error}
    campaign_killed   {reason, completed}
    campaign_end      {executed, cached, failed, quarantined}

Supervised-pool events (see :mod:`repro.campaign.supervisor`)::

    worker_spawned    {worker}
    lease_granted     {fingerprint, job_id, worker, attempt, duration}
    lease_renewed     {fingerprint, worker, renewals}
    lease_expired     {fingerprint, job_id, worker, reason, renewals}
    job_quarantined   {fingerprint, job_id, failure_class, error,
                       attempts, worker_losses}

A ``lease_granted`` with no matching ``lease_expired`` / ``job_done`` /
``job_failed`` / ``job_quarantined`` is a **dangling lease** — the
campaign driver itself died with the job in flight (``campaign doctor``
flags these).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["Journal", "JournalState", "replay"]

JOURNAL_VERSION = 1


class Journal:
    """Append-only JSONL writer (one fsync per event)."""

    def __init__(self, path: str):
        self.path = path
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        self._seq = _last_seq(path) + 1
        self._fh = open(path, "a")

    def append(self, event: str, **fields) -> None:
        line = {"seq": self._seq, "event": event,
                "version": JOURNAL_VERSION, "ts": round(time.time(), 3)}
        line.update(fields)
        self._fh.write(json.dumps(line, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._seq += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class JournalState:
    """What a replayed journal says about campaign progress."""

    events: list = field(default_factory=list)
    campaign: Optional[str] = None
    campaign_fingerprint: Optional[str] = None
    njobs: int = 0
    done: dict = field(default_factory=dict)      # fingerprint -> digest
    cached: set = field(default_factory=set)
    failed: dict = field(default_factory=dict)    # fingerprint -> class
    quarantined: dict = field(default_factory=dict)  # fingerprint -> class
    retries: int = 0
    began: bool = False
    finished: bool = False
    killed: bool = False
    kill_reason: Optional[str] = None
    truncated: bool = False
    # supervised-pool liveness counters
    worker_spawns: int = 0
    lease_grants: int = 0
    lease_renewals: int = 0
    lease_expiries: int = 0
    active_leases: dict = field(default_factory=dict)  # fp -> worker

    @property
    def completed(self) -> int:
        return len(self.done) + len(self.cached)

    @property
    def in_progress(self) -> bool:
        return self.began and not self.finished

    @property
    def dangling_leases(self) -> dict:
        """Leases granted but never resolved — jobs in flight when the
        campaign driver died (``{fingerprint: worker}``)."""
        return dict(self.active_leases)

    def summary(self) -> dict:
        return {
            "campaign": self.campaign,
            "campaign_fingerprint": self.campaign_fingerprint,
            "njobs": self.njobs,
            "executed": len(self.done),
            "cached": len(self.cached),
            "failed": len(self.failed),
            "quarantined": len(self.quarantined),
            "retries": self.retries,
            "finished": self.finished,
            "killed": self.killed,
            "truncated": self.truncated,
            "worker_spawns": self.worker_spawns,
            "lease_grants": self.lease_grants,
            "lease_renewals": self.lease_renewals,
            "lease_expiries": self.lease_expiries,
            "dangling_leases": len(self.active_leases),
        }


def replay(path: str) -> JournalState:
    """Rebuild campaign progress from the journal; a torn trailing line
    (crash mid-append) truncates the replay instead of failing it."""
    state = JournalState()
    try:
        fh = open(path)
    except FileNotFoundError:
        return state
    with fh:
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            try:
                line = json.loads(raw)
            except json.JSONDecodeError:
                state.truncated = True
                break
            state.events.append(line)
            event = line.get("event")
            if event == "campaign_begin":
                # a later begin supersedes (resume of the same store)
                state.campaign = line.get("campaign")
                state.campaign_fingerprint = \
                    line.get("campaign_fingerprint")
                state.njobs = int(line.get("njobs", 0))
                state.began = True
                state.finished = False
                state.killed = False
                state.done.clear()
                state.cached.clear()
                state.failed.clear()
                state.quarantined.clear()
                state.active_leases.clear()
            elif event == "job_cached":
                state.cached.add(line["fingerprint"])
            elif event == "job_done":
                state.done[line["fingerprint"]] = line.get("digest")
                state.failed.pop(line["fingerprint"], None)
                state.active_leases.pop(line["fingerprint"], None)
            elif event == "job_retry":
                state.retries += 1
            elif event == "job_failed":
                state.failed[line["fingerprint"]] = \
                    line.get("failure_class", "unknown")
                state.active_leases.pop(line["fingerprint"], None)
            elif event == "job_quarantined":
                state.quarantined[line["fingerprint"]] = \
                    line.get("failure_class", "unknown")
                state.active_leases.pop(line["fingerprint"], None)
            elif event == "worker_spawned":
                state.worker_spawns += 1
            elif event == "lease_granted":
                state.lease_grants += 1
                state.active_leases[line["fingerprint"]] = \
                    line.get("worker")
            elif event == "lease_renewed":
                state.lease_renewals += 1
            elif event == "lease_expired":
                state.lease_expiries += 1
                state.active_leases.pop(line["fingerprint"], None)
            elif event == "campaign_killed":
                state.killed = True
                state.kill_reason = line.get("reason")
            elif event == "campaign_end":
                state.finished = True
    return state


def _last_seq(path: str) -> int:
    last = -1
    try:
        with open(path) as fh:
            for raw in fh:
                try:
                    last = int(json.loads(raw).get("seq", last))
                except (json.JSONDecodeError, TypeError, ValueError):
                    break
    except FileNotFoundError:
        pass
    return last
