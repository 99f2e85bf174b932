"""The benchmark's six workloads: set-up, closed-loop measurement, checks.

Every workload is driven by one caller that sends its next operation only
after the previous one returned (a closed loop with one client):

* ``replay_*``   -- warm ``run_cfpd`` replays of one configuration over
                    one built workload, one per configuration;
* ``cold_start`` -- a never-built spec to its first ``RunResult``;
* ``campaign``   -- passes of a breathing sweep through the supervised
                    pool, each pass extending the previous one.

Every workload runs each input with DLB off and with DLB on, and reports
the two latencies as separate metrics, so that a change to one of the two
paths is measured at its full size.

Inputs are drawn from the seed only.  Every operation is checked against
run invariants (deposition counts sum to the injected total, the solvers
converged, reruns of one input give one digest) and, at the default seed,
against its digest in ``golden.json``: an operation with no golden digest
there fails.

End-to-end times are reported at a reference host speed: a fixed kernel is
timed in the same process right before and after each operation (for the
campaign, around each prefork build and each job in its worker), and the
operation's seconds are scaled by the kernel's reference time over its
measured time.  The wall-clock values are printed beside them.
"""

from __future__ import annotations

import dataclasses
import gc
import heapq
import os
import random
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Optional

from repro import RunConfig, Workload, WorkloadSpec, run_cfpd
from repro.campaign import (
    CampaignSpec,
    ResultStore,
    replay as replay_journal,
    run_campaign,
    simulated_digest,
)
from repro.campaign import executor as campaign_executor
from repro.campaign import runner as campaign_runner
from repro.cosim import VENTILATION_PATTERNS

from layers import REPLAY_BUILD_SPANS, Tracer, run_counters

DEFAULT_SEED = 2018

#: The replay workloads and their configurations: the paper's MareNostrum 4
#: sync (96x1), coupled (64+32) and hybrid (48x2) runs, and the coupled run
#: on one Thunder node.  Each is its own workload, so that a change to one
#: configuration's code path moves that workload's metrics at full size.
REPLAY_CONFIGS = {
    "replay_mn4_sync": RunConfig(),
    "replay_mn4_coupled": RunConfig(mode="coupled", fluid_ranks=64),
    "replay_mn4_hybrid": RunConfig(nranks=48, threads_per_rank=2),
    "replay_thunder_coupled": RunConfig(cluster="thunder", num_nodes=1,
                                        mode="coupled", nranks=96,
                                        fluid_ranks=64),
}

#: End-to-end latency metric of the operations with DLB off / on.
LATENCY_METRIC = {False: "latency_p50_s", True: "dlb_latency_p50_s"}

#: Specs drawn for ``cold_start``; the loop cycles through them.
COLD_POOL = 32

#: The breathing cell of ``campaign``: ventilator-coupled inlet, injection
#: gated to inhalation, global adaptive time stepping, one Thunder node.
CAMPAIGN_CONFIG = RunConfig(cluster="thunder", num_nodes=1, nranks=16)
CAMPAIGN_SPEC = WorkloadSpec(inlet_waveform="ventilator",
                             injection_phase="inhale", adaptive="global",
                             n_steps=256)

#: Campaign passes per run: one pass per this many ``--seconds``.  The
#: pass count is fixed by the run length, not by the host's speed, so the
#: campaign's memory growth (one built workload per new spec) is the same
#: on every run.  A pass takes about 4.5 s on the reference host, so a
#: campaign run measures longer than ``--seconds``; the cells' costs
#: depend on their pattern and diameter, and three passes per 10 s give
#: each latency median nine cells.
SECONDS_PER_PASS = 3.0

#: Items the calibration kernel pushes through a heap queue.
KERNEL_ITEMS = 8000

#: Seconds the calibration kernel takes on the reference host (an idle
#: 2.0 GHz Xeon vCPU, Python 3.11).  End-to-end times are reported at this
#: host speed; see :func:`host_scale`.
KERNEL_REF_S = 0.0057


def _kernel() -> None:
    """Fixed priority-queue traffic in plain Python: the same kind of work
    as the event engine, but outside the code under test."""
    queue = []
    for i in range(KERNEL_ITEMS):
        heapq.heappush(queue, ((i * 7919) % 10007, i))
    while queue:
        heapq.heappop(queue)


def kernel_seconds() -> float:
    """Best of three timed runs of the calibration kernel, collector off
    (a collection would scan this process's heap, not measure the host)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


def host_scale(kernels) -> float:
    """Factor that converts seconds measured between kernel timings to
    seconds at the reference host speed.

    The host is shared: its speed drifts by tens of percent over minutes,
    and each of its CPUs drifts on its own.  Timing the kernel in the same
    process right before and after an operation, and scaling by
    ``KERNEL_REF_S`` over their median, cancels most of that drift.
    """
    return KERNEL_REF_S / statistics.median(kernels)


def percentile(values, p: float) -> float:
    """The ``p`` quantile of ``values`` (``0 < p < 1``).

    A tail percentile is refused unless at least ten samples lie beyond
    it, so p90 needs 100 samples.
    """
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    if p > 0.5 and n * (1.0 - p) < 10 - 1e-9:
        raise ValueError(f"p{p * 100:g} needs {int(round(10 / (1 - p)))} "
                         f"samples, got {n}")
    if p == 0.5:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[
        int(round(p * 100)) - 1]


def peak_rss_mb(children: bool) -> float:
    """Peak resident set of this process (plus its largest waited-for
    child process), in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


@dataclass
class Op:
    """One timed operation; ``latency`` is None for cells served from the
    result store.  ``latency * scale`` is the latency at reference speed;
    ``dlb`` picks the latency metric it counts towards."""

    latency: Optional[float]
    traced: bool
    problems: list = field(default_factory=list)
    scale: float = 1.0
    dlb: bool = False


@dataclass
class Unit:
    """One round (replay, cold start) or pass (campaign)."""

    ops: list
    busy: float          # seconds the caller waited on the system
    busy_scaled: float   # the same at reference host speed
    traced: bool


def _result_problems(result, total_injected: int) -> list:
    """Invariants every ``RunResult`` must satisfy."""
    problems = []
    if sum(result.deposition.values()) != total_injected:
        problems.append(f"deposition {result.deposition} does not sum to "
                        f"{total_injected} injected")
    info = result.solver_info
    if not (info.get("momentum_converged")
            and info.get("continuity_converged")):
        problems.append(f"solver did not converge: {info}")
    if not result.total_time > 0:
        problems.append(f"total_time {result.total_time!r}")
    return problems


def dlb_key(dlb: bool) -> str:
    return "dlb=on" if dlb else "dlb=off"


class BenchWorkload:
    """Shared driving logic; subclasses define set-up and one unit."""

    name = ""
    #: what each end-to-end latency and ``ops_per_s`` measure here, by
    #: their per-workload names
    aliases: dict = {}
    #: peak RSS counts worker processes
    rss_children = False

    def __init__(self, golden: Optional[dict]):
        #: input key -> digest; None when the seed has no golden digests
        self.golden = golden
        #: digest first seen for each input in this run
        self.reference: dict = {}
        #: digests compared with golden.json
        self.golden_checked = 0
        self.counters: dict = {}
        self.absent: set = set()

    def fixed_units(self, seconds: float) -> Optional[int]:
        """Units per run when the count is fixed, None to fill ``seconds``."""
        return None

    def setup(self) -> None:
        raise NotImplementedError

    def run_unit(self, index: int, tracer: Optional[Tracer]) -> Unit:
        raise NotImplementedError

    def layer_extras(self) -> dict:
        """Per-layer values the tracer cannot see (journal, store stats)."""
        return {}

    def close(self) -> None:
        """Release what set-up created."""

    # -- shared helpers ----------------------------------------------------
    def _check_digest(self, key: str, digest: str) -> list:
        problems = []
        if self.golden is not None:
            want = self.golden.get(key)
            if want is None:
                problems.append(f"{key}: no golden digest")
            else:
                self.golden_checked += 1
                if digest != want:
                    problems.append(f"{key}: digest {digest[:12]} != golden "
                                    f"{want[:12]}")
        seen = self.reference.setdefault(key, digest)
        if seen != digest:
            problems.append(f"{key}: digest {digest[:12]} != earlier run "
                            f"{seen[:12]}")
        return problems

    def _count(self, result) -> None:
        values, absent = run_counters(result)
        for name, value in values.items():
            self.counters[name] = self.counters.get(name, 0.0) + value
        self.absent.update(absent)


def _span(tracer: Optional[Tracer], name: str):
    return nullcontext() if tracer is None else tracer.span(name)


def _timed(tracer: Optional[Tracer], fn):
    """Call ``fn()`` and return ``(result, seconds, kernel seconds before
    and after)``; with a tracer, the layer wrappers are installed and the
    call is the ``bench.op`` span.

    A full collection first makes the collector start every operation
    from empty generations, so its pauses fall at the same allocations
    each time instead of wherever the previous operation left the counts.
    """
    gc.collect()
    before = kernel_seconds()
    with nullcontext() if tracer is None else tracer.installed():
        t0 = time.perf_counter()
        with _span(tracer, "bench.op"):
            result = fn()
        seconds = time.perf_counter() - t0
    return result, seconds, (before, kernel_seconds())


def _failed_op(traced: bool, dlb: bool) -> Op:
    traceback.print_exc()
    return Op(latency=None, traced=traced,
              problems=[traceback.format_exc(limit=1).strip()], dlb=dlb)


def _serial_unit(ops, traced: bool) -> Unit:
    """A unit whose operations ran one after another."""
    timed = [o for o in ops if o.latency is not None]
    return Unit(ops=ops, busy=sum(o.latency for o in timed),
                busy_scaled=sum(o.latency * o.scale for o in timed),
                traced=traced)


def replay_spec(seed: int) -> WorkloadSpec:
    """The replayed workload at ``seed``: the default airway mesh, with the
    particle injection seed shifted by ``seed - DEFAULT_SEED``.

    A replay's cost is set by the mesh (across mesh seeds its event count
    varies by about 7% between quartiles) and not by the injection seed,
    so every seed replays the same amount of work and its latency spread
    measures the code, not the input.  The default seed gives the default
    spec, whose digests every BENCH report holds.  ``cold_start`` draws
    new meshes.
    """
    base = WorkloadSpec()
    return WorkloadSpec(injection_seed=base.injection_seed
                        + (seed - DEFAULT_SEED) % 2 ** 20)


class Replay(BenchWorkload):
    """Warm replays of one configuration over one workload built in set-up;
    each round replays it with DLB off, then with DLB on."""

    aliases = {"latency_p50_s": "replay_s.p50",
               "dlb_latency_p50_s": "replay_s.p50 with DLB",
               "ops_per_s": "replays_per_s"}

    def __init__(self, name: str, seed: int, golden: Optional[dict]):
        super().__init__(golden)
        self.name = name
        self.spec = replay_spec(seed)
        self.configs = {dlb: dataclasses.replace(REPLAY_CONFIGS[name],
                                                 dlb=dlb)
                        for dlb in (False, True)}
        self.workload = None

    def setup(self) -> None:
        self.workload = None
        gc.collect()
        workload = Workload(self.spec)
        for dlb, cfg in self.configs.items():
            result = run_cfpd(cfg, workload=workload)
            problems = self._check(dlb, result, workload)
            if problems:
                raise RuntimeError(f"set-up replay failed: {problems}")
        self.workload = workload

    def _check(self, dlb: bool, result, workload) -> list:
        return (self._check_digest(dlb_key(dlb), simulated_digest(result))
                + _result_problems(result, workload.total_injected))

    def run_unit(self, index: int, tracer: Optional[Tracer]) -> Unit:
        traced = tracer is not None
        ops = []
        for dlb, cfg in self.configs.items():
            def replay():
                with _span(tracer, "app.run_cfpd"):
                    return run_cfpd(cfg, workload=self.workload)
            try:
                result, latency, kernels = _timed(tracer, replay)
                if traced:
                    self._count(result)
                ops.append(Op(latency, traced,
                              self._check(dlb, result, self.workload),
                              host_scale(kernels), dlb))
            except Exception:  # noqa: BLE001 - counted as a failed op
                ops.append(_failed_op(traced, dlb))
        return _serial_unit(ops, traced)


class ColdStart(BenchWorkload):
    """A spec never built in this process, to its first ``RunResult``.

    Unit ``i`` takes spec ``i`` of the pool twice: its first result with
    DLB off, then, built again, with DLB on.  The workload is built with
    ``Workload(spec)`` and dropped after each sample, so every sample pays
    the full numeric build and memory stays at one workload instead of
    growing with the sample count.
    """

    name = "cold_start"
    aliases = {"latency_p50_s": "first_result_s.p50",
               "dlb_latency_p50_s": "first_result_s.p50 with DLB",
               "ops_per_s": "first_results_per_s"}

    def __init__(self, seed: int, golden: Optional[dict]):
        super().__init__(golden)
        rng = random.Random(seed)

        def draw():
            return WorkloadSpec(mesh_seed=rng.randrange(1, 2 ** 31),
                                injection_seed=rng.randrange(1, 2 ** 31))
        self.pool = [draw() for _ in range(COLD_POOL)]
        self.warmups = [draw() for _ in range(3)]
        self._setups = 0

    def setup(self) -> None:
        spec = self.warmups[self._setups % len(self.warmups)]
        self._setups += 1
        for dlb in (False, True):
            workload = Workload(spec)
            result = run_cfpd(RunConfig(dlb=dlb), workload=workload)
            problems = _result_problems(result, workload.total_injected)
            del workload, result
            gc.collect()
            if problems:
                raise RuntimeError(f"set-up sample failed: {problems}")

    def run_unit(self, index: int, tracer: Optional[Tracer]) -> Unit:
        spec_index = index % len(self.pool)
        traced = tracer is not None
        ops = []
        for dlb in (False, True):
            def first_result():
                workload = Workload(self.pool[spec_index])
                with _span(tracer, "app.run_cfpd"):
                    return workload, run_cfpd(RunConfig(dlb=dlb),
                                              workload=workload)
            try:
                (workload, result), latency, kernels = _timed(tracer,
                                                              first_result)
                if traced:
                    self._count(result)
                key = f"{spec_index}/{dlb_key(dlb)}"
                ops.append(Op(latency, traced,
                              self._check_digest(key, simulated_digest(result))
                              + _result_problems(result,
                                                 workload.total_injected),
                              host_scale(kernels), dlb))
                del workload, result
            except Exception:  # noqa: BLE001 - counted as a failed op
                ops.append(_failed_op(traced, dlb))
        return _serial_unit(ops, traced)


@dataclass
class CampaignPass:
    """What one campaign pass left behind for the per-layer metrics."""

    traced: bool
    stats: dict          # CampaignRun.stats()
    journal: dict        # fingerprint -> queue wait and latency, journal
    probed: dict         # fingerprint -> (seconds, kernel before, after)


class Campaign(BenchWorkload):
    """Passes of a breathing sweep through the supervised worker pool.

    Pass ``k`` runs 3 ventilation patterns x particle diameters
    ``(d_k-1, d_k)`` x DLB off/on: the six ``d_k`` cells are new, the six
    ``d_k-1`` cells are served from the store that pass ``k - 1`` filled
    (pass 0 has only its six new cells).  Every pass executes the same
    amount of work.  A cell's golden key is its pattern, diameter index
    and DLB setting, which the benchmark chooses, so that it does not
    change when the campaign's job fingerprint does.
    """

    name = "campaign"
    aliases = {"latency_p50_s": "cell_execute_s.p50",
               "dlb_latency_p50_s": "cell_execute_s.p50 with DLB",
               "ops_per_s": "campaign_cells_per_s"}
    rss_children = True

    def __init__(self, seed: int, golden: Optional[dict], workdir: str):
        super().__init__(golden)
        self.workdir = workdir
        self._rng = random.Random(seed)
        self.diameters: list = []
        self.workers = min(2, len(os.sched_getaffinity(0)))
        self.store = None
        self.store_dir = None
        self.passes: list = []          # CampaignPass per pass run

    def fixed_units(self, seconds: float) -> Optional[int]:
        return max(1, int(round(seconds / SECONDS_PER_PASS)))

    def diameter(self, i: int) -> float:
        """The ``i``-th seed-drawn particle diameter (distinct, in m).

        A cell's cost falls as its particles grow and deposit sooner, so
        the draws stay within 4-6 um: over 1-10 um the seed, not the code,
        would set most of the spread of the cell latencies.
        """
        while len(self.diameters) <= i:
            d = float(f"{self._rng.uniform(4.0, 6.0):.2f}e-6")
            if d not in self.diameters:
                self.diameters.append(d)
        return self.diameters[i]

    def sweep(self, k: int) -> CampaignSpec:
        """Pass ``k``: diameter ``d_k`` new, ``d_k-1`` already stored."""
        runs = [dict({f"spec.{f}": v for f, v in fields.items()},
                     **{"tags.pattern": pattern})
                for pattern, fields in VENTILATION_PATTERNS.items()]
        diameters = [self.diameter(i) for i in range(max(k - 1, 0), k + 1)]
        return CampaignSpec(
            name="bench-breathing", base_config=CAMPAIGN_CONFIG,
            base_spec=CAMPAIGN_SPEC, runs=runs,
            grid=[("spec.particle_diameter", diameters),
                  ("config.dlb", [False, True])])

    def setup(self) -> None:
        self.close()
        os.makedirs(self.workdir, exist_ok=True)
        self.store_dir = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        self.store = ResultStore(self.store_dir)

    def close(self) -> None:
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
        self.store = self.store_dir = None

    @contextmanager
    def _probes(self, builds: list):
        """Time each prefork build and each job between two kernel timings,
        in the process that runs it.

        The executor reads ``warm_workload`` from its module globals for
        every build; its result is appended to ``builds`` as ``(seconds,
        kernel before, kernel after)``.  Pool workers are forked from this
        process and read ``run_job`` from :mod:`repro.campaign.runner` for
        every job, so that patch reaches them too: each worker appends
        ``fingerprint, seconds, kernel before, kernel after`` to a file of
        its own in the store directory.
        """
        warm = campaign_executor.warm_workload
        run_job = campaign_runner.run_job
        out_dir = self.store_dir

        def probed_warm(*args, **kwargs):
            before = kernel_seconds()
            t0 = time.perf_counter()
            warm(*args, **kwargs)
            builds.append((time.perf_counter() - t0, before,
                           kernel_seconds()))

        def probed_job(job):
            before = kernel_seconds()
            t0 = time.perf_counter()
            record = run_job(job)
            seconds = time.perf_counter() - t0
            after = kernel_seconds()
            path = os.path.join(out_dir, f"cells-{os.getpid()}.tsv")
            with open(path, "a") as fh:
                fh.write(f"{job.fingerprint}\t{seconds!r}\t{before!r}\t"
                         f"{after!r}\n")
            return record
        campaign_executor.warm_workload = probed_warm
        campaign_runner.run_job = probed_job
        try:
            yield
        finally:
            campaign_executor.warm_workload = warm
            campaign_runner.run_job = run_job

    def _probed_cells(self) -> dict:
        """``{fingerprint: (seconds, kernel before, kernel after)}`` written
        by the workers of the latest pass (the files are consumed)."""
        cells = {}
        for name in os.listdir(self.store_dir):
            if name.startswith("cells-"):
                path = os.path.join(self.store_dir, name)
                with open(path) as fh:
                    for line in fh:
                        fp, *values = line.split("\t")
                        cells[fp] = tuple(float(v) for v in values)
                os.unlink(path)
        return cells

    def run_unit(self, index: int, tracer: Optional[Tracer]) -> Unit:
        spec = self.sweep(index)
        traced = tracer is not None

        def orchestrate():
            with _span(tracer, "campaign.orchestrate"):
                return run_campaign(spec, store=self.store,
                                    workers=self.workers)
        builds = []
        try:
            with self._probes(builds):
                run, wall, kernels = _timed(tracer, orchestrate)
        except Exception:  # noqa: BLE001 - every cell of the pass failed
            return Unit(ops=[_failed_op(traced, job.config.dlb)
                             for job in spec.expand()],
                        busy=0.0, busy_scaled=0.0, traced=traced)
        cells = self._journal_cells()
        probed = self._probed_cells()
        # Prefork builds run serially here; the rest of the pass is mostly
        # the pool, so it is scaled by the kernels timed around the jobs.
        build_s = sum(b[0] for b in builds)
        pooled = [kernels[1]] + [k for p in probed.values() for k in p[1:]]
        busy_scaled = (sum(b[0] * host_scale(b[1:]) for b in builds)
                       + (wall - build_s) * host_scale(pooled))
        ops = []
        for outcome in run.outcomes:
            problems = self._check_outcome(outcome)
            latency, scale = None, 1.0
            if outcome.status == "done":
                if outcome.fingerprint in probed:
                    latency, *cell_kernels = probed[outcome.fingerprint]
                    scale = host_scale(cell_kernels)
                else:
                    problems.append(f"{outcome.job.job_id}: executed but "
                                    f"not timed in its worker")
            ops.append(Op(latency, traced, problems, scale,
                          outcome.job.config.dlb))
        self.passes.append(CampaignPass(traced, run.stats(), cells, probed))
        return Unit(ops=ops, busy=wall, busy_scaled=busy_scaled,
                    traced=traced)

    def cell_key(self, job) -> str:
        """``pattern/d<diameter index>/dlb=on|off``: the cell's golden key."""
        index = self.diameters.index(job.spec.particle_diameter)
        return f"{job.tag('pattern')}/d{index}/{dlb_key(job.config.dlb)}"

    def _check_outcome(self, outcome) -> list:
        if outcome.record is None:
            return [f"{outcome.job.job_id}: {outcome.status} "
                    f"[{outcome.failure_class}] {outcome.error}"]
        record = outcome.record
        metrics = record["metrics"]
        problems = self._check_digest(self.cell_key(outcome.job),
                                      record["simulated_digest"])
        injected = metrics.get("cosim", {}).get("total_injected")
        if sum(metrics["deposition"].values()) != injected:
            problems.append(f"{outcome.job.job_id}: deposition "
                            f"{metrics['deposition']} does not sum to "
                            f"{injected} injected")
        info = metrics["solver_info"]
        if not (info["momentum_converged"] and info["continuity_converged"]):
            problems.append(f"{outcome.job.job_id}: solver did not "
                            f"converge: {info}")
        return problems

    def _journal_cells(self) -> dict:
        """Per executed cell of the latest pass: queue wait and lease to
        completion, from the ``lease_granted``/``job_done`` journal
        timestamps (for ``campaign.queue_wait_s`` and
        ``campaign.handoff_s``)."""
        events = replay_journal(
            os.path.join(self.store_dir, "journal.jsonl")).events
        begin = max(i for i, e in enumerate(events)
                    if e["event"] == "campaign_begin")
        events = events[begin:]
        spawns = [e["ts"] for e in events if e["event"] == "worker_spawned"]
        pool_start = min(spawns) if spawns else events[0]["ts"]
        granted, cells = {}, {}
        for e in events:
            if e["event"] == "lease_granted":
                granted[e["fingerprint"]] = e["ts"]
            elif e["event"] == "job_done" and e["fingerprint"] in granted:
                t0 = granted[e["fingerprint"]]
                cells[e["fingerprint"]] = {"lease_to_done": e["ts"] - t0,
                                           "queue_wait": t0 - pool_start}
        return cells

    def layer_extras(self) -> dict:
        traced = [p for p in self.passes if p.traced]
        executed = sum(p.stats["executed"] for p in traced)
        cells = [c for p in traced for c in p.journal.values()]
        execute = sum(c[0] for p in traced for c in p.probed.values())
        jobs = sum(p.stats["jobs"] for p in traced)
        cached = sum(p.stats["cached"] for p in traced)
        sup = [p.stats.get("supervision") or {} for p in traced]
        per_cell = max(executed, 1)
        return {
            "campaign.queue_wait_s":
                sum(c["queue_wait"] for c in cells) / per_cell,
            "campaign.execute_s": execute / per_cell,
            "campaign.handoff_s":
                (sum(c["lease_to_done"] for c in cells) - execute) / per_cell,
            "campaign.cache_hit_ratio": cached / max(jobs, 1),
            "campaign.lease_renewals":
                sum(s.get("lease_renewals", 0) for s in sup) / per_cell,
            "campaign.worker_spawns":
                sum(s.get("worker_spawns", 0) for s in sup) / per_cell,
        }


WORKLOADS = tuple(REPLAY_CONFIGS) + ("cold_start", "campaign")


def make_workload(name: str, seed: int, golden: dict,
                  workdir: str) -> BenchWorkload:
    """The workload ``name``.  At the seed of ``golden`` every operation
    must have a golden digest; at other seeds none is checked."""
    pinned = golden.get(name, {}) if seed == golden.get("seed") else None
    if name in REPLAY_CONFIGS:
        return Replay(name, seed, pinned)
    if name == "cold_start":
        return ColdStart(seed, pinned)
    if name == "campaign":
        return Campaign(seed, pinned, workdir)
    raise ValueError(f"unknown workload {name!r}; available: {WORKLOADS}")


# -- metrics -----------------------------------------------------------------

#: End-to-end metrics: (name, unit).  Reported by every workload.
END_TO_END = (
    ("latency_p50_s", "s"),
    ("dlb_latency_p50_s", "s"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics: (name, unit, source, keys).  ``self`` sums the self
#: time of the named spans, ``total`` their inclusive time, ``calls`` their
#: call count, ``counter`` a RunResult counter; all per traced operation.
#: ``extra`` values come from the workload (journal, campaign stats) or
#: are computed below.
LAYER_METRICS = (
    ("app.build_s", "s", "self", ("app.build",)),
    ("mesh.build_s", "s", "self", ("mesh.build",)),
    ("app.schedule_s", "s", "self", ("app.schedule",)),
    ("fem.assembly_s", "s", "self", ("fem.assembly",)),
    ("app.decomposition_s", "s", "self", ("app.decomposition",)),
    ("partition.decompose_s", "s", "self", ("partition.decompose",)),
    ("fem.work_meters_s", "s", "self", ("fem.work_meters",)),
    ("partition.coloring_s", "s", "self", ("partition.coloring",)),
    ("solver.krylov_s", "s", "self", ("solver.krylov",)),
    ("solver.iterations", "count", "counter",
     ("solver.momentum_iterations", "solver.continuity_iterations")),
    ("fem.sgs_s", "s", "self", ("fem.sgs",)),
    ("particles.track_s", "s", "self", ("particles.track",)),
    ("particles.locate_s", "s", "self", ("particles.locate",)),
    ("core.graph_build_s", "s", "self", ("core.graph_build",)),
    ("app.first_replay_s", "s", "extra", ()),
    ("app.run_cfpd_s", "s", "self", ("app.run_cfpd",)),
    ("sim.dispatch_self_s", "s", "self", ("sim.dispatch",)),
    ("sim.events", "count", "counter", ("sim.events",)),
    ("sim.cohorts", "count", "counter", ("sim.cohorts",)),
    ("smpi.deliver_calls", "count", "calls", ("smpi.deliver",)),
    ("smpi.comm_s", "s", "self", ("smpi.deliver", "smpi.collective")),
    ("trace.phase_samples", "count", "counter", ("trace.phase_samples",)),
    ("core.planned_graphs", "count", "counter", ("core.planned_graphs",)),
    ("core.planned_graph_ratio", "ratio", "extra", ()),
    ("core.plan_replans", "count", "counter", ("core.plan_replans",)),
    ("core.set_capacity_calls", "count", "calls", ("core.set_capacity",)),
    ("core.set_capacity_s", "s", "self", ("core.set_capacity",)),
    ("dlb.callback_s", "s", "self", ("dlb.callback",)),
    ("dlb.lend_events", "count", "counter", ("dlb.lend_events",)),
    ("dlb.borrow_events", "count", "counter", ("dlb.borrow_events",)),
    ("campaign.orchestrate_s", "s", "self", ("campaign.orchestrate",)),
    ("campaign.prefork_build_s", "s", "total", ("campaign.prefork_build",)),
    ("campaign.supervise_s", "s", "self", ("campaign.supervise",)),
    ("campaign.queue_wait_s", "s", "extra", ()),
    ("campaign.execute_s", "s", "extra", ()),
    ("campaign.handoff_s", "s", "extra", ()),
    ("campaign.store_put_s", "s", "self", ("campaign.store_put",)),
    ("campaign.store_get_s", "s", "self", ("campaign.store_get",)),
    ("campaign.journal_append_s", "s", "self", ("campaign.journal_append",)),
    ("campaign.cache_hit_ratio", "ratio", "extra", ()),
    ("campaign.lease_renewals", "count", "extra", ()),
    ("campaign.worker_spawns", "count", "extra", ()),
    ("trace.overhead_ratio", "ratio", "extra", ()),
    ("trace.coverage_ratio", "ratio", "extra", ()),
)

#: The benchmark's own spans around a whole operation.  Their self time is
#: whatever the layer wrappers did not catch, so ``trace.coverage_ratio``
#: counts it as not covered.
UNATTRIBUTED_SPANS = ("bench.op", "app.run_cfpd", "campaign.orchestrate")


@dataclass
class RunReport:
    """Everything one workload run measured."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    attempted: int
    failed: int
    #: digests compared with golden.json (set-up included)
    golden_checked: int
    #: name -> (value, unit): end-to-end metrics, or per-layer when traced
    metrics: dict
    #: human-readable detail lines (aliases, sample counts, tails, notes)
    notes: list

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def to_json(self) -> dict:
        return {"workload": self.workload, "seed": self.seed,
                "seconds": self.seconds, "trace": self.trace,
                "correct": self.correct, "attempted": self.attempted,
                "failed": self.failed, "golden_checked": self.golden_checked,
                "metrics": {k: {"value": v, "unit": u}
                            for k, (v, u) in self.metrics.items()},
                "notes": self.notes}


def measure(wl: BenchWorkload, seconds: float, trace: bool,
            max_units: Optional[int] = None) -> tuple[list, Optional[Tracer]]:
    """Run units until ``seconds`` have passed (or the fixed unit count);
    when tracing, every second unit runs traced."""
    tracer = Tracer() if trace else None
    fixed = wl.fixed_units(seconds)
    if fixed is not None and trace:
        fixed = max(fixed, 2)
    units = []
    start = time.perf_counter()
    while max_units is None or len(units) < max_units:
        if fixed is not None:
            if len(units) >= fixed:
                break
        elif len(units) >= (2 if trace else 1) \
                and time.perf_counter() - start >= seconds:
            break
        traced = trace and len(units) % 2 == 1
        units.append(wl.run_unit(len(units), tracer if traced else None))
    return units, tracer


def timed_setups(wl: BenchWorkload, repeats: int) -> list:
    """Set the workload up ``repeats`` times; the seconds of each, raw and
    at reference host speed."""
    times = []
    for _ in range(repeats):
        _, seconds, kernels = _timed(None, wl.setup)
        times.append((seconds, seconds * host_scale(kernels)))
    return times


def latencies(ops, dlb: bool, scaled: bool = True) -> list:
    """Latencies of the operations with DLB ``dlb``, at reference host
    speed unless ``scaled`` is false."""
    return [o.latency * o.scale if scaled else o.latency
            for o in ops if o.dlb == dlb]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def unit_rates(units, scaled: bool = True) -> list:
    """Each unit's checked operations per second the caller waited on it.

    Their median, not the total over the run, is ``ops_per_s``: a few
    seconds of host slowdown then move one unit's rate, not the metric.
    """
    rates = []
    for u in units:
        busy = u.busy_scaled if scaled else u.busy
        if busy > 0:
            rates.append(sum(1 for o in u.ops if o.latency is not None
                             and not o.problems) / busy)
    return rates


def end_to_end(wl: BenchWorkload, units, setup_s: float) -> tuple[dict, list]:
    """End-to-end metrics and detail lines of an untraced run."""
    timed = [o for u in units for o in u.ops
             if o.latency is not None and not o.problems]
    metrics, notes = {}, []
    for dlb, name in LATENCY_METRIC.items():
        values = latencies(timed, dlb)
        metrics[name] = (_median(values), "s")
        notes.append(f"{name} is {wl.aliases[name]}, n={len(values)}; wall "
                     f"clock {_median(latencies(timed, dlb, False)):.6f} s")
        try:
            notes.append(f"{name.replace('p50', 'p90')} = "
                         f"{percentile(values, 0.9):.6f} s")
        except ValueError as exc:
            notes.append(f"{name.replace('p50', 'p90')} not reported: {exc}")
    metrics["ops_per_s"] = (_median(unit_rates(units)), "1/s")
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(wl.rss_children), "MB")
    notes.append(f"ops_per_s is {wl.aliases['ops_per_s']}, median of "
                 f"{len(units)} rounds or passes; wall clock "
                 f"{_median(unit_rates(units, scaled=False)):.6f} 1/s")
    notes.append(f"times at reference host speed; median host scale "
                 f"{_median([o.scale for o in timed]):.4f}")
    return metrics, notes


def per_layer(wl: BenchWorkload, units, tracer: Tracer) -> tuple[dict, list]:
    """Per-layer metrics of a traced run, per traced operation."""
    traced_ops = [o for u in units if u.traced for o in u.ops
                  if o.latency is not None]
    untraced = [o for u in units if not u.traced for o in u.ops
                if o.latency is not None]
    per_op = max(len(traced_ops), 1)
    counters = wl.counters
    extras = wl.layer_extras()
    if wl.name == "cold_start":
        extras["app.first_replay_s"] = (
            tracer.total_s["app.run_cfpd"]
            - sum(tracer.self_s[s] for s in REPLAY_BUILD_SPANS)) / per_op
    samples = counters.get("trace.phase_samples", 0.0)
    extras["core.planned_graph_ratio"] = (
        counters.get("core.planned_graphs", 0.0) / samples if samples else 0.0)
    if traced_ops and untraced:
        extras["trace.overhead_ratio"] = (
            sum(_median(latencies(traced_ops, dlb)) for dlb in (False, True))
            / sum(_median(latencies(untraced, dlb)) for dlb in (False, True)))
    op_wall = tracer.total_s["bench.op"]
    extras["trace.coverage_ratio"] = (
        1.0 - sum(tracer.self_s[s] for s in UNATTRIBUTED_SPANS) / op_wall
        if op_wall else 0.0)
    metrics = {}
    for name, unit, source, keys in LAYER_METRICS:
        if source == "self":
            value = sum(tracer.self_s[k] for k in keys) / per_op
        elif source == "total":
            value = sum(tracer.total_s[k] for k in keys) / per_op
        elif source == "calls":
            value = sum(tracer.calls[k] for k in keys) / per_op
        elif source == "counter":
            value = sum(counters.get(k, 0.0) for k in keys) / per_op
        else:
            value = extras.get(name, 0.0)
        metrics[name] = (float(value), unit)
    notes = [f"per-layer values are per traced operation, "
             f"n={len(traced_ops)} traced, {len(untraced)} untraced"]
    if tracer.missing:
        notes.append(f"absent layer boundaries: {', '.join(tracer.missing)}")
    if wl.absent:
        notes.append(f"absent counters: {', '.join(sorted(wl.absent))}")
    return metrics, notes


def run_workload(name: str, seed: int = DEFAULT_SEED, seconds: float = 10.0,
                 trace: bool = False, golden: Optional[dict] = None,
                 workdir: str = ".", setup_repeats: int = 3,
                 max_units: Optional[int] = None, import_s: float = 0.0,
                 trace_path: Optional[str] = None) -> RunReport:
    """Set up, measure and check one workload; the module-level entry point.

    ``setup_s`` is ``import_s`` plus the median of ``setup_repeats``
    set-ups, both at reference host speed; the last set-up is the one
    measured.  With ``trace`` the per-layer metrics are reported instead of
    the end-to-end ones, and the kept spans are written to ``trace_path``
    when one is given.
    """
    import_scaled = import_s * host_scale([kernel_seconds()])
    wl = make_workload(name, seed, golden or {}, workdir)
    try:
        setups = timed_setups(wl, setup_repeats)
        units, tracer = measure(wl, seconds, trace, max_units=max_units)
    finally:
        wl.close()
    ops = [o for u in units for o in u.ops]
    failed = [o for o in ops if o.problems]
    if trace:
        metrics, notes = per_layer(wl, units, tracer)
        if trace_path is not None:
            tracer.write_chrome_trace(trace_path, {"workload": name,
                                                   "seed": seed})
            notes.append(f"chrome trace written to {trace_path}")
    else:
        metrics, notes = end_to_end(
            wl, units, import_scaled + statistics.median(s for _, s in setups))
    notes.append(f"setup_s = import {import_scaled:.4f} s + median of "
                 f"{len(setups)} set-ups {[round(s, 4) for _, s in setups]} "
                 f"(wall clock: import {import_s:.4f} s, set-ups "
                 f"{[round(s, 4) for s, _ in setups]})")
    notes.append(f"checked {len(ops)} operations against invariants; "
                 + (f"{wl.golden_checked} digests (set-up included) against "
                    f"golden.json" if wl.golden is not None
                    else "golden.json has no digests for this seed"))
    for op in failed[:5]:
        notes.append(f"FAILED: {'; '.join(op.problems)}")
    return RunReport(workload=name, seed=seed, seconds=seconds, trace=trace,
                     attempted=len(ops), failed=len(failed),
                     golden_checked=wl.golden_checked, metrics=metrics,
                     notes=notes)
