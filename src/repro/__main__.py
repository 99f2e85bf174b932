"""Command-line interface: regenerate paper results or run custom setups.

Usage::

    python -m repro table1                # Table 1
    python -m repro fig2                  # trace timeline (ASCII)
    python -m repro fig6 | fig7           # hybrid strategy sweeps
    python -m repro fig8 | fig9 | fig10 | fig11   # DLB figures
    python -m repro ipc                   # Sec. 4.3 IPC counters
    python -m repro run --cluster thunder --nranks 96 --dlb \\
                        --mode coupled --fluid-ranks 64
    python -m repro mesh --generations 5 --vtk airway.vtk
    python -m repro campaign run --name demo --store results/store
    python -m repro campaign status --store results/store
    python -m repro campaign resume --name demo --store results/store
    python -m repro campaign report --name demo --store results/store
    python -m repro campaign doctor --store results/store

Workload size flags (``--generations``, ``--steps``, ``--large``) apply to
every experiment and campaign subcommand (one shared parent parser).
Experiment subcommands accept ``--json`` to emit structured rows through
the same serialization path the campaign result store uses.

Exit codes: 0 success, 1 failed jobs, 2 usage, 3 campaign killed by
injection (resumable — re-run with ``campaign resume``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .app import (
    LARGE_PARTICLE_RATIO,
    SMALL_PARTICLE_RATIO,
    RunConfig,
    WorkloadSpec,
    get_workload,
    run_cfpd,
)
from .core import Strategy
from .cosim import VENTILATION_PATTERNS

#: Exit code when a campaign is aborted by ``job_kill`` injection.
EXIT_KILLED = 3


def _spec_from(args) -> WorkloadSpec:
    kwargs = _adaptive_overrides(args)
    if args.generations is not None:
        kwargs["generations"] = args.generations
    if args.steps is not None:
        kwargs["n_steps"] = args.steps
    kwargs["particle_ratio"] = (LARGE_PARTICLE_RATIO if args.large
                                else SMALL_PARTICLE_RATIO)
    return WorkloadSpec(**kwargs)


def _adaptive_overrides(args) -> dict:
    """The adaptive-Δt and breathing workload flags the user actually
    set."""
    kwargs = {}
    if getattr(args, "adaptive", None) is not None:
        kwargs["adaptive"] = args.adaptive
    if getattr(args, "cfl_target", None) is not None:
        kwargs["cfl_target"] = args.cfl_target
    if getattr(args, "waveform", None) is not None:
        kwargs["inlet_waveform"] = args.waveform
    if getattr(args, "breathing_pattern", None) is not None:
        kwargs.update(VENTILATION_PATTERNS[args.breathing_pattern])
        # a named pattern implies the ventilator-coupled waveform unless
        # the user picked one explicitly
        kwargs.setdefault("inlet_waveform", "ventilator")
    if getattr(args, "tidal_volume", None) is not None:
        kwargs["tidal_volume"] = args.tidal_volume
    if getattr(args, "cpap", None) is not None:
        kwargs["cpap"] = args.cpap
    return kwargs


def _spec_overrides(args) -> dict:
    """Only the workload fields the user actually set — campaigns keep
    their built-in defaults (e.g. fig10's large load) otherwise."""
    kwargs = _adaptive_overrides(args)
    if args.generations is not None:
        kwargs["generations"] = args.generations
    if args.steps is not None:
        kwargs["n_steps"] = args.steps
    if args.large:
        kwargs["particle_ratio"] = LARGE_PARTICLE_RATIO
    return kwargs


def _workload_parent() -> argparse.ArgumentParser:
    """Shared workload flags (argparse parent): size, particle load and
    adaptive time stepping."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--generations", type=int, default=None,
                   help="airway tree depth (default 5; paper 7)")
    p.add_argument("--steps", type=int, default=None,
                   help="time steps to simulate (default 10)")
    p.add_argument("--large", action="store_true",
                   help="use the 7e6-scaled particle load (default 4e5)")
    p.add_argument("--adaptive", default=None,
                   choices=["off", "global", "local"],
                   help="CFL-driven adaptive time stepping (default off)")
    p.add_argument("--cfl-target", type=float, default=None,
                   help="target CFL number of the adaptive controller "
                        "(default 0.9)")
    p.add_argument("--waveform", default=None,
                   choices=["steady", "ramp", "sine", "breathing",
                            "ventilator"],
                   help="transient inlet waveform (default steady; "
                        "'breathing' is the analytic cycle, 'ventilator' "
                        "couples the 0D lung model through the cosim hub)")
    p.add_argument("--breathing-pattern", default=None,
                   choices=sorted(VENTILATION_PATTERNS),
                   help="named ventilation preset (implies --waveform "
                        "ventilator unless one is given)")
    p.add_argument("--tidal-volume", type=float, default=None,
                   help="tidal volume in ml (default 350)")
    p.add_argument("--cpap", type=float, default=None,
                   help="CPAP support pressure in cmH2O (default 0)")
    return p


def _print_json(obj) -> None:
    """One serialization path with the result store (campaign.serialize)."""
    from .campaign.serialize import plain

    print(json.dumps(plain(obj), indent=2, sort_keys=True))


def _cmd_experiment(name: str, args) -> int:
    from . import experiments as exp

    spec = _spec_from(args)
    runner = {
        "table1": lambda: exp.run_table1(spec=spec),
        "fig6": lambda: exp.run_fig6(spec=spec),
        "fig7": lambda: exp.run_fig7(spec=spec),
        "fig8": lambda: exp.run_fig8(spec=spec),
        "fig9": lambda: exp.run_fig9(spec=spec),
        "fig10": lambda: exp.run_fig10(spec=spec),
        "fig11": lambda: exp.run_fig11(spec=spec),
        "ipc": lambda: exp.run_ipc_counters(spec=spec),
    }[name]
    result = runner()
    if args.json:
        _print_json(result.to_rows())
    else:
        print(result.format())
    return 0


def _cmd_fig2(args) -> int:
    from .experiments import run_fig2

    result = run_fig2(spec=_spec_from(args), step=args.step)
    if args.json:
        _print_json(result.to_rows())
    else:
        print(result.render(width=args.width))
    return 0


def _cmd_run(args) -> int:
    spec = _spec_from(args)
    config = RunConfig(
        cluster=args.cluster,
        nranks=args.nranks,
        threads_per_rank=args.threads,
        mode=args.mode,
        fluid_ranks=args.fluid_ranks,
        assembly_strategy=Strategy(args.assembly),
        sgs_strategy=Strategy(args.sgs),
        dlb=args.dlb)
    if args.json:
        # the campaign execution path: same record, same serialization
        from .campaign import Job, run_job

        record = run_job(Job(index=0, campaign="cli-run", config=config,
                             spec=spec))
        _print_json(record)
        return 0
    workload = get_workload(spec)
    result = run_cfpd(config, workload=workload)
    print(f"workload: {workload.mesh}, {workload.total_injected} particles")
    print(f"config:   {config.label()} on {args.cluster}, "
          f"{args.nranks}x{args.threads}")
    n_sim = result.adaptive_diag.get("n_sim_steps", spec.n_steps)
    if spec.adaptive != "off":
        print(f"total simulated time: {result.total_time * 1e3:.3f} ms "
              f"({n_sim} steps, {spec.adaptive} adaptive, "
              f"{spec.n_steps} fixed)")
    else:
        print(f"total simulated time: {result.total_time * 1e3:.3f} ms "
              f"({spec.n_steps} steps)")
    for row in result.phase_summary():
        print(f"  {row['phase']:10s} L={row['load_balance']:.2f} "
              f"{row['percent_time']:5.1f}%")
    if args.dlb:
        s = result.dlb_stats
        print(f"DLB: {s.lend_events} lends, {s.cores_borrowed_total} cores "
              f"borrowed, peak team {s.max_team_capacity}")
    return 0


def _cmd_mesh(args) -> int:
    from .mesh import AirwayConfig, MeshResolution, build_airway_mesh, write_vtk

    airway = build_airway_mesh(
        AirwayConfig(generations=args.generations
                     if args.generations is not None else 5),
        MeshResolution())
    print(airway.mesh)
    print(f"{len(airway.segments)} segments, "
          f"{len(airway.junction_pairs)} junctions")
    if args.vtk:
        write_vtk(airway.mesh, args.vtk)
        print(f"wrote {args.vtk}")
    return 0


# -- campaign subcommands ---------------------------------------------------

def _load_campaign(args):
    from .campaign import CampaignSpec, get_campaign

    if args.spec_file:
        campaign = CampaignSpec.from_file(args.spec_file)
    elif args.name:
        try:
            campaign = get_campaign(args.name)
        except KeyError as exc:
            raise SystemExit(f"campaign: {exc.args[0]}") from None
    else:
        raise SystemExit("campaign: one of --name or --spec-file is "
                         "required")
    overrides = _spec_overrides(args)
    if overrides:
        campaign = campaign.with_spec_overrides(**overrides)
    return campaign


def _chaos_plan(args):
    """Orchestration fault plan from the CLI chaos flags (``--kill-after``
    plus per-worker ``--kill-worker-at`` / ``--wedge-worker-at`` /
    ``--silence-worker-at`` lease-grant triggers)."""
    from .fault import FaultPlan, FaultSpec

    specs = []
    if args.kill_after is not None:
        specs.append(FaultSpec(kind="job_kill", time=0.0,
                               count=args.kill_after))
    for kind, grants in (("worker_kill", args.kill_worker_at),
                         ("worker_wedge", args.wedge_worker_at),
                         ("heartbeat_loss", args.silence_worker_at)):
        for grant in grants or ():
            specs.append(FaultSpec(kind=kind, time=0.0, count=grant))
    if not specs:
        return None
    return FaultPlan(specs=tuple(specs))


def _cmd_campaign_run(args) -> int:
    from .campaign import ResultStore, SupervisorConfig, run_campaign
    from .smpi import JobKilledError

    campaign = _load_campaign(args)
    store = ResultStore(args.store) if args.store else None
    supervision = SupervisorConfig()
    if args.poison_attempts is not None:
        import dataclasses

        supervision = dataclasses.replace(
            supervision, poison_attempts=args.poison_attempts)
    progress = None if args.json else print
    try:
        run = run_campaign(campaign, store=store, workers=args.workers,
                           job_timeout=args.timeout,
                           max_retries=args.retries,
                           kill_plan=_chaos_plan(args),
                           supervision=supervision,
                           progress=progress)
    except JobKilledError as exc:
        print(f"campaign {campaign.name!r} killed: {exc.reason} "
              f"(resume with: campaign resume)", file=sys.stderr)
        return EXIT_KILLED
    payload = {"campaign": run.campaign,
               "campaign_fingerprint": run.campaign_fingerprint,
               "stats": run.stats(), "digests": run.digest_map()}
    if args.json:
        _print_json(payload)
    else:
        s = run.stats()
        print(f"campaign {run.campaign!r} "
              f"({run.campaign_fingerprint[:12]}): "
              f"{s['jobs']} jobs, {s['executed']} executed, "
              f"{s['cached']} cached, {s['failed']} failed, "
              f"{s['quarantined']} quarantined")
    return 0 if run.ok else 1


def _cmd_campaign_status(args) -> int:
    from .campaign import ResultStore, replay

    state = replay(os.path.join(args.store, "journal.jsonl"))
    summary = state.summary()
    summary["store"] = ResultStore(args.store).stats()
    if args.json:
        _print_json(summary)
        return 0
    if not state.began:
        print(f"no campaign journal under {args.store!r}")
        return 0
    print(f"campaign {state.campaign!r} "
          f"({(state.campaign_fingerprint or '?')[:12]}):")
    print(f"  {state.completed}/{state.njobs} cells complete "
          f"({len(state.done)} executed, {len(state.cached)} cached), "
          f"{len(state.failed)} failed, {state.retries} retries")
    if state.killed:
        print(f"  KILLED: {state.kill_reason} — resumable")
    elif state.finished:
        print("  finished")
    else:
        print("  in progress (or interrupted — resumable)")
    if state.truncated:
        print("  journal has a torn trailing line (crash mid-append)")
    print(f"  store: {summary['store']['objects']} objects, "
          f"{summary['store']['bytes']} bytes")
    return 0


def _cmd_campaign_report(args) -> int:
    from .campaign import ResultStore, build_report, replay

    campaign = _load_campaign(args)
    state = replay(os.path.join(args.store, "journal.jsonl"))
    report = build_report(campaign, ResultStore(args.store),
                          journal_state=state)
    if args.json:
        _print_json({"name": report.name,
                     "campaign_fingerprint": report.campaign_fingerprint,
                     "rows": report.to_rows(), "summary": report.summary,
                     "pending": report.pending,
                     "degraded": report.degraded})
    else:
        print(report.format())
    return 0


def _cmd_campaign_doctor(args) -> int:
    from .campaign import diagnose

    report = diagnose(args.store)
    if args.json:
        _print_json(report.summary())
    else:
        print(report.format())
    return 0 if report.ok else 1


def _add_campaign_parser(sub, workload_parent) -> None:
    p = sub.add_parser("campaign",
                       help="declarative scenario sweeps (run/status/"
                            "resume/report)")
    csub = p.add_subparsers(dest="campaign_command", required=True)

    select = argparse.ArgumentParser(add_help=False)
    select.add_argument("--name", default=None,
                        help="built-in campaign name (demo, ci-smoke, "
                             "fig6..fig11)")
    select.add_argument("--spec-file", default=None, metavar="FILE",
                        help="campaign spec JSON (CampaignSpec.to_file)")

    for verb, help_ in (("run", "execute a campaign (memoized)"),
                        ("resume", "re-run after a crash/kill: cached "
                                   "cells skip, pending cells execute")):
        cp = csub.add_parser(verb, parents=[workload_parent, select],
                             help=help_)
        cp.add_argument("--store", default=None, metavar="DIR",
                        required=(verb == "resume"),
                        help="content-addressed result store directory")
        cp.add_argument("--workers", type=int, default=0,
                        help="worker processes (0 = serial inline)")
        cp.add_argument("--timeout", type=float, default=None,
                        help="per-job timeout [s]")
        cp.add_argument("--retries", type=int, default=2,
                        help="max retries for transient failures")
        cp.add_argument("--kill-after", type=int, default=None,
                        metavar="N",
                        help="inject a campaign-level job_kill after N "
                             "completed jobs (crash-safety drills)")
        cp.add_argument("--kill-worker-at", type=int, action="append",
                        default=None, metavar="G",
                        help="SIGKILL the worker granted lease G (1-based "
                             "grant counter; repeatable; needs --workers)")
        cp.add_argument("--wedge-worker-at", type=int, action="append",
                        default=None, metavar="G",
                        help="wedge the worker granted lease G (heartbeats "
                             "forever, never finishes; repeatable)")
        cp.add_argument("--silence-worker-at", type=int, action="append",
                        default=None, metavar="G",
                        help="silence the worker granted lease G (no "
                             "heartbeats, no result; repeatable)")
        cp.add_argument("--poison-attempts", type=int, default=None,
                        metavar="N",
                        help="worker losses before a job is quarantined "
                             "(default 3)")
        cp.add_argument("--json", action="store_true")

    cp = csub.add_parser("status", help="journal-based campaign progress")
    cp.add_argument("--store", required=True, metavar="DIR")
    cp.add_argument("--json", action="store_true")

    cp = csub.add_parser("doctor",
                         help="verify store/journal integrity (corrupt "
                              "objects, torn journal tails, dangling "
                              "leases); exit 1 on damage")
    cp.add_argument("--store", required=True, metavar="DIR")
    cp.add_argument("--json", action="store_true")

    cp = csub.add_parser("report", parents=[workload_parent, select],
                         help="aggregate POP metrics across the campaign")
    cp.add_argument("--store", required=True, metavar="DIR")
    cp.add_argument("--json", action="store_true")


def main(argv=None) -> int:
    """CLI entry point (``python -m repro ...``)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ICPP'18 CFPD runtime-optimization reproduction")
    sub = parser.add_subparsers(dest="command", required=True)
    workload_parent = _workload_parent()

    for name in ("table1", "fig6", "fig7", "fig8", "fig9", "fig10",
                 "fig11", "ipc"):
        p = sub.add_parser(name, parents=[workload_parent],
                           help=f"regenerate {name}")
        p.add_argument("--json", action="store_true",
                       help="emit structured rows as JSON")

    p = sub.add_parser("fig2", parents=[workload_parent],
                       help="regenerate the Fig. 2 trace timeline")
    p.add_argument("--step", type=int, default=0)
    p.add_argument("--width", type=int, default=100)
    p.add_argument("--json", action="store_true",
                   help="emit trace intervals as JSON")

    p = sub.add_parser("run", parents=[workload_parent],
                       help="run a custom configuration")
    p.add_argument("--cluster", default="thunder",
                   choices=["thunder", "marenostrum4", "mn4"])
    p.add_argument("--nranks", type=int, default=96)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--mode", default="sync", choices=["sync", "coupled"])
    p.add_argument("--fluid-ranks", type=int, default=0)
    p.add_argument("--assembly", default="multidep",
                   choices=[s.value for s in Strategy])
    p.add_argument("--sgs", default="atomics",
                   choices=[s.value for s in Strategy])
    p.add_argument("--dlb", action="store_true")
    p.add_argument("--json", action="store_true",
                   help="emit the campaign-style job record as JSON")

    p = sub.add_parser("all", parents=[workload_parent],
                       help="regenerate every artifact into a dir")
    p.add_argument("--out", default="results", metavar="DIR")

    p = sub.add_parser("mesh", help="generate the airway mesh")
    p.add_argument("--generations", type=int, default=5)
    p.add_argument("--vtk", default=None, metavar="FILE",
                   help="write the mesh as legacy VTK")

    _add_campaign_parser(sub, workload_parent)

    args = parser.parse_args(argv)
    if args.command == "all":
        from .experiments import generate_all

        generate_all(args.out, spec=_spec_from(args))
        return 0
    if args.command == "fig2":
        return _cmd_fig2(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "mesh":
        return _cmd_mesh(args)
    if args.command == "campaign":
        handler = {"run": _cmd_campaign_run,
                   "resume": _cmd_campaign_run,
                   "status": _cmd_campaign_status,
                   "report": _cmd_campaign_report,
                   "doctor": _cmd_campaign_doctor}[args.campaign_command]
        return handler(args)
    return _cmd_experiment(args.command, args)


if __name__ == "__main__":
    sys.exit(main())
