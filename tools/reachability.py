"""Reachability audit: which ``src/repro`` functions do the real runs call?

Runs a set of entry-point commands with a ``sys.setprofile`` hook that
records every Python function entered, then lists the functions under
``src/repro`` that none of the commands called, with their line counts,
per module.  Code that only tests reach shows up here.

Usage (from the repository root, standard library only)::

    python tools/reachability.py audit [--root DIR] [--out DIR] [--names]
    python tools/reachability.py report DIR [--root DIR] [--names]

``audit`` runs the default entry-point set (see ``default_commands``),
keeps the records in ``--out`` and prints the report; ``report``
summarises the records in ``DIR`` against the functions of
``ROOT/src/repro`` again.  ``--root`` selects the checkout to audit
(default: the one holding this script), so two checkouts can be
compared; ``--names`` lists every unreached function.

The hook is installed through a generated ``sitecustomize`` module put
first on ``PYTHONPATH``, so every Python process a command starts is
covered.  Each process writes its records when it exits, also through
``os._exit``, so forked campaign workers count.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from collections import defaultdict

ENV_OUT = "REACHABILITY_OUT"
ENV_SRC = "REACHABILITY_SRC"


# -- the hook (runs inside every audited process) -----------------------------

_seen: dict = {}


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _seen[id(code)] = code


def _dump() -> None:
    out = os.environ.get(ENV_OUT)
    src = os.environ.get(ENV_SRC)
    if not out or not src:
        return
    rows = {(c.co_filename, c.co_firstlineno, c.co_name)
            for c in list(_seen.values()) if c.co_filename.startswith(src)}
    if not rows:
        return
    fd, _ = tempfile.mkstemp(prefix="calls-", suffix=".tsv", dir=out)
    with os.fdopen(fd, "w") as fh:
        for filename, line, name in sorted(rows):
            fh.write(f"{filename}\t{line}\t{name}\n")


def install() -> None:
    """Record every function call of this process (and of its forks)."""
    sys.setprofile(_profile)
    threading.setprofile(_profile)
    atexit.register(_dump)
    real_exit = os._exit

    def _exit(code):
        try:
            _dump()
        finally:
            real_exit(code)

    os._exit = _exit


_SITECUSTOMIZE = """\
import sys
sys.path.insert(0, {tools!r})
import reachability
sys.path.pop(0)
reachability.install()
"""


# -- running commands ---------------------------------------------------------

def run(cmd: list, out: str, root: str, cwd: str) -> int:
    """Run ``cmd`` with the hook installed; records go to ``out``."""
    out = os.path.abspath(out)
    os.makedirs(out, exist_ok=True)
    shim = os.path.join(out, "_shim")
    os.makedirs(shim, exist_ok=True)
    with open(os.path.join(shim, "sitecustomize.py"), "w") as fh:
        fh.write(_SITECUSTOMIZE.format(
            tools=os.path.dirname(os.path.abspath(__file__))))
    src = os.path.join(os.path.abspath(root), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [shim, src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                       if p])
    env[ENV_OUT] = out
    env[ENV_SRC] = os.path.join(src, "repro")
    return subprocess.call(cmd, cwd=cwd, env=env,
                           stdout=subprocess.DEVNULL)


#: a tiny two-cell breathing sweep in the campaign spec-file format
SPEC_FILE_CAMPAIGN = {
    "name": "audit-sweep",
    "base": {"config": {"cluster": "thunder", "num_nodes": 1, "nranks": 4},
             "spec": {"generations": 2, "points_per_ring": 6,
                      "inlet_waveform": "ventilator",
                      "injection_phase": "inhale", "adaptive": "global"}},
    "runs": [{"spec.respiratory_rate": 12.0, "tags.pattern": "rest"},
             {"spec.respiratory_rate": 24.0, "tags.pattern": "rapid"}],
}


def default_commands(root: str, scratch: str) -> list:
    """The entry-point set: (command, working directory) pairs.

    The examples, ``python -m repro all``, the single-run (steady and
    analytic-breathing inlet), mesh and experiment CLI commands, the CI
    campaign and chaos flows, a two-cell spec-file campaign, every
    ``bench/run.py`` workload plain and traced, the perf runner's quick
    mode and the paper-figure suite.
    """
    py = sys.executable
    cmds = [([py, os.path.join(root, "examples", name)], scratch)
            for name in sorted(os.listdir(os.path.join(root, "examples")))
            if name.endswith(".py")]
    cli = [py, "-m", "repro"]
    for args in (["all", "--out", os.path.join(scratch, "results")],
                 ["run", "--steps", "2"],
                 ["run", "--steps", "2", "--waveform", "breathing",
                  "--adaptive", "global"],
                 ["run", "--steps", "2", "--mode", "coupled",
                  "--fluid-ranks", "64", "--dlb", "--json"],
                 ["mesh", "--generations", "3", "--vtk",
                  os.path.join(scratch, "airway.vtk")],
                 ["fig2", "--steps", "2"],
                 ["table1", "--steps", "2", "--json"]):
        cmds.append((cli + args, root))
    store = os.path.join(scratch, "store")
    campaign = cli + ["campaign"]
    for args in (["run", "--name", "ci-smoke", "--store", store + "-a",
                  "--workers", "2"],
                 ["run", "--name", "ci-smoke", "--store", store + "-a",
                  "--json"],
                 ["run", "--name", "ci-smoke", "--store", store + "-b",
                  "--kill-after", "2"],
                 ["status", "--store", store + "-b"],
                 ["resume", "--name", "ci-smoke", "--store", store + "-b",
                  "--json"],
                 ["report", "--name", "ci-smoke", "--store", store + "-b"],
                 ["run", "--name", "ci-smoke", "--store", store + "-c",
                  "--workers", "2", "--kill-worker-at", "1",
                  "--kill-worker-at", "3", "--json"],
                 ["doctor", "--store", store + "-c"]):
        cmds.append((campaign + args, root))
    # the documented way to run a sweep (docs/cosim.md), with the CLI's
    # workload-size flags applied on top of the file's base spec
    spec_file = os.path.join(scratch, "sweep.json")
    with open(spec_file, "w") as fh:
        json.dump(SPEC_FILE_CAMPAIGN, fh)
    cmds.append((campaign + ["run", "--spec-file", spec_file, "--store",
                             store + "-d", "--steps", "2", "--json"], root))
    for trace in ("0", "1"):
        cmds.append(([py, os.path.join(root, "bench", "run.py"),
                      "--seconds", "2", "--trace", trace], root))
    cmds.append(([py, "-m", "repro.perf.bench", "--quick", "--out",
                  os.path.join(scratch, "BENCH_audit.json")], root))
    # pytest-benchmark pauses profile hooks while it times a test
    cmds.append(([py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                  "--benchmark-disable", "benchmarks"], root))
    return cmds


# -- the report ---------------------------------------------------------------

def functions(src: str) -> dict:
    """``(path, first line) -> (qualified name, lines)`` of every ``def``
    under ``src``; the first line is the first decorator's, as in
    ``co_firstlineno``."""
    found = {}
    for dirpath, _, files in os.walk(src):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            _collect(tree, path, "", found)
    return found


def _collect(node, path: str, prefix: str, found: dict) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([d.lineno for d in child.decorator_list]
                        + [child.lineno])
            qual = prefix + child.name
            found[(path, first)] = (qual, child.end_lineno - first + 1)
            _collect(child, path, qual + ".", found)
        elif isinstance(child, ast.ClassDef):
            _collect(child, path, prefix + child.name + ".", found)
        else:
            _collect(child, path, prefix, found)


def called(out: str) -> set:
    """``(path, first line)`` of every recorded call in ``out``."""
    seen = set()
    for name in os.listdir(out):
        if name.startswith("calls-") and name.endswith(".tsv"):
            with open(os.path.join(out, name)) as fh:
                for line in fh:
                    path, first, _ = line.rstrip("\n").split("\t")
                    seen.add((path, int(first)))
    return seen


def report(out: str, root: str, names: bool) -> None:
    """Print the unreached functions per module, then the totals."""
    src = os.path.join(os.path.abspath(root), "src", "repro")
    defs = functions(src)
    seen = called(out)
    per_module = defaultdict(list)
    for key, (qual, lines) in defs.items():
        if key not in seen:
            per_module[os.path.relpath(key[0], src)].append(
                (lines, key[1], qual))
    for module in sorted(per_module,
                         key=lambda m: -sum(f[0] for f in per_module[m])):
        rows = per_module[module]
        print(f"{module}: {len(rows)} functions, "
              f"{sum(r[0] for r in rows)} lines")
        if names:
            for lines, first, qual in sorted(rows, key=lambda r: r[1]):
                print(f"    {first:5d}  {qual} ({lines} lines)")
    unreached = [f for rows in per_module.values() for f in rows]
    print(f"unreached: {len(unreached)} of {len(defs)} functions "
          f"({sum(f[0] for f in unreached)} of "
          f"{sum(lines for _, lines in defs.values())} function lines)")


def main(argv=None) -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("audit", help="run the default entry points, report")
    p.add_argument("--root", default=here)
    p.add_argument("--out", default=None,
                   help="records directory (default: a temporary one)")
    p.add_argument("--names", action="store_true",
                   help="list every unreached function")
    p = sub.add_parser("report", help="summarise recorded calls")
    p.add_argument("out")
    p.add_argument("--root", default=here)
    p.add_argument("--names", action="store_true")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    if args.command == "report":
        report(args.out, root, args.names)
        return 0
    out = args.out or tempfile.mkdtemp(prefix="reach-")
    scratch = tempfile.mkdtemp(prefix="reach-work-")
    try:
        for cmd, cwd in default_commands(root, scratch):
            code = run(cmd, out, root, cwd=cwd)
            print(f"[exit {code}] {' '.join(os.path.basename(c) for c in cmd)}",
                  file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report(out, root, args.names)
    return 0


if __name__ == "__main__":
    sys.exit(main())
