"""The benchmark's counter adapter still finds every counter it reads.

``bench/layers.py`` maps each reported counter to a path into a
``RunResult`` (``COUNTER_PATHS``).  A result field or ``engine_diag`` key
that moves or disappears would otherwise only show as an "absent
counters" note in a benchmark run.  The module is loaded by path, so the
benchmark directory needs no package marker.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.app.driver import RunConfig, run_cfpd
from tests.test_perf_identical import CONFIGS, SPEC

LAYERS_PY = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["sync", "sync_dlb"])
def test_run_counters_has_no_absent_counter(layers, name):
    result = run_cfpd(RunConfig(**CONFIGS[name]), spec=SPEC)
    values, absent = layers.run_counters(result)
    assert absent == []
    assert values["sim.events"] > 0 and values["sim.cohorts"] > 0


def test_engine_diag_holds_only_what_is_read():
    diag = run_cfpd(RunConfig(**CONFIGS["sync"]), spec=SPEC).engine_diag
    assert set(diag) == {"events_processed", "batch"}
    assert set(diag["batch"]) == {"cohorts", "plans"}
