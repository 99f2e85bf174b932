"""One serialization path for run configurations, workload specs and plans.

Everything the campaign layer persists — job fingerprints, result-store
records, spec files, the CLI's ``--json`` output — goes through the
functions here, so a configuration always round-trips to the *same* bytes:

* dataclasses are flattened to plain dicts (enums to their values, nested
  dataclasses recursively), rebuilt with full eager validation;
* :func:`canonical_json` renders any jsonable tree with sorted keys and
  fixed separators — the byte-stable form every SHA-256 fingerprint and
  every on-disk store object is computed from;
* :func:`fingerprint_payload` defines the identity of a simulation cell:
  ``(schema, RunConfig, WorkloadSpec, FaultPlan)`` and nothing else, so
  identical physics+runtime cells collide (memoize) across campaigns.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Optional

import numpy as np

from ..app import RunConfig, WorkloadSpec
from ..core import Strategy, StrategyParams
from ..fault import FaultPlan, FaultSpec

__all__ = [
    "FINGERPRINT_SCHEMA",
    "RETIRED_CONFIG_FIELDS",
    "canonical_json",
    "config_from_dict",
    "config_to_dict",
    "fingerprint_payload",
    "job_fingerprint",
    "plan_from_dict",
    "plan_to_dict",
    "plain",
    "spec_from_dict",
    "spec_to_dict",
]

#: Bump when the fingerprint payload layout changes (invalidates stores).
FINGERPRINT_SCHEMA = 1

#: RunConfig fields that were removed, with the one value every run had
#: after the removal.  The fingerprint payload keeps them so stores written
#: before the removal stay valid; spec files may still name them with that
#: value.
RETIRED_CONFIG_FIELDS = {"collect_mpi_trace": False}


def plain(value: Any) -> Any:
    """Recursively convert ``value`` into plain JSON-able python.

    Handles numpy scalars/arrays, enums, dataclasses, and mappings — the
    kinds of values run results and configurations are made of.
    """
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [plain(v) for v in value.tolist()]
    if isinstance(value, Strategy):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}: {value!r}")


def canonical_json(tree: Any) -> str:
    """The byte-stable JSON rendering (sorted keys, fixed separators)."""
    return json.dumps(plain(tree), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


# -- RunConfig ---------------------------------------------------------------

def config_to_dict(config: RunConfig) -> dict:
    """Flatten a :class:`RunConfig` (enums to values, params to a dict)."""
    return plain(config)


def config_from_dict(data: dict) -> RunConfig:
    """Rebuild a :class:`RunConfig`; eager validation runs as usual.

    A retired field (:data:`RETIRED_CONFIG_FIELDS`) is dropped when it holds
    its retired value and rejected otherwise.
    """
    kwargs = dict(data)
    for key, value in RETIRED_CONFIG_FIELDS.items():
        if kwargs.pop(key, value) != value:
            raise ValueError(f"config field {key!r} was retired; only "
                             f"{key}={value!r} is accepted")
    _check_fields(RunConfig, kwargs, "config")
    for key in ("assembly_strategy", "sgs_strategy"):
        if key in kwargs and not isinstance(kwargs[key], Strategy):
            kwargs[key] = Strategy(kwargs[key])
    params = kwargs.get("strategy_params")
    if isinstance(params, dict):
        _check_fields(StrategyParams, params, "config.strategy_params")
        kwargs["strategy_params"] = StrategyParams(**params)
    return RunConfig(**kwargs)


# -- WorkloadSpec ------------------------------------------------------------

def spec_to_dict(spec: WorkloadSpec) -> dict:
    return plain(spec)


def spec_from_dict(data: dict) -> WorkloadSpec:
    kwargs = dict(data)
    _check_fields(WorkloadSpec, kwargs, "spec")
    return WorkloadSpec(**kwargs)


# -- FaultPlan ---------------------------------------------------------------

def plan_to_dict(plan: Optional[FaultPlan]) -> Optional[dict]:
    if plan is None:
        return None
    return {"seed": plan.seed, "specs": [plain(s) for s in plan.specs]}


def plan_from_dict(data: Optional[dict]) -> Optional[FaultPlan]:
    if data is None:
        return None
    if isinstance(data, FaultPlan):
        return data
    specs = []
    for entry in data.get("specs", ()):
        kwargs = dict(entry)
        _check_fields(FaultSpec, kwargs, "fault_plan.specs")
        specs.append(FaultSpec(**kwargs))
    return FaultPlan(specs=tuple(specs), seed=int(data.get("seed", 0)))


# -- fingerprints ------------------------------------------------------------

def fingerprint_payload(config: RunConfig, spec: WorkloadSpec,
                        fault_plan: Optional[FaultPlan] = None) -> dict:
    """The identity of one simulation cell — what memoization keys on.

    Campaign names, job indices and descriptive tags stay *out* so the same
    cell reached from different campaigns shares one store object (e.g.
    Fig. 6 and Fig. 7 sweep identical configurations and differ only in
    which phase they read).  Retired config fields keep their one value,
    so removing a field moves no fingerprint.
    """
    return {
        "schema": FINGERPRINT_SCHEMA,
        "config": {**config_to_dict(config), **RETIRED_CONFIG_FIELDS},
        "spec": spec_to_dict(spec),
        "fault_plan": plan_to_dict(fault_plan),
    }


def job_fingerprint(config: RunConfig, spec: WorkloadSpec,
                    fault_plan: Optional[FaultPlan] = None) -> str:
    """SHA-256 of the canonical fingerprint payload."""
    payload = canonical_json(fingerprint_payload(config, spec, fault_plan))
    return hashlib.sha256(payload.encode()).hexdigest()


def _check_fields(cls, kwargs: dict, where: str) -> None:
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(kwargs) - known)
    if unknown:
        raise ValueError(
            f"unknown {where} field(s) {unknown}; "
            f"available: {sorted(known)}")
