"""The stage-keyed workload: every spec field feeds the stages whose keys
name it, and only those.

The keys are derived, not trusted: each field of ``WorkloadSpec`` is
changed alone on top of a base spec built through the stage caches, and
the cached workload of the changed spec must equal a fresh build byte for
byte.  A field missing from a key it feeds would reuse the base's stale
stage and fail; a field no stage reads would not move its stage and fail.
"""

import dataclasses
import gc
import hashlib

import numpy as np
import pytest

import repro.app.workload as workload_mod
from repro.app.workload import (
    FLOW_FIELDS,
    MESH_FIELDS,
    PARTICLE_CACHE_SIZE,
    PARTICLE_FIELDS,
    Workload,
    WorkloadSpec,
    get_workload,
)

#: Tiny, with every field live: global adaptive steps walk three rungs of
#: the ladder, the ventilator waveform drives them, and inhale-gated
#: injections land on three of the eight schedule steps.
BASE = WorkloadSpec(generations=2, points_per_ring=6, rings=2, n_steps=16,
                    dt=1e-4, cfl_target=0.1, adaptive="global",
                    inlet_waveform="ventilator", injection_phase="inhale",
                    injection_interval=1, breathing_cycles=2)

#: One changed value per field, each moving the outputs of the first
#: stage whose key holds the field.
CHANGED = {
    "generations": 3, "points_per_ring": 7, "rings": 3, "mesh_seed": 7,
    "particle_ratio": 0.1, "n_steps": 12, "dt": 1.5e-4,
    "inlet_flow_rate": 2e-3, "injection_seed": 8, "injection_interval": 2,
    "adaptive": "local", "cfl_target": 0.2, "dt_ladder_rungs": 1,
    "dt_ladder_ratio": 3.0, "inlet_waveform": "breathing",
    "respiratory_rate": 20.0, "tidal_volume": 500.0,
    "inspiratory_time": 1.2, "inspiratory_pause": 0.1, "cpap": 2.0,
    "breathing_cycles": 1, "injection_phase": "any",
    "particle_diameter": 6e-6,
}

STAGES = (("mesh_stage", MESH_FIELDS), ("flow_stage", FLOW_FIELDS),
          ("particle_stage", PARTICLE_FIELDS))

NRANKS = 3


def _sha(*parts) -> str:
    """SHA-256 over arrays (their bytes) and anything else (its repr)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _decomposition_sha(data) -> str:
    """Every output of a ``DecompData``, as the ``decomposition/*`` golden
    entries hash it."""
    parts = [data.labels]
    for rw in data.ranks:
        parts += [rw.rank, rw.element_ids, rw.colors, rw.sub_labels,
                  rw.assembly_instr, rw.assembly_atomics, rw.sgs_instr,
                  [sorted(s) for s in rw.sub_adjacency],
                  (rw.solver_nnz, rw.halo_bytes, rw.neighbors)]
    return _sha(*parts)


def stage_hashes(wl: Workload) -> dict:
    """One hash per stage over everything that stage produces."""
    continuity = wl.operators()["continuity"]
    momentum = wl.operators()["momentum"]
    trajectory = wl.trajectory()
    mid = wl.particle_state_at(len(trajectory) // 2)
    return {
        "mesh_stage": _sha(
            wl.mesh.coords, wl.mesh.elem_nodes,
            _decomposition_sha(wl.decomposition(NRANKS)),
            continuity.data, continuity.indices, continuity.indptr,
            wl.overlap_bytes(NRANKS, 2)),
        "flow_stage": _sha(
            wl.nodal_velocity, wl.element_rates(), wl.dt_schedule(),
            wl.subcycle_matrix(NRANKS), momentum.data, momentum.indices,
            wl.solve_fluid_step(), wl.sgs_history(),
            wl.schedule_summary(NRANKS)),
        "particle_stage": _sha(
            wl.n_particles, sorted(wl.injection_step_set()),
            *[step["positions"] for step in trajectory],
            [step["counts"] for step in trajectory],
            wl.deposition_summary(), wl.cosim_summary(),
            wl.particle_histograms(NRANKS), mid.x, mid.v, mid.status),
    }


@pytest.fixture(scope="module")
def base():
    wl = get_workload(BASE)
    return wl, stage_hashes(wl)


@pytest.fixture
def empty_caches(monkeypatch):
    """Fresh, empty stage caches for one test (the process-wide ones are
    restored afterwards)."""
    caches = {name: type(getattr(workload_mod, name))() for name in
              ("_MESH_STAGES", "_FLOW_STAGES", "_PARTICLE_STAGES")}
    for name, cache in caches.items():
        monkeypatch.setattr(workload_mod, name, cache)
    return caches


def test_changed_values_cover_every_field():
    assert set(CHANGED) == {f.name for f in dataclasses.fields(WorkloadSpec)}
    assert set(PARTICLE_FIELDS) == set(CHANGED)


@pytest.mark.parametrize("field", [f.name for f in
                                   dataclasses.fields(WorkloadSpec)])
def test_one_changed_field_rebuilds_exactly_its_stages(field, base):
    base_wl, base_hashes = base
    get_workload(BASE)          # the base stages are the most recent
    changed = dataclasses.replace(BASE, **{field: CHANGED[field]})
    cached = get_workload(changed)
    hashes = stage_hashes(cached)
    assert hashes == stage_hashes(Workload(changed)), (
        f"{field}: a cached stage is stale (its key misses the field)")
    fed = [stage for stage, fields in STAGES if field in fields]
    assert fed, f"{field} is in no stage key"
    assert hashes[fed[0]] != base_hashes[fed[0]], (
        f"{field}: the {fed[0]} key holds a field it does not read")
    for stage, _fields in STAGES:
        shared = getattr(cached, stage) is getattr(base_wl, stage)
        assert shared == (stage not in fed), (field, stage)


def test_diameter_neighbour_shares_mesh_and_flow(base):
    base_wl, _ = base
    get_workload(BASE)
    neighbour = get_workload(dataclasses.replace(BASE,
                                                 particle_diameter=5e-6))
    assert neighbour.mesh is base_wl.mesh
    assert neighbour.flow is base_wl.flow
    assert neighbour.mesh_stage is base_wl.mesh_stage
    assert neighbour.flow_stage is base_wl.flow_stage
    assert neighbour.particle_stage is not base_wl.particle_stage


def test_fresh_workload_shares_nothing(empty_caches, base):
    base_wl, _ = base
    fresh = Workload(BASE)
    for stage, _fields in STAGES:
        assert getattr(fresh, stage) is not getattr(base_wl, stage)
    assert all(len(cache) == 0 for cache in empty_caches.values())


def test_particle_cache_stays_within_its_bound(empty_caches):
    specs = [dataclasses.replace(BASE, particle_diameter=(4 + k) * 1e-6)
             for k in range(PARTICLE_CACHE_SIZE + 2)]
    for spec in specs:
        get_workload(spec)
    particles = empty_caches["_PARTICLE_STAGES"]
    assert len(particles) == PARTICLE_CACHE_SIZE
    # least recently used first out: the newest specs are the ones kept
    newest = specs[-PARTICLE_CACHE_SIZE:]
    assert list(particles) == [workload_mod.stage_key(s, PARTICLE_FIELDS)
                               for s in newest]
    # a hit makes its stage the most recently used
    get_workload(newest[0])
    assert next(reversed(particles)) == workload_mod.stage_key(
        newest[0], PARTICLE_FIELDS)


def test_live_flow_stage_is_reused_not_rebuilt(empty_caches):
    # more distinct flows than any fixed flow bound would hold, each
    # still held by its cached particle stage
    flows = [dataclasses.replace(BASE, inlet_flow_rate=q * 1e-4)
             for q in range(1, 11)]
    first = get_workload(flows[0]).particle_stage
    for spec in flows[1:]:
        get_workload(spec)
    neighbour = get_workload(dataclasses.replace(
        flows[0], particle_diameter=9e-6))
    assert neighbour.flow_stage is first.flow_stage
    assert neighbour.mesh_stage is first.mesh_stage
    assert len(empty_caches["_MESH_STAGES"]) == 1


def test_evicted_particle_stages_free_their_flow_stage(empty_caches):
    old = dataclasses.replace(BASE, inlet_flow_rate=2e-3)
    get_workload(old)
    for k in range(PARTICLE_CACHE_SIZE):
        get_workload(dataclasses.replace(BASE,
                                         particle_diameter=(4 + k) * 1e-6))
    gc.collect()
    flows = empty_caches["_FLOW_STAGES"]
    assert workload_mod.stage_key(old, FLOW_FIELDS) not in flows
    assert list(flows) == [workload_mod.stage_key(BASE, FLOW_FIELDS)]
    assert len(empty_caches["_MESH_STAGES"]) == 1


def test_view_builds_what_a_stage_method_reads_through_the_view(
        monkeypatch, empty_caches):
    # a tracer wraps the view's methods: each product must be built under
    # its own name, not inside the stage method that reads it, and a cached
    # view must be made by ``Workload.__init__`` like a fresh one
    calls = []
    for name in ("__init__", "dt_schedule", "operators", "trajectory"):
        def traced(self, *args, _method=getattr(Workload, name), _name=name,
                   **kwargs):
            calls.append(_name)
            return _method(self, *args, **kwargs)
        monkeypatch.setattr(Workload, name, traced)
    wl = get_workload(BASE)
    wl.particle_histograms(NRANKS)
    wl.solve_fluid_step()
    assert calls == ["__init__", "trajectory", "dt_schedule", "operators"]
