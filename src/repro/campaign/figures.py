"""The paper's evaluation matrix as campaign specs.

The figure runners in :mod:`repro.experiments` used to sweep their
configurations with ad-hoc loops; the grids now live here as
:class:`~repro.campaign.spec.CampaignSpec` builders so experiments, the
``campaign`` CLI and the benchmarks share one execution path *and* one
memoization domain — Fig. 6 and Fig. 7 expand to identical cells (they
differ only in which phase they read), so running one makes the other a
100% cache hit.  Besides the figure sweeps only two smoke grids are built
in; any other sweep is a spec file (:meth:`CampaignSpec.from_file`).
"""

from __future__ import annotations

from typing import Optional

from ..app import LARGE_PARTICLE_RATIO, SMALL_PARTICLE_RATIO, RunConfig, \
    WorkloadSpec
from ..core import Strategy
from .spec import CampaignSpec

__all__ = ["BUILTIN_CAMPAIGNS", "CLUSTER_TOTALS", "COUPLED_SPLITS",
           "ci_smoke_campaign", "demo_campaign", "dlb_figure_campaign",
           "get_campaign", "hybrid_sweep_campaign"]

#: Total cores used per cluster in the paper's Fig. 6/7 sweeps.
CLUSTER_TOTALS = {"marenostrum4": 96, "thunder": 192}

#: Fluid+particle rank splits swept per cluster (nranks = cluster cores).
COUPLED_SPLITS = {
    "marenostrum4": (48, 64, 80),
    "thunder": (96, 128, 160),
}

_HYBRID_STRATEGIES = ("atomics", "coloring", "multidep")
_HYBRID_THREADS = (1, 2, 4)


def hybrid_sweep_campaign(spec: Optional[WorkloadSpec] = None,
                          totals: Optional[dict] = None,
                          name: str = "hybrid-sweep") -> CampaignSpec:
    """The Fig. 6/7 matrix: per cluster, the pure-MPI baseline plus
    {atomics, coloring, multidep} x {1, 2, 4} threads at constant cores.

    Phase-agnostic on purpose: the same cells serve the assembly figure
    (Fig. 6) and the SGS figure (Fig. 7).
    """
    runs = []
    for cluster, total in (totals or CLUSTER_TOTALS).items():
        runs.append({
            "config.cluster": cluster, "config.nranks": total,
            "config.threads_per_rank": 1,
            "config.assembly_strategy": "mpionly",
            "config.sgs_strategy": "mpionly",
            "tags.cluster": cluster, "tags.role": "baseline",
            "tags.strategy": "mpionly", "tags.threads": "1",
        })
        for strategy in _HYBRID_STRATEGIES:
            for threads in _HYBRID_THREADS:
                runs.append({
                    "config.cluster": cluster,
                    "config.nranks": total // threads,
                    "config.threads_per_rank": threads,
                    "config.assembly_strategy": strategy,
                    "config.sgs_strategy": strategy,
                    "tags.cluster": cluster, "tags.role": "hybrid",
                    "tags.strategy": strategy, "tags.threads": str(threads),
                })
    return CampaignSpec(name=name, base_config=RunConfig(),
                        base_spec=spec or WorkloadSpec(), runs=runs)


def dlb_figure_campaign(cluster: str, spec: Optional[WorkloadSpec] = None,
                        total: Optional[int] = None,
                        splits: Optional[tuple] = None,
                        name: Optional[str] = None) -> CampaignSpec:
    """One of Figs. 8-11: {sync, coupled splits} x {DLB off, on} on one
    cluster (multidep assembly + atomics SGS, as in the paper)."""
    total = total if total is not None else CLUSTER_TOTALS[cluster]
    splits = splits if splits is not None else COUPLED_SPLITS[cluster]
    runs = [{"config.mode": "sync", "config.fluid_ranks": 0,
             "tags.split": "sync", "tags.label": f"sync {total}"}]
    runs += [{"config.mode": "coupled", "config.fluid_ranks": f,
              "tags.split": str(f), "tags.label": f"{f}+{total - f}"}
             for f in splits]
    return CampaignSpec(
        name=name or f"dlb-{cluster}",
        base_config=RunConfig(cluster=cluster, nranks=total,
                              threads_per_rank=1,
                              assembly_strategy=Strategy.MULTIDEP,
                              sgs_strategy=Strategy.ATOMICS),
        base_spec=spec or WorkloadSpec(),
        runs=runs,
        grid=[("config.dlb", [False, True])])


def demo_campaign(spec: Optional[WorkloadSpec] = None) -> CampaignSpec:
    """A small but non-trivial sweep for the quickstart example: rank
    counts x DLB on a single Thunder node."""
    return CampaignSpec(
        name="demo",
        base_config=RunConfig(cluster="thunder", num_nodes=1,
                              threads_per_rank=2),
        base_spec=spec or WorkloadSpec(generations=3, points_per_ring=6,
                                       n_steps=4),
        grid=[("config.nranks", [4, 8]),
              ("config.dlb", [False, True])])


def ci_smoke_campaign(spec: Optional[WorkloadSpec] = None) -> CampaignSpec:
    """The CI smoke grid: 4 tiny jobs (2 rank counts x DLB off/on)."""
    return CampaignSpec(
        name="ci-smoke",
        base_config=RunConfig(cluster="thunder", num_nodes=1,
                              threads_per_rank=1),
        base_spec=spec or WorkloadSpec(generations=2, points_per_ring=6,
                                       n_steps=2),
        grid=[("config.nranks", [2, 4]),
              ("config.dlb", [False, True])])


BUILTIN_CAMPAIGNS = {
    "demo": demo_campaign,
    "ci-smoke": ci_smoke_campaign,
    "fig6": lambda spec=None: hybrid_sweep_campaign(spec, name="fig6"),
    "fig7": lambda spec=None: hybrid_sweep_campaign(spec, name="fig7"),
    "fig8": lambda spec=None: dlb_figure_campaign(
        "marenostrum4", _load(spec, SMALL_PARTICLE_RATIO), name="fig8"),
    "fig9": lambda spec=None: dlb_figure_campaign(
        "thunder", _load(spec, SMALL_PARTICLE_RATIO), name="fig9"),
    "fig10": lambda spec=None: dlb_figure_campaign(
        "marenostrum4", _load(spec, LARGE_PARTICLE_RATIO), name="fig10"),
    "fig11": lambda spec=None: dlb_figure_campaign(
        "thunder", _load(spec, LARGE_PARTICLE_RATIO), name="fig11"),
}


def _load(spec: Optional[WorkloadSpec], ratio: float) -> WorkloadSpec:
    import dataclasses

    return dataclasses.replace(spec or WorkloadSpec(),
                               particle_ratio=ratio)


def get_campaign(name: str,
                 spec: Optional[WorkloadSpec] = None) -> CampaignSpec:
    """A built-in campaign by name (optionally over a custom workload)."""
    try:
        builder = BUILTIN_CAMPAIGNS[name]
    except KeyError:
        raise KeyError(f"unknown campaign {name!r}; available: "
                       f"{sorted(BUILTIN_CAMPAIGNS)}") from None
    return builder(spec)
