"""Experiment runners: one per table/figure of the paper's evaluation.

=============  ==========================================  ==============
paper item     what it shows                               runner
=============  ==========================================  ==============
Table 1        L96 + %time per phase (96 ranks, Thunder)   :func:`run_table1`
Figure 2       trace timeline of one step                  :func:`run_fig2`
Figure 6       hybrid assembly speedups per strategy       :func:`run_fig6`
Figure 7       hybrid SGS speedups per strategy            :func:`run_fig7`
Figure 8       4e5 particles, MN4, orig vs DLB             :func:`run_fig8`
Figure 9       4e5 particles, Thunder, orig vs DLB         :func:`run_fig9`
Figure 10      7e6 particles, MN4, orig vs DLB             :func:`run_fig10`
Figure 11      7e6 particles, Thunder, orig vs DLB         :func:`run_fig11`
Sec. 4.3 IPC   assembly IPC counters per strategy          :func:`run_ipc_counters`
=============  ==========================================  ==============
"""

from .common import (
    format_table,
    large_load_spec,
    paper_scale_spec,
    reference_spec,
    reference_workload,
    small_load_spec,
)
from .dlb_figures import (
    COUPLED_SPLITS,
    DLBFigureResult,
    run_dlb_figure,
    run_fig8,
    run_fig9,
    run_fig10,
    run_fig11,
)
from .fig2 import Fig2Result, run_fig2
from .fig67 import CLUSTER_TOTALS, HybridSweepResult, run_fig6, run_fig7
from .ipc import IPCResult, PAPER_IPC, run_ipc_counters
from .report import ARTIFACTS, generate_all
from .table1 import PAPER_TABLE1, Table1Result, run_table1

__all__ = [
    "ARTIFACTS",
    "CLUSTER_TOTALS",
    "COUPLED_SPLITS",
    "DLBFigureResult",
    "Fig2Result",
    "HybridSweepResult",
    "IPCResult",
    "PAPER_IPC",
    "PAPER_TABLE1",
    "Table1Result",
    "format_table",
    "generate_all",
    "large_load_spec",
    "paper_scale_spec",
    "reference_spec",
    "reference_workload",
    "run_dlb_figure",
    "run_fig2",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_fig10",
    "run_fig11",
    "run_ipc_counters",
    "run_table1",
    "small_load_spec",
]
