"""Experiment harnesses: one module per paper table / in-text experiment.

See DESIGN.md section 4 for the experiment index.  ``EXPERIMENTS`` maps
each id to its ``(run, format, check)``; ``python -m repro.experiments
[--check]`` walks it, and every harness is importable for programmatic
use.
"""

from .ablation import (
    AlfResult,
    SegregationPoint,
    format_alf,
    format_segregation,
    measure_alf,
    measure_segregation,
    run_alf_ablation,
    run_segregation_sweep,
)
from .adversary_exp import (
    AdversaryRunResult,
    format_adversary,
    run_adversary,
    run_adversary_matrix,
)
from .admission_exp import (
    AdmissionDecision,
    AdmissionReport,
    ClipSample,
    admission_scenario,
    fit_model,
    format_admission,
    measure_clip_cost,
    run_admission,
)
from .chaos import (
    TcpRecoveryResult,
    WatchdogRecoveryResult,
    format_tcp_recovery,
    format_watchdog_recovery,
    run_tcp_profiles,
    run_tcp_recovery,
    run_watchdog_recovery,
)
from .early_discard import (
    EarlyDiscardResult,
    format_early_discard,
    run_early_discard,
)
from .edf_rr import EdfRrResult, format_edf_rr, run_edf_rr, run_queue_sweep
from .micro import Fig7Stack, MicroReport, format_micro, measure_structure
from .multihop_exp import (
    LossGoodput,
    MultihopRun,
    build_three_hop,
    format_multihop,
    run_loss_amplification,
    run_multihop,
)
from .multipath_exp import (
    MultipathPoint,
    PoolChurnResult,
    format_multipath,
    run_multipath,
    run_pool_churn,
)
from .queue_sizing import (
    QueueSizingPoint,
    format_queue_sizing,
    measure_point,
    run_queue_sizing,
)
from .registry import EXPERIMENTS, Experiment
from .shard_exp import ShardRun, format_shard, run_shard
from .table1 import PAPER_TABLE1, Table1Row, format_table1, measure_max_rate, run_table1
from .trace_exp import TraceReport, format_trace, run_trace
from .table2 import PAPER_TABLE2, Table2Row, format_table2, measure_under_load, run_table2
from .testbed import Testbed, frames_budget

__all__ = [
    "EXPERIMENTS", "Experiment",
    "Testbed", "frames_budget",
    "run_table1", "format_table1", "measure_max_rate", "Table1Row",
    "PAPER_TABLE1",
    "run_table2", "format_table2", "measure_under_load", "Table2Row",
    "PAPER_TABLE2",
    "run_edf_rr", "run_queue_sweep", "format_edf_rr", "EdfRrResult",
    "Fig7Stack", "measure_structure", "format_micro", "MicroReport",
    "run_queue_sizing", "measure_point", "format_queue_sizing",
    "QueueSizingPoint",
    "fit_model", "measure_clip_cost", "admission_scenario", "run_admission",
    "format_admission", "ClipSample", "AdmissionDecision", "AdmissionReport",
    "run_early_discard", "format_early_discard", "EarlyDiscardResult",
    "run_segregation_sweep", "measure_segregation", "format_segregation",
    "SegregationPoint",
    "run_alf_ablation", "measure_alf", "format_alf", "AlfResult",
    "run_tcp_recovery", "run_tcp_profiles", "format_tcp_recovery",
    "TcpRecoveryResult",
    "run_watchdog_recovery", "format_watchdog_recovery",
    "WatchdogRecoveryResult",
    "run_trace", "format_trace", "TraceReport",
    "run_multipath", "run_pool_churn", "format_multipath",
    "MultipathPoint", "PoolChurnResult",
    "run_multihop", "run_loss_amplification", "format_multihop",
    "run_shard", "format_shard", "ShardRun",
    "build_three_hop", "MultihopRun", "LossGoodput",
    "run_adversary", "run_adversary_matrix", "format_adversary",
    "AdversaryRunResult",
]
