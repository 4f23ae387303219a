"""The experiment registry: ``id -> (run, format, check)``.

``run()`` produces the result, ``format(result)`` renders the table the
CLI prints, and ``check(result)`` raises ``AssertionError`` unless the
result has the shape the paper (or DESIGN.md, for the extensions)
claims.  This is the only way an experiment is run, formatted or
checked; ``python -m repro.experiments --check`` walks it.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, NamedTuple

from .ablation import (
    check_alf,
    check_segregation,
    format_alf,
    format_segregation,
    run_alf_ablation,
    run_segregation_sweep,
)
from .admission_exp import check_admission, format_admission, run_admission
from .adversary_exp import (
    check_adversary,
    format_adversary,
    run_adversary_matrix,
)
from .chaos import (
    check_tcp_recovery,
    check_watchdog_recovery,
    format_tcp_recovery,
    format_watchdog_recovery,
    run_tcp_profiles,
    run_watchdog_recovery,
)
from .early_discard import (
    check_early_discard,
    format_early_discard,
    run_early_discard,
)
from .edf_rr import check_edf_rr, format_edf_rr, run_queue_sweep
from .micro import check_micro, format_micro, measure_structure
from .multihop_exp import (
    check_multihop,
    format_multihop,
    run_loss_amplification,
    run_multihop,
)
from .multipath_exp import (
    check_multipath,
    format_multipath,
    run_multipath,
    run_pool_churn,
)
from .queue_sizing import (
    check_queue_sizing,
    format_queue_sizing,
    run_queue_sizing,
)
from .shard_exp import check_shard, format_shard, run_shard
from .table1 import check_table1, format_table1, run_table1
from .table2 import check_table2, format_table2, run_table2
from .trace_exp import check_trace, format_trace, run_trace


class Experiment(NamedTuple):
    run: Callable[[], Any]
    format: Callable[[Any], str]
    check: Callable[[Any], None]


EXPERIMENTS: Dict[str, Experiment] = {
    "table1": Experiment(run_table1, format_table1, check_table1),
    "table2": Experiment(run_table2, format_table2, check_table2),
    "e3": Experiment(partial(run_queue_sweep, queue_sizes=[16, 128]),
                     format_edf_rr, check_edf_rr),
    "e4": Experiment(measure_structure, format_micro, check_micro),
    "e5": Experiment(
        partial(run_queue_sizing, latencies_us=[100.0, 10_000.0],
                inq_lens=[1, 2, 4, 8, 16, 32]),
        format_queue_sizing, check_queue_sizing),
    "e6": Experiment(run_admission, format_admission, check_admission),
    "e7": Experiment(run_early_discard, format_early_discard,
                     check_early_discard),
    "e8": Experiment(
        lambda: (run_segregation_sweep(rates_pps=[0, 2000, 4000]),
                 run_alf_ablation()),
        lambda r: format_segregation(r[0]) + "\n\n" + format_alf(r[1]),
        lambda r: (check_segregation(r[0]), check_alf(r[1]))),
    "trace": Experiment(run_trace, format_trace, check_trace),
    "multipath": Experiment(
        lambda: (run_multipath(), run_pool_churn()),
        lambda r: format_multipath(*r),
        lambda r: check_multipath(*r)),
    "adversary": Experiment(run_adversary_matrix, format_adversary,
                            check_adversary),
    "multihop": Experiment(
        lambda: (run_multihop(), run_loss_amplification()),
        lambda r: format_multihop(*r),
        lambda r: check_multihop(*r)),
    "shard": Experiment(run_shard, format_shard, check_shard),
    "recovery": Experiment(
        lambda: (run_tcp_profiles(seed=1, payload_bytes=16_000),
                 run_watchdog_recovery(seed=3, nframes=120,
                                       max_seconds=30.0)),
        lambda r: (format_tcp_recovery(r[0]) + "\n\n"
                   + format_watchdog_recovery(r[1])),
        lambda r: (check_tcp_recovery(r[0]),
                   check_watchdog_recovery(r[1]))),
}
