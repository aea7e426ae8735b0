"""Analysis layer: metrics, experiment runners, and plain-text reporting.

The experiment runners in :mod:`~repro.analysis.experiments` are the single
source of truth for every entry of EXPERIMENTS.md; they are registered in
:data:`repro.api.registry.EXPERIMENTS` and executed through
:meth:`repro.api.session.Session.experiment` — the benchmarks under
``benchmarks/`` and the command-line interface both go through that layer.
"""

from repro.analysis.metrics import RoutingMetrics
from repro.analysis.reporting import format_table, format_experiment_report
from repro.analysis.experiments import ExperimentResult

__all__ = [
    "RoutingMetrics",
    "format_table",
    "format_experiment_report",
    "ExperimentResult",
]
