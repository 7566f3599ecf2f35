"""Experiment harness: regenerate every table and figure of the paper.

Programmatic use::

    from repro.experiments import value_iterations_experiment
    outcome, report = value_iterations_experiment("fig1")
    print(report)

Command line (scaled-down quick pass over everything)::

    repro experiment --scale 0.5
"""

from .config import FIGURE_SWEEPS, SweepSpec, bench_scale, bench_seed
from .figures import (
    anytime_experiment,
    capacity_distribution_experiment,
    similarity_distribution_experiment,
    table1_experiment,
    value_iterations_experiment,
    violations_experiment,
)
from .harness import SweepOutcome, run_sweep, sigma_grid
from .metrics import ResultRow, ShapeCheck, evaluate_checks, run_algorithm
from .paper_reference import (
    FIG5_ITERATION_FRACTION_AT_95PCT,
    GREEDY_IMPROVEMENT_OVER_STACK,
    PAPER_CITATION,
    TABLE1,
)
from .reporting import ascii_table, banner, format_rows

__all__ = [
    "FIGURE_SWEEPS",
    "FIG5_ITERATION_FRACTION_AT_95PCT",
    "GREEDY_IMPROVEMENT_OVER_STACK",
    "PAPER_CITATION",
    "ResultRow",
    "ShapeCheck",
    "SweepOutcome",
    "SweepSpec",
    "TABLE1",
    "anytime_experiment",
    "ascii_table",
    "banner",
    "bench_scale",
    "bench_seed",
    "capacity_distribution_experiment",
    "evaluate_checks",
    "format_rows",
    "run_algorithm",
    "run_sweep",
    "sigma_grid",
    "similarity_distribution_experiment",
    "table1_experiment",
    "value_iterations_experiment",
    "violations_experiment",
]
