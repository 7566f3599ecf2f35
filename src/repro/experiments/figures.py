"""One function per table/figure of the paper's evaluation (§6).

Each function runs the corresponding experiment at a configurable scale
and returns ``(rows/data, report_text)`` where the report prints the
same series the paper plots, next to the paper's own numbers.  The
benchmark suite and ``repro experiment`` call these functions.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..datasets.registry import load_dataset
from ..datasets.stats import log_histogram, tail_summary
from .config import FIGURE_SWEEPS, SweepSpec, bench_scale, bench_seed
from .harness import SweepOutcome, run_sweep, sigma_grid
from .metrics import evaluate_checks, run_algorithm
from .paper_reference import (
    FIG5_ITERATION_FRACTION_AT_95PCT,
    GREEDY_IMPROVEMENT_OVER_STACK,
    TABLE1,
)
from .reporting import ascii_table, banner, format_rows

__all__ = [
    "EXPERIMENTS",
    "table1_experiment",
    "value_iterations_experiment",
    "violations_experiment",
    "anytime_experiment",
    "similarity_distribution_experiment",
    "capacity_distribution_experiment",
]

_FLOOR_SIGMAS = {
    "flickr-small": 1.0,
    "flickr-large": 1.0,
    "yahoo-answers": 2.0,
}


def _scaled(spec: SweepSpec, scale_multiplier: float) -> SweepSpec:
    return replace(spec, scale=spec.scale * scale_multiplier)


def _scale_and_seed(
    scale_multiplier: Optional[float], seed: Optional[int]
) -> Tuple[float, int]:
    """The arguments, each falling back to its ``REPRO_BENCH_*`` value."""
    return (
        bench_scale() if scale_multiplier is None else scale_multiplier,
        bench_seed() if seed is None else seed,
    )


def table1_experiment(
    scale_multiplier: Optional[float] = None,
    seed: Optional[int] = None,
) -> Tuple[List[Dict], str]:
    """Table 1: dataset characteristics, measured versus the paper."""
    scale_multiplier, seed = _scale_and_seed(scale_multiplier, seed)
    scales = {
        "flickr-small": 1.0,
        "flickr-large": 0.5,
        "yahoo-answers": 0.5,
    }
    rows: List[Dict] = []
    for name, base_scale in scales.items():
        dataset = load_dataset(
            name, seed=seed, scale=base_scale * scale_multiplier
        )
        measured = dataset.table1_row(_FLOOR_SIGMAS[name])
        paper = TABLE1[name]
        rows.append(
            {
                "dataset": name,
                "|T| measured": measured["items"],
                "|T| paper": paper["items"],
                "|C| measured": measured["consumers"],
                "|C| paper": paper["consumers"],
                "|E| measured": measured["edges"],
                "|E| paper": paper["edges"],
            }
        )
    text = banner("Table 1 — dataset characteristics") + "\n"
    text += (
        "(measured datasets are scaled synthetic stand-ins; "
        "see DESIGN.md)\n"
    )
    text += format_rows(
        rows,
        [
            "dataset",
            "|T| measured",
            "|T| paper",
            "|C| measured",
            "|C| paper",
            "|E| measured",
            "|E| paper",
        ],
    )
    return rows, text


def value_iterations_experiment(
    figure_key: str,
    scale_multiplier: Optional[float] = None,
    seed: Optional[int] = None,
) -> Tuple[SweepOutcome, str]:
    """Figures 1-3: matching value and MR iterations versus #edges."""
    scale_multiplier, seed = _scale_and_seed(scale_multiplier, seed)
    spec = _scaled(FIGURE_SWEEPS[figure_key], scale_multiplier)
    outcome = run_sweep(spec, seed=seed)
    figure_number = {"fig1": 1, "fig2": 2, "fig3": 3}[figure_key]
    text = banner(
        f"Figure {figure_number} — {spec.dataset}: matching value and "
        "MapReduce iterations vs number of edges"
    )
    text += "\n" + format_rows(
        [row.as_dict() for row in outcome.rows],
        [
            "algorithm",
            "alpha",
            "sigma",
            "edges",
            "value",
            "mr_jobs",
            "rounds",
            "layers",
            "avg_violation",
        ],
    )
    paper_gain = GREEDY_IMPROVEMENT_OVER_STACK[spec.dataset]
    text += (
        f"\npaper: GreedyMR value exceeds StackMR by ~"
        f"{paper_gain:.0%} on {spec.dataset}; stack algorithms "
        "use fewer MR iterations at scale.\n"
    )
    for check in evaluate_checks(outcome.rows):
        text += check.line() + "\n"
    return outcome, text


def violations_experiment(
    scale_multiplier: Optional[float] = None,
    seed: Optional[int] = None,
    epsilons: Sequence[float] = (1.0,),
) -> Tuple[List[SweepOutcome], str]:
    """Figure 4: StackMR capacity violations across σ, α (and ε)."""
    scale_multiplier, seed = _scale_and_seed(scale_multiplier, seed)
    base = _scaled(FIGURE_SWEEPS["fig4"], scale_multiplier)
    outcomes: List[SweepOutcome] = []
    text = banner(
        "Figure 4 — StackMR capacity violations (average ε′)"
    )
    for epsilon in epsilons:
        spec = replace(base, epsilon=epsilon)
        outcome = run_sweep(spec, seed=seed)
        outcomes.append(outcome)
        text += f"\nepsilon = {epsilon}:\n"
        text += format_rows(
            [row.as_dict() for row in outcome.rows],
            [
                "alpha",
                "sigma",
                "edges",
                "avg_violation",
                "max_violation",
                "value",
            ],
        )
    text += (
        "\npaper: at ε=1 violations are at most ~6% on flickr-large "
        "and grow with more edges (lower σ) and larger α; practically "
        "zero on yahoo-answers.\n"
    )
    return outcomes, text


def anytime_experiment(
    scale_multiplier: Optional[float] = None,
    seed: Optional[int] = None,
    datasets: Sequence[str] = (
        "flickr-small",
        "flickr-large",
        "yahoo-answers",
    ),
    alpha: float = 2.0,
) -> Tuple[List[Dict], str]:
    """Figure 5: GreedyMR any-time convergence.

    For each dataset, runs GreedyMR and reports at which fraction of its
    iterations the solution reached 95% of the final value, against the
    paper's 28.91% / 44.18% / 29.35%.
    """
    scale_multiplier, seed = _scale_and_seed(scale_multiplier, seed)
    scales = {
        "flickr-small": 0.3,
        "flickr-large": 0.2,
        "yahoo-answers": 0.2,
    }
    rows: List[Dict] = []
    curves: Dict[str, List[float]] = {}
    for name in datasets:
        dataset = load_dataset(
            name, seed=seed, scale=scales[name] * scale_multiplier
        )
        floor = _FLOOR_SIGMAS[name]
        sigma = sigma_grid(dataset, (0.2,), floor)[0]
        graph = dataset.graph(sigma=sigma, alpha=alpha)
        row = run_algorithm(
            name, graph, "greedy_mr", sigma=sigma, alpha=alpha
        )
        history = row.result.value_history
        rounds_at_95 = row.result.iterations_to_fraction(0.95)
        fraction = rounds_at_95 / len(history) if history else 0.0
        curves[name] = [
            value / history[-1] for value in history
        ] if history and history[-1] > 0 else []
        rows.append(
            {
                "dataset": name,
                "edges": row.num_edges,
                "iterations": len(history),
                "iters to 95%": rounds_at_95,
                "fraction measured": round(fraction, 4),
                "fraction paper": FIG5_ITERATION_FRACTION_AT_95PCT[name],
            }
        )
    text = banner(
        "Figure 5 — GreedyMR any-time convergence (95% of final value)"
    )
    text += "\n" + format_rows(
        rows,
        [
            "dataset",
            "edges",
            "iterations",
            "iters to 95%",
            "fraction measured",
            "fraction paper",
        ],
    )
    for name, curve in curves.items():
        if not curve:
            continue
        marks = [0.25, 0.5, 0.75, 1.0]
        points = [
            (
                f"{mark:.0%} iters",
                round(curve[min(int(mark * len(curve)), len(curve) - 1)], 4),
            )
            for mark in marks
        ]
        text += f"\n{name} value fraction: " + ", ".join(
            f"{label}={value}" for label, value in points
        )
    text += "\n"
    return rows, text


def similarity_distribution_experiment(
    scale_multiplier: Optional[float] = None,
    seed: Optional[int] = None,
) -> Tuple[Dict[str, Dict], str]:
    """Figure 6: distribution of edge similarities per dataset."""
    scale_multiplier, seed = _scale_and_seed(scale_multiplier, seed)
    scales = {
        "flickr-small": 0.5,
        "flickr-large": 0.25,
        "yahoo-answers": 0.25,
    }
    data: Dict[str, Dict] = {}
    text = banner("Figure 6 — distribution of edge similarities")
    for name, base_scale in scales.items():
        dataset = load_dataset(
            name, seed=seed, scale=base_scale * scale_multiplier
        )
        values = dataset.similarity_values(_FLOOR_SIGMAS[name])
        histogram = log_histogram(values)
        summary = tail_summary(values)
        data[name] = {"histogram": histogram, "summary": summary}
        text += f"\n{name} (n={histogram.count:,}):\n"
        text += ascii_table(
            ["similarity bin", "count"], histogram.rows()
        )
        text += "\ntail: " + ", ".join(
            f"{key}={value:.3g}" for key, value in summary.items()
        ) + "\n"
    text += (
        "\npaper: all three similarity distributions are heavy-tailed "
        "(most candidate edges have low weight).\n"
    )
    return data, text


def capacity_distribution_experiment(
    scale_multiplier: Optional[float] = None,
    seed: Optional[int] = None,
    alpha: float = 2.0,
) -> Tuple[Dict[str, Dict], str]:
    """Figure 7: distribution of capacities per dataset."""
    scale_multiplier, seed = _scale_and_seed(scale_multiplier, seed)
    scales = {
        "flickr-small": 0.5,
        "flickr-large": 0.25,
        "yahoo-answers": 0.25,
    }
    data: Dict[str, Dict] = {}
    text = banner(
        f"Figure 7 — distribution of capacities (alpha={alpha})"
    )
    for name, base_scale in scales.items():
        dataset = load_dataset(
            name, seed=seed, scale=base_scale * scale_multiplier
        )
        item_caps, consumer_caps = dataset.capacities(alpha)
        item_summary = tail_summary(list(item_caps.values()))
        consumer_summary = tail_summary(list(consumer_caps.values()))
        data[name] = {
            "items": {
                "histogram": log_histogram(list(item_caps.values())),
                "summary": item_summary,
            },
            "consumers": {
                "histogram": log_histogram(
                    list(consumer_caps.values())
                ),
                "summary": consumer_summary,
            },
        }
        text += f"\n{name} item capacities:    " + ", ".join(
            f"{key}={value:.3g}" for key, value in item_summary.items()
        )
        text += f"\n{name} consumer capacities: " + ", ".join(
            f"{key}={value:.3g}"
            for key, value in consumer_summary.items()
        )
    text += (
        "\n\npaper: capacity distributions are heavy-tailed; "
        "flickr-large's item capacities are markedly more skewed than "
        "flickr-small's (the paper's explanation for its violation and "
        "StackGreedyMR anomalies); yahoo-answers item capacities are "
        "constant by construction.\n"
    )
    return data, text


#: The menu ``repro experiment`` runs, in this order: each entry maps
#: ``(scale, seed)`` to the experiment's report text.
EXPERIMENTS: Dict[str, Callable[[float, int], str]] = {
    "table1": lambda scale, seed: table1_experiment(scale, seed)[1],
    "fig1": lambda scale, seed: value_iterations_experiment(
        "fig1", scale, seed
    )[1],
    "fig2": lambda scale, seed: value_iterations_experiment(
        "fig2", scale, seed
    )[1],
    "fig3": lambda scale, seed: value_iterations_experiment(
        "fig3", scale, seed
    )[1],
    "fig4": lambda scale, seed: violations_experiment(scale, seed)[1],
    "fig5": lambda scale, seed: anytime_experiment(scale, seed)[1],
    "fig6": lambda scale, seed: similarity_distribution_experiment(
        scale, seed
    )[1],
    "fig7": lambda scale, seed: capacity_distribution_experiment(
        scale, seed
    )[1],
}
