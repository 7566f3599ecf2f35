"""Experiment configuration shared by the harness and the benchmarks.

Benchmark scale is environment-tunable: ``REPRO_BENCH_SCALE`` multiplies
dataset sizes (default keeps the whole suite laptop-sized), and
``REPRO_BENCH_SEED`` pins the generator seed.  The per-figure parameter
grids (σ via target edge counts, α, ε) live here so benchmarks, tests,
and the experiment reports all agree on what was run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

__all__ = ["bench_scale", "bench_seed", "SweepSpec", "FIGURE_SWEEPS"]


def bench_scale(default: float = 1.0) -> float:
    """Global dataset scale for benchmarks (``REPRO_BENCH_SCALE``)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", default))


def bench_seed(default: int = 0) -> int:
    """Global generator seed for benchmarks (``REPRO_BENCH_SEED``)."""
    return int(os.environ.get("REPRO_BENCH_SEED", default))


@dataclass
class SweepSpec:
    """One figure's parameter grid.

    ``edge_fractions`` positions the x-axis of Figures 1–3: each entry
    is a fraction of the dataset's candidate edges at ``floor_sigma``,
    converted to a σ threshold by the dataset's similarity quantiles
    (the paper sweeps σ and reports the resulting number of edges).
    """

    dataset: str
    scale: float
    floor_sigma: float
    edge_fractions: Sequence[float] = (0.05, 0.1, 0.2, 0.4)
    alphas: Sequence[float] = (2.0,)
    epsilon: float = 1.0
    algorithms: Sequence[str] = (
        "greedy_mr",
        "stack_mr",
        "stack_greedy_mr",
    )


#: The default grids behind each figure benchmark.  Scales are chosen so
#: the full suite finishes in minutes on one machine; multiply them with
#: REPRO_BENCH_SCALE for larger runs.
FIGURE_SWEEPS: Dict[str, SweepSpec] = {
    "fig1": SweepSpec(
        dataset="flickr-small",
        scale=0.30,
        floor_sigma=1.0,
        alphas=(2.0, 4.0),
    ),
    "fig2": SweepSpec(
        dataset="flickr-large",
        scale=0.12,
        floor_sigma=1.0,
        alphas=(2.0,),
    ),
    "fig3": SweepSpec(
        dataset="yahoo-answers",
        scale=0.12,
        floor_sigma=2.0,
        alphas=(2.0,),
    ),
    "fig4": SweepSpec(
        dataset="flickr-large",
        scale=0.12,
        floor_sigma=1.0,
        edge_fractions=(0.05, 0.1, 0.2, 0.4),
        alphas=(1.0, 2.0, 4.0),
        algorithms=("stack_mr",),
    ),
    "fig5": SweepSpec(
        dataset="flickr-small",
        scale=0.30,
        floor_sigma=1.0,
        edge_fractions=(0.1, 0.2),
        algorithms=("greedy_mr",),
    ),
}
