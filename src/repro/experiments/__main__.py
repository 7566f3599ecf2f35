"""Run the complete evaluation from the command line.

``python -m repro.experiments [--scale S] [--seed N] [--only fig1,...]``

Prints every table/figure reproduction in sequence; use ``--scale`` to
shrink or enlarge the synthetic datasets (1.0 = the default sizes of
:mod:`repro.datasets`).
"""

from __future__ import annotations

import argparse
import sys
import time

from .figures import (
    anytime_experiment,
    capacity_distribution_experiment,
    similarity_distribution_experiment,
    table1_experiment,
    value_iterations_experiment,
    violations_experiment,
)
from .paper_reference import PAPER_CITATION

EXPERIMENTS = {
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


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description=f"Reproduce the evaluation of: {PAPER_CITATION}",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="dataset scale multiplier (default 1.0)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="generator seed"
    )
    parser.add_argument(
        "--only",
        type=str,
        default="",
        help="comma-separated subset of: " + ", ".join(EXPERIMENTS),
    )
    args = parser.parse_args(argv)
    selected = (
        [name.strip() for name in args.only.split(",") if name.strip()]
        if args.only
        else list(EXPERIMENTS)
    )
    unknown = [name for name in selected if name not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}")
    for name in selected:
        start = time.perf_counter()
        print(EXPERIMENTS[name](args.scale, args.seed))
        print(
            f"[{name} completed in "
            f"{time.perf_counter() - start:.1f}s]\n"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
