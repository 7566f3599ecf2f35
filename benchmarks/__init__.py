"""The paper's figures and tables as pytest benchmarks.

A package so that each bench_*.py can import ``run_once`` from the
shared conftest; run them with ``python -m pytest benchmarks/bench_*.py -q``.
"""
