"""Benchmark for slenderspec: workloads, per-operation checks and tracing.

Run it from the repository root with ``python3 perfbench/run.py``; see
``run.py`` for the arguments and ``BASELINE.md`` for the recorded baseline.
"""
