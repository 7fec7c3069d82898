"""Benchmark harness for maserkit: workloads, oracle, tracing and metrics.

Nothing here imports maserkit at module level.  `run.py` puts the
checkout's `src/` on the path first, so the package under test is always
the one in the checkout the benchmark was started from.
"""
