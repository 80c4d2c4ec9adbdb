"""Benchmark harness for ordproto: workloads, output checks and a tracer.

Run it with ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; ``BENCHMARK.json`` lists the
workloads and metrics.
"""
