"""End-to-end benchmark: six workloads from the UDP socket to the sink.

``BENCHMARK.json`` at the repo root declares the metric and workload
names; this package measures them.  See ``README.md`` in this directory
for the glossary, the interaction table and how to read the budget sums.
Run it from the repo root::

    python3 -m benchmarks.e2e --seed 1            # the whole suite
    python3 -m benchmarks.e2e --seed 1 --trace    # plus the per-layer budget
    python3 -m benchmarks.e2e --workload sock_w1 --seed 1 --seconds 10
"""
