"""Layered benchmark of the DTPM reproduction.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` drives one seeded workload through the public API of
``src/repro`` and prints, as its last line, one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics of a traced
run (``--trace 1``).  ``BENCHMARK.json`` at the repository root lists
the workloads and metrics; ``perfbench/workloads.json`` records why each
workload exists, how it is driven and which layers it stresses.
"""
