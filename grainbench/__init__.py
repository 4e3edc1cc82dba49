"""Benchmark for grainflow: named workloads driven through ``runner.run``.

``python3 grainbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload from the root of a source checkout and
prints a report whose last line is one JSON object.  Untraced runs time only
the runner-level boundaries (``run()`` and the increment function it calls)
and give the end-to-end metrics; a traced run wraps the public functions of
every layer from outside and gives per-layer self times and counts.  Nothing
under ``src/`` is modified.
"""
