"""Warm-started path benchmark for exactgl: workloads, harness and tracer.

Run it as ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see
``perfbench/README.md`` for what each workload and metric means.
"""
