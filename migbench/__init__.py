"""The repository benchmark: three workloads, an output oracle and a layer tracer.

Run from the repository root: ``python3 migbench/run.py --workload flow-suite
--seed 1 --seconds 20 --trace 0``.  See ``migbench/README.md``.
"""
