"""The repository benchmark: layered workloads over the ``repro`` simulator.

See ``perfbench/README.md`` for the workloads, metrics and how to run it.
"""
