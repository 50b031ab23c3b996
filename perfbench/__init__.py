"""The repository benchmark: three workloads over the live source tree.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload; ``python3 perfbench/steady.py`` runs
each workload several times and reports how steady every metric is. See
``perfbench/README.md``.
"""
