"""The repository benchmark: three closed-loop workloads over crawl4ai_ray.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root. ``perfbench/smoke.py`` is the
benchmark's own smoke test and ``perfbench/pin.py`` regenerates the pinned
output digests.
"""
