"""The benchmark's own smoke test, at sf0.001 size.

    python3 perfbench/smoke.py

Run from the repository root. Runs every workload once untraced and once
traced with ``--scale smoke``, and asserts that each run is correct and
prints exactly the metric names BENCHMARK.json lists, with their units.
Then shows that the extract check catches a one-byte change to one
extracted text, and a dropped row.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0, lines[-2:]
    return result


def check_metrics(result: dict, spec: list[dict], where: str) -> None:
    got = result["metrics"]
    names = {m["name"] for m in spec}
    assert set(got) == names, f"{where}: missing {names - set(got)}, extra {set(got) - names}"
    for m in spec:
        value = got[m["name"]]["value"]
        assert isinstance(value, float) and math.isfinite(value), (where, m["name"], value)
        assert got[m["name"]]["unit"] == m["unit"], (where, m["name"])
    print(f"ok {where}: {len(names)} metrics")


def check_detects_changes() -> None:
    """The extract check fails on a one-byte change to one extracted text
    and on a dropped row."""
    import pyarrow as pa

    from crawl4ai_ray.stages.extract import ExtractPages
    from perfbench import workloads

    work = os.path.join(".bench_run", "smoke")
    shutil.rmtree(work, ignore_errors=True)
    try:
        wl = workloads.ExtractStream(0, workloads.SMOKE, work)
        wl.generate()
        cols = ["url", "success", *workloads.DIGEST_FIELDS]
        out = ExtractPages()(wl.pages).select(cols)

        def errors(table):
            job = workloads.Job(rows=wl.expected_rows)
            wl.check_table(table, job)
            return job.errors

        assert errors(out) == [], errors(out)
        text = out.column("text").to_pylist()
        text[0] = ("X" if text[0][:1] != "X" else "Y") + text[0][1:]
        changed = out.set_column(cols.index("text"), "text", pa.array(text, pa.string()))
        assert any("pinned digests" in e for e in errors(changed)), errors(changed)
        assert any("rows out" in e for e in errors(out.slice(1))), errors(out.slice(1))
        print("ok extract check: one changed byte and one dropped row both fail")
    finally:
        shutil.rmtree(".bench_run", ignore_errors=True)


def main() -> int:
    sys.path.insert(0, os.getcwd())
    from perfbench import workloads

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    check_detects_changes()
    for name in workloads.WORKLOADS:
        check_metrics(bench(name, 0), spec["end_to_end"], f"{name} untraced")
        check_metrics(bench(name, 1), spec["per_layer"], f"{name} traced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
