"""A/B-compare two versions of the repo on one benchmark workload.

    python3 scripts/ab.py --workload crawl_polite --seeds 0-7
    python3 scripts/ab.py --base HEAD~1 --change HEAD --workload extract_stream --seeds 0,1,2

``--base`` and ``--change`` are git revisions, checked out as two detached
``git worktree``s in a temporary directory outside the repo, or paths to
existing checkouts, used as they are. The default change, ``worktree``, is
the current working tree (``git stash create``, so new files must be
staged first); the default base is ``HEAD``.

For each seed the two sides run ``perfbench/run.py`` back to back, one
pair at a time, and the side that runs first alternates from pair to pair,
so a drift in host speed falls on both sides alike. For each end-to-end
metric of ``BENCHMARK.json`` it prints both medians with their interquartile
range and the number of pairs the change won. The worktrees are removed at
the end. ``--json PATH`` also writes every run's result line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", REPO, *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def parse_seeds(spec: str) -> list[int]:
    seeds: list[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def resolve(rev: str) -> str:
    """A commit id for ``rev``; ``worktree`` is a commit of the working tree
    (HEAD when nothing changed)."""
    if rev == "worktree":
        return git("stash", "create") or git("rev-parse", "HEAD")
    return git("rev-parse", "--verify", f"{rev}^{{commit}}")


def run_bench(checkout: str, args, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
           "--scale", args.scale]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr[-2000:])
        return {"correct": False, "metrics": {}, "error": f"exit {proc.returncode}"}


def value(result: dict, name: str) -> float | None:
    """A metric's value from a perfbench result line."""
    m = result.get("metrics", {}).get(name)
    return None if m is None else m["value"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(pairs: list[tuple[int, dict, dict]], metrics: list[dict]) -> None:
    bad = [(s, side) for s, b, c in pairs for side, r in (("base", b), ("change", c))
           if not r.get("correct")]
    print(f"{len(pairs)} pairs; incorrect runs: {bad or 'none'}")
    print(f"{'metric':<20} {'base median [q1, q3]':>28} {'change median [q1, q3]':>28}  wins")
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        got = [(value(b, name), value(c, name)) for _, b, c in pairs]
        got = [(x, y) for x, y in got if x is not None and y is not None]
        if not got:
            continue
        bq, cq = quartiles([x for x, _ in got]), quartiles([y for _, y in got])
        wins = sum((y > x) if higher else (y < x) for x, y in got)
        print(f"{name:<20} {bq[1]:>10.4g} [{bq[0]:.4g}, {bq[2]:.4g}]".ljust(49)
              + f" {cq[1]:>10.4g} [{cq[0]:.4g}, {cq[2]:.4g}]".ljust(29)
              + f" {wins}/{len(got)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="0-7", help="e.g. 0-7 or 0,2,5")
    p.add_argument("--base", default="HEAD", help="git revision or checkout path")
    p.add_argument("--change", default="worktree", help="git revision, checkout path or 'worktree'")
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--scale", choices=("full", "smoke"), default="full")
    p.add_argument("--json", help="write every run's result here")
    args = p.parse_args(argv)

    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    tmp = tempfile.mkdtemp(prefix="ab-")
    added: list[str] = []
    try:
        sides = {}
        for side, rev in (("base", args.base), ("change", args.change)):
            if os.path.isdir(rev):
                sides[side] = os.path.abspath(rev)
                continue
            path = os.path.join(tmp, side)
            git("worktree", "add", "--detach", path, resolve(rev))
            added.append(path)
            sides[side] = path
        pairs, raw = [], []
        for i, seed in enumerate(parse_seeds(args.seeds)):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            res = {side: run_bench(sides[side], args, seed) for side in order}
            pairs.append((seed, res["base"], res["change"]))
            raw.append({"seed": seed, "first": order[0], **res})
            print(f"seed {seed}: " + "  ".join(
                f"{side} {value(res[side], 'rows_per_s') or float('nan'):.4g} rows/s"
                f"{'' if res[side].get('correct') else ' (incorrect)'}" for side in order
            ), flush=True)
        if args.json:
            with open(args.json, "w") as f:
                json.dump(raw, f, indent=1)
        report(pairs, metrics)
    finally:
        for path in added:
            subprocess.run(["git", "-C", REPO, "worktree", "remove", "--force", path],
                           capture_output=True)
        git("worktree", "prune")
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
