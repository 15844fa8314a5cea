"""Host facts and per-process accounting read from ``/proc``.

Everything here reads files; nothing starts a process. CPU time and peak
RSS cover the benchmark's own process and every descendant it started
(Ray's GCS, raylet, workers and actors).
"""

from __future__ import annotations

import os

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        kids.setdefault(int(fields[1]), []).append(int(name))
    return kids


def descendants(root: int | None = None) -> list[int]:
    """``root`` (default: this process) and every live descendant."""
    root = os.getpid() if root is None else root
    kids = _children_map()
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(kids.get(pid, ()))
    return out


def _cpu_ticks(pid: int) -> int:
    """utime + stime + reaped children's cutime + cstime of one process."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0
    return sum(int(x) for x in fields[11:15])


def tree_cpu_s() -> float:
    """CPU seconds used so far by this process and its descendants."""
    return sum(_cpu_ticks(p) for p in descendants()) / _CLK_TCK


def tree_peak_rss_mb() -> float:
    """Sum of ``VmHWM`` (peak resident set) over this process tree, in MB."""
    total_kb = 0
    for pid in descendants():
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def stat_ticks() -> dict[str, int]:
    """Aggregate ``cpu`` line of ``/proc/stat`` (all cores), by field."""
    names = ("user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal")
    with open("/proc/stat") as f:
        fields = f.readline().split()[1:1 + len(names)]
    return dict(zip(names, (int(x) for x in fields)))


def stat_delta(before: dict[str, int], after: dict[str, int]) -> dict[str, float]:
    """Steal and idle shares of all ticks between two ``stat_ticks`` reads."""
    d = {k: after[k] - before[k] for k in before}
    total = sum(d.values()) or 1
    return {
        "ticks": total,
        "steal_frac": round(d["steal"] / total, 4),
        "idle_frac": round(d["idle"] / total, 4),
    }


def nproc() -> int:
    """What ``nproc`` prints: the affinity set, capped by OMP_NUM_THREADS."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "")
    if omp.split(",")[0].isdigit() and int(omp.split(",")[0]) > 0:
        n = min(n, int(omp.split(",")[0]))
    return n


def cpu_mhz() -> float:
    mhz = []
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("cpu MHz"):
                    mhz.append(float(line.split(":")[1]))
    except OSError:
        pass
    return round(sum(mhz) / len(mhz), 1) if mhz else 0.0
