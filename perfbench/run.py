"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload extract_stream --seed 1 --seconds 20 --trace 0

Run it from the repository root: the program (``crawl4ai_ray``) is imported
from the current directory. Each run works in its own directory under
``.bench_run/`` with ``TMPDIR`` pointing inside it, and removes it at the
end, so no run starts from another run's files.

``--trace 0``: Ray is set up ``SETUPS`` times (start, input generation,
warm-up) and ``setup_s`` is the median; then the workload's job runs in a
closed loop for ``--seconds`` and the end-to-end metrics are medians over
jobs. Every set-up and job time is divided by the host slowdown measured
just before and after it (``hostspeed.py``), so that the drift of a shared
host's speed cancels; the raw medians are kept in the run record. ``--trace 1``: half the time untraced, then Ray restarts with span
wrappers in the driver and in every worker (``perfbench/trace.py``) for the
other half; prints the per-layer metrics and ``trace.overhead_frac``, the
share of untraced throughput (median rows/s) the traced jobs lose.

The line before the result is a JSON record of the run: host facts
(nproc, affinity cores, CPU MHz, /proc/stat steal and idle shares, Ray and
pyarrow versions, git SHA or source digest) and every job's figures.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import importlib.util
import json
import logging
import os
import shutil
import signal
import statistics
import sys
import time

SETUPS = 3
DEADLINE_S = 150
OBJECT_STORE_BYTES = 256 * 1024 * 1024
# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets under
# <temp dir>/session_<timestamp>_<pid>/sockets/
RAY_TEMP_MAX_LEN = 40


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "smoke"), default="full")
    return p.parse_args(argv)


class RayCluster:
    """Starts and stops the local Ray instance and waits for every process
    it started to end."""

    def __init__(self, temp_dir: str | None):
        self.temp_dir = temp_dir

    def start(self, trace_dir: str | None = None) -> None:
        """Start Ray. With ``trace_dir``, every Python process Ray starts
        loads ``tracehook/sitecustomize.py``, which installs the worker span
        wrappers (see trace.py)."""
        import ray

        from perfbench import procstat
        from perfbench.trace import TRACE_DIR_ENV

        saved = dict(os.environ)
        if trace_dir:
            hook_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracehook")
            os.environ[TRACE_DIR_ENV] = trace_dir
            os.environ["PYTHONPATH"] = os.pathsep.join([hook_dir, os.environ["PYTHONPATH"]])
        try:
            ray.init(
                address="local",
                num_cpus=procstat.nproc(),
                include_dashboard=False,
                logging_level=logging.ERROR,
                log_to_driver=False,
                object_store_memory=OBJECT_STORE_BYTES,
                _temp_dir=self.temp_dir or "/tmp/ray",
            )
        finally:
            os.environ.clear()
            os.environ.update(saved)
        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)

    def stop(self) -> None:
        import ray

        from perfbench import procstat

        tree = set(procstat.descendants()) - {os.getpid()}
        if ray.is_initialized():
            ray.shutdown()
        _wait_for(tree, grace_s=15)


def _wait_for(pids: set, grace_s: float) -> None:
    """Reap and wait for ``pids`` to end; SIGKILL what is left after
    ``grace_s``."""
    deadline = time.monotonic() + grace_s
    while True:
        _reap()
        alive = [p for p in pids if _alive(p)]
        if not alive:
            return
        if time.monotonic() > deadline:
            for p in alive:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 5
        time.sleep(0.05)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _become_subreaper() -> None:
    """Orphaned Ray workers re-parent to this process, so they can be
    waited for (prctl PR_SET_CHILD_SUBREAPER)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def host_block(root: str) -> dict:
    import pyarrow
    import ray

    from perfbench import procstat

    sha = "unknown"
    head = os.path.join(root, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as f:
            ref = f.read().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(root, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path) as f:
                    sha = f.read().strip()
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "crawl4ai_ray", "**", "*.py"), recursive=True)):
        src.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            src.update(f.read())
    return {
        "nproc": procstat.nproc(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "cpu_mhz": procstat.cpu_mhz(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "python": sys.version.split()[0],
        "git_sha": sha,
        "source_sha256": src.hexdigest()[:16],
    }


def measure(wl, seconds: float, tracer) -> list:
    """Closed loop: run the job, check it, repeat while another job of the
    mean length still fits in ``seconds``."""
    from perfbench import hostspeed, procstat
    from perfbench.workloads import Job

    jobs = []
    t0 = time.perf_counter()
    while True:
        before = hostspeed.slowdown()
        c0, s0 = procstat.tree_cpu_s(), time.perf_counter()
        try:
            job = wl.run_once(len(jobs), tracer)
        except Exception as exc:  # a failing job is a result, not a crash
            jobs.append(Job(rows=wl.expected_rows, errors=[f"job raised {exc!r}"]))
            return jobs
        job.seconds = time.perf_counter() - s0
        job.cpu_s = procstat.tree_cpu_s() - c0
        job.slowdown = (before + hostspeed.slowdown()) / 2
        try:
            wl.check(job)
        except Exception as exc:
            job.errors.append(f"check raised {exc!r}")
        finally:
            wl.discard(job)
        jobs.append(job)
        elapsed = time.perf_counter() - t0
        if job.errors or elapsed + elapsed / len(jobs) > seconds:
            return jobs


def _median(values) -> float:
    """Median, or 0.0 when no job finished (the run then reports failure)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def _rate(jobs) -> float:
    """Median rows per second, each job's time scaled by its host slowdown."""
    return _median(j.rows * j.slowdown / j.seconds for j in jobs if j.seconds > 0)


def run(args, run_dir: str, ray_temp: str | None, record: dict) -> dict:
    from perfbench import hostspeed, metrics, procstat, trace, workloads

    scale = workloads.SMOKE if args.scale == "smoke" else workloads.FULL
    wl = workloads.WORKLOADS[args.workload](args.seed, scale, run_dir)
    cluster = RayCluster(ray_temp)
    jobs = record["jobs"]
    try:
        if not args.trace:
            setups = []  # (seconds, host slowdown around the set-up)
            for k in range(SETUPS):
                before = hostspeed.slowdown()
                t0 = time.perf_counter()
                cluster.start()
                wl.generate()
                wl.warm()
                setups.append((time.perf_counter() - t0, (before + hostspeed.slowdown()) / 2))
                if k < SETUPS - 1:
                    cluster.stop()
            record["setups"] = [[round(t, 4), round(s, 3)] for t, s in setups]
            jobs += measure(wl, args.seconds, trace.NullTracer())
            peak_rss = procstat.tree_peak_rss_mb()
            done = [j for j in jobs if j.seconds > 0]
            record["raw"] = {
                "setup_s": statistics.median(t for t, _ in setups),
                "rows_per_s": _median(j.rows / j.seconds for j in done),
                "cpu_s_per_1k_rows": _median(1000 * j.cpu_s / j.rows for j in done),
            }
            results = {
                "setup_s": (statistics.median(t / s for t, s in setups), "s"),
                "rows_per_s": (_rate(jobs), "1/s"),
                "cpu_s_per_1k_rows": (
                    _median(1000 * j.cpu_s / (j.rows * j.slowdown) for j in done), "s"),
                "peak_rss_mb": (peak_rss, "MB"),
            }
        else:
            cluster.start()
            wl.generate()
            wl.warm()
            untraced = measure(wl, args.seconds / 2, trace.NullTracer())
            jobs += untraced
            cluster.stop()
            trace_dir = os.path.join(run_dir, "trace")
            os.makedirs(trace_dir)
            cluster.start(trace_dir)
            tracer = trace.Tracer()
            tracer.patch(trace.DRIVER_TARGETS)
            try:
                wl.warm()
                tracer.clear()
                trace.reset_worker_spans(trace_dir)
                traced = measure(wl, args.seconds / 2, tracer)
            finally:
                tracer.unpatch()
            jobs += traced
            spans = trace.load_spans(trace_dir, tracer)
            layer = metrics.layer_metrics(traced, spans)
            layer["trace.overhead_frac"] = 1.0 - _rate(traced) / (_rate(untraced) or 1.0)
            results = {k: (v, metrics.UNITS[k]) for k, v in layer.items()}
    finally:
        cluster.stop()
    failed = any(j.errors for j in jobs)
    attempted = sum(j.rows for j in jobs)
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": attempted if failed else 0,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in results.items()},
    }


def _job_record(job) -> dict:
    out = {"rows": job.rows, "seconds": round(job.seconds, 4), "cpu_s": round(job.cpu_s, 3),
           "slowdown": round(job.slowdown, 3), "errors": job.errors[:5]}
    if "waves" in job.info:
        out["waves"] = len(job.info["waves"])
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    sys.path.insert(0, root)
    if importlib.util.find_spec("crawl4ai_ray") is None:
        print("perfbench: no crawl4ai_ray package in the current directory", file=sys.stderr)
        return 2
    from perfbench import procstat, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    run_dir = os.path.join(root, ".bench_run", f"{args.workload}-{args.seed}-{os.getpid()}")
    # Ray's session files go in the checkout unless its path is too long
    # for Ray's sockets; then they go to Ray's default location
    ray_temp = os.path.join(root, ".bench_run", f"r{os.getpid()}")
    if len(ray_temp) > RAY_TEMP_MAX_LEN:
        ray_temp = None
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(run_dir, "tmp"))
    os.environ["TMPDIR"] = os.path.join(run_dir, "tmp")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    _become_subreaper()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "host": host_block(root), "jobs": []}
    stat0 = procstat.stat_ticks()

    def remove_dirs():
        for path in (run_dir, ray_temp):
            if path:
                shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, ".bench_run"))
        except OSError:
            pass

    def report(result):
        record["host"].update(procstat.stat_delta(stat0, procstat.stat_ticks()))
        record["jobs"] = [_job_record(j) for j in record["jobs"]]
        print(json.dumps(record))
        print(json.dumps(result), flush=True)

    def on_deadline(signum, frame):
        # a timed-out run counts as fully failed; stop everything it started
        _wait_for(set(procstat.descendants()) - {os.getpid()}, grace_s=0)
        remove_dirs()
        record["error"] = f"run exceeded {DEADLINE_S} s"
        attempted = max(1, sum(j.rows for j in record["jobs"]))
        report({"correct": False, "attempted": attempted, "failed": attempted, "metrics": {}})
        os._exit(0)

    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(DEADLINE_S)
    try:
        result = run(args, run_dir, ray_temp, record)
    finally:
        signal.alarm(0)
        remove_dirs()
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
