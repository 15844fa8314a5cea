"""Spans recorded from outside the program, for the traced run only.

A span is (name, start, end, id, parent id, pid). The benchmark wraps public
functions of each layer; a wrapped call opens a span whose parent is the
innermost open span of the same thread. Spans stay in memory. In Ray
workers, where the process may be killed at shutdown, each worker appends
its finished spans to ``spans-<pid>.jsonl`` in the trace directory whenever
its outermost span closes; the driver merges those files with its own spans
when the run ends.

Worker wrappers are installed by ``install_worker``, which
``tracehook/sitecustomize.py`` calls at start-up in every Python process of
the traced run's Ray cluster. It patches each target module when a worker
first imports it. (Ray's ``worker_process_setup_hook`` would do the same
through a runtime environment, but every worker started under one goes
through Ray's runtime-env agent, which made each traced crawl about 3 s
slower.) Untraced runs install nothing.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import importlib
import importlib.abc
import importlib.machinery
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

# (module, attribute or "Class.method", span name) wrapped inside Ray workers
WORKER_TARGETS = (
    ("crawl4ai_ray.stages.extract", "scrape_page", "html.scrape_page"),
    ("crawl4ai_ray.stages.extract", "generate_markdown", "html.generate_markdown"),
    ("crawl4ai_ray.stages.extract", "ExtractPages.__call__", "stages.extract.ExtractPages"),
    ("crawl4ai_ray.stages.frontier", "DiscoverCandidates.__call__", "stages.frontier.DiscoverCandidates"),
    ("crawl4ai_ray.stages.dedup", "MinHashSignatures.__call__", "stages.dedup.MinHashSignatures"),
)
# wrapped in the driver process
DRIVER_TARGETS = (
    ("crawl4ai_ray.state.frontier_store", "FrontierStore.pop_wave", "state.frontier_store.pop_wave"),
    ("crawl4ai_ray.state.frontier_store", "FrontierStore.push", "state.frontier_store.push"),
    ("crawl4ai_ray.state.frontier_store", "FrontierStore.push_parquet", "state.frontier_store.push_parquet"),
    ("crawl4ai_ray.state.frontier_store", "FrontierStore.spill", "state.frontier_store.spill"),
    ("crawl4ai_ray.state.politeness", "PolitenessPool.admit", "state.politeness.admit"),
    ("crawl4ai_ray.state.politeness", "PolitenessPool.report_status", "state.politeness.report_status"),
    ("crawl4ai_ray.state.seen", "SeenSet.finalize_wave_parquet", "state.seen.finalize_wave_parquet"),
    ("crawl4ai_ray.state.seen", "SeenSet.dump_all", "state.seen.dump_all"),
    ("crawl4ai_ray.state.seen", "SeenSet.__init__", "state.seen.init"),
    ("crawl4ai_ray.state.seen", "SeenSet.stats", "state.seen.stats"),
    ("crawl4ai_ray.state.seen", "SeenSet.shutdown", "state.seen.shutdown"),
    ("crawl4ai_ray.state.politeness", "PolitenessPool.__init__", "state.politeness.init"),
    ("crawl4ai_ray.state.politeness", "PolitenessPool.stats", "state.politeness.stats"),
    ("crawl4ai_ray.state.politeness", "PolitenessPool.shutdown", "state.politeness.shutdown"),
    ("crawl4ai_ray.sources.bucketed", "BucketedCorpus.fetch", "sources.bucketed.fetch"),
    ("ray.data", "Dataset.materialize", "ray_data.materialize"),
    ("ray.data", "Dataset.write_parquet", "ray_data.write_parquet"),
    ("ray.data", "Dataset.to_arrow_refs", "ray_data.to_arrow_refs"),
)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, sink_dir: str | None = None):
        self.spans: list[tuple] = []
        self.sink_dir = sink_dir
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._flushed = 0
        self._lock = threading.Lock()
        self._patched: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((name, start, end, sid, parent, os.getpid()))
            if not stack and self.sink_dir:
                self.flush()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def patch(self, targets) -> None:
        """Replace each (module, "attr" | "Class.method") with a traced
        wrapper; ``unpatch`` restores the originals."""
        for module, attr, name in targets:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = owner.__dict__[leaf] if leaf in owner.__dict__ else getattr(owner, leaf)
            setattr(owner, leaf, self.wrap(orig, name))
            self._patched.append((owner, leaf, orig))

    def unpatch(self) -> None:
        while self._patched:
            owner, leaf, orig = self._patched.pop()
            setattr(owner, leaf, orig)

    def flush(self) -> None:
        with self._lock:
            new = self.spans[self._flushed:]
            self._flushed = len(self.spans)
        if new:
            path = os.path.join(self.sink_dir, f"spans-{os.getpid()}.jsonl")
            with open(path, "a") as f:
                f.write("".join(json.dumps(s) + "\n" for s in new))

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()
            self._flushed = 0


class NullTracer:
    """Stands in for a Tracer in untraced runs: records nothing."""

    spans: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        yield


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Patches each target module right after it is first imported."""

    def __init__(self, tracer: Tracer, targets):
        self.tracer = tracer
        self.pending: dict[str, list] = {}
        for t in targets:
            self.pending.setdefault(t[0], []).append(t)

    def find_spec(self, name, path, target=None):
        if name not in self.pending:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return spec
        targets = self.pending.pop(name)
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            self.tracer.patch(targets)

        spec.loader.exec_module = exec_and_patch
        return spec


_worker_tracer: Tracer | None = None


def install_worker() -> None:
    """Trace this process's WORKER_TARGETS calls, writing spans under
    $PERFBENCH_TRACE_DIR."""
    global _worker_tracer
    if _worker_tracer is not None:
        return
    _worker_tracer = Tracer(sink_dir=os.environ[TRACE_DIR_ENV])
    loaded = [t for t in WORKER_TARGETS if t[0] in sys.modules]
    _worker_tracer.patch(loaded)
    sys.meta_path.insert(
        0, _PatchOnImport(_worker_tracer, [t for t in WORKER_TARGETS if t not in loaded])
    )


def load_spans(trace_dir: str, driver: Tracer) -> list[tuple]:
    """Driver spans plus every worker's flushed spans."""
    spans = list(driver.spans)
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.jsonl"))):
        with open(path) as f:
            spans.extend(tuple(json.loads(line)) for line in f if line.strip())
    return spans


def reset_worker_spans(trace_dir: str) -> None:
    for path in glob.glob(os.path.join(trace_dir, "spans-*.jsonl")):
        os.remove(path)


def covered(intervals, lo: float = float("-inf"), hi: float = float("inf")) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total_s and self_s (duration minus the part of
    it covered by child spans)."""
    children: dict[tuple[int, int], list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, sid, parent, pid in spans:
        if parent:
            children[(pid, parent)].append((start, end))
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for name, start, end, sid, parent, pid in spans:
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - covered(children.get((pid, sid), []), start, end)
    return dict(out)
