"""The three workloads: input generation, one timed job, its checks, and
its per-layer metrics.

Each workload is closed-loop batch work: one job at a time, submitted from
the single driver process. ``run_once`` is the timed job; ``check``
verifies its outputs with the benchmark's own code (outside the timed
region); ``discard`` removes what the job wrote.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from perfbench import inputs

PINS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins")
EXTRACT_PINS = os.path.join(PINS_DIR, "extract_digests.u64")
CRAWL_PINS = os.path.join(PINS_DIR, "crawl_order.json")
DIGEST_FIELDS = (
    "text",
    "markdown",
    "markdown_citations",
    "references_markdown",
    "cleaned_html",
    "fit_html",
)


@dataclass(frozen=True)
class Scale:
    """Input sizes. ``FULL`` is the benchmark; ``SMOKE`` is sf0.001-sized."""

    extract_pages: int
    crawl_pages: int
    dedup_docs: int
    dedup_copies: int


FULL = Scale(extract_pages=1000, crawl_pages=500, dedup_docs=2000, dedup_copies=200)
SMOKE = Scale(extract_pages=120, crawl_pages=120, dedup_docs=150, dedup_copies=30)
# parquet files per input table: one read task each, so the shuffles of
# dedup_nearcopies have several partitions to measure skew over
INPUT_FILES = 8


@dataclass
class Job:
    """One timed job and what its checks found."""

    rows: int
    seconds: float = 0.0
    cpu_s: float = 0.0
    slowdown: float = 1.0  # host slowdown around the job (hostspeed.py)
    errors: list = field(default_factory=list)
    info: dict = field(default_factory=dict)


def row_digest(values) -> int:
    """64-bit digest of one extracted row's text outputs (DIGEST_FIELDS)."""
    h = hashlib.blake2b(digest_size=8)
    for v in values:
        h.update((v or "").encode("utf-8", "surrogatepass"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


def _stats_summary(ds):
    """Ray Data's per-operator stats summary for an executed Dataset (the
    write's plan when the Dataset was written)."""
    write_ds = getattr(ds, "_write_ds", None)
    plan = (write_ds or ds)._plan
    return plan.stats().to_summary()


def operator_stats(ds) -> list[dict]:
    """One row per operator of ``Dataset.stats()``, upstream first. An
    all-to-all operator (several sub-operators) reports its whole wall time
    and the row counts of its reduce side."""
    out: list[dict] = []
    done: set = set()

    def walk(summ):
        for parent in summ.parents or ():
            walk(parent)
        key = (summ.dataset_uuid, summ.number, summ.base_name)
        if key in done or not summ.operators_stats:
            return
        done.add(key)
        ops = summ.operators_stats
        all_to_all = len(ops) > 1
        out.append(
            {
                "name": summ.base_name if all_to_all else ops[0].operator_name,
                "all_to_all": all_to_all,
                "start": min(float(op.earliest_start_time or 0.0) for op in ops),
                "end": max(float(op.latest_end_time or 0.0) for op in ops),
                "wall_sum_s": sum(float((op.wall_time or {}).get("sum", 0.0)) for op in ops),
                "rows": dict(ops[-1].output_num_rows or {}),
            }
        )

    walk(_stats_summary(ds))
    return out


def _du(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


class Workload:
    name = ""

    def __init__(self, seed: int, scale: Scale, work_dir: str):
        self.seed = seed
        self.scale = scale
        self.work_dir = work_dir
        self.in_dir = os.path.join(work_dir, "input")

    def generate(self) -> None:
        raise NotImplementedError

    def warm(self) -> None:
        raise NotImplementedError

    def run_once(self, i: int, tracer) -> Job:
        raise NotImplementedError

    def check(self, job: Job) -> None:
        raise NotImplementedError

    def discard(self, job: Job) -> None:
        out = job.info.pop("out", None)
        if out:
            shutil.rmtree(out, ignore_errors=True)


# ---------------------------------------------------------------------------


class ExtractStream(Workload):
    name = "extract_stream"

    def generate(self) -> None:
        shutil.rmtree(self.in_dir, ignore_errors=True)
        docs = inputs.base_documents()
        ids = inputs.extract_page_ids(self.seed, self.scale.extract_pages)
        self.pages = inputs.build_pages(docs, ids, inputs.EXTRACT_SPACE)
        inputs.write_parts(self.pages, self.in_dir, INPUT_FILES)
        self.expected_urls = set(self.pages.column("url").to_pylist())
        self.expected_rows = len(self.expected_urls)
        self.pins = np.fromfile(EXTRACT_PINS, dtype="<u8")

    def warm(self) -> None:
        import ray

        from crawl4ai_ray.pipelines.extract_pipeline import extract_dataset

        extract_dataset(ray.data.from_arrow(self.pages.slice(0, 16))).materialize()

    def run_once(self, i: int, tracer) -> Job:
        import ray

        from crawl4ai_ray.pipelines.extract_pipeline import extract_dataset

        out = os.path.join(self.work_dir, f"out-{i}")
        pages = ray.data.read_parquet(self.in_dir, columns=["url", "html"])
        docs = extract_dataset(pages, batch_size=64)
        docs.write_parquet(out)
        return Job(rows=self.expected_rows, info={"out": out, "ds": docs})

    def check(self, job: Job) -> None:
        job.info["ops"] = operator_stats(job.info.pop("ds"))
        self.check_table(pq.read_table(job.info["out"], columns=["url", "success", *DIGEST_FIELDS]), job)

    def check_table(self, out: pa.Table, job: Job) -> None:
        """Rows out = rows in, every row ``success``, and each URL's digest
        equal to the pinned digest (byte-identical extracted text)."""
        urls = out.column("url").to_pylist()
        job.info["rows_failed"] = out.num_rows - sum(out.column("success").to_pylist())
        if out.num_rows != len(self.expected_urls) or set(urls) != self.expected_urls:
            job.errors.append(f"extract: {out.num_rows} rows out for {len(self.expected_urls)} pages in")
        if job.info["rows_failed"]:
            job.errors.append(f"extract: {job.info['rows_failed']} rows not success")
        cols = [out.column(f).to_pylist() for f in DIGEST_FIELDS]
        bad = [
            u
            for k, u in enumerate(urls)
            if row_digest([c[k] for c in cols]) != int(self.pins[inputs.page_id_of(u)])
        ]
        if bad:
            job.errors.append(f"extract: {len(bad)} urls differ from pinned digests, e.g. {bad[0]}")


# ---------------------------------------------------------------------------


class CrawlPolite(Workload):
    name = "crawl_polite"
    HOST_CAP = 20
    SEEN_SHARDS = 4

    def generate(self) -> None:
        import ray

        from crawl4ai_ray.sources.bucketed import partition_corpus
        from crawl4ai_ray.sources.pages import children_of, url_of

        n = self.scale.crawl_pages
        shutil.rmtree(self.in_dir, ignore_errors=True)
        pages = inputs.build_pages(inputs.base_documents(), range(n), n)
        inputs.write_parts(pages, self.in_dir, INPUT_FILES)
        self.bucket_dir = os.path.join(self.work_dir, "buckets")
        shutil.rmtree(self.bucket_dir, ignore_errors=True)
        partition_corpus(ray.data.read_parquet(self.in_dir), self.bucket_dir)
        seed_ids = inputs.crawl_seed_ids(self.seed, n)
        self.seeds = [url_of(d) for d in seed_ids]
        # reachable set by the corpus link rule (2d+1, 2d+2, 7d+3) mod N
        seen, todo = set(seed_ids), list(seed_ids)
        while todo:
            for c in children_of(todo.pop(), n):
                if c not in seen:
                    seen.add(c)
                    todo.append(c)
        self.reachable = {url_of(d) for d in seen}
        self.expected_rows = len(self.reachable)
        pins = {"crawl_pages": None, "digests": {}}
        if os.path.exists(CRAWL_PINS):
            with open(CRAWL_PINS) as f:
                pins = json.load(f)
        self.pinned_digest = pins["digests"].get(str(self.seed)) if pins["crawl_pages"] == n else None
        self.first_digest = None

    def _cfg(self, **kw):
        from crawl4ai_ray.config import CrawlConfig

        return CrawlConfig(
            max_depth=1_000_000,
            seen_shards=self.SEEN_SHARDS,
            max_pages_per_host_per_wave=self.HOST_CAP,
            corpus_bucket_dir=self.bucket_dir,
            **kw,
        )

    def warm(self) -> None:
        import ray

        from crawl4ai_ray.pipelines.extract_pipeline import extract_dataset

        pages = ray.data.read_parquet(self.in_dir, columns=["url", "html"]).limit(16)
        extract_dataset(pages).materialize()

    def run_once(self, i: int, tracer) -> Job:
        import ray

        from crawl4ai_ray.pipelines.crawl import crawl

        out = os.path.join(self.work_dir, f"crawl-{i}")
        with tracer.span("pipelines.crawl.crawl"):
            run = crawl(ray.data.read_parquet(self.in_dir), self.seeds, self._cfg(), out_dir=out)
        return Job(rows=self.expected_rows, info={"out": out, "run": run})

    def check(self, job: Job) -> None:
        """Visited set = reachable set, no URL crawled twice, the per-host
        cap holds in every wave, and the crawl order is deterministic (and
        equal to the pinned digest where one is pinned for this seed)."""
        run = job.info["run"]
        job.info["checkpoint_bytes"] = _du(job.info["out"])
        docs = [
            u
            for d in run.docs_dirs
            for f in sorted(os.listdir(d))
            # a wave task that produced no rows writes a file without columns
            if f.endswith(".parquet") and "url" in pq.read_schema(os.path.join(d, f)).names
            for u in pq.read_table(os.path.join(d, f), columns=["url"]).column("url").to_pylist()
        ]
        visited = set(docs)
        if len(docs) != len(visited):
            job.errors.append(f"crawl: {len(docs) - len(visited)} urls crawled twice")
        if visited != self.reachable:
            job.errors.append(
                f"crawl: {len(self.reachable - visited)} reachable urls missed, "
                f"{len(visited - self.reachable)} unreachable urls crawled"
            )
        order = run.crawl_order
        urls = [u for u, _ in order]
        if len(urls) != len(set(urls)):
            job.errors.append("crawl: a url was admitted in two waves")
        per_wave_host: dict[tuple[int, str], int] = {}
        for u, w in order:
            key = (w, u.split("/")[2])
            per_wave_host[key] = per_wave_host.get(key, 0) + 1
        worst = max(per_wave_host.values(), default=0)
        if worst > self.HOST_CAP:
            job.errors.append(f"crawl: {worst} pages of one host in one wave (cap {self.HOST_CAP})")
        digest = hashlib.sha256("".join(f"{u}\t{w}\n" for u, w in order).encode()).hexdigest()
        job.info["crawl_digest"] = digest
        if self.first_digest is None:
            self.first_digest = digest
        if digest != self.first_digest:
            job.errors.append("crawl: crawl order differs between repeated runs")
        if self.pinned_digest is not None and digest != self.pinned_digest:
            job.errors.append(f"crawl: crawl-order digest differs from the pin for seed {self.seed}")
        job.info["waves"] = [
            {k: w.get(k) for k in (
                "frontier_size", "pages_crawled", "candidates_offered", "new_urls",
                "politeness_rejected", "corpus_scan_bytes", "seen",
            )}
            for w in run.waves
        ]
        del job.info["run"]


# ---------------------------------------------------------------------------


def shingles(text: str, k: int = 3) -> set:
    """Word k-shingles as the dedup stage defines them (a text shorter than
    k words is one shingle)."""
    toks = text.split()
    if len(toks) < k:
        return {tuple(toks)} if toks else set()
    return {tuple(toks[i:i + k]) for i in range(len(toks) - k + 1)}


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


class DedupNearcopies(Workload):
    name = "dedup_nearcopies"
    TAU = 0.8

    def generate(self) -> None:
        shutil.rmtree(self.in_dir, ignore_errors=True)
        table, self.planted = inputs.dedup_documents(
            inputs.base_documents(), self.seed, self.scale.dedup_docs, self.scale.dedup_copies
        )
        inputs.write_parts(table, self.in_dir, INPUT_FILES)
        self.expected_rows = table.num_rows
        self.shingles = {
            int(d): shingles(t)
            for d, t in zip(table.column("doc_id").to_pylist(), table.column("text").to_pylist())
        }
        self.must_find = {
            (min(a, b), max(a, b))
            for a, b in self.planted
            if jaccard(self.shingles[a], self.shingles[b]) >= self.TAU
        }
        self.table = table

    def warm(self) -> None:
        import ray

        from crawl4ai_ray.stages.dedup import minhash_lsh_pairs, verify_pairs

        ds = ray.data.from_arrow(self.table.slice(0, 32))
        verify_pairs(minhash_lsh_pairs(ds).materialize(), ds, tau=self.TAU).take_all()

    def run_once(self, i: int, tracer) -> Job:
        import ray

        from crawl4ai_ray.stages.dedup import minhash_lsh_pairs, verify_pairs

        docs = ray.data.read_parquet(self.in_dir)
        candidates = minhash_lsh_pairs(docs).materialize()
        with tracer.span("stages.dedup.verify_pairs"):
            verified = verify_pairs(candidates, docs, tau=self.TAU).materialize()
            pairs = verified.take_all()
        return Job(
            rows=self.expected_rows,
            info={"candidates": candidates, "verified": verified, "pairs": pairs},
        )

    def check(self, job: Job) -> None:
        """Every emitted pair has exact 3-shingle Jaccard >= tau, and every
        planted pair at or above tau is found."""
        pairs = [(int(r["a"]), int(r["b"])) for r in job.info.pop("pairs")]
        found = set(pairs)
        if len(found) != len(pairs) or any(a >= b for a, b in pairs):
            job.errors.append("dedup: pairs not distinct (a < b)")
        low = [p for p in found if jaccard(self.shingles[p[0]], self.shingles[p[1]]) < self.TAU]
        if low:
            job.errors.append(f"dedup: {len(low)} emitted pairs below tau, e.g. {low[0]}")
        missed = self.must_find - found
        if missed:
            job.errors.append(f"dedup: {len(missed)} planted pairs >= tau not found, e.g. {min(missed)}")
        job.info["n_candidates"] = job.info["candidates"].count()
        job.info["n_verified"] = len(found)
        del job.info["candidates"]
        # the verified Dataset's stats include the candidate stage as parents
        job.info["ops"] = operator_stats(job.info.pop("verified"))


WORKLOADS = {w.name: w for w in (ExtractStream, CrawlPolite, DedupNearcopies)}
