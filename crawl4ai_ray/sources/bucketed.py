"""Hash-bucketed corpus layout and the crawl's fetch join.

``make_fetch_filter`` is the fetch every crawl wave runs: a plain-function
``map_batches`` UDF that semi-joins a corpus batch against the wave's
frontier. The frontier ships as an Arrow table through ``ray.put`` — Arrow
objects deserialize ZERO-COPY from plasma, so each fetch task's per-batch
``ray.get`` costs nothing (unlike a python dict, which would re-pickle per
task) — and the semi-join + metadata annotation is one ``pyarrow`` hash
join per batch.

The layout partitions a corpus ONCE by hash(url) so a lookup reads only the
buckets its urls hash into:

    partition_corpus(pages, out_dir, P)      # one-time shuffle-by-hash
    BucketedCorpus(out_dir).fetch(frontier)  # reads only hit buckets

Bucket pruning composes with Parquet row-group pruning; a frontier that
touches b of P buckets costs b/P of the scan. Bucket count is sized to
~TARGET_BUCKET_BYTES of html per bucket so tiny corpora don't shatter into
hundreds of files (per-read task overhead) while huge corpora still prune.
Point lookups (``RayWebCrawler.run``) use the pruned read; a crawl reads
every bucket file once and keeps the corpus resident
(pipelines/crawl.py), because pruning buys nothing while the corpus fits
the object store.
"""

from __future__ import annotations

import glob as _glob
import hashlib
import os
import shutil
import tempfile

import numpy as np
import pyarrow as pa

import ray

from ..functions.hashing import HASH_SPEC, hash64
from .pages import PAGES_VERSION, synthesize_pages

TARGET_BUCKET_BYTES = 64 * 1024 * 1024
FETCH_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("html", pa.binary()),
        ("depth", pa.int32()),
        ("parent_url", pa.string()),
        ("score", pa.float64()),
    ]
)


def bucket_of(urls, num_buckets: int) -> np.ndarray:
    return (hash64(urls) % np.uint64(num_buckets)).astype(np.int64)


def choose_num_buckets(total_bytes: int, lo: int = 4, hi: int = 4096) -> int:
    """~TARGET_BUCKET_BYTES per bucket, clamped."""
    return max(lo, min(hi, int(total_bytes // TARGET_BUCKET_BYTES) + 1))


def frontier_meta_table(frontier: dict[str, tuple]) -> pa.Table:
    """url → (depth, parent, score) dict to the broadcastable Arrow form."""
    urls = sorted(frontier)
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "depth": pa.array([frontier[u][0] for u in urls], pa.int32()),
            "parent_url": pa.array([frontier[u][1] for u in urls], pa.string()),
            "score": pa.array([frontier[u][2] for u in urls], pa.float64()),
        }
    )


class FetchHooks:
    """User extension points around the fetch stage — the batch-engine form
    of the reference's before_request / after_request / on_error hook dict
    (async_crawler_strategy.py:2248-2290). All callables must be picklable
    (they ship to the fetch workers):

    - before_request(urls: list[str]) -> list[str]
        return the subset (or modified list) of corpus urls this batch may
        fetch; None means "all"
    - after_request(batch: pa.Table) -> pa.Table
        transform the fetched batch (FETCH_SCHEMA in/out)
    - on_error(urls: list[str], exc: Exception) -> None
        called when a fetch batch raises; the batch is then skipped
    """

    def __init__(self, before_request=None, after_request=None, on_error=None):
        self.before_request = before_request
        self.after_request = after_request
        self.on_error = on_error


def make_fetch_filter(meta_ref, hooks: FetchHooks | None = None):
    """Plain-function map_batches UDF: pages ⋉ frontier via one pyarrow hash
    join per batch against the plasma-resident (zero-copy) meta table."""

    class _HookError(Exception):
        """Wraps an exception raised by a USER hook — only these trigger the
        documented on_error/skip-batch contract. Engine bugs (join/cast/
        schema failures) must still fail loudly, not vanish as dropped
        batches (round-2 ADVICE)."""

    def _call_hook(fn, *args):
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 — hook contract boundary
            raise _HookError() from exc

    def fetch_filter(batch: pa.Table) -> pa.Table:
        urls = batch.column("url")
        try:
            if hooks is not None and hooks.before_request is not None:
                keep = _call_hook(hooks.before_request, urls.to_pylist())
                if keep is not None:
                    mask = pa.compute.is_in(
                        urls, value_set=pa.array(sorted(set(keep)), pa.string())
                    )
                    batch = batch.filter(mask)
            meta = ray.get(meta_ref)  # zero-copy Arrow from the object store
            joined = batch.select(["url", "html"]).join(
                meta, keys="url", join_type="inner"
            )
            out = joined.select(FETCH_SCHEMA.names).cast(FETCH_SCHEMA)
            if hooks is not None and hooks.after_request is not None:
                out = _call_hook(hooks.after_request, out)
            return out
        except _HookError as werr:
            exc = werr.__cause__
            if hooks is not None and hooks.on_error is not None:
                hooks.on_error(urls.to_pylist(), exc)
                return FETCH_SCHEMA.empty_table()
            raise exc from None

    return fetch_filter


def partition_corpus(
    pages: "ray.data.Dataset", out_dir: str, num_buckets: int | None = None
) -> str:
    """One-time hash(url) partitioning of the corpus into bucket=NN/ dirs
    (the only all-to-all this corpus ever needs). Rows are sorted by bucket
    before the partitioned write so each bucket lands in O(1) files."""
    if num_buckets is None:
        num_buckets = choose_num_buckets(pages.size_bytes() or 0)

    def add_bucket(batch: pa.Table) -> pa.Table:
        b = bucket_of(batch.column("url").combine_chunks(), num_buckets)
        return batch.append_column("bucket", pa.array(b, pa.int64()))

    os.makedirs(out_dir, exist_ok=True)
    (
        pages.map_batches(add_bucket, batch_format="pyarrow")
        .sort("bucket")
        .write_parquet(out_dir, partition_cols=["bucket"])
    )
    with open(os.path.join(out_dir, "_BUCKETS"), "w") as f:
        # record the hash spec: a layout written under one hash function must
        # never be read under another (silently wrong buckets — r1 ADVICE)
        f.write(f"{num_buckets}\n{HASH_SPEC}\n")
    return out_dir


def read_bucket_meta(corpus_dir: str) -> int:
    """Parse _BUCKETS, failing loudly on a hash-spec mismatch."""
    with open(os.path.join(corpus_dir, "_BUCKETS")) as f:
        lines = f.read().splitlines()
    num_buckets = int(lines[0])
    spec = lines[1] if len(lines) > 1 else "<unrecorded>"
    if spec != HASH_SPEC:
        raise ValueError(
            f"bucketed corpus at {corpus_dir} was partitioned with hash spec "
            f"{spec!r}; engine uses {HASH_SPEC!r} — re-run partition_corpus"
        )
    return num_buckets


class BucketedCorpus:
    """Handle over a bucketed layout: the per-bucket files and their bytes.

    ``fetch`` issues ONE ``read_parquet`` over only the hit buckets' files —
    a frontier that touches b of P buckets scans b/P of the corpus
    (telemetry in ``last_fetch_bytes``).
    """

    def __init__(self, corpus_dir: str):
        self.corpus_dir = corpus_dir
        self.num_buckets = read_bucket_meta(corpus_dir)
        self.bucket_files: dict[int, list[str]] = {}
        self.bucket_bytes: dict[int, int] = {}
        for b in range(self.num_buckets):
            files = sorted(
                _glob.glob(os.path.join(corpus_dir, f"bucket={b}", "*.parquet"))
            )
            if files:
                self.bucket_files[b] = files
                self.bucket_bytes[b] = sum(os.path.getsize(f) for f in files)
        self.total_bytes = sum(self.bucket_bytes.values())
        self.last_fetch_bytes = 0

    def fetch(self, frontier: dict[str, tuple], hooks: "FetchHooks | None" = None) -> "ray.data.Dataset":
        """frontier ⋉ corpus, annotated by a per-batch pyarrow join against
        the zero-copy broadcast meta table (FETCH_SCHEMA output)."""
        urls = list(frontier)
        hit = sorted(
            b
            for b in set(bucket_of(urls, self.num_buckets).tolist())
            if b in self.bucket_files
        )
        if not hit:
            self.last_fetch_bytes = 0
            return ray.data.from_arrow(FETCH_SCHEMA.empty_table())
        meta_ref = ray.put(frontier_meta_table(frontier))
        files = [f for b in hit for f in self.bucket_files[b]]
        self.last_fetch_bytes = sum(self.bucket_bytes[b] for b in hit)
        return ray.data.read_parquet(files, columns=["url", "html"]).map_batches(
            make_fetch_filter(meta_ref, hooks), batch_format="pyarrow"
        )


def fetch_bucketed(
    corpus_dir: str, frontier: dict[str, tuple]
) -> "ray.data.Dataset":
    """One-shot convenience wrapper around ``BucketedCorpus.fetch``."""
    return BucketedCorpus(corpus_dir).fetch(frontier)


def ensure_bucketed(sf_dir: str) -> str:
    """Partition an sf_dir's pages corpus by hash(url) once and return the
    layout dir (amortized across runs: the layout is keyed on the
    synthesized corpus cache dir + generator version + bucket count, so a
    corpus change invalidates it)."""
    pages_dir = synthesize_pages(sf_dir)
    total = sum(
        os.path.getsize(os.path.join(pages_dir, f))
        for f in os.listdir(pages_dir)
        if f.endswith(".parquet")
    )
    num_buckets = choose_num_buckets(total)
    slug = hashlib.sha1(
        f"{os.path.realpath(pages_dir)}|{PAGES_VERSION}".encode()
    ).hexdigest()[:16]
    parent = os.path.join(tempfile.gettempdir(), "c4r_buckets")
    out = os.path.join(parent, f"{slug}_b{num_buckets}")
    if not os.path.exists(os.path.join(out, "_BUCKETS")):
        # build into a private temp dir and atomically rename into place:
        # two concurrent builds can otherwise both pass the check and
        # double-write bucket files (duplicated corpus rows — r2 ADVICE).
        # The loser of the rename race discards its build.
        os.makedirs(parent, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix=f"{slug}_b{num_buckets}.build.", dir=parent)
        pages = ray.data.read_parquet(pages_dir, columns=["url", "html"])
        partition_corpus(pages, tmp, num_buckets)
        try:
            os.rename(tmp, out)
        except OSError:  # somebody else won; their layout is complete
            shutil.rmtree(tmp, ignore_errors=True)
    return out
