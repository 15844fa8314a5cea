"""URL-seen set: per-partition sorted runs of 128-bit hash keys, anti-joined
once per wave by stateless Ray tasks.

The reference keeps one in-process ``visited: Set[str]`` per deep crawl
(bfs_strategy.py:105-121). Here a url's key is the pair (h1, h2) of two
seeded FNV-1a-64 hashes (functions/hashing.hash64 / hash64_alt), 16 bytes a
url, and the set is ``num_shards`` hash partitions (``h1 % num_shards``).
Each partition is a list of Parquet *runs*: files of (h1, h2) uint64 pairs
sorted by (h1, h2), pairwise disjoint, carrying ``hashing.HASH_SPEC`` in
their schema metadata. Nothing lives in a process: the set is its run list.

A wave is one batch anti-join (HERO-style: both sides partitioned on the
same hash, sorted runs intersected locally), so there are no random point
probes for a Bloom or cuckoo filter to speed up:

- map side (``write_candidates``, called by stages/frontier.py inside the
  wave's Ray Data execution): each batch writes its candidate rows to one
  Parquet file per partition under the wave's exchange directory; the
  batch's skipped-link count rides in one file's schema metadata. File
  names are a hash of the batch's source urls, so a retried task overwrites
  its own files and the wave's counters stay exact.
- reduce side (``reduce_partition``, one plain ``ray.remote`` task per
  partition, launched by ``SeenSet.finalize_wave_parquet``): the canonical
  pick per key (max score, then min depth, then min parent), the anti-join
  against the partition's runs (``np.searchsorted`` on h1, then h2 across
  each run of equal h1), one sorted delta run of the new keys, and the new
  frontier rows sorted by url. Once a partition holds more than
  ``MAX_RUNS`` runs, its delta is written merged with them as one run.

Checkpoints are the runs themselves: a wave writes its delta runs into its
own directory, and the wave manifest lists each partition's run files
(``SeenSet.relative_runs``). Resume opens exactly those files, so a torn
wave's delta is never read. Opening a run checks its hash spec in the
driver and raises ValueError on a mismatch, so a resume can never silently
mix hash functions.

Collision bound: for two INDEPENDENT ideal 64-bit hashes the birthday
expectation at the north rule's 10^10 urls would be ~(10^10)^2 / 2^129 ≈
1.5e-19 conflations. The two families share the FNV multiplier and differ
only in initial basis (hashing.ALT_SEED_XOR), so they are NOT provably
independent and that figure is a heuristic, not a guarantee. The practical
claim: far fewer conflations than a single 64-bit key, at 16 bytes/url
(10^10 urls ≈ 160 GB of runs across the cluster's storage). This is "exact
up to 128-bit collisions"; byte-exact string arbitration would triple the
bytes for no observable gain.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray

from ..functions.hashing import HASH_SPEC, hash64, hash64_alt

#: a partition whose run count would exceed this merges into one run
MAX_RUNS = 8

_SPEC_KEY = b"hash_spec"
_SKIPPED_KEY = b"n_skipped"
RUN_SCHEMA = pa.schema(
    [("h1", pa.uint64()), ("h2", pa.uint64())],
    metadata={_SPEC_KEY: HASH_SPEC.encode()},
)
CANDIDATE_SCHEMA = pa.schema(
    [
        ("url_norm", pa.string()),
        ("host", pa.string()),
        ("depth", pa.int32()),
        ("parent_url", pa.string()),
        ("score", pa.float64()),
        ("h1", pa.uint64()),
        ("h2", pa.uint64()),
    ]
)
_EMPTY = np.zeros(0, np.uint64)


def url_keys(urls) -> tuple[np.ndarray, np.ndarray]:
    """The (h1, h2) seen keys of a batch of normalized urls (a list or an
    Arrow string array)."""
    if not isinstance(urls, (pa.Array, pa.ChunkedArray)):
        urls = pa.array(list(urls), pa.string())
    return hash64(urls), hash64_alt(urls)


def sort_keys(h1: np.ndarray, h2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.lexsort((h2, h1))
    return h1[order], h2[order]


def contains(run_h1: np.ndarray, run_h2: np.ndarray,
             q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """True where (q1, q2) is a key of the sorted run. Each probe finds its
    run of equal h1 by binary search and compares h2 across that run; all
    probes at once, without a per-row loop."""
    lo = np.searchsorted(run_h1, q1, "left")
    counts = np.searchsorted(run_h1, q1, "right") - lo
    probe = np.repeat(np.arange(len(q1)), counts)
    # position of each (probe, candidate) pair inside the run
    step = np.arange(len(probe)) - np.repeat(np.cumsum(counts) - counts, counts)
    pos = np.repeat(lo, counts) + step
    found = np.zeros(len(q1), dtype=bool)
    found[probe[run_h2[pos] == q2[probe]]] = True
    return found


def _first_of_key(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """True at the first row of each key in key-sorted arrays."""
    first = np.ones(len(h1), dtype=bool)
    first[1:] = (h1[1:] != h1[:-1]) | (h2[1:] != h2[:-1])
    return first


def _check_spec(schema: pa.Schema, where: str) -> None:
    spec = (schema.metadata or {}).get(_SPEC_KEY, b"").decode("utf-8", "replace")
    if spec != HASH_SPEC:
        raise ValueError(
            f"seen run {where} was written with hash spec {spec!r}, engine "
            f"uses {HASH_SPEC!r} — refusing to resume with a mismatched hash "
            "function (would silently re-crawl / skip urls)"
        )


def read_run(path: str) -> tuple[np.ndarray, np.ndarray]:
    tbl = pq.read_table(path)
    _check_spec(tbl.schema, path)
    return (tbl.column("h1").to_numpy().astype(np.uint64, copy=False),
            tbl.column("h2").to_numpy().astype(np.uint64, copy=False))


def _run_table(h1: np.ndarray, h2: np.ndarray) -> pa.Table:
    return pa.table([pa.array(h1, pa.uint64()), pa.array(h2, pa.uint64())],
                    schema=RUN_SCHEMA)


def write_run(path: str, h1: np.ndarray, h2: np.ndarray) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(_run_table(h1, h2), path)


def _part_name(p: int) -> str:
    return f"part-{p:03d}"


def write_candidates(exchange_dir: str, num_partitions: int, batch_id: str,
                     cand: pa.Table, n_skipped: int) -> None:
    """Map side of the wave's exchange: one Parquet file per partition that
    receives rows of ``cand`` (url_norm, host, depth, parent_url, score). The
    batch's ``n_skipped`` rides in the metadata of its first file (an empty
    partition-0 file when the batch has no candidates)."""
    h1, h2 = url_keys(cand.column("url_norm"))
    cand = cand.append_column("h1", pa.array(h1)).append_column("h2", pa.array(h2))
    cand = cand.cast(CANDIDATE_SCHEMA)
    part = (h1 % np.uint64(num_partitions)).astype(np.int64)
    targets = np.unique(part).tolist() or [0]
    for j, p in enumerate(targets):
        tbl = cand.filter(pa.array(part == p))
        if j == 0:
            tbl = tbl.replace_schema_metadata({_SKIPPED_KEY: str(int(n_skipped)).encode()})
        d = os.path.join(exchange_dir, _part_name(p))
        os.makedirs(d, exist_ok=True)
        pq.write_table(tbl, os.path.join(d, f"{batch_id}.parquet"))


def reduce_partition(part_dir: str, runs: list[str], run_path: str,
                     frontier_path: str, enqueued_wave: int) -> dict:
    """Reduce side of one partition's wave exchange. Reads the candidate
    files in ``part_dir``, picks one canonical row per key, anti-joins the
    picks against ``runs`` and writes the new keys to ``run_path`` (merged
    with ``runs`` once they would exceed MAX_RUNS) and the new rows, sorted
    by url, to ``frontier_path``. Returns the counts and what was written."""
    files = sorted(os.listdir(part_dir)) if os.path.isdir(part_dir) else []
    tables = [pq.read_table(os.path.join(part_dir, f)) for f in files]
    skipped = sum(int((t.schema.metadata or {}).get(_SKIPPED_KEY, 0)) for t in tables)
    cand = pa.concat_tables(
        [t.replace_schema_metadata(None) for t in tables]
    ) if tables else CANDIDATE_SCHEMA.empty_table()
    out = {"offered": cand.num_rows, "skipped": skipped, "new": 0,
           "run": None, "run_rows": 0, "merged": False}
    if cand.num_rows == 0:
        return out
    # canonical pick: the first row of each key in (key, -score, depth,
    # parent) order
    cand = cand.sort_by([("h1", "ascending"), ("h2", "ascending"),
                         ("score", "descending"), ("depth", "ascending"),
                         ("parent_url", "ascending")])
    h1 = cand.column("h1").to_numpy()
    h2 = cand.column("h2").to_numpy()
    old = [read_run(p) for p in runs]
    new = _first_of_key(h1, h2)
    for r1, r2 in old:
        new[new] = ~contains(r1, r2, h1[new], h2[new])
    if not new.any():
        return out
    # the picks are sorted by key already, so the delta is a sorted run
    d1, d2 = h1[new], h2[new]
    merged = len(runs) + 1 > MAX_RUNS
    if merged:
        d1, d2 = sort_keys(np.concatenate([r[0] for r in old] + [d1]),
                           np.concatenate([r[1] for r in old] + [d2]))
    write_run(run_path, d1, d2)
    rows = cand.filter(pa.array(new)).sort_by("url_norm")
    rows = rows.select(["url_norm", "host", "depth", "parent_url", "score"])
    rows = rows.append_column(
        "enqueued_wave", pa.array(np.full(rows.num_rows, enqueued_wave, np.int32))
    )
    os.makedirs(os.path.dirname(frontier_path), exist_ok=True)
    pq.write_table(rows, frontier_path)
    out.update(new=rows.num_rows, run=run_path, run_rows=len(d1), merged=merged)
    return out


_reduce_task = ray.remote(reduce_partition)


class SeenSet:
    """Driver-side handle: each partition's run files and their row counts.

    ``runs`` opens an existing set (a resume): one list of run paths per
    partition, each checked for the engine's hash spec.
    """

    def __init__(self, num_shards: int = 16, runs: list[list[str]] | None = None):
        self.num_shards = num_shards
        self.runs: list[list[str]] = [[] for _ in range(num_shards)]
        self.sizes = [0] * num_shards
        if runs is not None:
            if len(runs) != num_shards:
                raise ValueError(
                    f"seen checkpoint has {len(runs)} partitions, the crawl "
                    f"is configured with seen_shards={num_shards}"
                )
            for p, paths in enumerate(runs):
                for path in paths:
                    meta = pq.read_metadata(path)
                    _check_spec(meta.schema.to_arrow_schema(), path)
                    self.sizes[p] += meta.num_rows
                self.runs[p] = list(paths)

    def _route(self, h1: np.ndarray) -> np.ndarray:
        return (h1 % np.uint64(self.num_shards)).astype(np.int64)

    def add(self, keys, run_dir: str) -> None:
        """Mark the crawl's seeds seen on an empty set: their distinct keys
        become each partition's first run, in ``run_dir``."""
        if any(self.runs):
            raise ValueError("SeenSet.add marks seeds on an empty set only")
        h1, h2 = sort_keys(*url_keys(keys))
        first = _first_of_key(h1, h2)
        h1, h2 = h1[first], h2[first]
        part = self._route(h1)
        for p in np.unique(part):
            m = part == p
            path = os.path.join(run_dir, f"{_part_name(p)}.parquet")
            write_run(path, h1[m], h2[m])
            self.runs[p] = [path]
            self.sizes[p] = int(m.sum())

    def finalize_wave_parquet(
        self, spill_dir: str, enqueued_wave: int, exchange_dir: str, run_dir: str
    ) -> tuple[list[str], dict]:
        """Reduce the wave's exchange: one task per partition dedups and
        anti-joins its candidates, writes its delta run to ``run_dir`` and
        its new frontier rows to ``spill_dir``. The exchange directory is
        removed afterwards. Returns the written frontier paths and the
        wave's totals: ``candidates_offered``, ``candidates_skipped`` and
        ``seen`` (``stats()`` after the wave's urls were marked)."""
        shutil.rmtree(run_dir, ignore_errors=True)  # a torn earlier attempt
        paths = [
            os.path.join(spill_dir, f"{_part_name(p)}.parquet")
            for p in range(self.num_shards)
        ]
        res = ray.get([
            _reduce_task.remote(
                os.path.join(exchange_dir, _part_name(p)),
                self.runs[p],
                os.path.join(run_dir, f"{_part_name(p)}.parquet"),
                paths[p],
                enqueued_wave,
            )
            for p in range(self.num_shards)
        ])
        shutil.rmtree(exchange_dir, ignore_errors=True)
        for p, r in enumerate(res):
            if r["run"] is None:
                continue
            if r["merged"]:
                self.runs[p], self.sizes[p] = [r["run"]], r["run_rows"]
            else:
                self.runs[p].append(r["run"])
                self.sizes[p] += r["run_rows"]
        totals = {
            "candidates_offered": sum(r["offered"] for r in res),
            "candidates_skipped": sum(r["skipped"] for r in res),
            "seen": self.stats(),
        }
        return [p for p, r in zip(paths, res) if r["new"]], totals

    def relative_runs(self, root: str) -> list[list[str]]:
        """Each partition's run paths relative to ``root`` (the manifest
        form)."""
        return [[os.path.relpath(p, root) for p in paths] for paths in self.runs]

    def stats(self) -> dict:
        return {
            "num_shards": self.num_shards,
            "exact_size": sum(self.sizes),
            "runs": sum(len(r) for r in self.runs),
        }

    def dump_all(self) -> list[bytes]:
        """One self-contained payload per partition: its keys as one sorted
        run, in Parquet bytes (``load_all`` reads them back)."""
        out = []
        for paths in self.runs:
            runs = [read_run(path) for path in paths]
            keys = sort_keys(np.concatenate([_EMPTY] + [r[0] for r in runs]),
                             np.concatenate([_EMPTY] + [r[1] for r in runs]))
            sink = pa.BufferOutputStream()
            pq.write_table(_run_table(*keys), sink)
            out.append(sink.getvalue().to_pybytes())
        return out

    def load_all(self, payloads: list[bytes], run_dir: str) -> None:
        """Replace the set with ``dump_all`` payloads, written as one run per
        partition in ``run_dir``."""
        if len(payloads) != self.num_shards:
            raise ValueError(
                f"{len(payloads)} seen payloads for {self.num_shards} partitions"
            )
        metas = [pq.read_metadata(pa.BufferReader(payload)) for payload in payloads]
        for p, meta in enumerate(metas):
            _check_spec(meta.schema.to_arrow_schema(), f"payload {p}")
        os.makedirs(run_dir, exist_ok=True)
        for p, payload in enumerate(payloads):
            path = os.path.join(run_dir, f"{_part_name(p)}.parquet")
            with open(path, "wb") as f:
                f.write(payload)
            self.runs[p], self.sizes[p] = [path], metas[p].num_rows

    def shutdown(self) -> None:
        """Drop the run list. The set holds no processes; its files belong
        to the directories the caller gave it."""
        self.runs = [[] for _ in range(self.num_shards)]
        self.sizes = [0] * self.num_shards
