"""Crawl snapshot delta — the diff step of an incremental recrawl pipeline.

Given two crawl snapshots (url/id, content_hash) — the previous run and the
current one — classify every url:

    new        only in the current snapshot
    gone       only in the previous snapshot
    changed    in both, content hash differs
    unchanged  in both, content hash equal

This feeds recrawl scheduling, sink compaction and incremental downstream
refresh (only `new|changed` re-enter extraction/dedup).

Shape: a full-outer-join on the id. Implemented as ONE bucketed shuffle —
both sides tagged and unioned, grouped by hash(id)%P (P scheduling units,
not |urls| groups), and classified with a vectorized pandas merge inside
each bucket. Only (id, 16-byte hash, side) rows move; page bodies never
enter the shuffle. Partitioning assumption: one bucket's rows (~2·|urls|/P)
fit in a worker heap — size P to the snapshot, as everywhere else.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

_MULT = np.uint64(0x9E3779B97F4A7C15)


def snapshot_delta(
    prev: "ray.data.Dataset",
    curr: "ray.data.Dataset",
    id_col: str = "doc_id",
    hash_col: str = "content_hash",
    num_buckets: int = 64,
) -> "ray.data.Dataset":
    """→ (id_col, status) for the union of both snapshots' ids.
    Each side must hold at most one row per id (a snapshot; enforce with
    latest-per-id compaction upstream if needed — duplicated ids
    raise inside the bucket rather than silently mis-classifying)."""
    P = np.uint64(num_buckets)

    def tag(side: bool):
        def fn(batch: pa.Table) -> pa.Table:
            ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
            b = (ids.view(np.uint64) * _MULT % P).astype(np.int64)
            return pa.table(
                {
                    id_col: pa.array(ids, pa.int64()),
                    "h": batch.column(hash_col).cast(pa.string()),
                    "is_curr": pa.array(np.full(len(ids), side), pa.bool_()),
                    "b": pa.array(b, pa.int64()),
                }
            )

        return fn

    both = prev.select_columns([id_col, hash_col]).map_batches(
        tag(False), batch_format="pyarrow"
    ).union(
        curr.select_columns([id_col, hash_col]).map_batches(
            tag(True), batch_format="pyarrow"
        )
    )

    def classify(g: pa.Table) -> pa.Table:
        # arrow-native outer merge (r5): sorted ids + searchsorted on
        # both sides, no pandas
        is_curr = g.column("is_curr").to_numpy(zero_copy_only=False)
        ids = g.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        hs = np.asarray(g.column("h").to_pylist(), dtype=object)
        pid, ph = ids[~is_curr], hs[~is_curr]
        cid, ch = ids[is_curr], hs[is_curr]
        po = np.argsort(pid, kind="stable")
        pid, ph = pid[po], ph[po]
        co = np.argsort(cid, kind="stable")
        cid, ch = cid[co], ch[co]
        if (np.diff(pid) == 0).any() or (np.diff(cid) == 0).any():
            raise ValueError(
                "snapshot_delta: a side has duplicate ids — not a snapshot"
            )
        # prev side: classify against curr
        loc = np.searchsorted(cid, pid)
        safe = np.minimum(loc, max(len(cid) - 1, 0))
        in_curr = (
            (cid[safe] == pid) if len(cid) else np.zeros(len(pid), bool)
        )
        prev_status = np.where(
            in_curr,
            np.where(
                ch[safe] == ph if len(cid) else False, "unchanged", "changed"
            ),
            "gone",
        )
        # curr side: only the ids absent from prev are new
        loc2 = np.searchsorted(pid, cid)
        safe2 = np.minimum(loc2, max(len(pid) - 1, 0))
        in_prev = (
            (pid[safe2] == cid) if len(pid) else np.zeros(len(cid), bool)
        )
        out_ids = np.concatenate([pid, cid[~in_prev]])
        out_status = np.concatenate(
            [prev_status, np.full((~in_prev).sum(), "new", dtype=object)]
        )
        return pa.table(
            {
                id_col: pa.array(out_ids, pa.int64()),
                "status": pa.array(out_status.tolist(), pa.string()),
            }
        )

    return both.groupby("b").map_groups(classify, batch_format="pyarrow")
