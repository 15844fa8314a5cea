"""Count-Min sketch frequency estimation over a Dataset string column.

Completes the engine's sketch family (Bloom membership in
``state/``, HLL cardinality and KLL quantiles in ``stages/sketch.py``)
with the classic frequency sketch (Cormode & Muthukrishnan 2005,
"An improved data stream summary: the count-min sketch and its
applications"). Used crawl-side to bound per-host page counts without
an exact host groupby when the host cardinality is huge.

Distributed shape (scale-safe at 100 TB):
  1. map-side partial: each batch folds its rows into at most
     ``depth * width`` (d, bucket, c) partial-count rows — the shuffle
     volume is O(blocks * depth * width), independent of row count;
  2. ONE tiny groupby-sum merges the partials (<= depth*width groups);
  3. the merged dense sketch (a few KB) is ``ray.put`` once and read
     zero-copy by every estimate task.

The bucket hash is md5-derived — row d uses hex chars [8d, 8d+8) of
md5(value) as a 32-bit integer mod width — so a DuckDB oracle can
recompute the *identical* sketch (md5 + hex-cast are SQL builtins);
the estimate property est >= exact is then checkable row-for-row.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

import ray

CMS_DEPTH = 4
CMS_WIDTH = 64


def cms_buckets(values, depth: int = CMS_DEPTH, width: int = CMS_WIDTH) -> np.ndarray:
    """(n, depth) int64 bucket matrix: row d of the sketch for value v is
    int(md5(v).hexdigest()[8d:8d+8], 16) % width — mirrored verbatim in
    the SQL oracle (md5 hex is exactly 32 chars = 4 slices of 8)."""
    assert depth <= 4, "md5 hex provides 4 independent 32-bit slices"
    out = np.empty((len(values), depth), dtype=np.int64)
    for i, v in enumerate(values):
        hx = hashlib.md5(v.encode("utf-8")).hexdigest()
        for d in range(depth):
            out[i, d] = int(hx[8 * d : 8 * d + 8], 16) % width
    return out


def _partial_counts(
    column: str, depth: int, width: int
):
    def fn(batch: pa.Table) -> pa.Table:
        vals = batch.column(column).to_pylist()
        ds_, bs_, cs_ = [], [], []
        if vals:
            bk = cms_buckets(vals, depth, width)
            for d in range(depth):
                cnt = np.bincount(bk[:, d], minlength=width)
                nz = np.nonzero(cnt)[0]
                ds_.append(np.full(nz.size, d, dtype=np.int64))
                bs_.append(nz.astype(np.int64))
                cs_.append(cnt[nz].astype(np.int64))
        cat = (lambda parts: np.concatenate(parts) if parts else np.zeros(0, np.int64))
        return pa.table(
            {
                "d": pa.array(cat(ds_), pa.int64()),
                "bucket": pa.array(cat(bs_), pa.int64()),
                "c": pa.array(cat(cs_), pa.int64()),
            }
        )

    return fn


def build_cms(
    ds: "ray.data.Dataset",
    column: str,
    depth: int = CMS_DEPTH,
    width: int = CMS_WIDTH,
) -> np.ndarray:
    """Dense (depth, width) int64 sketch of the column's value frequencies.

    Only partial-count rows shuffle; the merge groupby has <= depth*width
    groups and the result (a few KB) is safe to hold driver-side.
    """
    rows = (
        ds.map_batches(_partial_counts(column, depth, width), batch_format="pyarrow")
        .groupby(["d", "bucket"])
        .sum("c")
        .take_all()
    )
    cms = np.zeros((depth, width), dtype=np.int64)
    for r in rows:
        cms[int(r["d"]), int(r["bucket"])] = int(r["sum(c)"])
    return cms


def cms_estimate(
    cms: np.ndarray, values, depth: int = CMS_DEPTH, width: int = CMS_WIDTH
) -> np.ndarray:
    """Point-query estimates: min over rows of the value's bucket counts.
    Guaranteed >= the exact count (counters only ever overcount)."""
    if not len(values):
        return np.zeros(0, dtype=np.int64)
    bk = cms_buckets(values, depth, width)
    ests = np.stack([cms[d, bk[:, d]] for d in range(depth)], axis=1)
    return ests.min(axis=1).astype(np.int64)
