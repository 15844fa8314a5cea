"""Twentieth-wave operators (round-3 continuation session, 2026-08-20).

Composition wave: both queries build on already-proven surfaces and
their oracles NEST the existing oracle texts as CTEs at registration
time (the quality_gate_funnel pattern) — one definition of the crawl
walk / the CDC chunk store in the repo.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

_PAGE_RE = re.compile(r"^https://site\d+\.example\.com/page/(\d+)$")


# ---------------------------------------------------------------------------
# depth_quality_profile — does quality decay with crawl depth?
# ---------------------------------------------------------------------------


def q_depth_quality_profile(sf_dir: str):
    """The adaptive-crawl motivation, measured: per BFS depth of the
    3-seed crawl, page count and mean document length — the curve that
    says whether deeper frontier waves still pay for their fetch budget
    (the reference's AdaptiveCrawler stops on exactly this signal;
    adaptive_crawler.py:161).

    Distributed shape: the crawl is the oracle-proven wave loop
    (q_bfs_depth); the result is budget-bounded by construction, so the
    doc join is a point-read of exactly those ids
    (parquet filter pushdown) and the per-depth fold runs on a
    ≤ depth×pages table. Non-document URLs (site roots, ?page=2
    variants) are excluded by the exact page-URL parse on both sides.
    """
    import pyarrow.dataset as pds

    from .queries import q_bfs_depth

    walk = q_bfs_depth(sf_dir)  # pa.Table (url, depth), budget-bounded
    ids, depths = [], []
    for url, d in zip(
        walk.column("url").to_pylist(), walk.column("depth").to_pylist()
    ):
        m = _PAGE_RE.match(url)
        if m:
            ids.append(int(m.group(1)))
            depths.append(int(d))
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "n_chars"],
        filter=pds.field("doc_id").isin(pa.array(sorted(set(ids)), pa.int64())),
    ).take_all()  # bounded: the probed id set only (pushed-down isin filter)
    chars = {int(r["doc_id"]): int(r["n_chars"]) for r in docs}
    agg: dict[int, list] = {}
    for i, d in zip(ids, depths):
        a = agg.setdefault(d, [0, 0])
        a[0] += 1
        a[1] += chars[i]
    ds = sorted(agg)
    return pa.table(
        {
            "depth": pa.array(ds, pa.int64()),
            "n_pages": pa.array([agg[d][0] for d in ds], pa.int64()),
            "sum_chars": pa.array([agg[d][1] for d in ds], pa.int64()),
            "mean_chars": pa.array(
                [float(agg[d][1]) / float(agg[d][0]) for d in ds], pa.float64()
            ),
        }
    )


def _sql_depth_quality_profile(oracles: dict) -> str:
    return f"""
WITH base AS ({oracles["bfs_depth"].strip()}),
pages2 AS (
  SELECT doc_id,
         'https://site' || (CASE WHEN doc_id % 7 = 0 THEN 0 ELSE doc_id % 50 END)
           || '.example.com/page/' || doc_id AS url,
         n_chars
  FROM documents
)
SELECT b.depth,
       CAST(COUNT(*) AS BIGINT) AS n_pages,
       CAST(SUM(p.n_chars) AS BIGINT) AS sum_chars,
       CAST(SUM(p.n_chars) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE) AS mean_chars
FROM base b JOIN pages2 p ON p.url = b.url
GROUP BY b.depth
"""


# ---------------------------------------------------------------------------
# cdc_dedup_ratio — storage-dedup win estimate over the CDC chunk store
# ---------------------------------------------------------------------------


def q_cdc_dedup_ratio(sf_dir: str):
    """Storage-dedup sizing over content-defined chunking: unique vs
    total chunks and characters across the corpus (plus the planted
    prefix-shifted copies), and the dedup ratios — the number a
    CDC-based page store quotes before it's built. One aggregate over
    the oracle-proven chunk store (every shuffle already paid by
    cdc_chunks)."""
    from ..stages.cdc import chunk_store
    from .queries_wave8 import _docs_with_shifted_copies

    store = chunk_store(_docs_with_shifted_copies(sf_dir))

    def partial(batch: pa.Table) -> pa.Table:
        occ = batch.column("n_occurrences").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        ch = batch.column("chunk_chars").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        return pa.table(
            {
                "unique_chunks": pa.array([len(occ)], pa.int64()),
                "total_chunks": pa.array([int(occ.sum())], pa.int64()),
                "unique_chars": pa.array([int(ch.sum())], pa.int64()),
                "total_chars": pa.array([int((ch * occ).sum())], pa.int64()),
            }
        )

    row = store.map_batches(partial, batch_format="pyarrow").aggregate(
        ray.data.aggregate.Sum("unique_chunks", alias_name="unique_chunks"),
        ray.data.aggregate.Sum("total_chunks", alias_name="total_chunks"),
        ray.data.aggregate.Sum("unique_chars", alias_name="unique_chars"),
        ray.data.aggregate.Sum("total_chars", alias_name="total_chars"),
    )
    uc, tc = int(row["unique_chunks"]), int(row["total_chunks"])
    uch, tch = int(row["unique_chars"]), int(row["total_chars"])
    return pa.table(
        {
            "unique_chunks": pa.array([uc], pa.int64()),
            "total_chunks": pa.array([tc], pa.int64()),
            "unique_chars": pa.array([uch], pa.int64()),
            "total_chars": pa.array([tch], pa.int64()),
            "chunk_dedup_ratio": pa.array(
                [float(uc) / float(tc)], pa.float64()
            ),
            "char_dedup_ratio": pa.array(
                [float(uch) / float(tch)], pa.float64()
            ),
        }
    )


def _sql_cdc_dedup_ratio(oracles: dict) -> str:
    return f"""
WITH store AS ({oracles["cdc_chunks"].strip()})
SELECT CAST(COUNT(*) AS BIGINT) AS unique_chunks,
       CAST(SUM(n_occurrences) AS BIGINT) AS total_chunks,
       CAST(SUM(chunk_chars) AS BIGINT) AS unique_chars,
       CAST(SUM(chunk_chars * n_occurrences) AS BIGINT) AS total_chars,
       CAST(COUNT(*) AS DOUBLE) / CAST(SUM(n_occurrences) AS DOUBLE)
         AS chunk_dedup_ratio,
       CAST(SUM(chunk_chars) AS DOUBLE)
         / CAST(SUM(chunk_chars * n_occurrences) AS DOUBLE)
         AS char_dedup_ratio
FROM store
"""
