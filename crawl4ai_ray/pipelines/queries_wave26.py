"""Twenty-sixth-wave operators (round-3 continuation session,
2026-08-20).

Listed by name in ``queries.py``'s QUERIES/ORACLES. blocking_eval nests the
snm_pairs oracle as a CTE at registration (the quality_gate_funnel
composition pattern).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# decayed_counts — exponentially time-decayed event counts (streaming HH)
# ---------------------------------------------------------------------------

_DC_BUCKET_US = 86_400_000_000  # 1-day half-life buckets
_DC_FP_BITS = 40  # fixed-point scale; ages > 40 half-lives truncate to 0


def q_decayed_counts(sf_dir: str):
    """Exponentially time-decayed counts per event type — the streaming
    heavy-hitter semantic where yesterday counts half of today (1-day
    half-life): decayed(type) = Σ_events 2^(−age_days). The number a
    trending-topics / hot-hosts monitor maintains incrementally; here
    computed batch over the full stream.

    Exactness: weights are fixed-point integers 2^(40 − age) (ages
    beyond 40 half-lives truncate to zero — documented, they are below
    1e-12 of a fresh event), so the per-type sum is an exact int64 on
    both engines; ``decayed`` is the one mirrored division by 2^40.

    Distributed shape: one tiny max-bucket aggregate (broadcast scalar)
    → per-batch (type, Σweight) partials → ONE groupby(type).
    """
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts"]
    )

    def bucketed(batch: pa.Table) -> pa.Table:
        ts_us = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "bucket": pa.array(ts_us // _DC_BUCKET_US, pa.int64()),
            }
        )

    b1 = ev.map_batches(bucketed, batch_format="pyarrow").materialize()
    mx = int(b1.max("bucket"))

    def weighted(batch: pa.Table) -> pa.Table:
        age = mx - batch.column("bucket").to_numpy(zero_copy_only=False)
        w = np.where(
            age <= _DC_FP_BITS,
            np.int64(1) << np.minimum(
                np.maximum(_DC_FP_BITS - age, 0), _DC_FP_BITS
            ).astype(np.int64),
            np.int64(0),
        )
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "wq": pa.array(w.astype(np.int64), pa.int64()),
            }
        )

    agg = (
        b1.map_batches(weighted, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(ray.data.aggregate.Sum("wq", alias_name="s_q"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        sq = batch.column("s_q").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "s_q": pa.array(sq, pa.int64()),
                "decayed": pa.array(
                    sq.astype(np.float64) / float(1 << _DC_FP_BITS),
                    pa.float64(),
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


SQL_DECAYED_COUNTS = f"""
WITH mx AS (
  SELECT MAX(epoch_us(ts) // {_DC_BUCKET_US}) AS m FROM events
),
w AS (
  SELECT event_type,
         CASE WHEN mx.m - (epoch_us(ts) // {_DC_BUCKET_US}) <= {_DC_FP_BITS}
              THEN CAST(1 AS BIGINT)
                   << CAST({_DC_FP_BITS} - (mx.m - (epoch_us(ts) // {_DC_BUCKET_US}))
                           AS INTEGER)
              ELSE 0 END AS wq
  FROM events, mx
)
SELECT event_type, CAST(SUM(wq) AS BIGINT) AS s_q,
       CAST(SUM(wq) AS DOUBLE) / {float(1 << _DC_FP_BITS)!r} AS decayed
FROM w GROUP BY event_type
"""


# ---------------------------------------------------------------------------
# blocking_eval — pair completeness / reduction ratio of SNM blocking
# ---------------------------------------------------------------------------


def q_blocking_eval(sf_dir: str):
    """Blocking-quality metrics for the sorted-neighborhood dedup
    (snm_pairs) against the planted ground truth — the two standard
    entity-resolution numbers every blocking scheme is judged by:
    pair completeness PC = recovered true pairs / all true pairs
    (recall of the candidate set) and reduction ratio RR = 1 −
    candidates / all possible pairs (how much comparison work blocking
    saved). Truth = the planted (doc, doc+n) near-copy pairs.

    Distributed shape: the snm_pairs pipeline's candidate stream folds
    per-batch (n_cand, n_recovered) partials; the two divisions are
    the only floats.
    """
    from .queries_wave24 import q_snm_pairs

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )
    n_docs = docs.count()
    pairs = q_snm_pairs(sf_dir)

    def partial(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch.column("b").to_numpy(zero_copy_only=False).astype(np.int64)
        rec = int(((b - a == n_docs) & (a < n_docs)).sum())
        return pa.table(
            {
                "n_cand": pa.array([len(a)], pa.int64()),
                "n_rec": pa.array([rec], pa.int64()),
            }
        )

    rows = pairs.map_batches(partial, batch_format="pyarrow").take_all()  # bounded: one partial row per batch
    # one partial row per batch — the driver fold is O(#batches)
    n_cand = sum(int(r["n_cand"]) for r in rows)
    n_rec = sum(int(r["n_rec"]) for r in rows)
    all_pairs = (2 * n_docs) * (2 * n_docs - 1) // 2
    return pa.table(
        {
            "n_truth": pa.array([n_docs], pa.int64()),
            "n_candidates": pa.array([n_cand], pa.int64()),
            "n_recovered": pa.array([n_rec], pa.int64()),
            "pair_completeness": pa.array(
                [float(n_rec) / float(n_docs)], pa.float64()
            ),
            "reduction_ratio": pa.array(
                [1.0 - float(n_cand) / float(all_pairs)], pa.float64()
            ),
        }
    )


def _sql_blocking_eval(oracles: dict) -> str:
    return f"""
WITH cand AS ({oracles["snm_pairs"].strip()}),
nn AS (SELECT CAST(COUNT(*) AS BIGINT) AS c FROM documents),
m AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n_cand,
         CAST(SUM(CASE WHEN b - a = nn.c AND a < nn.c THEN 1 ELSE 0 END)
              AS BIGINT) AS n_rec
  FROM cand, nn GROUP BY nn.c
)
SELECT nn.c AS n_truth, m.n_cand AS n_candidates, m.n_rec AS n_recovered,
       CAST(m.n_rec AS DOUBLE) / CAST(nn.c AS DOUBLE) AS pair_completeness,
       1e0 - CAST(m.n_cand AS DOUBLE)
             / CAST((2 * nn.c) * (2 * nn.c - 1) // 2 AS DOUBLE)
         AS reduction_ratio
FROM m, nn
"""


# ---------------------------------------------------------------------------
# surt_keys — Sort-friendly URI Reordering Transform (CDX index keys)
# ---------------------------------------------------------------------------


def _surt_one(url: str) -> tuple[str, str]:
    rest = url.split("://", 1)[1] if "://" in url else url
    slash = rest.find("/")
    host, path = (
        (rest[:slash], rest[slash:]) if slash >= 0 else (rest, "/")
    )
    host = host.lower()
    if host.startswith("www."):
        host = host[4:]
    segs = host.split(".")
    rev = ",".join(reversed(segs))
    return rev + ")" + path, ",".join(reversed(segs[-2:]))


def q_surt_keys(sf_dir: str):
    """SURT canonicalization (Sort-friendly URI Reordering Transform —
    the key form of every web-archive CDX index): host lowercased,
    'www.' stripped, dot-segments REVERSED and comma-joined, ')' +
    path — so one URL-sorted index clusters a whole registrable domain
    (com,example)/... contiguously, which is what makes per-domain
    range scans of a petabyte crawl index a prefix seek instead of a
    shuffle. Also emits the registrable-domain prefix (last two host
    segments reversed), the CDX partition key.

    Reference: the reference normalizes URLs per-page
    (utils.normalize_url) but has no archive-index surface; SURT is the
    standard from the IA/OpenWayback world, added for the crawl-index
    story. Map-only; vectorization is string splitting per row in one
    batch pass (no Python-per-row driver loop).
    """
    from .queries import _pages_ds

    pages = _pages_ds(sf_dir, columns=["url"])

    def to_surt(batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        surts, prefixes = [], []
        for u in urls:
            s, p = _surt_one(u)
            surts.append(s)
            prefixes.append(p)
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "surt": pa.array(surts, pa.string()),
                "surt_prefix": pa.array(prefixes, pa.string()),
            }
        )

    return pages.map_batches(to_surt, batch_format="pyarrow")


def _sql_surt_keys(sql_pages: str) -> str:
    return f"""
WITH {sql_pages},
parts AS (
  SELECT url,
         lower(regexp_extract(url, 'https?://([^/]+)(/.*)?', 1)) AS host0,
         COALESCE(NULLIF(regexp_extract(url, 'https?://([^/]+)(/.*)?', 2), ''),
                  '/') AS path
  FROM purl
),
hosts AS (
  SELECT url, path,
         CASE WHEN host0 LIKE 'www.%' THEN substr(host0, 5) ELSE host0 END
           AS host
  FROM parts
),
segs AS (
  SELECT url, path, list_reverse(str_split(host, '.')) AS rs
  FROM hosts
)
SELECT url,
       array_to_string(rs, ',') || ')' || path AS surt,
       array_to_string(rs[1:2], ',') AS surt_prefix
FROM segs
"""
