"""Thirty-ninth-wave operators (round-3 continuation session,
2026-08-20) — crawl-analytics wave.

Listed by name in ``queries.py``'s QUERIES/ORACLES. strategy_overlap and bm25_mrr
nest existing oracle texts.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# strategy_overlap — BFS vs best-first visited-set agreement
# ---------------------------------------------------------------------------


def q_strategy_overlap(sf_dir: str):
    """How differently do the two frontier strategies actually crawl?
    The visited-URL overlap between the proven BFS walk (bfs_depth) and
    the proven best-first walk (best_first_order) under their standard
    budgets: |∩|, the two sizes, and the Jaccard — the number that says
    whether strategy choice matters on THIS graph or only reorders the
    same set. Output: one row.

    Distributed shape: both walks are the existing oracle-proven
    pipelines (budget-bounded outputs); the set compare folds their
    result tables (each ≤ budget rows by construction).
    """
    from .queries import QUERIES

    bfs = QUERIES["bfs_depth"](sf_dir)
    bfs = bfs.to_pandas() if hasattr(bfs, "to_pandas") else bfs
    bf = QUERIES["best_first_order"](sf_dir)
    bf = bf.to_pandas() if hasattr(bf, "to_pandas") else bf  # bounded: crawl-budget-bounded result sets
    bfs_urls = set(bfs["url"])
    bf_urls = set(bf["url"])
    inter = len(bfs_urls & bf_urls)
    union = len(bfs_urls | bf_urls)
    return pa.table(
        {
            "n_bfs": pa.array([len(bfs_urls)], pa.int64()),
            "n_best_first": pa.array([len(bf_urls)], pa.int64()),
            "n_common": pa.array([inter], pa.int64()),
            "jaccard": pa.array(
                [float(inter) / float(union)], pa.float64()
            ),
        }
    )


def _sql_strategy_overlap(oracles: dict) -> str:
    return f"""
WITH bfs AS MATERIALIZED ({oracles["bfs_depth"].strip()}),
bf AS MATERIALIZED ({oracles["best_first_order"].strip()}),
a AS (SELECT DISTINCT url FROM bfs),
b AS (SELECT DISTINCT url FROM bf),
s AS (
  SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM a) AS n_bfs,
         (SELECT CAST(COUNT(*) AS BIGINT) FROM b) AS n_best_first,
         (SELECT CAST(COUNT(*) AS BIGINT)
          FROM a JOIN b ON b.url = a.url) AS n_common
)
SELECT n_bfs, n_best_first, n_common,
       CAST(n_common AS DOUBLE)
         / CAST(n_bfs + n_best_first - n_common AS DOUBLE) AS jaccard
FROM s
"""


# ---------------------------------------------------------------------------
# aimd_rates — AIMD adaptive per-host politeness rates
# ---------------------------------------------------------------------------

_AIMD_START = 4
_AIMD_CAP = 64
_AIMD_FAIL_MOD = 8  # md5 slice % 8 == 0 -> failure (12.5%)


def q_aimd_rates(sf_dir: str):
    """AIMD (additive-increase / multiplicative-decrease) adaptive
    politeness: each host starts at rate 4; every successful fetch adds
    1 (cap 64), every failure halves (floor 1) — TCP congestion
    control transplanted to crawl rate control, which is exactly how
    adaptive crawlers discover a host's tolerated rate. Failures are
    deterministic md5-slice draws per URL (12.5%). Output per host:
    attempts, failures, final/max/min rate.

    Distributed shape: the recurrence is inherently sequential PER HOST
    — hosts are independent, so the hash(host)-bucket groupby runs all
    hosts of a bucket in one scheduling unit (the sessionize plan); the
    per-host fold is bounded by the host's page count. The oracle steps
    ALL hosts simultaneously in ONE recursive CTE over the per-host
    attempt index.
    """
    from ..functions.urls import hosts_array
    from .queries import _pages_ds

    pages = _pages_ds(sf_dir, columns=["url"])

    def tag(batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        hosts = hosts_array(batch.column("url")).to_pylist()
        ids = [int(u.rsplit("/", 1)[1]) for u in urls]
        fail = [
            int(
                int(hashlib.md5(f"aimd|{u}".encode()).hexdigest()[:8], 16)
                % _AIMD_FAIL_MOD
                == 0
            )
            for u in urls
        ]
        hid = [int(h.split(".")[0][4:]) for h in hosts]
        return pa.table(
            {
                "bucket": pa.array([h % 16 for h in hid], pa.int64()),
                "host": pa.array(hosts, pa.string()),
                "doc_id": pa.array(ids, pa.int64()),
                "fail": pa.array(fail, pa.int64()),
            }
        )

    def per_bucket(g: pa.Table) -> pa.Table:
        # arrow-in (r5): sorted (host, doc_id) runs; the per-host AIMD
        # recurrence is inherently sequential and stays a scalar loop
        hosts_a = np.asarray(g.column("host").to_pylist(), dtype=object)
        ids_a = g.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        fails_a = g.column("fail").to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.lexsort((ids_a, hosts_a))
        hosts_a, fails_a = hosts_a[o], fails_a[o]
        starts = np.flatnonzero(np.r_[True, hosts_a[1:] != hosts_a[:-1]]) if len(hosts_a) else np.zeros(0, np.int64)
        ends = np.r_[starts[1:], len(hosts_a)] if len(hosts_a) else np.zeros(0, np.int64)
        out = {
            "host": [], "n_attempts": [], "n_fail": [],
            "final_rate": [], "max_rate": [], "min_rate": [],
        }
        for s, t in zip(starts, ends):
            host = hosts_a[s]
            rate = _AIMD_START
            mx = mn = rate
            nf = 0
            for f in fails_a[s:t]:
                if f:
                    rate = max(rate // 2, 1)
                    nf += 1
                else:
                    rate = min(rate + 1, _AIMD_CAP)
                mx = max(mx, rate)
                mn = min(mn, rate)
            out["host"].append(host)
            out["n_attempts"].append(int(t - s))
            out["n_fail"].append(nf)
            out["final_rate"].append(rate)
            out["max_rate"].append(mx)
            out["min_rate"].append(mn)
        return pa.table(
            {
                "host": pa.array(out["host"], pa.string()),
                "n_attempts": pa.array(out["n_attempts"], pa.int64()),
                "n_fail": pa.array(out["n_fail"], pa.int64()),
                "final_rate": pa.array(out["final_rate"], pa.int64()),
                "max_rate": pa.array(out["max_rate"], pa.int64()),
                "min_rate": pa.array(out["min_rate"], pa.int64()),
            }
        )

    return (
        pages.map_batches(tag, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
    )


def _sql_aimd_rates(sql_pages: str) -> str:
    return f"""
WITH RECURSIVE {sql_pages},
att AS (
  SELECT host, doc_id,
         CASE WHEN CAST(('0x' || substr(md5('aimd|' || url), 1, 8))
                        AS BIGINT) % {_AIMD_FAIL_MOD} = 0
              THEN 1 ELSE 0 END AS fail,
         row_number() OVER (PARTITION BY host ORDER BY doc_id) AS i
  FROM purl
),
hmax AS (SELECT host, MAX(i) AS m FROM att GROUP BY host),
r AS (
  SELECT att.host, att.i,
         CASE WHEN att.fail = 1
              THEN GREATEST({_AIMD_START} // 2, 1)
              ELSE LEAST({_AIMD_START} + 1, {_AIMD_CAP}) END AS rate,
         att.fail AS nf
  FROM att WHERE att.i = 1
  UNION ALL
  SELECT att.host, att.i,
         CASE WHEN att.fail = 1
              THEN GREATEST(r.rate // 2, 1)
              ELSE LEAST(r.rate + 1, {_AIMD_CAP}) END,
         r.nf + att.fail
  FROM r JOIN att ON att.host = r.host AND att.i = r.i + 1
)
SELECT r.host,
       CAST(hmax.m AS BIGINT) AS n_attempts,
       CAST(MAX(CASE WHEN r.i = hmax.m THEN r.nf END) AS BIGINT) AS n_fail,
       CAST(MAX(CASE WHEN r.i = hmax.m THEN r.rate END) AS BIGINT)
         AS final_rate,
       CAST(GREATEST(MAX(r.rate), {_AIMD_START}) AS BIGINT) AS max_rate,
       CAST(LEAST(MIN(r.rate), {_AIMD_START}) AS BIGINT) AS min_rate
FROM r JOIN hmax ON hmax.host = r.host
GROUP BY r.host, hmax.m
"""


# ---------------------------------------------------------------------------
# bm25_mrr — MRR and precision@5 of the BM25 ranking
# ---------------------------------------------------------------------------

_MRR_K = 5


def q_bm25_mrr(sf_dir: str):
    """Mean-reciprocal-rank style readout for the BM25 ranking:
    relevance = "document contains ALL three query terms"; report the
    reciprocal rank of the first relevant document (exact rational as
    num/den ints plus the mirrored double) and precision@5 — the two
    numbers a retrieval regression suite pins (MRR for "did the best
    answer surface", P@k for "is the first page clean"). Output: one
    row.

    Distributed shape: relevance flags fold in the same map that scans
    the corpus for the BM25 candidates' texts (broadcast id set).
    """
    from .queries import QUERIES

    top = QUERIES["bm25_topk"](sf_dir)
    top = top.to_pandas() if not isinstance(top, pa.Table) else top.to_pandas()  # bounded: k-row query output
    top = top.sort_values(["score", "doc_id"], ascending=[False, True])
    ids = [int(x) for x in top["doc_id"]]
    id_ref = ray.put(np.array(sorted(ids), np.int64))

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def rel(batch: pa.Table) -> pa.Table:
        d = batch.column("doc_id").to_numpy(zero_copy_only=False)
        keep = np.isin(d, ray.get(id_ref))
        sub = batch.filter(pa.array(keep))
        out_id, out_r = [], []
        for did, t in zip(
            sub.column("doc_id").to_pylist(), sub.column("text").to_pylist()
        ):
            toks = set((t or "").lower().split())
            out_id.append(did)
            out_r.append(
                int({"table", "scan", "merge"} <= toks)
            )
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "rel": pa.array(out_r, pa.int64()),
            }
        )

    rows = docs.map_batches(rel, batch_format="pyarrow").take_all()  # bounded: BM25-candidate rows only (isin-filtered)
    rel_map = {int(r["doc_id"]): int(r["rel"]) for r in rows}
    first = 0
    for i, d in enumerate(ids, start=1):
        if rel_map.get(d, 0):
            first = i
            break
    p_at_k = sum(rel_map.get(d, 0) for d in ids[:_MRR_K])
    return pa.table(
        {
            "first_rel_rank": pa.array([first], pa.int64()),
            "rr": pa.array(
                [1.0 / float(first) if first else 0.0], pa.float64()
            ),
            "p_at_5_num": pa.array([p_at_k], pa.int64()),
            "p_at_5": pa.array(
                [float(p_at_k) / float(_MRR_K)], pa.float64()
            ),
        }
    )


def _sql_bm25_mrr(oracles: dict) -> str:
    return rf"""
WITH bm AS MATERIALIZED ({oracles["bm25_topk"].strip()}),
rk AS (
  SELECT doc_id,
         row_number() OVER (ORDER BY score DESC, doc_id) AS rn
  FROM bm
),
rel AS (
  SELECT rk.rn,
         CASE WHEN list_contains(t, 'table') AND list_contains(t, 'scan')
               AND list_contains(t, 'merge') THEN 1 ELSE 0 END AS r
  FROM rk JOIN (
    SELECT doc_id,
           list_filter(regexp_split_to_array(lower(text), '\s+'),
                       x -> x <> '') AS t
    FROM documents
  ) d ON d.doc_id = rk.doc_id
),
f AS (SELECT COALESCE(MIN(rn), 0) AS first_rel FROM rel WHERE r = 1),
p AS (SELECT CAST(SUM(r) AS BIGINT) AS p5 FROM rel WHERE rn <= {_MRR_K})
SELECT CAST(f.first_rel AS BIGINT) AS first_rel_rank,
       CASE WHEN f.first_rel = 0 THEN 0e0
            ELSE CAST(1.0 AS DOUBLE) / CAST(f.first_rel AS DOUBLE)
       END AS rr,
       p.p5 AS p_at_5_num,
       CAST(p.p5 AS DOUBLE) / CAST({_MRR_K} AS DOUBLE) AS p_at_5
FROM f, p
"""
