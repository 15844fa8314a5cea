"""Thirty-second-wave operators (round-3 continuation session,
2026-08-20).

Listed by name in ``queries.py``'s QUERIES/ORACLES. rocchio_expansion nests the
bm25_topk oracle as a CTE at registration.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# wfq_order — weighted-fair-queueing admission order across hosts
# ---------------------------------------------------------------------------

_WFQ_LIMIT = 100
_WFQ_WLCM = 6  # weights 1..3 all divide 6 → exact integer finish times


def q_wfq_order(sf_dir: str):
    """Weighted Fair Queueing admission order for the crawl fetch
    queue: each host h has weight w_h = 1 + (host_id % 3); its i-th
    page (in warc_ts order = doc_id order) finishes at virtual time
    (i+1)/w_h, and the scheduler admits globally by ascending finish
    time — the classic WFQ interleave that gives a weight-3 host 3×
    the slots of a weight-1 host while staying starvation-free (the
    ORDERING discipline beside fair_share_alloc's budget split and the
    politeness token bucket's timing). First 100 admissions.

    Exactness: finish times are exact integers (i+1)·(6/w) — every
    weight divides the LCM 6 — so the global order (finish_q, host,
    doc_id) is pure integer sorting.

    Distributed shape: per-host sequence numbers via hash(host)-bucket
    groupby with a vectorized per-bucket pass (the sessionize plan, one
    scheduling unit per bucket, NOT per host), then ONE distributed
    sort + limit.
    """
    from .queries import _pages_ds
    from ..functions.urls import hosts_array

    pages = _pages_ds(sf_dir, columns=["url"])

    def tag(batch: pa.Table) -> pa.Table:
        hosts = hosts_array(batch.column("url")).to_pylist()
        ids = np.array(
            [int(u.rsplit("/", 1)[1]) for u in batch.column("url").to_pylist()],
            np.int64,
        )
        hid = np.array(
            [int(h.split(".")[0][4:]) for h in hosts], np.int64
        )
        return pa.table(
            {
                "bucket": pa.array(hid % 16, pa.int64()),
                "host": pa.array(hosts, pa.string()),
                "hid": pa.array(hid, pa.int64()),
                "doc_id": pa.array(ids, pa.int64()),
            }
        )

    def per_bucket(g: pa.Table) -> pa.Table:
        # arrow-native (r5): run-length cumcount per sorted host
        g = g.sort_by([("host", "ascending"), ("doc_id", "ascending")])
        hosts = np.asarray(g.column("host").to_pylist(), dtype=object)
        n = len(hosts)
        idx = np.arange(n, dtype=np.int64)
        new_h = np.r_[True, hosts[1:] != hosts[:-1]] if n else np.zeros(0, bool)
        start = np.maximum.accumulate(np.where(new_h, idx, 0)) if n else idx
        seq = idx - start + 1
        w = 1 + (g.column("hid").to_numpy(zero_copy_only=False) % 3)
        finish_q = seq * (_WFQ_WLCM // w)
        return pa.table(
            {
                "host": g.column("host"),
                "doc_id": g.column("doc_id").cast(pa.int64()),
                "finish_q": pa.array(
                    finish_q.astype(np.int64), pa.int64()
                ),
            }
        )

    return (
        pages.map_batches(tag, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
        .sort(["finish_q", "host", "doc_id"])
        .limit(_WFQ_LIMIT)
    )


def _sql_wfq_order(sql_pages: str) -> str:
    return f"""
WITH {sql_pages},
seq AS (
  SELECT host, doc_id,
         1 + (host_id % 3) AS w,
         row_number() OVER (PARTITION BY host ORDER BY doc_id) AS i
  FROM purl
)
SELECT host, doc_id,
       CAST(i * ({_WFQ_WLCM} // w) AS BIGINT) AS finish_q
FROM seq
ORDER BY finish_q, host, doc_id
LIMIT {_WFQ_LIMIT}
"""


# ---------------------------------------------------------------------------
# table_profile — per-column data-profiling summary
# ---------------------------------------------------------------------------

_TP_COLS = ("l_orderkey", "l_quantity", "l_returnflag", "l_shipdate")


def q_table_profile(sf_dir: str):
    """Data-profiling summary of the lineitem table — per column: row
    count, null count, exact distinct count. The first thing any data
    engineer (or ingestion validator) runs against a new drop; exact
    NDV here because the profiled table is columnar Parquet and the
    per-column distinct is one groupby (the HLL sketch in
    distinct_users_hll is the documented approximate path for columns
    whose cardinality approaches the row count).

    Distributed shape: one pruned read; nulls/counts fold map-side in
    a single pass; per-column NDV = one small groupby each (|columns|
    is a constant).
    """
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=list(_TP_COLS)
    ).materialize()

    def null_partial(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "column": pa.array(list(_TP_COLS), pa.string()),
                "n": pa.array(
                    [batch.num_rows] * len(_TP_COLS), pa.int64()
                ),
                "n_null": pa.array(
                    [batch.column(c).null_count for c in _TP_COLS],
                    pa.int64(),
                ),
            }
        )

    rows = ds.map_batches(null_partial, batch_format="pyarrow").take_all()  # bounded: one partial row per batch
    stats = {c: [0, 0] for c in _TP_COLS}
    for r in rows:
        stats[r["column"]][0] += int(r["n"])
        stats[r["column"]][1] += int(r["n_null"])
    out = {"column": [], "n_rows": [], "n_null": [], "ndv": []}
    for c in _TP_COLS:
        ndv = (
            ds.select_columns([c])
            .groupby(c)
            .aggregate(ray.data.aggregate.Count(alias_name="x"))
            .count()
        )
        out["column"].append(c)
        out["n_rows"].append(stats[c][0])
        out["n_null"].append(stats[c][1])
        out["ndv"].append(ndv)
    return pa.table(
        {
            "column": pa.array(out["column"], pa.string()),
            "n_rows": pa.array(out["n_rows"], pa.int64()),
            "n_null": pa.array(out["n_null"], pa.int64()),
            "ndv": pa.array(out["ndv"], pa.int64()),
        }
    )


def _sql_table_profile() -> str:
    parts = []
    for c in _TP_COLS:
        parts.append(
            f"""SELECT '{c}' AS column,
       CAST(COUNT(*) AS BIGINT) AS n_rows,
       CAST(COUNT(*) - COUNT({c}) AS BIGINT) AS n_null,
       CAST(COUNT(DISTINCT {c}) AS BIGINT) AS ndv
FROM lineitem"""
        )
    return "\nUNION ALL\n".join(parts)


# ---------------------------------------------------------------------------
# rocchio_expansion — relevance-feedback query expansion terms
# ---------------------------------------------------------------------------

_RC_FEEDBACK = 5
_RC_TOP_TERMS = 10
_RC_QUERY = ("table", "scan", "merge")


def q_rocchio_expansion(sf_dir: str):
    """Rocchio pseudo-relevance-feedback expansion for the BM25 query
    {table, scan, merge}: take the top-5 BM25 documents as feedback,
    weight every non-query term by Σ_fb tf(term, d) · idf(term)
    (idf = ln((N − df + 0.5)/(df + 0.5) + 1), the BM25 idf), and emit
    the top-10 expansion terms — the classic second-pass retrieval
    trick (Rocchio 1971) every search stack still ships.

    Exactness: idf is quantized per term; the term weight is the exact
    integer Σ tf · idf_q. Distributed shape: corpus df = ONE token
    groupby; feedback tf touches only the 5 docs (broadcast id set +
    one filter map); the final cut is a tiny sort.
    """
    from .queries import QUERIES

    top = QUERIES["bm25_topk"](sf_dir)
    if not isinstance(top, pa.Table):
        top = top.to_pandas() if hasattr(top, "to_pandas") else top  # bounded: k-row query output
    if isinstance(top, pa.Table):
        top = top.to_pandas()  # bounded: k-row query output
    top = top.sort_values(
        ["score", "doc_id"], ascending=[False, True]
    ).head(_RC_FEEDBACK)
    fb_ids = set(int(x) for x in top["doc_id"])
    fb_ref = ray.put(np.array(sorted(fb_ids), np.int64))

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    n_docs = docs.count()

    def fb_tf(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        keep = np.isin(ids, ray.get(fb_ref))
        cnt: dict[str, int] = {}
        for t, k in zip(batch.column("text").to_pylist(), keep):
            if not k:
                continue
            for tok in (t or "").lower().split():
                cnt[tok] = cnt.get(tok, 0) + 1
        ks = sorted(cnt)
        return pa.table(
            {
                "tok": pa.array(ks, pa.string()),
                "tf": pa.array([cnt[k] for k in ks], pa.int64()),
            }
        )

    tf_rows = (
        docs.map_batches(fb_tf, batch_format="pyarrow")
        .groupby("tok")
        .aggregate(ray.data.aggregate.Sum("tf", alias_name="tf"))
        .take_all()  # bounded: the FEEDBACK docs' vocabulary (k broadcast ids)
    )
    # corpus DF only for the feedback vocabulary (r4: the full-corpus
    # vocabulary fold is gone — the candidate token set is broadcast and
    # the DF pass filters BEFORE its shuffle, so both the exchange and
    # the collect are feedback-vocab-sized)
    fb_vocab_ref = ray.put({r["tok"] for r in tf_rows})

    def df_partial(batch: pa.Table) -> pa.Table:
        vocab = ray.get(fb_vocab_ref)
        cnt: dict[str, int] = {}
        for t in batch.column("text").to_pylist():
            for tok in set((t or "").lower().split()):
                if tok in vocab:
                    cnt[tok] = cnt.get(tok, 0) + 1
        ks = sorted(cnt)
        return pa.table(
            {
                "tok": pa.array(ks, pa.string()),
                "df": pa.array([cnt[k] for k in ks], pa.int64()),
            }
        )

    df_rows = (
        docs.map_batches(df_partial, batch_format="pyarrow")
        .groupby("tok")
        .aggregate(ray.data.aggregate.Sum("df", alias_name="df"))
        .take_all()  # bounded: feedback-vocabulary rows only
    )
    df_map = {r["tok"]: int(r["df"]) for r in df_rows}
    terms = []
    for r in tf_rows:
        tok = r["tok"]
        if tok in _RC_QUERY:
            continue
        df = df_map[tok]
        idf = math.log(
            (float(n_docs) - float(df) + 0.5) / (float(df) + 0.5) + 1.0
        )
        idf_q = math.floor(idf * 1e9 + 0.5)
        terms.append((tok, int(r["tf"]), df, int(r["tf"]) * idf_q))
    terms.sort(key=lambda x: (-x[3], x[0]))
    top_terms = terms[:_RC_TOP_TERMS]
    return pa.table(
        {
            "term": pa.array([t[0] for t in top_terms], pa.string()),
            "tf_fb": pa.array([t[1] for t in top_terms], pa.int64()),
            "df": pa.array([t[2] for t in top_terms], pa.int64()),
            "weight_q": pa.array([t[3] for t in top_terms], pa.int64()),
        }
    )


def _sql_rocchio_expansion(oracles: dict) -> str:
    qterms = ", ".join(f"'{t}'" for t in _RC_QUERY)
    return rf"""
WITH bm AS MATERIALIZED ({oracles["bm25_topk"].strip()}),
fb AS (
  SELECT doc_id FROM (
    SELECT doc_id,
           row_number() OVER (ORDER BY score DESC, doc_id) AS rn
    FROM bm
  ) WHERE rn <= {_RC_FEEDBACK}
),
tk AS (
  SELECT doc_id,
         unnest(list_filter(regexp_split_to_array(lower(text), '\s+'),
                            x -> x <> '')) AS tok
  FROM documents
),
dfreq AS (
  SELECT tok, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df
  FROM tk GROUP BY tok
),
nn AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM documents),
tfb AS (
  SELECT tok, CAST(COUNT(*) AS BIGINT) AS tf
  FROM tk WHERE doc_id IN (SELECT doc_id FROM fb)
  GROUP BY tok
),
wt AS (
  SELECT tfb.tok AS term, tfb.tf AS tf_fb, dfreq.df,
         tfb.tf * CAST(floor(ln((CAST(nn.n AS DOUBLE)
                                 - CAST(dfreq.df AS DOUBLE) + 5e-1)
                                / (CAST(dfreq.df AS DOUBLE) + 5e-1)
                                + 1e0) * 1e9 + 5e-1) AS BIGINT) AS weight_q
  FROM tfb JOIN dfreq USING (tok) CROSS JOIN nn
  WHERE tfb.tok NOT IN ({qterms})
),
rk AS (
  SELECT wt.*, row_number() OVER (ORDER BY weight_q DESC, term) AS rn
  FROM wt
)
SELECT term, tf_fb, df, weight_q FROM rk WHERE rn <= {_RC_TOP_TERMS}
"""
