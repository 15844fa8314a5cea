"""Fiftieth-wave operators (round-3 continuation session, 2026-08-21)
— click-model EM, distribution drift, privacy audit.

Listed by name in ``queries.py``'s QUERIES/ORACLES.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# pbm_click_model — position-based click model EM (examination x relevance)
# ---------------------------------------------------------------------------

_PBM_WEEKS = 5
_PBM_POS = 10
_PBM_QS = 10**6  # parameter fixed point
_PBM_ROUNDS = 4
# true relevance by tier: alpha = 1/4 (tier 0), 3/4 (tier 1); click iff
# u52 * p < ANUM_tier  <=>  u < alpha_tier / p  (exam_true = 1/p)
_PBM_ANUM = {0: (1 << 52) // 4, 1: (3 * (1 << 52)) // 4}


def q_pbm_click_model(sf_dir: str):
    """Position-based click model fit by EM over a simulated SERP log:
    each document gets {weeks} impressions at md5-drawn positions
    1..{pos}, clicks are generated by the TRUE PBM (examination 1/p ×
    tier relevance ¼ or ¾, integer cross-multiplied draw), and EM
    recovers the examination curve θ_p and tier relevances α_t from
    clicks alone — the de-biasing model behind every click-feedback
    ranking pipeline. Output: one row per parameter (kind='exam' per
    position, kind='rel' per tier) with impressions, clicks and the
    quantized estimate after {rounds} rounds.

    Exactness: the E-step posteriors e=θ(1−α)/(1−θα), r=α(1−θ)/(1−θα)
    depend only on the (position, tier) CELL, so they quantize to one
    integer per cell (ONE mirrored double division each); the M-step
    is then pure integer cell-count arithmetic — the unrolled DuckDB
    chain reproduces every round bit-for-bit. Distributed shape:
    impression generation + click draw + (p, t, clicked) count is one
    map-side partial aggregate (only 40 cells leave the map); EM runs
    on the 40-cell table driver-side.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )

    def impress(batch: pa.Table) -> pa.Table:
        cnt: dict = {}
        for d in batch.column("doc_id").to_pylist():
            t = (
                int(hashlib.md5(f"tier|{d}".encode()).hexdigest()[:13], 16)
                % 2
            )
            for w in range(_PBM_WEEKS):
                p = (
                    1
                    + int(
                        hashlib.md5(
                            f"pos|{d}|{w}".encode()
                        ).hexdigest()[:13],
                        16,
                    )
                    % _PBM_POS
                )
                hc = int(
                    hashlib.md5(f"clk|{d}|{w}".encode()).hexdigest()[:13],
                    16,
                )
                clicked = int(hc * p < _PBM_ANUM[t])
                key = (p, t, clicked)
                cnt[key] = cnt.get(key, 0) + 1
        items = sorted(cnt.items())
        return pa.table(
            {
                "p": pa.array([k[0] for k, _ in items], pa.int64()),
                "t": pa.array([k[1] for k, _ in items], pa.int64()),
                "clicked": pa.array([k[2] for k, _ in items], pa.int64()),
                "n": pa.array([v for _, v in items], pa.int64()),
            }
        )

    parts = docs.map_batches(impress, batch_format="pyarrow").take_all()  # bounded: (position × clicked) cells
    cells: dict = {}
    for r in parts:
        k = (int(r["p"]), int(r["t"]), int(r["clicked"]))
        cells[k] = cells.get(k, 0) + int(r["n"])
    QS = _PBM_QS
    ps = sorted({p for p, _, _ in cells})
    ts = sorted({t for _, t, _ in cells})
    th = {p: QS // 2 for p in ps}
    al = {t: QS // 2 for t in ts}
    for _ in range(_PBM_ROUNDS):
        eq, rq = {}, {}
        for p in ps:
            for t in ts:
                den = max(QS * QS - th[p] * al[t], 1)
                eq[(p, t)] = math.floor(
                    float(th[p] * (QS - al[t])) / float(den) * 1000000.0
                )
                rq[(p, t)] = math.floor(
                    float(al[t] * (QS - th[p])) / float(den) * 1000000.0
                )
        th2 = {}
        for p in ps:
            clicks = sum(cells.get((p, t, 1), 0) for t in ts)
            nc_e = sum(
                cells.get((p, t, 0), 0) * eq[(p, t)] for t in ts
            )
            n_p = clicks + sum(cells.get((p, t, 0), 0) for t in ts)
            th2[p] = (clicks * QS + nc_e) // n_p
        al2 = {}
        for t in ts:
            clicks = sum(cells.get((p, t, 1), 0) for p in ps)
            nc_r = sum(
                cells.get((p, t, 0), 0) * rq[(p, t)] for p in ps
            )
            n_t = clicks + sum(cells.get((p, t, 0), 0) for p in ps)
            al2[t] = (clicks * QS + nc_r) // n_t
        th, al = th2, al2
    kind, idx, nn, cc, vq = [], [], [], [], []
    for p in ps:
        kind.append("exam")
        idx.append(p)
        nn.append(sum(cells.get((p, t, c), 0) for t in ts for c in (0, 1)))
        cc.append(sum(cells.get((p, t, 1), 0) for t in ts))
        vq.append(th[p])
    for t in ts:
        kind.append("rel")
        idx.append(t)
        nn.append(sum(cells.get((p, t, c), 0) for p in ps for c in (0, 1)))
        cc.append(sum(cells.get((p, t, 1), 0) for p in ps))
        vq.append(al[t])
    return pa.table(
        {
            "kind": pa.array(kind, pa.string()),
            "idx": pa.array(idx, pa.int64()),
            "n_imp": pa.array(nn, pa.int64()),
            "n_click": pa.array(cc, pa.int64()),
            "v_q": pa.array(vq, pa.int64()),
        }
    )


def _sql_pbm() -> str:
    QS = _PBM_QS
    weeks = ", ".join(f"({w})" for w in range(_PBM_WEEKS))
    parts = [
        f"""
imp0 AS (
  SELECT d.doc_id, w.w,
         CAST(('0x' || substr(md5('tier|' || d.doc_id), 1, 13))
              AS BIGINT) % 2 AS t,
         1 + CAST(('0x' || substr(md5('pos|' || d.doc_id || '|' || w.w),
                                  1, 13)) AS BIGINT) % {_PBM_POS} AS p,
         CAST(('0x' || substr(md5('clk|' || d.doc_id || '|' || w.w),
                              1, 13)) AS BIGINT) AS hc
  FROM documents d CROSS JOIN (VALUES {weeks}) w(w)
),
imp AS (
  SELECT p, t,
         CASE WHEN hc * p < CASE WHEN t = 1 THEN {_PBM_ANUM[1]}
                                 ELSE {_PBM_ANUM[0]} END
              THEN 1 ELSE 0 END AS clicked
  FROM imp0
),
cells AS MATERIALIZED (
  SELECT p, t, clicked, CAST(COUNT(*) AS BIGINT) AS n
  FROM imp GROUP BY p, t, clicked
),
th0 AS (SELECT DISTINCT p, CAST({QS // 2} AS BIGINT) AS v FROM cells),
al0 AS (SELECT DISTINCT t, CAST({QS // 2} AS BIGINT) AS v FROM cells)"""
    ]
    for r in range(1, _PBM_ROUNDS + 1):
        parts.append(
            f"""
eq{r} AS MATERIALIZED (
  SELECT c.p, c.t,
         CAST(floor(CAST(th.v * ({QS} - al.v) AS DOUBLE)
                    / CAST(GREATEST({QS * QS} - th.v * al.v, 1) AS DOUBLE)
                    * 1000000e0) AS BIGINT) AS e,
         CAST(floor(CAST(al.v * ({QS} - th.v) AS DOUBLE)
                    / CAST(GREATEST({QS * QS} - th.v * al.v, 1) AS DOUBLE)
                    * 1000000e0) AS BIGINT) AS r
  FROM (SELECT DISTINCT p, t FROM cells) c
  JOIN th{r - 1} th ON th.p = c.p
  JOIN al{r - 1} al ON al.t = c.t
),
th{r} AS MATERIALIZED (
  SELECT c.p,
         CAST((CAST(SUM(CASE WHEN c.clicked = 1 THEN c.n ELSE 0 END)
                    AS BIGINT) * {QS}
               + CAST(SUM(CASE WHEN c.clicked = 0 THEN c.n * eq{r}.e
                               ELSE 0 END) AS BIGINT))
              // CAST(SUM(c.n) AS BIGINT) AS BIGINT) AS v
  FROM cells c JOIN eq{r} ON eq{r}.p = c.p AND eq{r}.t = c.t
  GROUP BY c.p
),
al{r} AS MATERIALIZED (
  SELECT c.t,
         CAST((CAST(SUM(CASE WHEN c.clicked = 1 THEN c.n ELSE 0 END)
                    AS BIGINT) * {QS}
               + CAST(SUM(CASE WHEN c.clicked = 0 THEN c.n * eq{r}.r
                               ELSE 0 END) AS BIGINT))
              // CAST(SUM(c.n) AS BIGINT) AS BIGINT) AS v
  FROM cells c JOIN eq{r} ON eq{r}.p = c.p AND eq{r}.t = c.t
  GROUP BY c.t
)"""
        )
    R = _PBM_ROUNDS
    parts.append(
        f"""
outp AS (
  SELECT 'exam' AS kind, c.p AS idx,
         CAST(SUM(c.n) AS BIGINT) AS n_imp,
         CAST(SUM(CASE WHEN c.clicked = 1 THEN c.n ELSE 0 END)
              AS BIGINT) AS n_click
  FROM cells c GROUP BY c.p
  UNION ALL
  SELECT 'rel', c.t,
         CAST(SUM(c.n) AS BIGINT),
         CAST(SUM(CASE WHEN c.clicked = 1 THEN c.n ELSE 0 END) AS BIGINT)
  FROM cells c GROUP BY c.t
)
SELECT o.kind, o.idx, o.n_imp, o.n_click,
       CASE WHEN o.kind = 'exam'
            THEN (SELECT v FROM th{R} WHERE th{R}.p = o.idx)
            ELSE (SELECT v FROM al{R} WHERE al{R}.t = o.idx)
       END AS v_q
FROM outp o"""
    )
    return "WITH " + ",".join(parts)


# ---------------------------------------------------------------------------
# psi_drift — population stability index between corpus halves
# ---------------------------------------------------------------------------

_PSI_BUCKETS = 20
_PSI_W = 100  # chars per bucket


def q_psi_drift(sf_dir: str):
    """Population Stability Index between the two corpus halves
    (doc_id parity as stand-ins for reference/current snapshots):
    document lengths bucketed at {w}-char width (capped at {b}
    buckets), Laplace-smoothed shares, per-bucket contribution
    (p_A−p_B)·ln(p_A/p_B) — the drift dashboard number (PSI > 0.2 =
    investigate) emitted PER BUCKET so the alert names the shifted
    region. No total row: summing mirrored floats is fold-order
    dependent, so the total stays a consumer-side reduction.

    Exactness: counts are integers; each contribution is the identical
    double expression (two divisions, one ln, one multiply) in both
    engines. Distributed shape: one map-side bucket-count partial per
    half; the {b}-row fold is driver arithmetic.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        nc = batch.column("n_chars").to_numpy(zero_copy_only=False)
        b = np.minimum(nc // _PSI_W, _PSI_BUCKETS - 1)
        half = ids % 2
        rows = {"bucket": [], "half": [], "c": []}
        for hv in (0, 1):
            vb, cb = np.unique(b[half == hv], return_counts=True)
            rows["bucket"].extend(int(x) for x in vb)
            rows["half"].extend(hv for _ in vb)
            rows["c"].extend(int(x) for x in cb)
        return pa.table(
            {
                "bucket": pa.array(rows["bucket"], pa.int64()),
                "half": pa.array(rows["half"], pa.int64()),
                "c": pa.array(rows["c"], pa.int64()),
            }
        )

    parts = docs.map_batches(partial, batch_format="pyarrow").take_all()  # bounded: PSI buckets
    ca = {b: 0 for b in range(_PSI_BUCKETS)}
    cb = {b: 0 for b in range(_PSI_BUCKETS)}
    for r in parts:
        (ca if r["half"] == 0 else cb)[int(r["bucket"])] += int(r["c"])
    na, nb = sum(ca.values()), sum(cb.values())
    out = {"bucket": [], "c_a": [], "c_b": [], "p_a": [], "p_b": [], "contrib": []}
    for b in range(_PSI_BUCKETS):
        pa_ = float(ca[b] + 1) / float(na + _PSI_BUCKETS)
        pb_ = float(cb[b] + 1) / float(nb + _PSI_BUCKETS)
        out["bucket"].append(b)
        out["c_a"].append(ca[b])
        out["c_b"].append(cb[b])
        out["p_a"].append(pa_)
        out["p_b"].append(pb_)
        out["contrib"].append((pa_ - pb_) * math.log(pa_ / pb_))
    return pa.table(
        {
            "bucket": pa.array(out["bucket"], pa.int64()),
            "c_a": pa.array(out["c_a"], pa.int64()),
            "c_b": pa.array(out["c_b"], pa.int64()),
            "p_a": pa.array(out["p_a"], pa.float64()),
            "p_b": pa.array(out["p_b"], pa.float64()),
            "contrib": pa.array(out["contrib"], pa.float64()),
        }
    )


SQL_PSI_DRIFT = f"""
WITH b AS (
  SELECT LEAST(n_chars // {_PSI_W}, {_PSI_BUCKETS - 1}) AS bucket,
         doc_id % 2 AS half
  FROM documents
),
grid AS (SELECT CAST(range AS BIGINT) AS bucket FROM range({_PSI_BUCKETS})),
cnt AS (
  SELECT bucket, half, CAST(COUNT(*) AS BIGINT) AS c
  FROM b GROUP BY bucket, half
),
tot AS (
  SELECT CAST(SUM(CASE WHEN half = 0 THEN c ELSE 0 END) AS BIGINT) AS na,
         CAST(SUM(CASE WHEN half = 1 THEN c ELSE 0 END) AS BIGINT) AS nb
  FROM cnt
),
j AS (
  SELECT g.bucket,
         COALESCE(a.c, 0) AS c_a, COALESCE(bb.c, 0) AS c_b,
         CAST(COALESCE(a.c, 0) + 1 AS DOUBLE)
           / CAST(tot.na + {_PSI_BUCKETS} AS DOUBLE) AS p_a,
         CAST(COALESCE(bb.c, 0) + 1 AS DOUBLE)
           / CAST(tot.nb + {_PSI_BUCKETS} AS DOUBLE) AS p_b
  FROM grid g
  LEFT JOIN cnt a ON a.bucket = g.bucket AND a.half = 0
  LEFT JOIN cnt bb ON bb.bucket = g.bucket AND bb.half = 1,
  tot
)
SELECT bucket, c_a, c_b, p_a, p_b,
       (p_a - p_b) * ln(p_a / p_b) AS contrib
FROM j
"""


# ---------------------------------------------------------------------------
# k_anonymity — quasi-identifier group-size privacy audit
# ---------------------------------------------------------------------------

_KA_K = 5
_KA_W = 100


def q_k_anonymity(sf_dir: str):
    """k-anonymity audit of a hypothetical metadata release: treating
    (source, lang, length-bucket) as the quasi-identifier, any
    equivalence class smaller than k={k} re-identifies its members —
    the audit every "we only released metadata" claim needs. Output:
    one row per QI class with its size and the risky flag.

    Exactness: pure integer counting. Distributed shape: map-side
    (source, lang, bucket) partial counts (bounded by the QI-space
    size per batch); the class table itself is the output.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "lang", "n_chars"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        df = (
            pd.DataFrame(
                {
                    "source": batch.column("source").to_pylist(),
                    "lang": batch.column("lang").to_pylist(),
                    "len_b": (
                        batch.column("n_chars")
                        .to_numpy(zero_copy_only=False)
                        .astype(np.int64)
                        // _KA_W
                    ),
                }
            )
            .groupby(["source", "lang", "len_b"], sort=True)
            .size()
            .reset_index(name="c")
        )
        return pa.table(
            {
                "source": pa.array(df["source"], pa.string()),
                "lang": pa.array(df["lang"], pa.string()),
                "len_b": pa.array(df["len_b"].to_numpy(np.int64), pa.int64()),
                "c": pa.array(df["c"].to_numpy(np.int64), pa.int64()),
            }
        )

    parts = docs.map_batches(partial, batch_format="pyarrow").take_all()  # bounded: length-bucket cells
    agg: dict = {}
    for r in parts:
        k = (r["source"], r["lang"], int(r["len_b"]))
        agg[k] = agg.get(k, 0) + int(r["c"])
    keys = sorted(agg)
    return pa.table(
        {
            "source": pa.array([k[0] for k in keys], pa.string()),
            "lang": pa.array([k[1] for k in keys], pa.string()),
            "len_b": pa.array([k[2] for k in keys], pa.int64()),
            "n": pa.array([agg[k] for k in keys], pa.int64()),
            "risky": pa.array(
                [int(agg[k] < _KA_K) for k in keys], pa.int64()
            ),
        }
    )


SQL_K_ANONYMITY = f"""
SELECT source, lang, n_chars // {_KA_W} AS len_b,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(CASE WHEN COUNT(*) < {_KA_K} THEN 1 ELSE 0 END AS BIGINT)
         AS risky
FROM documents
GROUP BY source, lang, n_chars // {_KA_W}
"""
