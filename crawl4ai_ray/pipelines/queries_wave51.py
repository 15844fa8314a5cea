"""Fifty-first-wave operators (round-3 continuation session,
2026-08-21) — survey raking, tail-index estimation, causal DiD.

Listed by name in ``queries.py``'s QUERIES/ORACLES.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# ipf_raking — iterative proportional fitting of sample weights
# ---------------------------------------------------------------------------

_IPF_WS = 10**9  # weight fixed point
_IPF_ROUNDS = 5


def q_ipf_raking(sf_dir: str):
    """Iterative proportional fitting (raking) of survey weights: the
    doc_id%3==0 subsample is calibrated so its weighted (source, lang)
    marginals match the FULL corpus — the standard reweighting step
    when a curated subset must represent the population (dataset
    mixing, eval-set balancing). Because initial weights are equal,
    IPF reduces exactly to raking the (source × lang) contingency
    cells. Output: one row per non-empty cell with the sample count,
    the full-corpus row/col targets and the fitted weight after
    {rounds} alternating row/col scalings.

    Exactness: weights are integers in 10⁹ units; each scaling is
    w·(target·WS)//Σ(c·w) — pure integer multiply-divide with 128-bit
    intermediates in SQL, so every round mirrors bit-for-bit.
    Distributed shape: TWO aggregates (sample cells + corpus
    marginals); the ≤|S|·|L|-cell IPF loop is driver arithmetic.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "lang"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        df = pd.DataFrame(
            {
                "source": batch.column("source").to_pylist(),
                "lang": batch.column("lang").to_pylist(),
                "insample": (
                    batch.column("doc_id")
                    .to_numpy(zero_copy_only=False)
                    .astype(np.int64)
                    % 3
                    == 0
                ).astype(np.int64),
            }
        )
        g = (
            df.groupby(["source", "lang", "insample"], sort=True)
            .size()
            .reset_index(name="c")
        )
        return pa.table(
            {
                "source": pa.array(g["source"], pa.string()),
                "lang": pa.array(g["lang"], pa.string()),
                "insample": pa.array(
                    g["insample"].to_numpy(np.int64), pa.int64()
                ),
                "c": pa.array(g["c"].to_numpy(np.int64), pa.int64()),
            }
        )

    parts = docs.map_batches(partial, batch_format="pyarrow").take_all()  # bounded: per-batch histogram partials
    full: dict = {}
    samp: dict = {}
    for r in parts:
        k = (r["source"], r["lang"])
        full[k] = full.get(k, 0) + int(r["c"])
        if r["insample"] == 1:
            samp[k] = samp.get(k, 0) + int(r["c"])
    srcs = sorted({s for s, _ in full})
    langs = sorted({l for _, l in full})
    row_t = {s: sum(full.get((s, l), 0) for l in langs) for s in srcs}
    col_t = {l: sum(full.get((s, l), 0) for s in srcs) for l in langs}
    cells = sorted(samp)  # only non-empty sample cells carry weight
    w = {k: _IPF_WS for k in cells}
    for _ in range(_IPF_ROUNDS):
        for s in srcs:
            rs = sum(samp[k] * w[k] for k in cells if k[0] == s)
            if rs == 0:
                continue
            for k in cells:
                if k[0] == s:
                    w[k] = w[k] * (row_t[s] * _IPF_WS) // rs
        for l in langs:
            cs = sum(samp[k] * w[k] for k in cells if k[1] == l)
            if cs == 0:
                continue
            for k in cells:
                if k[1] == l:
                    w[k] = w[k] * (col_t[l] * _IPF_WS) // cs
    return pa.table(
        {
            "source": pa.array([k[0] for k in cells], pa.string()),
            "lang": pa.array([k[1] for k in cells], pa.string()),
            "c_sample": pa.array([samp[k] for k in cells], pa.int64()),
            "row_target": pa.array(
                [row_t[k[0]] for k in cells], pa.int64()
            ),
            "col_target": pa.array(
                [col_t[k[1]] for k in cells], pa.int64()
            ),
            "w_q": pa.array([w[k] for k in cells], pa.int64()),
        }
    )


def _sql_ipf_raking() -> str:
    WS = _IPF_WS
    parts = [
        f"""
cellx AS (
  SELECT source, lang,
         CAST(COUNT(*) AS BIGINT) AS c_full,
         CAST(SUM(CASE WHEN doc_id % 3 = 0 THEN 1 ELSE 0 END)
              AS BIGINT) AS c_samp
  FROM documents GROUP BY source, lang
),
rowt AS (
  SELECT source, CAST(SUM(c_full) AS BIGINT) AS rt
  FROM cellx GROUP BY source
),
colt AS (
  SELECT lang, CAST(SUM(c_full) AS BIGINT) AS ct
  FROM cellx GROUP BY lang
),
w0 AS (
  SELECT source, lang, c_samp, CAST({WS} AS BIGINT) AS w
  FROM cellx WHERE c_samp > 0
)"""
    ]
    prev = "w0"
    for r in range(1, _IPF_ROUNDS + 1):
        parts.append(
            f"""
rs{r} AS (
  SELECT source, CAST(SUM(c_samp * w) AS BIGINT) AS rsum
  FROM {prev} GROUP BY source
),
wr{r} AS MATERIALIZED (
  SELECT p.source, p.lang, p.c_samp,
         CAST(CAST(p.w AS HUGEINT) * (rowt.rt * {WS})
              // rs{r}.rsum AS BIGINT) AS w
  FROM {prev} p
  JOIN rowt ON rowt.source = p.source
  JOIN rs{r} ON rs{r}.source = p.source
),
cs{r} AS (
  SELECT lang, CAST(SUM(c_samp * w) AS BIGINT) AS csum
  FROM wr{r} GROUP BY lang
),
wc{r} AS MATERIALIZED (
  SELECT p.source, p.lang, p.c_samp,
         CAST(CAST(p.w AS HUGEINT) * (colt.ct * {WS})
              // cs{r}.csum AS BIGINT) AS w
  FROM wr{r} p
  JOIN colt ON colt.lang = p.lang
  JOIN cs{r} ON cs{r}.lang = p.lang
)"""
        )
        prev = f"wc{r}"
    parts.append(
        f"""
fin AS (SELECT * FROM {prev})
SELECT fin.source, fin.lang, fin.c_samp AS c_sample,
       rowt.rt AS row_target, colt.ct AS col_target, fin.w AS w_q
FROM fin
JOIN rowt ON rowt.source = fin.source
JOIN colt ON colt.lang = fin.lang"""
    )
    return "WITH " + ",".join(parts)


# ---------------------------------------------------------------------------
# hill_tail_index — EVT tail-index (Hill estimator) of document lengths
# ---------------------------------------------------------------------------

_HILL_K = 100
_HILL_Q = 10**12


def q_hill_tail_index(sf_dir: str):
    """Hill estimator of the document-length tail index: over the
    k={k} largest lengths, ξ̂ = (1/k)·Σ ln(x_(i)/x_(k+1)) and the
    implied Pareto exponent α̂ = 1/ξ̂ — the extreme-value-theory
    answer to "how heavy is the giant-document tail?" (drives
    truncation budgets and worst-case batch sizing). Output: one row
    with k, the threshold order statistic and the quantized ξ̂, α̂.

    Exactness: each log-excess ln(x_i/x_thr) quantizes to an integer
    (one mirrored ln per retained row); ξ̂ = Σ//k and α̂ = 10²⁴//ξ̂_q
    are pure integers. Distributed shape: ONE distributed descending
    sort bounded by limit(k+1) — the full corpus never leaves the
    cluster, only k+1 values do.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["n_chars"]
    )
    top = [
        int(r["n_chars"])
        for r in docs.sort("n_chars", descending=True)
        .limit(_HILL_K + 1)
        .take_all()  # bounded: ≤ K+1 rows (sort+limit)
    ]
    thr = top[_HILL_K]
    lqs = [
        math.floor(math.log(float(x) / float(thr)) * float(_HILL_Q))
        for x in top[:_HILL_K]
    ]
    xi_q = sum(lqs) // _HILL_K
    alpha_q = _HILL_Q * _HILL_Q // max(xi_q, 1)
    return pa.table(
        {
            "k": pa.array([_HILL_K], pa.int64()),
            "x_thr": pa.array([thr], pa.int64()),
            "xi_q": pa.array([xi_q], pa.int64()),
            "alpha_q": pa.array([alpha_q], pa.int64()),
        }
    )


SQL_HILL_TAIL_INDEX = f"""
WITH o AS (
  SELECT n_chars, row_number() OVER (ORDER BY n_chars DESC) AS rn
  FROM documents
),
thr AS (SELECT CAST(n_chars AS BIGINT) AS x FROM o WHERE rn = {_HILL_K + 1}),
lq AS (
  SELECT CAST(floor(ln(CAST(o.n_chars AS DOUBLE) / CAST(thr.x AS DOUBLE))
                    * {float(_HILL_Q)!r}) AS BIGINT) AS l
  FROM o, thr WHERE o.rn <= {_HILL_K}
),
xi AS (
  SELECT CAST(CAST(SUM(l) AS HUGEINT) // {_HILL_K} AS BIGINT) AS xi_q
  FROM lq
)
SELECT CAST({_HILL_K} AS BIGINT) AS k, thr.x AS x_thr, xi.xi_q,
       CAST(CAST({_HILL_Q} AS HUGEINT) * {_HILL_Q}
            // GREATEST(xi.xi_q, 1) AS BIGINT) AS alpha_q
FROM thr, xi
"""


# ---------------------------------------------------------------------------
# diff_in_diff — causal cutover analysis on the event stream
# ---------------------------------------------------------------------------

_DID_CUT_DAY = 15
_DID_MQ = 10**6


def q_diff_in_diff(sf_dir: str):
    """Difference-in-differences on the event stream: users with
    user_id%5==0 are "treated" at the Jan {cut} cutover, everyone else
    is control, outcome = event value — DiD = (T_post−T_pre) −
    (C_post−C_pre) removes both the group baseline and the common
    time trend, the standard read on "did the rollout change the
    metric?". Output: one row with the four cell counts/means and the
    quantized DiD estimate.

    Exactness: the double `value` column is snapped to integer cents
    with ONE mirrored floor per row; cell sums are then exact
    integers and each mean quantizes as sum·10⁶//n. Distributed
    shape: one map-side 8-integer partial per batch, one aggregate.
    """
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "user_id", "value"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        day = us // 86_400_000_000 - 19723 + 1  # days since 2024-01-01, 1-based
        uid = batch.column("user_id").to_numpy(zero_copy_only=False)
        val = batch.column("value").to_numpy(zero_copy_only=False)
        cents = np.floor(val * 100.0 + 0.5).astype(np.int64)
        treated = (uid % 5 == 0).astype(np.int64)
        post = (day >= _DID_CUT_DAY).astype(np.int64)
        cols = {}
        for t in (0, 1):
            for p in (0, 1):
                m = (treated == t) & (post == p)
                cols[f"n_{t}{p}"] = pa.array([int(m.sum())], pa.int64())
                cols[f"s_{t}{p}"] = pa.array(
                    [int(cents[m].sum())], pa.int64()
                )
        return pa.table(cols)

    aggs = []
    for t in (0, 1):
        for p in (0, 1):
            aggs.append(
                ray.data.aggregate.Sum(f"n_{t}{p}", alias_name=f"n_{t}{p}")
            )
            aggs.append(
                ray.data.aggregate.Sum(f"s_{t}{p}", alias_name=f"s_{t}{p}")
            )
    row = ev.map_batches(partial, batch_format="pyarrow").aggregate(*aggs)
    n = {(t, p): int(row[f"n_{t}{p}"]) for t in (0, 1) for p in (0, 1)}
    s = {(t, p): int(row[f"s_{t}{p}"]) for t in (0, 1) for p in (0, 1)}
    m = {k: s[k] * _DID_MQ // n[k] for k in n}
    did = (m[(1, 1)] - m[(1, 0)]) - (m[(0, 1)] - m[(0, 0)])
    return pa.table(
        {
            "n_c_pre": pa.array([n[(0, 0)]], pa.int64()),
            "n_c_post": pa.array([n[(0, 1)]], pa.int64()),
            "n_t_pre": pa.array([n[(1, 0)]], pa.int64()),
            "n_t_post": pa.array([n[(1, 1)]], pa.int64()),
            "m_c_pre_q": pa.array([m[(0, 0)]], pa.int64()),
            "m_c_post_q": pa.array([m[(0, 1)]], pa.int64()),
            "m_t_pre_q": pa.array([m[(1, 0)]], pa.int64()),
            "m_t_post_q": pa.array([m[(1, 1)]], pa.int64()),
            "did_q": pa.array([did], pa.int64()),
        }
    )


SQL_DIFF_IN_DIFF = f"""
WITH e AS (
  SELECT CASE WHEN user_id % 5 = 0 THEN 1 ELSE 0 END AS treated,
         CASE WHEN CAST(date_part('day', ts) AS BIGINT)
                   >= {_DID_CUT_DAY} THEN 1 ELSE 0 END AS post,
         CAST(floor(value * 100e0 + 5e-1) AS BIGINT) AS cents
  FROM events
),
agg AS (
  SELECT treated, post, CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(cents) AS BIGINT) AS s
  FROM e GROUP BY treated, post
),
m AS (
  SELECT treated, post, n, s * {_DID_MQ} // n AS mq FROM agg
)
SELECT
  (SELECT n FROM m WHERE treated = 0 AND post = 0) AS n_c_pre,
  (SELECT n FROM m WHERE treated = 0 AND post = 1) AS n_c_post,
  (SELECT n FROM m WHERE treated = 1 AND post = 0) AS n_t_pre,
  (SELECT n FROM m WHERE treated = 1 AND post = 1) AS n_t_post,
  (SELECT mq FROM m WHERE treated = 0 AND post = 0) AS m_c_pre_q,
  (SELECT mq FROM m WHERE treated = 0 AND post = 1) AS m_c_post_q,
  (SELECT mq FROM m WHERE treated = 1 AND post = 0) AS m_t_pre_q,
  (SELECT mq FROM m WHERE treated = 1 AND post = 1) AS m_t_post_q,
  ((SELECT mq FROM m WHERE treated = 1 AND post = 1)
   - (SELECT mq FROM m WHERE treated = 1 AND post = 0))
  - ((SELECT mq FROM m WHERE treated = 0 AND post = 1)
     - (SELECT mq FROM m WHERE treated = 0 AND post = 0)) AS did_q
"""
