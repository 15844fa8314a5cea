"""Forty-third-wave operators (round-3 continuation session,
2026-08-20).

Listed by name in ``queries.py``'s QUERIES/ORACLES. rbo_rankings nests the
bm25_topk and colbert_maxsim oracles; gate_odds_ratio nests the
gate_kappa oracle.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# rbo_rankings — rank-biased overlap between BM25 and MaxSim top-10
# ---------------------------------------------------------------------------

_RBO_P = 0.9


def q_rbo_rankings(sf_dir: str):
    """Rank-Biased Overlap (Webber, Moffat & Zobel 2010) between the
    BM25 and ColBERT-MaxSim top-10 rankings — the top-weighted ranking
    similarity (agreement at depth 1 matters ~10× more than at depth
    10 with p = 0.9) that Kendall's τ can't express. Output: one row
    per depth d with the prefix intersection size and the cumulative
    quantized RBO@d.

    Exactness: prefix intersections are integers; each depth's term
    (1−p)·p^{d−1}·|∩_d|/d is one mirrored double expression quantized
    ×1e12, and the cumulative sum folds the quantized integers.

    Distributed shape: both rankings are the existing distributed
    queries (k rows each); the depth fold is O(k²) driver math.
    """
    from .queries import QUERIES

    bm = QUERIES["bm25_topk"](sf_dir)
    bm = bm.to_pandas() if not isinstance(bm, pa.Table) else bm.to_pandas()  # bounded: k-row query output
    bm = bm.sort_values(["score", "doc_id"], ascending=[False, True])
    a = [int(x) for x in bm["doc_id"]]
    ms = QUERIES["colbert_maxsim"](sf_dir)
    ms = ms.to_pandas() if hasattr(ms, "to_pandas") else ms  # bounded: k-row query output
    ms = ms.sort_values(["maxsim", "doc_id"], ascending=[False, True])
    b = [int(x) for x in ms["doc_id"]]
    k = min(len(a), len(b))
    out = {"depth": [], "overlap": [], "term_q": [], "rbo_q": []}
    acc = 0
    for d in range(1, k + 1):
        ov = len(set(a[:d]) & set(b[:d]))
        term = (
            (1.0 - _RBO_P)
            * math.pow(_RBO_P, float(d - 1))
            * float(ov)
            / float(d)
        )
        tq = math.floor(term * 1e12 + 0.5)
        acc += tq
        out["depth"].append(d)
        out["overlap"].append(ov)
        out["term_q"].append(tq)
        out["rbo_q"].append(acc)
    return pa.table(
        {
            "depth": pa.array(out["depth"], pa.int64()),
            "overlap": pa.array(out["overlap"], pa.int64()),
            "term_q": pa.array(out["term_q"], pa.int64()),
            "rbo_q": pa.array(out["rbo_q"], pa.int64()),
        }
    )


def _sql_rbo_rankings(oracles: dict) -> str:
    return f"""
WITH bm AS MATERIALIZED ({oracles["bm25_topk"].strip()}),
cb AS MATERIALIZED ({oracles["colbert_maxsim"].strip()}),
ra AS (
  SELECT doc_id, row_number() OVER (ORDER BY score DESC, doc_id) AS r
  FROM bm
),
rb AS (
  SELECT doc_id, row_number() OVER (ORDER BY maxsim DESC, doc_id) AS r
  FROM cb
),
kk AS (
  SELECT LEAST((SELECT COUNT(*) FROM ra), (SELECT COUNT(*) FROM rb)) AS k
),
-- range() refuses subquery bounds: generate from the larger ranking's
-- own rank column instead
depths AS (
  SELECT ra.r AS depth FROM ra, kk WHERE ra.r <= kk.k
),
ov AS (
  SELECT depths.depth,
         CAST(COUNT(*) AS BIGINT) AS overlap
  FROM depths
  LEFT JOIN ra ON ra.r <= depths.depth
  LEFT JOIN rb ON rb.doc_id = ra.doc_id AND rb.r <= depths.depth
  WHERE rb.doc_id IS NOT NULL
  GROUP BY depths.depth
),
ovz AS (
  SELECT depths.depth, COALESCE(ov.overlap, 0) AS overlap
  FROM depths LEFT JOIN ov USING (depth)
),
tq AS (
  SELECT depth, overlap,
         CAST(floor((1e0 - {_RBO_P!r}) * POW({_RBO_P!r},
                     CAST(depth - 1 AS DOUBLE))
                    * CAST(overlap AS DOUBLE) / CAST(depth AS DOUBLE)
                    * 1e12 + 5e-1) AS BIGINT) AS term_q
  FROM ovz
)
SELECT depth, overlap, term_q,
       CAST(SUM(term_q) OVER (ORDER BY depth
              ROWS UNBOUNDED PRECEDING) AS BIGINT) AS rbo_q
FROM tq
"""


# ---------------------------------------------------------------------------
# holt_forecast — Holt's linear (level + trend) smoothing
# ---------------------------------------------------------------------------

_HO_DAY_US = 86_400_000_000
_HO_ALPHA = 0.5
_HO_BETA = 0.25


def q_holt_forecast(sf_dir: str):
    """Holt's linear exponential smoothing over the daily event rate —
    the level+trend forecaster one rung above ewma_forecast:
    ℓ_t = αx_t + (1−α)(ℓ_{t−1}+b_{t−1}), b_t = β(ℓ_t−ℓ_{t−1}) +
    (1−β)b_{t−1}; forecast_t = ℓ_{t−1}+b_{t−1}. Initialization
    ℓ_1 = x_1, b_1 = x_2 − x_1 (needs ≥ 2 days). The double recurrence
    is mirrored as one recursive CTE carrying BOTH state variables with
    identical arithmetic (the ewma_forecast discipline, extended).

    Distributed shape: ONE daily aggregate; O(#days) driver fold.
    """
    from .queries_wave42 import _daily_counts

    rows = _daily_counts(sf_dir)
    out = {"day": [], "x": [], "level": [], "trend": [], "forecast": []}
    if len(rows) >= 2:
        l = float(rows[0][1])
        b = float(rows[1][1]) - float(rows[0][1])
        out["day"].append(rows[0][0])
        out["x"].append(rows[0][1])
        out["level"].append(l)
        out["trend"].append(b)
        out["forecast"].append(l)  # no prior state: forecast_1 = x_1
        for day, x in rows[1:]:
            fc = l + b
            l_new = _HO_ALPHA * float(x) + (1.0 - _HO_ALPHA) * (l + b)
            b_new = _HO_BETA * (l_new - l) + (1.0 - _HO_BETA) * b
            l, b = l_new, b_new
            out["day"].append(day)
            out["x"].append(x)
            out["level"].append(l)
            out["trend"].append(b)
            out["forecast"].append(fc)
    return pa.table(
        {
            "day": pa.array(out["day"], pa.int64()),
            "x": pa.array(out["x"], pa.int64()),
            "level": pa.array(out["level"], pa.float64()),
            "trend": pa.array(out["trend"], pa.float64()),
            "forecast": pa.array(out["forecast"], pa.float64()),
        }
    )


SQL_HOLT_FORECAST = f"""
WITH RECURSIVE daily AS (
  SELECT epoch_us(ts) // {_HO_DAY_US} AS day,
         CAST(COUNT(*) AS BIGINT) AS x
  FROM events GROUP BY 1
),
idx AS (
  SELECT day, x, row_number() OVER (ORDER BY day) AS i FROM daily
),
init AS (
  SELECT i1.day, i1.x,
         CAST(i1.x AS DOUBLE) AS lvl,
         CAST(i2.x AS DOUBLE) - CAST(i1.x AS DOUBLE) AS tr
  FROM idx i1 JOIN idx i2 ON i2.i = 2
  WHERE i1.i = 1
),
r AS (
  SELECT CAST(1 AS BIGINT) AS i, day, x, lvl, tr,
         lvl AS forecast
  FROM init
  UNION ALL
  SELECT idx.i, idx.day, idx.x,
         CAST({_HO_ALPHA!r} AS DOUBLE) * CAST(idx.x AS DOUBLE)
           + (CAST(1.0 AS DOUBLE) - CAST({_HO_ALPHA!r} AS DOUBLE))
             * (r.lvl + r.tr) AS lvl,
         CAST({_HO_BETA!r} AS DOUBLE)
           * ((CAST({_HO_ALPHA!r} AS DOUBLE) * CAST(idx.x AS DOUBLE)
               + (CAST(1.0 AS DOUBLE) - CAST({_HO_ALPHA!r} AS DOUBLE))
                 * (r.lvl + r.tr)) - r.lvl)
           + (CAST(1.0 AS DOUBLE) - CAST({_HO_BETA!r} AS DOUBLE)) * r.tr
           AS tr,
         r.lvl + r.tr AS forecast
  FROM r JOIN idx ON idx.i = r.i + 1
)
SELECT day, x, lvl AS level, tr AS trend, forecast FROM r
"""


# ---------------------------------------------------------------------------
# gate_odds_ratio — odds ratio + Katz log CI for the gate 2x2 table
# ---------------------------------------------------------------------------


def q_gate_odds_ratio(sf_dir: str):
    """Effect-size companion to gate_kappa: the odds ratio of the
    Gopher and C4 keep decisions with its 95% Katz log-interval —
    OR = (n11·n00)/(n10·n01), CI = exp(ln OR ± 1.96·√(Σ 1/n_ij)) —
    the standard 2×2 association readout (is passing one gate
    ASSOCIATED with passing the other, and how tightly estimated).

    Exactness: counts come from the nested gate_kappa aggregate; the
    ln/sqrt/exp chain is mirrored scalar libm on exact integers,
    quantized. Distributed shape: one map + 4-integer aggregate.
    """
    from .queries_wave40 import q_gate_kappa

    row = q_gate_kappa(sf_dir).to_pandas().iloc[0]  # bounded: single-row upstream query
    n11, n10, n01, n00 = (
        int(row["n11"]), int(row["n10"]), int(row["n01"]), int(row["n00"])
    )
    or_ = (float(n11) * float(n00)) / (float(n10) * float(n01))
    se = math.sqrt(
        1.0 / float(n11) + 1.0 / float(n10) + 1.0 / float(n01)
        + 1.0 / float(n00)
    )
    lo = math.exp(math.log(or_) - 1.96 * se)
    hi = math.exp(math.log(or_) + 1.96 * se)
    return pa.table(
        {
            "n11": pa.array([n11], pa.int64()),
            "n10": pa.array([n10], pa.int64()),
            "n01": pa.array([n01], pa.int64()),
            "n00": pa.array([n00], pa.int64()),
            "or_q": pa.array([math.floor(or_ * 1e9 + 0.5)], pa.int64()),
            "ci_lo_q": pa.array([math.floor(lo * 1e9 + 0.5)], pa.int64()),
            "ci_hi_q": pa.array([math.floor(hi * 1e9 + 0.5)], pa.int64()),
        }
    )


def _sql_gate_odds_ratio(oracles: dict) -> str:
    return f"""
WITH k AS MATERIALIZED ({oracles["gate_kappa"].strip()})
SELECT n11, n10, n01, n00,
       CAST(floor((CAST(n11 AS DOUBLE) * CAST(n00 AS DOUBLE))
                  / (CAST(n10 AS DOUBLE) * CAST(n01 AS DOUBLE))
                  * 1e9 + 5e-1) AS BIGINT) AS or_q,
       CAST(floor(exp(ln((CAST(n11 AS DOUBLE) * CAST(n00 AS DOUBLE))
                         / (CAST(n10 AS DOUBLE) * CAST(n01 AS DOUBLE)))
                      - CAST(1.96 AS DOUBLE) * sqrt(1e0 / CAST(n11 AS DOUBLE)
                                    + 1e0 / CAST(n10 AS DOUBLE)
                                    + 1e0 / CAST(n01 AS DOUBLE)
                                    + 1e0 / CAST(n00 AS DOUBLE)))
                  * 1e9 + 5e-1) AS BIGINT) AS ci_lo_q,
       CAST(floor(exp(ln((CAST(n11 AS DOUBLE) * CAST(n00 AS DOUBLE))
                         / (CAST(n10 AS DOUBLE) * CAST(n01 AS DOUBLE)))
                      + CAST(1.96 AS DOUBLE) * sqrt(1e0 / CAST(n11 AS DOUBLE)
                                    + 1e0 / CAST(n10 AS DOUBLE)
                                    + 1e0 / CAST(n01 AS DOUBLE)
                                    + 1e0 / CAST(n00 AS DOUBLE)))
                  * 1e9 + 5e-1) AS BIGINT) AS ci_hi_q
FROM k
"""
