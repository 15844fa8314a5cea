"""Forty-second-wave operators (round-3 continuation session,
2026-08-20) — sequence-modeling wave.

Listed by name in ``queries.py``'s QUERIES/ORACLES.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

import ray

_DAY_US = 86_400_000_000


def _daily_counts(sf_dir: str) -> list:
    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts"])

    def daily(batch: pa.Table) -> pa.Table:
        ts_us = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        day = ts_us // _DAY_US
        u, c = np.unique(day, return_counts=True)
        return pa.table(
            {
                "day": pa.array(u, pa.int64()),
                "x": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    rows = (
        ev.map_batches(daily, batch_format="pyarrow")
        .groupby("day")
        .aggregate(ray.data.aggregate.Sum("x", alias_name="x"))
        .take_all()  # bounded: one row per day (bounded key domain)
    )
    rows.sort(key=lambda r: int(r["day"]))
    return [(int(r["day"]), int(r["x"])) for r in rows]


# ---------------------------------------------------------------------------
# hmm_viterbi_bursts — integer min-cost Viterbi burst segmentation
# ---------------------------------------------------------------------------

_HV_SWITCH = 80  # state-switch penalty (cost units = events)


def q_hmm_viterbi_bursts(sf_dir: str):
    """Two-state Viterbi segmentation of the daily event rate into
    normal/burst regimes: state centers μ = (median-of-days, 2×median),
    per-day emission cost |x − μ_s|, plus a switch penalty — the
    min-cost path through the 2-state trellis (Viterbi with additive
    integer costs, so the whole DP is EXACT integer arithmetic; the
    argmin backtrace is the segmentation every burst-detection pipeline
    wants, with hysteresis built in via the switch cost). Output: one
    row per day with both cumulative costs and the decoded state.

    Exactness: μ is the exact order-statistic median (counting rank);
    ties in the min/argmin break toward state 0 — mirrored in SQL.
    Distributed shape: ONE daily aggregate; the trellis is O(#days)
    driver fold, mirrored as a recursive CTE stepping both state costs.
    """
    rows = _daily_counts(sf_dir)
    xs = sorted(x for _, x in rows)
    mu0 = xs[(len(xs) + 1) // 2 - 1]  # lower median, 1-based ceil(n/2)
    mu1 = 2 * mu0
    v0, v1 = abs(rows[0][1] - mu0), abs(rows[0][1] - mu1)
    # store path via per-day decoded state from forward costs with
    # deterministic tie-break (<=): state = argmin(v0, v1), ties -> 0
    out = {"day": [], "x": [], "cost0": [], "cost1": [], "state": []}
    out["day"].append(rows[0][0])
    out["x"].append(rows[0][1])
    out["cost0"].append(v0)
    out["cost1"].append(v1)
    out["state"].append(0 if v0 <= v1 else 1)
    for day, x in rows[1:]:
        n0 = min(v0, v1 + _HV_SWITCH) + abs(x - mu0)
        n1 = min(v1, v0 + _HV_SWITCH) + abs(x - mu1)
        v0, v1 = n0, n1
        out["day"].append(day)
        out["x"].append(x)
        out["cost0"].append(v0)
        out["cost1"].append(v1)
        out["state"].append(0 if v0 <= v1 else 1)
    return pa.table(
        {
            "day": pa.array(out["day"], pa.int64()),
            "x": pa.array(out["x"], pa.int64()),
            "cost0": pa.array(out["cost0"], pa.int64()),
            "cost1": pa.array(out["cost1"], pa.int64()),
            "state": pa.array(out["state"], pa.int64()),
        }
    )


SQL_HMM_VITERBI_BURSTS = f"""
WITH RECURSIVE daily AS (
  SELECT epoch_us(ts) // {_DAY_US} AS day,
         CAST(COUNT(*) AS BIGINT) AS x
  FROM events GROUP BY 1
),
idx AS (
  SELECT day, x, row_number() OVER (ORDER BY day) AS i FROM daily
),
med AS (
  SELECT CAST(MAX(CASE WHEN rn = (cnt + 1) // 2 THEN x END) AS BIGINT)
           AS mu0
  FROM (
    SELECT x, row_number() OVER (ORDER BY x) AS rn,
           COUNT(*) OVER () AS cnt
    FROM daily
  )
),
r AS (
  SELECT idx.i, idx.day, idx.x,
         ABS(idx.x - med.mu0) AS c0,
         ABS(idx.x - 2 * med.mu0) AS c1
  FROM idx, med WHERE idx.i = 1
  UNION ALL
  SELECT idx.i, idx.day, idx.x,
         LEAST(r.c0, r.c1 + {_HV_SWITCH}) + ABS(idx.x - med.mu0),
         LEAST(r.c1, r.c0 + {_HV_SWITCH}) + ABS(idx.x - 2 * med.mu0)
  FROM r JOIN idx ON idx.i = r.i + 1 CROSS JOIN med
)
SELECT day, x, CAST(c0 AS BIGINT) AS cost0, CAST(c1 AS BIGINT) AS cost1,
       CAST(CASE WHEN c0 <= c1 THEN 0 ELSE 1 END AS BIGINT) AS state
FROM r
"""


# ---------------------------------------------------------------------------
# seasonal_naive_eval — lag-7 vs lag-1 naive forecast accuracy
# ---------------------------------------------------------------------------


def q_seasonal_naive_eval(sf_dir: str):
    """Forecast-baseline shoot-out on the daily event rate: total
    absolute error of the naive lag-1 forecast (tomorrow = today) vs
    the seasonal-naive lag-7 (next Monday = last Monday), over the days
    where both are defined — the comparison that says whether the
    stream has weekly structure worth modeling at all (the MASE
    denominator choice, Hyndman & Koehler 2006). All sums are exact
    integers; the ratio is the one mirrored division.
    """
    rows = _daily_counts(sf_dir)
    xs = {d: x for d, x in rows}
    days = [d for d, _ in rows]
    mae1 = mae7 = n = 0
    for d in days:
        if d - 1 in xs and d - 7 in xs:
            x = xs[d]
            mae1 += abs(x - xs[d - 1])
            mae7 += abs(x - xs[d - 7])
            n += 1
    return pa.table(
        {
            "n_days": pa.array([n], pa.int64()),
            "sae_lag1": pa.array([mae1], pa.int64()),
            "sae_lag7": pa.array([mae7], pa.int64()),
            "ratio": pa.array(
                [float(mae7) / float(mae1) if mae1 else 0.0], pa.float64()
            ),
        }
    )


SQL_SEASONAL_NAIVE_EVAL = f"""
WITH daily AS (
  SELECT epoch_us(ts) // {_DAY_US} AS day,
         CAST(COUNT(*) AS BIGINT) AS x
  FROM events GROUP BY 1
),
j AS (
  SELECT d.day, d.x, l1.x AS x1, l7.x AS x7
  FROM daily d
  JOIN daily l1 ON l1.day = d.day - 1
  JOIN daily l7 ON l7.day = d.day - 7
),
s AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n_days,
         CAST(SUM(ABS(x - x1)) AS BIGINT) AS sae_lag1,
         CAST(SUM(ABS(x - x7)) AS BIGINT) AS sae_lag7
  FROM j
)
SELECT n_days, sae_lag1, sae_lag7,
       CASE WHEN sae_lag1 = 0 THEN 0e0
            ELSE CAST(sae_lag7 AS DOUBLE) / CAST(sae_lag1 AS DOUBLE)
       END AS ratio
FROM s
"""


# ---------------------------------------------------------------------------
# markov_entropy_rate — entropy rate of the event-type Markov chain
# ---------------------------------------------------------------------------


def q_markov_entropy_rate(sf_dir: str):
    """Entropy rate of the per-user event-type Markov chain:
    H = −Σ_s π(s) Σ_t P(t|s)·ln P(t|s), with π the empirical
    previous-state distribution and P the empirical transitions — the
    bits-per-event predictability number (low H: sessions are
    templated; H near ln(5): event types are i.i.d. noise). Output: per
    previous state its conditional entropy term plus the chain total on
    every row.

    Exactness: each −p·ln p term is a mirrored scalar libm expression
    of exact integer ratios, quantized ×1e12; π-weighting is done as
    exact integer multiplication BEFORE the one division by the total
    pair count. Distributed shape: the pair extraction is the
    sessionize plan (hash(user) buckets, vectorized lag); ONE
    (prev, nxt) groupby; the entropy fold is |types|²-bounded.
    """
    import pandas as pd

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type"],
    )

    def tag(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array(uid % 32, pa.int64()),
                "user_id": pa.array(uid, pa.int64()),
                "ts": batch.column("ts").cast(pa.int64()),
                "event_id": batch.column("event_id").cast(pa.int64()),
                "event_type": batch.column("event_type"),
            }
        )

    def pairs(g: pa.Table) -> pa.Table:
        # arrow-native (r5)
        g = g.sort_by(
            [("user_id", "ascending"), ("ts", "ascending"),
             ("event_id", "ascending")]
        )
        uarr = g.column("user_id").to_numpy(zero_copy_only=False)
        earr = np.asarray(g.column("event_type").to_pylist(), dtype=object)
        same = uarr[1:] == uarr[:-1]
        prev = earr[:-1][same]
        nxt = earr[1:][same]
        return pa.table(
            {
                "prev": pa.array(list(prev), pa.string()),
                "nxt": pa.array(list(nxt), pa.string()),
            }
        )

    trans = (
        ev.map_batches(tag, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(pairs, batch_format="pyarrow")
        .groupby(["prev", "nxt"])
        .aggregate(ray.data.aggregate.Count(alias_name="c"))
        .take_all()  # bounded: (event_type × event_type) transition cells
    )
    row_tot: dict[str, int] = {}
    for r in trans:
        row_tot[r["prev"]] = row_tot.get(r["prev"], 0) + int(r["c"])
    total = sum(row_tot.values())
    # per-prev conditional entropy, quantized per (prev, nxt) term
    h_cond_q: dict[str, int] = {}
    for r in trans:
        p = float(int(r["c"])) / float(row_tot[r["prev"]])
        term = -p * math.log(p)
        h_cond_q[r["prev"]] = h_cond_q.get(r["prev"], 0) + math.floor(
            term * 1e12 + 0.5
        )
    # chain entropy: sum over prev of (row_tot/total) * h_cond — done as
    # exact integer products then ONE division
    num = sum(row_tot[s] * h_cond_q[s] for s in row_tot)
    h_rate = float(num) / (float(total) * 1e12)
    ks = sorted(row_tot)
    return pa.table(
        {
            "prev": pa.array(ks, pa.string()),
            "n_pairs": pa.array([row_tot[k] for k in ks], pa.int64()),
            "h_cond_q": pa.array([h_cond_q[k] for k in ks], pa.int64()),
            "h_rate": pa.array([h_rate] * len(ks), pa.float64()),
        }
    )


SQL_MARKOV_ENTROPY_RATE = """
WITH seq AS (
  SELECT user_id, event_type,
         LAG(event_type) OVER (
           PARTITION BY user_id ORDER BY ts, event_id) AS prev
  FROM events
),
prs AS (SELECT prev, event_type AS nxt FROM seq WHERE prev IS NOT NULL),
tr AS (
  SELECT prev, nxt, CAST(COUNT(*) AS BIGINT) AS c
  FROM prs GROUP BY prev, nxt
),
rowt AS (SELECT prev, CAST(SUM(c) AS BIGINT) AS rc FROM tr GROUP BY prev),
hq AS (
  SELECT tr.prev,
         CAST(SUM(CAST(floor(
           -(CAST(tr.c AS DOUBLE) / CAST(rowt.rc AS DOUBLE))
           * ln(CAST(tr.c AS DOUBLE) / CAST(rowt.rc AS DOUBLE))
           * 1e12 + 5e-1) AS BIGINT)) AS BIGINT) AS h_cond_q
  FROM tr JOIN rowt USING (prev)
  GROUP BY tr.prev
),
tot AS (SELECT CAST(SUM(rc) AS BIGINT) AS t FROM rowt),
num AS (
  SELECT CAST(SUM(rowt.rc * hq.h_cond_q) AS BIGINT) AS n
  FROM rowt JOIN hq USING (prev)
)
SELECT rowt.prev, rowt.rc AS n_pairs, hq.h_cond_q,
       CAST(num.n AS DOUBLE) / (CAST(tot.t AS DOUBLE) * 1e12) AS h_rate
FROM rowt JOIN hq USING (prev), tot, num
"""
