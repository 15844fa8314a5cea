"""Thirty-eighth-wave operators (round-3 continuation session,
2026-08-20).

Listed by name in ``queries.py``'s QUERIES/ORACLES.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# shuffle_runs_test — Wald-Wolfowitz runs test on the training shuffle
# ---------------------------------------------------------------------------


def q_shuffle_runs_test(sf_dir: str):
    """Shuffle-quality audit: the Wald–Wolfowitz runs test applied to
    the doc-parity sequence in the deterministic training-shuffle order
    (md5(doc_id), the shuffle_export key discipline). A bad shuffle
    leaves long runs of one class; the test's z-score quantifies it
    against the exact run-count moments μ = 1 + 2n₁n₂/n and
    σ² = 2n₁n₂(2n₁n₂−n)/(n²(n−1)). Output: one row (n1, n2, runs,
    mu, z_q).

    Distributed shape: the scan order is range-bucketed by the key's
    leading hex byte (256 ordered buckets); each bucket reports
    (first, last, local changes, counts) — the two-level scan with
    O(buckets) driver fold; run count = 1 + Σ local + Σ boundary
    changes. μ and z are mirrored float expressions of exact integers.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )

    def tag(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        keys = [hashlib.md5(str(i).encode()).hexdigest() for i in ids]
        return pa.table(
            {
                "bucket": pa.array(
                    [int(k[:2], 16) for k in keys], pa.int64()
                ),
                "key": pa.array(keys, pa.string()),
                "lab": pa.array([i % 2 for i in ids], pa.int64()),
            }
        )

    def per_bucket(g: pa.Table) -> pa.Table:
        # arrow-native (r5)
        g = g.sort_by("key")
        lab = g.column("lab").to_numpy(zero_copy_only=False)
        changes = int((lab[1:] != lab[:-1]).sum())
        return pa.table(
            {
                "bucket": pa.array([int(g.column("bucket")[0].as_py())], pa.int64()),
                "first": pa.array([int(lab[0])], pa.int64()),
                "last": pa.array([int(lab[-1])], pa.int64()),
                "changes": pa.array([changes], pa.int64()),
                "n1": pa.array([int((lab == 1).sum())], pa.int64()),
                "n0": pa.array([int((lab == 0).sum())], pa.int64()),
            }
        )

    rows = (
        docs.map_batches(tag, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
        .take_all()  # bounded: one row per bucket (bounded key domain)
    )
    rows.sort(key=lambda r: int(r["bucket"]))
    changes = sum(int(r["changes"]) for r in rows)
    for a, b in zip(rows, rows[1:]):
        changes += int(int(a["last"]) != int(b["first"]))
    runs = 1 + changes
    n1 = sum(int(r["n1"]) for r in rows)
    n0 = sum(int(r["n0"]) for r in rows)
    n = n1 + n0
    mu = 1.0 + 2.0 * float(n1) * float(n0) / float(n)
    var = (
        2.0
        * float(n1)
        * float(n0)
        * (2.0 * float(n1) * float(n0) - float(n))
        / (float(n) * float(n) * float(n - 1))
    )
    z = (float(runs) - mu) / math.sqrt(var)
    return pa.table(
        {
            "n1": pa.array([n1], pa.int64()),
            "n0": pa.array([n0], pa.int64()),
            "runs": pa.array([runs], pa.int64()),
            "mu": pa.array([mu], pa.float64()),
            "z_q": pa.array([math.floor(z * 1e9 + 0.5)], pa.int64()),
        }
    )


SQL_SHUFFLE_RUNS_TEST = """
WITH seq AS (
  SELECT doc_id % 2 AS lab,
         LAG(doc_id % 2) OVER (
           ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS prev
  FROM documents
),
s AS (
  SELECT CAST(1 + SUM(CASE WHEN prev IS NOT NULL AND lab <> prev
                           THEN 1 ELSE 0 END) AS BIGINT) AS runs,
         CAST(SUM(lab) AS BIGINT) AS n1,
         CAST(SUM(1 - lab) AS BIGINT) AS n0
  FROM seq
)
SELECT n1, n0, runs,
       CAST(1.0 AS DOUBLE) + CAST(2.0 AS DOUBLE) * CAST(n1 AS DOUBLE)
         * CAST(n0 AS DOUBLE) / CAST(n1 + n0 AS DOUBLE) AS mu,
       CAST(floor((CAST(runs AS DOUBLE)
                   - (CAST(1.0 AS DOUBLE) + CAST(2.0 AS DOUBLE)
                      * CAST(n1 AS DOUBLE) * CAST(n0 AS DOUBLE)
                      / CAST(n1 + n0 AS DOUBLE)))
                  / sqrt(CAST(2.0 AS DOUBLE) * CAST(n1 AS DOUBLE)
                         * CAST(n0 AS DOUBLE)
                         * (CAST(2.0 AS DOUBLE) * CAST(n1 AS DOUBLE)
                            * CAST(n0 AS DOUBLE)
                            - CAST(n1 + n0 AS DOUBLE))
                         / (CAST(n1 + n0 AS DOUBLE)
                            * CAST(n1 + n0 AS DOUBLE)
                            * CAST(n1 + n0 - 1 AS DOUBLE)))
                  * 1e9 + 5e-1) AS BIGINT) AS z_q
FROM s
"""


# ---------------------------------------------------------------------------
# ewma_forecast — exponentially weighted moving average over daily rates
# ---------------------------------------------------------------------------

_EW_DAY_US = 86_400_000_000
_EW_ALPHA = 0.25


def q_ewma_forecast(sf_dir: str):
    """EWMA (single exponential smoothing, α=0.25) of the daily event
    rate — the one-step-ahead forecaster every recrawl-rate and
    capacity planner starts from: s_t = s_{t−1} + α(x_t − s_{t−1}),
    s_1 = x_1; each day's row carries the forecast (yesterday's s) and
    the residual. The recurrence is SEQUENTIAL in time — mirrored as a
    DuckDB RECURSIVE CTE stepping day by day with identical double
    arithmetic (the politeness-oracle discipline), while the Ray side
    folds the same expression over ≤ #days aggregate rows.

    Distributed shape: ONE daily aggregate; the fold is O(#days) on the
    driver (calendar-bounded, like cusum_alarm).
    """
    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts"])

    def daily(batch: pa.Table) -> pa.Table:
        ts_us = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        day = ts_us // _EW_DAY_US
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
    out = {"day": [], "x": [], "forecast": [], "s": [], "resid": []}
    s = None
    for r in rows:
        x = float(int(r["x"]))
        if s is None:
            fc = x
            s_new = x
        else:
            fc = s
            s_new = s + _EW_ALPHA * (x - s)
        out["day"].append(int(r["day"]))
        out["x"].append(int(r["x"]))
        out["forecast"].append(fc)
        out["s"].append(s_new)
        out["resid"].append(x - fc)
        s = s_new
    return pa.table(
        {
            "day": pa.array(out["day"], pa.int64()),
            "x": pa.array(out["x"], pa.int64()),
            "forecast": pa.array(out["forecast"], pa.float64()),
            "s": pa.array(out["s"], pa.float64()),
            "resid": pa.array(out["resid"], pa.float64()),
        }
    )


SQL_EWMA_FORECAST = f"""
WITH RECURSIVE daily AS (
  SELECT epoch_us(ts) // {_EW_DAY_US} AS day,
         CAST(COUNT(*) AS BIGINT) AS x
  FROM events GROUP BY 1
),
idx AS (
  SELECT day, x, row_number() OVER (ORDER BY day) AS i FROM daily
),
r AS (
  SELECT i, day, x,
         CAST(x AS DOUBLE) AS forecast,
         CAST(x AS DOUBLE) AS s
  FROM idx WHERE i = 1
  UNION ALL
  SELECT idx.i, idx.day, idx.x,
         r.s AS forecast,
         r.s + CAST({_EW_ALPHA!r} AS DOUBLE)
               * (CAST(idx.x AS DOUBLE) - r.s) AS s
  FROM r JOIN idx ON idx.i = r.i + 1
)
SELECT day, x, forecast, s,
       CAST(x AS DOUBLE) - forecast AS resid
FROM r
"""


# ---------------------------------------------------------------------------
# permutation_test — exact randomization test on group mean difference
# ---------------------------------------------------------------------------

_PT_B = 200


def q_permutation_test(sf_dir: str):
    """Randomization (permutation) test for a length difference between
    the doc-parity groups: the statistic is the CROSS-MULTIPLIED
    integer |Σ_A·n_B − Σ_B·n_A| (zero iff the group means are equal —
    no float means anywhere); the null distribution re-labels every doc
    by the md5-slice parity of (doc_id, b) for B=200 deterministic
    pseudo-permutations; p = (1 + #{b: stat_b ≥ stat_obs})/(B+1) — the
    distribution-free two-sample test that needs no variance model.
    Output: one row (stat_obs, n_ge, p_value).

    Distributed shape: per-batch (b, Σx, n) partials for all B
    relabelings — 2B accumulator rows per batch regardless of batch
    size — ONE groupby(b); the observed stat folds from the same pass
    (b = −1 slot).
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        xs = batch.column("n_chars").to_pylist()
        sw = np.zeros(_PT_B + 1, np.int64)  # slot B = observed labels
        sx = np.zeros(_PT_B + 1, np.int64)
        nn = np.zeros(_PT_B + 1, np.int64)
        for did, x in zip(ids, xs):
            for b in range(_PT_B):
                u = int(
                    hashlib.md5(f"pt|{did}|{b}".encode()).hexdigest()[:8],
                    16,
                )
                if u % 2 == 1:
                    sx[b] += x
                    sw[b] += 1
                nn[b] += 1
            if did % 2 == 1:
                sx[_PT_B] += x
                sw[_PT_B] += 1
            nn[_PT_B] += 1
        return pa.table(
            {
                "b": pa.array(np.arange(_PT_B + 1), pa.int64()),
                "sx1": pa.array(sx, pa.int64()),
                "n1": pa.array(sw, pa.int64()),
                "n": pa.array(nn, pa.int64()),
            }
        )

    tot = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("b")
        .aggregate(
            ray.data.aggregate.Sum("sx1", alias_name="sx1"),
            ray.data.aggregate.Sum("n1", alias_name="n1"),
            ray.data.aggregate.Sum("n", alias_name="n"),
        )
        .take_all()  # bounded: one row per b (bounded key domain)
    )
    sum_all = int(
        docs.map_batches(
            lambda b: pa.table(
                {
                    "s": pa.array(
                        [
                            int(
                                b.column("n_chars")
                                .to_numpy(zero_copy_only=False)
                                .sum()
                            )
                        ],
                        pa.int64(),
                    )
                }
            ),
            batch_format="pyarrow",
        ).sum("s")
    )

    def stat(sx1: int, n1: int, n: int) -> int:
        sx0 = sum_all - sx1
        n0 = n - n1
        return abs(sx1 * n0 - sx0 * n1)

    by_b = {int(r["b"]): r for r in tot}
    obs_r = by_b[_PT_B]
    stat_obs = stat(int(obs_r["sx1"]), int(obs_r["n1"]), int(obs_r["n"]))
    n_ge = sum(
        1
        for b in range(_PT_B)
        if stat(int(by_b[b]["sx1"]), int(by_b[b]["n1"]), int(by_b[b]["n"]))
        >= stat_obs
    )
    p = float(1 + n_ge) / float(_PT_B + 1)
    return pa.table(
        {
            "stat_obs": pa.array([stat_obs], pa.int64()),
            "n_ge": pa.array([n_ge], pa.int64()),
            "p_value": pa.array([p], pa.float64()),
        }
    )


SQL_PERMUTATION_TEST = f"""
WITH tot AS (
  SELECT CAST(SUM(n_chars) AS BIGINT) AS s,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM documents
),
obs AS (
  SELECT CAST(SUM(CASE WHEN doc_id % 2 = 1 THEN n_chars ELSE 0 END)
              AS BIGINT) AS sx1,
         CAST(SUM(CASE WHEN doc_id % 2 = 1 THEN 1 ELSE 0 END) AS BIGINT)
           AS n1
  FROM documents
),
perm AS (
  SELECT b.b,
         CAST(SUM(CASE WHEN CAST(('0x' || substr(
                  md5('pt|' || CAST(d.doc_id AS VARCHAR) || '|'
                             || CAST(b.b AS VARCHAR)), 1, 8)) AS BIGINT)
                  % 2 = 1 THEN d.n_chars ELSE 0 END) AS BIGINT) AS sx1,
         CAST(SUM(CASE WHEN CAST(('0x' || substr(
                  md5('pt|' || CAST(d.doc_id AS VARCHAR) || '|'
                             || CAST(b.b AS VARCHAR)), 1, 8)) AS BIGINT)
                  % 2 = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n1
  FROM documents d, range({_PT_B}) b(b)
  GROUP BY b.b
),
so AS (
  SELECT ABS(obs.sx1 * (tot.n - obs.n1)
             - (tot.s - obs.sx1) * obs.n1) AS stat_obs
  FROM obs, tot
),
sp AS (
  SELECT perm.b,
         ABS(perm.sx1 * (tot.n - perm.n1)
             - (tot.s - perm.sx1) * perm.n1) AS st
  FROM perm, tot
)
SELECT so.stat_obs,
       CAST(SUM(CASE WHEN sp.st >= so.stat_obs THEN 1 ELSE 0 END)
            AS BIGINT) AS n_ge,
       CAST(1 + SUM(CASE WHEN sp.st >= so.stat_obs THEN 1 ELSE 0 END)
            AS DOUBLE) / CAST({_PT_B + 1} AS DOUBLE) AS p_value
FROM sp, so GROUP BY so.stat_obs
"""
