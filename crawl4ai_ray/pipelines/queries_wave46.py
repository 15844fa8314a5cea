"""Forty-sixth-wave operators (round-3 continuation session,
2026-08-20) — crawl-operations wave.

Listed by name in ``queries.py``'s QUERIES/ORACLES.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# neyman_allocation — optimal stratified sample allocation across sources
# ---------------------------------------------------------------------------

_NA_BUDGET = 100


def q_neyman_allocation(sf_dir: str):
    """Neyman-optimal allocation of a 100-doc inspection budget across
    sources: n_h ∝ N_h·σ_h (stratum size × stratum std-dev of doc
    length) — the survey-sampling rule that minimizes the estimator
    variance for a fixed budget, i.e. "which sources deserve more QA
    samples". Rounded by Hamilton largest remainder (ties → source
    ASC). Output: one row per source with moments, the weight and the
    integer allocation (sums exactly to the budget).

    Exactness: per-stratum variance comes from exact integer moments
    (n·Σx² − (Σx)²); σ and the shares are mirrored sqrt/divisions;
    the apportionment compares exact remainder products cross-
    multiplied. Distributed shape: ONE per-source moment aggregate;
    the |sources|-row fold is driver arithmetic.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "n_chars"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        # arrow-native (r5): np.unique + bincount moment partials
        srcs = np.asarray(batch.column("source").to_pylist(), dtype=object)
        x = batch.column("n_chars").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        uniq, inv = np.unique(srcs, return_inverse=True)
        n = np.bincount(inv).astype(np.int64)
        s = np.bincount(inv, weights=x).astype(np.int64)
        s2 = np.bincount(inv, weights=x * x).astype(np.int64)
        return pa.table(
            {
                "source": pa.array(uniq.tolist(), pa.string()),
                "n": pa.array(n, pa.int64()),
                "s": pa.array(s, pa.int64()),
                "s2": pa.array(s2, pa.int64()),
            }
        )

    rows = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("source")
        .aggregate(
            ray.data.aggregate.Sum("n", alias_name="n"),
            ray.data.aggregate.Sum("s", alias_name="s"),
            ray.data.aggregate.Sum("s2", alias_name="s2"),
        )
        .take_all()  # bounded: one row per source (bounded key domain)
    )
    rows.sort(key=lambda r: r["source"])
    # weight_h = N_h * sigma_h = sqrt(N_h * (n*s2 - s^2) / n) — computed
    # as sqrt of the exact integer N_h^2 * var-numerator / n
    ws = []
    for r in rows:
        n, s, s2 = int(r["n"]), int(r["s"]), int(r["s2"])
        var_num = n * s2 - s * s  # n^2 * variance (exact)
        w = math.sqrt(float(var_num))  # = n * sigma
        ws.append(w)
    total_w = sum(ws)
    # Hamilton apportionment on shares w/total_w * BUDGET
    floors, rems = [], []
    for w in ws:
        share = w / total_w * _NA_BUDGET
        f = math.floor(share)
        floors.append(f)
        rems.append(share - f)
    left = _NA_BUDGET - sum(floors)
    order = sorted(
        range(len(rows)), key=lambda i: (-rems[i], rows[i]["source"])
    )
    alloc = list(floors)
    for i in order[:left]:
        alloc[i] += 1
    return pa.table(
        {
            "source": pa.array([r["source"] for r in rows], pa.string()),
            "n_docs": pa.array([int(r["n"]) for r in rows], pa.int64()),
            "var_num": pa.array(
                [int(r["n"]) * int(r["s2"]) - int(r["s"]) ** 2 for r in rows],
                pa.int64(),
            ),
            "weight": pa.array(ws, pa.float64()),
            "alloc": pa.array(alloc, pa.int64()),
        }
    )


SQL_NEYMAN_ALLOCATION = f"""
WITH m AS (
  SELECT source, CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(n_chars) AS BIGINT) AS s,
         CAST(SUM(n_chars * n_chars) AS BIGINT) AS s2
  FROM documents GROUP BY source
),
w AS (
  SELECT source, n, n * s2 - s * s AS var_num,
         sqrt(CAST(n * s2 - s * s AS DOUBLE)) AS weight
  FROM m
),
tot AS (SELECT SUM(weight) AS tw FROM w),
sh AS (
  SELECT w.source, w.n, w.var_num, w.weight,
         w.weight / tot.tw * CAST({_NA_BUDGET} AS DOUBLE) AS share
  FROM w, tot
),
fl AS (
  SELECT sh.*, CAST(floor(share) AS BIGINT) AS f,
         share - floor(share) AS rem
  FROM sh
),
left_ AS (
  SELECT CAST({_NA_BUDGET} AS BIGINT) - CAST(SUM(f) AS BIGINT) AS l
  FROM fl
),
rk AS (
  SELECT fl.*, row_number() OVER (ORDER BY rem DESC, source) AS rn
  FROM fl
)
SELECT rk.source, rk.n AS n_docs, rk.var_num, rk.weight,
       CAST(rk.f + CASE WHEN rk.rn <= left_.l THEN 1 ELSE 0 END
            AS BIGINT) AS alloc
FROM rk, left_
"""


# ---------------------------------------------------------------------------
# ttl_optimize — EOQ-style optimal recrawl interval per host
# ---------------------------------------------------------------------------

_TTL_FETCH_COST = 50  # cost units per refetch
_TTL_STALE_COST = 1  # cost units per (change · interval-unit) of staleness


def q_ttl_optimize(sf_dir: str):
    """Optimal recrawl TTL per host under the square-root law: with
    change rate λ (changes/day, the deterministic per-host model
    λ = (1 + host_id % 7)/7) and linear staleness cost, the cost-
    minimizing interval is TTL* = √(2·C_fetch/(λ·C_stale)) — the
    EOQ/Wilson formula transplanted to crawl scheduling, i.e. the
    closed-form behind every freshness-budget table. Output: per host
    the λ numerator, the quantized TTL* and the implied daily refetch
    frequency.

    Exactness: λ enters as the exact rational num/7; the sqrt is one
    mirrored libm call, quantized. Distributed shape: one map over the
    distinct-host table; no shuffle.
    """
    from ..functions.urls import hosts_array
    from .queries import _pages_ds

    pages = _pages_ds(sf_dir, columns=["url"])

    def per_host(batch: pa.Table) -> pa.Table:
        hosts = sorted(set(hosts_array(batch.column("url")).to_pylist()))
        hid = np.array([int(h.split(".")[0][4:]) for h in hosts], np.int64)
        lam_num = 1 + hid % 7  # lambda = lam_num / 7 changes per day
        ttl = np.array(
            [
                math.sqrt(
                    2.0
                    * float(_TTL_FETCH_COST)
                    / ((float(ln) / 7.0) * float(_TTL_STALE_COST))
                )
                for ln in lam_num
            ]
        )
        return pa.table(
            {
                "host": pa.array(hosts, pa.string()),
                "lam_num": pa.array(lam_num, pa.int64()),
                "ttl_q": pa.array(
                    np.floor(ttl * 1e6 + 0.5).astype(np.int64), pa.int64()
                ),
                "fetches_per_day_q": pa.array(
                    np.floor(1.0 / ttl * 1e9 + 0.5).astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    return (
        pages.map_batches(per_host, batch_format="pyarrow")
        .groupby("host")
        .aggregate(
            ray.data.aggregate.Max("lam_num", alias_name="lam_num"),
            ray.data.aggregate.Max("ttl_q", alias_name="ttl_q"),
            ray.data.aggregate.Max(
                "fetches_per_day_q", alias_name="fetches_per_day_q"
            ),
        )
    )


def _sql_ttl_optimize(sql_pages: str) -> str:
    return f"""
WITH {sql_pages},
hosts AS (SELECT DISTINCT host, host_id FROM purl),
t AS (
  SELECT host, CAST(1 + host_id % 7 AS BIGINT) AS lam_num,
         sqrt(2e0 * CAST({_TTL_FETCH_COST} AS DOUBLE)
              / ((CAST(1 + host_id % 7 AS DOUBLE) / 7e0)
                 * CAST({_TTL_STALE_COST} AS DOUBLE))) AS ttl
  FROM hosts
)
SELECT host, lam_num,
       CAST(floor(ttl * 1e6 + 5e-1) AS BIGINT) AS ttl_q,
       CAST(floor(1e0 / ttl * 1e9 + 5e-1) AS BIGINT) AS fetches_per_day_q
FROM t
"""


# ---------------------------------------------------------------------------
# error_budget_burn — SRE burn-rate alerting on fetch failures
# ---------------------------------------------------------------------------

_EB_BUDGET_DEN = 8  # error budget: 1 failure per 8 fetches (12.5%)
_EB_ALERT_X = 2  # alert when burn rate > 2x budget in a window


def q_error_budget_burn(sf_dir: str):
    """SRE error-budget burn-rate analysis of the crawl fetch stream:
    each host's failures (the aimd_rates md5 draws) are windowed into
    quarters of its fetch sequence; burn rate = failure rate / budget
    (budget = 1/8), and a window with burn > 2× fires the fast-burn
    alert — the multiwindow burn-rate policy from the SRE workbook,
    applied per host. Output: per (host, window) the counts, the exact
    cross-multiplied burn comparison and the alert flag, plus the
    host-level max-burn window.

    Exactness: burn > 2× budget ⇔ fails·8 > 2·attempts — pure
    integers; the burn ratio itself is the one mirrored division.
    Distributed shape: the sessionize plan (host buckets, vectorized
    quartering); ONE groupby closes the window aggregate.
    """
    from ..functions.urls import hosts_array
    from .queries import _pages_ds

    pages = _pages_ds(sf_dir, columns=["url"])

    def tag(batch: pa.Table) -> pa.Table:
        import pandas as pd

        urls = batch.column("url").to_pylist()
        hosts = hosts_array(batch.column("url")).to_pylist()
        ids = [int(u.rsplit("/", 1)[1]) for u in urls]
        fail = [
            int(
                int(hashlib.md5(f"aimd|{u}".encode()).hexdigest()[:8], 16) % 8
                == 0
            )
            for u in urls
        ]
        return pa.table(
            {
                "bucket": pa.array(
                    [int(h.split(".")[0][4:]) % 16 for h in hosts], pa.int64()
                ),
                "host": pa.array(hosts, pa.string()),
                "doc_id": pa.array(ids, pa.int64()),
                "fail": pa.array(fail, pa.int64()),
            }
        )

    def per_bucket(g: pa.Table) -> pa.Table:
        # arrow-native (r5): lexsorted (host, doc_id) runs
        hosts_a = np.asarray(g.column("host").to_pylist(), dtype=object)
        ids_a = g.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        fails_a = g.column("fail").to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.lexsort((ids_a, hosts_a))
        hosts_a, fails_a = hosts_a[o], fails_a[o]
        starts = np.flatnonzero(np.r_[True, hosts_a[1:] != hosts_a[:-1]]) if len(hosts_a) else np.zeros(0, np.int64)
        ends = np.r_[starts[1:], len(hosts_a)] if len(hosts_a) else np.zeros(0, np.int64)
        out = {"host": [], "win": [], "n": [], "fails": []}
        for s, t in zip(starts, ends):
            host = hosts_a[s]
            m = int(t - s)
            seq = np.arange(m)
            win = np.minimum(seq * 4 // max(m, 1), 3)
            f = fails_a[s:t]
            for w in range(4):
                mask = win == w
                if mask.any():
                    out["host"].append(host)
                    out["win"].append(w)
                    out["n"].append(int(mask.sum()))
                    out["fails"].append(int(f[mask].sum()))
        return pa.table(
            {
                "host": pa.array(out["host"], pa.string()),
                "win": pa.array(out["win"], pa.int64()),
                "n": pa.array(out["n"], pa.int64()),
                "fails": pa.array(out["fails"], pa.int64()),
            }
        )

    wins = (
        pages.map_batches(tag, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
    )

    def finish(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy(zero_copy_only=False)
        f = batch.column("fails").to_numpy(zero_copy_only=False)
        alert = (f * _EB_BUDGET_DEN > _EB_ALERT_X * n).astype(np.int64)
        burn = f.astype(np.float64) * _EB_BUDGET_DEN / n.astype(np.float64)
        return pa.table(
            {
                "host": batch.column("host"),
                "win": batch.column("win").cast(pa.int64()),
                "n": pa.array(n, pa.int64()),
                "fails": pa.array(f, pa.int64()),
                "burn": pa.array(burn, pa.float64()),
                "alert": pa.array(alert, pa.int64()),
            }
        )

    return wins.map_batches(finish, batch_format="pyarrow")


def _sql_error_budget_burn(sql_pages: str) -> str:
    return f"""
WITH {sql_pages},
att AS (
  SELECT host, doc_id,
         CASE WHEN CAST(('0x' || substr(md5('aimd|' || url), 1, 8))
                        AS BIGINT) % 8 = 0
              THEN 1 ELSE 0 END AS fail,
         row_number() OVER (PARTITION BY host ORDER BY doc_id) - 1 AS seq,
         COUNT(*) OVER (PARTITION BY host) AS m
  FROM purl
),
w AS (
  SELECT host, LEAST(seq * 4 // m, 3) AS win,
         CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(fail) AS BIGINT) AS fails
  FROM att GROUP BY host, LEAST(seq * 4 // m, 3)
)
SELECT host, CAST(win AS BIGINT) AS win, n, fails,
       CAST(fails AS DOUBLE) * {_EB_BUDGET_DEN} / CAST(n AS DOUBLE)
         AS burn,
       CAST(CASE WHEN fails * {_EB_BUDGET_DEN} > {_EB_ALERT_X} * n
                 THEN 1 ELSE 0 END AS BIGINT) AS alert
FROM w
"""
