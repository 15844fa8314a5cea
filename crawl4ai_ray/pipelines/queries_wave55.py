"""Fifty-fifth-wave operators (round-3 continuation session,
2026-08-21) — Dirichlet query likelihood, log-rank test, EDF capacity.

Listed by name in ``queries.py``'s QUERIES/ORACLES.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# qld_topk — query-likelihood retrieval with Dirichlet smoothing
# ---------------------------------------------------------------------------

_QLD_TERMS = ("table", "scan", "merge")
_QLD_MU = 100.0


def q_qld_topk(sf_dir: str):
    """Query-likelihood document ranking with Dirichlet smoothing
    (Zhai–Lafferty): score(d) = Σ_t ln((tf_td + μ·cf_t/|C|)/(|d|+μ)),
    μ={mu} — the language-modeling retrieval family beside the
    existing BM25 (probability-of-generating-the-query instead of
    tf·idf), top-10 with doc_id tie-break. Output: (doc_id, score,
    rank).

    Exactness: tf, |d|, cf_t, |C| are exact integers folded once; the
    score is an EXPLICIT left-associated 3-term ln sum (the ndcg
    float-fold discipline) and both engines ROUND to 8 (the pagerank
    float discipline). Distributed shape: one tokenize map with the
    3-number collection stats broadcast back; one distributed
    sort+limit(10).
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    terms = list(_QLD_TERMS)

    def tfs(batch: pa.Table) -> pa.Table:
        cols = {"doc_id": batch.column("doc_id")}
        texts = [
            (t or "").lower().split()
            for t in batch.column("text").to_pylist()
        ]
        cols["dl"] = pa.array([len(t) for t in texts], pa.int64())
        for i, q in enumerate(terms):
            cols[f"tf{i}"] = pa.array(
                [t.count(q) for t in texts], pa.int64()
            )
        return pa.table(cols)

    tf_ds = docs.map_batches(tfs, batch_format="pyarrow").materialize()
    row = tf_ds.aggregate(
        ray.data.aggregate.Sum("dl", alias_name="clen"),
        *[
            ray.data.aggregate.Sum(f"tf{i}", alias_name=f"cf{i}")
            for i in range(len(terms))
        ],
    )
    clen = int(row["clen"])
    cfs = [int(row[f"cf{i}"]) for i in range(len(terms))]

    def score(batch: pa.Table) -> pa.Table:
        dl = batch.column("dl").to_pylist()
        tfs_ = [batch.column(f"tf{i}").to_pylist() for i in range(len(terms))]
        scores = []
        for r in range(len(dl)):
            s = 0.0
            for i in range(len(terms)):
                # scalar math.log: libm parity with DuckDB ln (np.log
                # can drift an ulp on SIMD paths — NOTES gotcha)
                s = s + math.log(
                    (float(tfs_[i][r]) + _QLD_MU * (float(cfs[i]) / float(clen)))
                    / (float(dl[r]) + _QLD_MU)
                )
            scores.append(round(s, 8))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "score": pa.array(scores, pa.float64()),
            }
        )

    top = (
        tf_ds.map_batches(score, batch_format="pyarrow")
        .sort(["score", "doc_id"], descending=[True, False])
        .limit(10)
        .take_all()  # bounded: ≤ 10 rows (sort+limit)
    )
    return pa.table(
        {
            "doc_id": pa.array([r["doc_id"] for r in top], pa.int64()),
            "score": pa.array([r["score"] for r in top], pa.float64()),
            "rank": pa.array(list(range(1, len(top) + 1)), pa.int64()),
        }
    )


def _sql_qld() -> str:
    mu = f"{_QLD_MU!r}"
    tf_exprs = []
    for i, t in enumerate(_QLD_TERMS):
        tf_exprs.append(
            f"CAST(len(list_filter(toks, x -> x = '{t}')) AS BIGINT)"
            f" AS tf{i}"
        )
    lns = " + ".join(
        f"ln((CAST(tf{i} AS DOUBLE) + {mu} * (CAST(st.cf{i} AS DOUBLE)"
        f" / CAST(st.clen AS DOUBLE)))"
        f" / (CAST(dl AS DOUBLE) + {mu}))"
        for i in range(len(_QLD_TERMS))
    )
    cf_sel = ", ".join(
        f"CAST(SUM(tf{i}) AS BIGINT) AS cf{i}"
        for i in range(len(_QLD_TERMS))
    )
    return f"""
WITH tok AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\\S+') AS toks
  FROM documents
),
f AS (
  SELECT doc_id, CAST(len(toks) AS BIGINT) AS dl, {", ".join(tf_exprs)}
  FROM tok
),
st AS (SELECT CAST(SUM(dl) AS BIGINT) AS clen, {cf_sel} FROM f),
sc AS (
  SELECT f.doc_id, round({lns}, 8) AS score
  FROM f, st
)
SELECT doc_id, score,
       CAST(row_number() OVER (ORDER BY score DESC, doc_id) AS BIGINT)
         AS rank
FROM sc
ORDER BY score DESC, doc_id
LIMIT 10
"""


# ---------------------------------------------------------------------------
# logrank_test — survival comparison between user cohorts
# ---------------------------------------------------------------------------

_LR_Q = 10**12


def q_logrank_test(sf_dir: str):
    """Log-rank test comparing the activity-lifetime survival curves
    of the user_id%5==0 cohort vs the rest (the user_survival framing:
    lifetime = whole days between first and last event, all observed
    deaths): at each distinct death day, O−E accumulates d₁−d·n₁/n and
    the hypergeometric variance d·(n₁/n)·(1−n₁/n)·(n−d)/(n−1) — the
    standard censoring-safe "did the cohorts churn differently?" test
    (completes the experimentation family: diff_in_diff, CUPED,
    survival). Output: one row with cohort sizes, observed/expected
    (quantized) and the χ² statistic.

    Exactness: per-day E and V terms quantize to integers
    (d·n₁·SC//n and d·n₁·(n−n₁)·(n−d)·SC//(n²(n−1)), 128-bit in SQL)
    before the sums, so no float fold; χ² is the one mirrored double
    division. Distributed shape: ONE groupby(user) min/max + a
    ≤|days| histogram; the life-table fold is driver arithmetic.
    """
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "user_id"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        uid = batch.column("user_id").to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        u, inv = np.unique(uid, return_inverse=True)
        mn = np.full(len(u), np.iinfo(np.int64).max, np.int64)
        mx = np.full(len(u), np.iinfo(np.int64).min, np.int64)
        np.minimum.at(mn, inv, us)
        np.maximum.at(mx, inv, us)
        return pa.table(
            {
                "user_id": pa.array(u, pa.int64()),
                "mn": pa.array(mn, pa.int64()),
                "mx": pa.array(mx, pa.int64()),
            }
        )

    DAY = 86_400_000_000

    def life_grp(batch: pa.Table) -> pa.Table:
        # per-user lifetime/arm assignment stays WITH the rows (r4: the
        # former user-sized driver fold); only (life-day, grp) partials
        # shuffle into the day histogram
        uid = batch.column("user_id").to_numpy(zero_copy_only=False)
        mn = batch.column("mn").to_numpy(zero_copy_only=False)
        mx = batch.column("mx").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "life": pa.array(((mx - mn) // DAY).astype(np.int64)),
                "grp": pa.array((uid % 5 == 0).astype(np.int64)),
                "one": pa.array(np.ones(batch.num_rows, np.int64)),
            }
        )

    day_rows = (
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(
            ray.data.aggregate.Min("mn", alias_name="mn"),
            ray.data.aggregate.Max("mx", alias_name="mx"),
        )
        .map_batches(life_grp, batch_format="pyarrow")
        .groupby(["life", "grp"])
        .aggregate(ray.data.aggregate.Sum("one", alias_name="n"))
        .take_all()  # bounded: (lifetime-day × arm) histogram cells
    )
    deaths: dict = {}
    n1_total = n_total = 0
    for r in day_rows:
        life, grp, n = int(r["life"]), int(r["grp"]), int(r["n"])
        deaths.setdefault(life, [0, 0])[grp] += n
        n_total += n
        n1_total += n * grp
    o1 = e1_q = var_q = 0
    at1, at = n1_total, n_total
    for day in sorted(deaths):
        d0, d1 = deaths[day]
        d = d0 + d1
        if at > 1:
            e1_q += d * at1 * _LR_Q // at
            var_q += (
                d * at1 * (at - at1) * (at - d) * _LR_Q
                // (at * at * (at - 1))
            )
        else:
            e1_q += d * at1 * _LR_Q // at
        o1 += d1
        at1 -= d1
        at -= d
    num = o1 * _LR_Q - e1_q
    chi2 = float(num) * float(num) / (float(var_q) * float(_LR_Q))
    return pa.table(
        {
            "n_treat": pa.array([n1_total], pa.int64()),
            "n_control": pa.array([n_total - n1_total], pa.int64()),
            "o1": pa.array([o1], pa.int64()),
            "e1_q": pa.array([e1_q], pa.int64()),
            "var_q": pa.array([var_q], pa.int64()),
            "chi2": pa.array([chi2], pa.float64()),
        }
    )


SQL_LOGRANK_TEST = f"""
WITH u AS (
  SELECT user_id,
         (epoch_us(MAX(ts)) - epoch_us(MIN(ts)))
           // 86400000000 AS life,
         CASE WHEN user_id % 5 = 0 THEN 1 ELSE 0 END AS grp
  FROM events GROUP BY user_id
),
d AS (
  SELECT life,
         CAST(SUM(grp) AS BIGINT) AS d1,
         CAST(COUNT(*) AS BIGINT) AS d
  FROM u GROUP BY life
),
tot AS (
  SELECT CAST(SUM(CASE WHEN grp = 1 THEN 1 ELSE 0 END) AS BIGINT)
           AS n1t,
         CAST(COUNT(*) AS BIGINT) AS nt
  FROM u
),
r AS (
  SELECT d.life, d.d1, d.d,
         tot.n1t - COALESCE(CAST(SUM(d2.d1) AS BIGINT), 0) AS at1,
         tot.nt - COALESCE(CAST(SUM(d2.d) AS BIGINT), 0) AS at
  FROM d
  LEFT JOIN d d2 ON d2.life < d.life, tot
  GROUP BY d.life, d.d1, d.d, tot.n1t, tot.nt
),
terms AS (
  SELECT d1,
         d * at1 * {_LR_Q} // at AS e1t,
         CASE WHEN at > 1
              THEN CAST(CAST(d AS HUGEINT) * at1 * (at - at1) * (at - d)
                        * {_LR_Q}
                        // (CAST(at AS HUGEINT) * at * (at - 1))
                        AS BIGINT)
              ELSE 0 END AS vt
  FROM r
),
agg AS (
  SELECT CAST(SUM(d1) AS BIGINT) AS o1,
         CAST(SUM(e1t) AS BIGINT) AS e1_q,
         CAST(SUM(vt) AS BIGINT) AS var_q
  FROM terms
)
SELECT tot.n1t AS n_treat, tot.nt - tot.n1t AS n_control,
       agg.o1, agg.e1_q, agg.var_q,
       CAST(agg.o1 * {_LR_Q} - agg.e1_q AS DOUBLE)
         * CAST(agg.o1 * {_LR_Q} - agg.e1_q AS DOUBLE)
         / (CAST(agg.var_q AS DOUBLE) * CAST({_LR_Q} AS DOUBLE)) AS chi2
FROM agg, tot
"""


# ---------------------------------------------------------------------------
# edf_feasibility — EDF schedulability of the recrawl TTL workload
# ---------------------------------------------------------------------------

_EDF_COST_Q = 10 * 10**6  # each refetch occupies 10 time units (1e6 fp)
_EDF_CAP_Q = 10**12  # capacity: utilization 1.0 at 1e12 fixed point


def q_edf_feasibility(sf_dir: str):
    """EDF capacity planning over the recrawl workload: each host is a
    periodic task (period = its √-law TTL* from the ttl_optimize
    model, cost = one fetch slot), and by Liu–Layland, EDF schedules
    the set iff total utilization Σ C/T ≤ 1 — "how many hosts fit one
    politeness-bound crawler before deadlines slip". Output: per host
    its TTL, utilization, the cumulative utilization in
    utilization-descending admission order and the admit flag (the
    maximal feasible prefix).

    Exactness: TTL* reuses the mirrored sqrt-law quantization; each
    utilization is C·10¹²//ttl_q; the cumulative sum and capacity
    check are pure integers. Distributed shape: the distinct-host map
    + one O(hosts) driver fold (SQL: one window cumsum).
    """
    from ..functions.urls import hosts_array
    from .queries import _pages_ds

    pages = _pages_ds(sf_dir, columns=["url"])

    def per_host(batch: pa.Table) -> pa.Table:
        hosts = sorted(set(hosts_array(batch.column("url")).to_pylist()))
        hid = np.array([int(h.split(".")[0][4:]) for h in hosts], np.int64)
        lam_num = 1 + hid % 7
        ttl = np.array(
            [
                math.sqrt(2.0 * 50.0 / ((float(ln) / 7.0) * 1.0))
                for ln in lam_num
            ]
        )
        return pa.table(
            {
                "host": pa.array(hosts, pa.string()),
                "ttl_q": pa.array(
                    np.floor(ttl * 1e6 + 0.5).astype(np.int64), pa.int64()
                ),
            }
        )

    rows = (
        pages.map_batches(per_host, batch_format="pyarrow")
        .groupby("host")
        .aggregate(ray.data.aggregate.Max("ttl_q", alias_name="ttl_q"))
        .take_all()  # bounded: one row per host (bounded key domain)
    )
    hs = sorted(
        ((r["host"], int(r["ttl_q"])) for r in rows),
        key=lambda t: (-(10**13 // t[1]), t[0]),
    )
    out = {"host": [], "ttl_q": [], "util_q": [], "cum_util_q": [], "admit": []}
    cum = 0
    for h, ttl in hs:
        u = 10**13 // ttl
        cum += u
        out["host"].append(h)
        out["ttl_q"].append(ttl)
        out["util_q"].append(u)
        out["cum_util_q"].append(cum)
        out["admit"].append(int(cum <= _EDF_CAP_Q))
    return pa.table(
        {
            "host": pa.array(out["host"], pa.string()),
            "ttl_q": pa.array(out["ttl_q"], pa.int64()),
            "util_q": pa.array(out["util_q"], pa.int64()),
            "cum_util_q": pa.array(out["cum_util_q"], pa.int64()),
            "admit": pa.array(out["admit"], pa.int64()),
        }
    )


def _sql_edf(sql_pages: str) -> str:
    return f"""
WITH {sql_pages},
hosts AS (SELECT DISTINCT host, host_id FROM purl),
t AS (
  SELECT host,
         CAST(floor(sqrt(2e0 * 50e0
                         / ((CAST(1 + host_id % 7 AS DOUBLE) / 7e0)
                            * 1e0)) * 1e6 + 5e-1) AS BIGINT) AS ttl_q
  FROM hosts
),
u AS (
  SELECT host, ttl_q,
         CAST(10000000000000 AS BIGINT) // ttl_q AS util_q
  FROM t
),
c AS (
  SELECT host, ttl_q, util_q,
         CAST(CAST(SUM(util_q)
                   OVER (ORDER BY util_q DESC, host) AS HUGEINT)
              AS BIGINT) AS cum_util_q
  FROM u
)
SELECT host, ttl_q, util_q, cum_util_q,
       CAST(CASE WHEN cum_util_q <= {_EDF_CAP_Q} THEN 1 ELSE 0 END
            AS BIGINT) AS admit
FROM c
"""
