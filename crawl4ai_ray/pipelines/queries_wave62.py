"""Sixty-second-wave operators (round-3 continuation session,
2026-08-21) — pooled QC, SRM guard, winsorized means.

Listed by name in ``queries.py``'s QUERIES/ORACLES.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

import ray

_W62_Q = 10**6


# ---------------------------------------------------------------------------
# pooled_qc — Dorfman pooled quality screening of the corpus
# ---------------------------------------------------------------------------

_PQ_MAXK = 20


def q_pooled_qc(sf_dir: str):
    """Dorfman pooled quality screening: with per-doc defect rate p
    (gopher-rule failures), testing pools of k docs at once and only
    re-testing members of positive pools costs n·(1/k + 1 − (1−p)^k)
    instead of n tests — the WWII blood-testing design, applied to
    expensive per-document QC (LLM-judge審查, human review). The query
    picks k* minimizing the expected rate from the MEASURED p, then
    simulates the actual pooled screen over consecutive-doc_id pools.
    Output: one row with p's integer pieces, k*, the expected-rate
    estimate and the ACTUAL simulated test counts (pool tests +
    retests vs naive n).

    Exactness: p = fails/n enters each candidate k's expected rate as
    the identical mirrored double expression (one pow per k; argmin
    over k ties → smaller k, compared on exact doubles); the
    simulation is pure integer counting over doc_id//k* pools.
    Distributed shape: one gate-kernel map emits (pool, fail)
    partials; pool verdicts close with one groupby(pool); the ≤{k}
    candidate fold is driver arithmetic.
    """
    import functools

    from ..stages import textstats

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    gopher = functools.partial(textstats.gopher_rules_batch, min_stops=1)

    def flags(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        raw = pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(
                    [t or "" for t in batch.column("text").to_pylist()],
                    pa.string(),
                ),
            }
        )
        keep = gopher(raw).column("keep").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "fail": pa.array(
                    (~keep).astype(np.int64), pa.int64()
                ),
            }
        )

    fl = docs.map_batches(flags, batch_format="pyarrow").materialize()
    tot = fl.aggregate(
        ray.data.aggregate.Count(alias_name="n"),
        ray.data.aggregate.Sum("fail", alias_name="f"),
    )
    n, f = int(tot["n"]), int(tot["f"])
    p = float(f) / float(n)
    best = None
    for k in range(2, _PQ_MAXK + 1):
        rate = 1.0 / float(k) + 1.0 - (1.0 - p) ** k
        if best is None or rate < best[0]:
            best = (rate, k)
    exp_rate, kstar = best

    def pools(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        fail = batch.column("fail").to_numpy(zero_copy_only=False)
        import pandas as pd

        df = (
            pd.DataFrame({"pool": ids // kstar, "fail": fail})
            .groupby("pool")
            .agg(pf=("fail", "max"), sz=("fail", "size"))
            .reset_index()
        )
        return pa.table(
            {
                "pool": pa.array(df["pool"].to_numpy(np.int64), pa.int64()),
                "pf": pa.array(df["pf"].to_numpy(np.int64), pa.int64()),
                "sz": pa.array(df["sz"].to_numpy(np.int64), pa.int64()),
            }
        )

    prows = (
        fl.map_batches(pools, batch_format="pyarrow")
        .groupby("pool")
        .aggregate(
            ray.data.aggregate.Max("pf", alias_name="pf"),
            ray.data.aggregate.Sum("sz", alias_name="sz"),
        )
        .take_all()  # bounded: one row per pool
    )
    n_pools = len(prows)
    retests = sum(int(r["sz"]) for r in prows if int(r["pf"]) == 1)
    return pa.table(
        {
            "n": pa.array([n], pa.int64()),
            "fails": pa.array([f], pa.int64()),
            "kstar": pa.array([kstar], pa.int64()),
            "exp_rate": pa.array([exp_rate], pa.float64()),
            "n_pools": pa.array([n_pools], pa.int64()),
            "retests": pa.array([retests], pa.int64()),
            "total_tests": pa.array([n_pools + retests], pa.int64()),
            "saved_vs_naive": pa.array(
                [n - n_pools - retests], pa.int64()
            ),
        }
    )


def _sql_pooled_qc(oracles: dict) -> str:
    gopher_sql = oracles["gopher_rules"].strip()
    kterms = " UNION ALL ".join(
        f"""SELECT {k} AS k,
         1e0 / CAST({k} AS DOUBLE) + 1e0
           - pow(1e0 - CAST(st.f AS DOUBLE) / CAST(st.n AS DOUBLE), {k})
           AS rate
  FROM st"""
        for k in range(2, _PQ_MAXK + 1)
    )
    return f"""
WITH gf AS ({gopher_sql}),
fl AS (
  SELECT doc_id, CASE WHEN keep THEN 0 ELSE 1 END AS fail FROM gf
),
st AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(fail) AS BIGINT) AS f
  FROM fl
),
kk AS ({kterms}),
best AS (SELECT k, rate FROM kk ORDER BY rate, k LIMIT 1),
pool AS (
  SELECT fl.doc_id // best.k AS pool,
         CAST(MAX(fl.fail) AS BIGINT) AS pf,
         CAST(COUNT(*) AS BIGINT) AS sz
  FROM fl, best GROUP BY fl.doc_id // best.k
),
sim AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n_pools,
         CAST(SUM(CASE WHEN pf = 1 THEN sz ELSE 0 END) AS BIGINT)
           AS retests
  FROM pool
)
SELECT st.n, st.f AS fails, CAST(best.k AS BIGINT) AS kstar,
       best.rate AS exp_rate,
       sim.n_pools, sim.retests,
       sim.n_pools + sim.retests AS total_tests,
       st.n - sim.n_pools - sim.retests AS saved_vs_naive
FROM st, best, sim
"""


# ---------------------------------------------------------------------------
# srm_check — sample-ratio-mismatch guard on A/B assignment
# ---------------------------------------------------------------------------

_SRM_CRIT_NUM = 384  # chi2 critical 3.84 (alpha=.05, df=1), x100


def q_srm_check(sf_dir: str):
    """Sample-ratio-mismatch guard on a 50/50 md5 experiment
    assignment over documents: the one-df chi-square (a−b)²/(a+b)
    against 3.84 — the first sanity gate every A/B readout must pass
    (a biased splitter invalidates diff_in_diff/CUPED downstream;
    here the md5 splitter should PASS). Output: one row with both arm
    counts, the statistic and the verdict.

    Exactness: counts are integers; the comparison cross-multiplies
    ((a−b)²·100 vs 384·(a+b)); the reported chi2 is the one mirrored
    division. Distributed shape: one map-side 2-integer partial.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        arms = [
            int(hashlib.md5(f"ab|{d}".encode()).hexdigest()[:8], 16) % 2
            for d in batch.column("doc_id").to_pylist()
        ]
        a = sum(1 for x in arms if x == 0)
        return pa.table(
            {
                "a": pa.array([a], pa.int64()),
                "b": pa.array([len(arms) - a], pa.int64()),
            }
        )

    row = docs.map_batches(partial, batch_format="pyarrow").aggregate(
        ray.data.aggregate.Sum("a", alias_name="a"),
        ray.data.aggregate.Sum("b", alias_name="b"),
    )
    a, b = int(row["a"]), int(row["b"])
    chi2 = float((a - b) * (a - b)) / float(a + b)
    srm = int((a - b) * (a - b) * 100 > _SRM_CRIT_NUM * (a + b))
    return pa.table(
        {
            "arm_a": pa.array([a], pa.int64()),
            "arm_b": pa.array([b], pa.int64()),
            "chi2": pa.array([chi2], pa.float64()),
            "srm": pa.array([srm], pa.int64()),
        }
    )


SQL_SRM_CHECK = f"""
WITH arms AS (
  SELECT CAST(('0x' || substr(md5('ab|' || doc_id), 1, 8))
              AS BIGINT) % 2 AS arm
  FROM documents
),
c AS (
  SELECT CAST(SUM(CASE WHEN arm = 0 THEN 1 ELSE 0 END) AS BIGINT) AS a,
         CAST(SUM(CASE WHEN arm = 1 THEN 1 ELSE 0 END) AS BIGINT) AS b
  FROM arms
)
SELECT a AS arm_a, b AS arm_b,
       CAST((a - b) * (a - b) AS DOUBLE) / CAST(a + b AS DOUBLE)
         AS chi2,
       CAST(CASE WHEN (a - b) * (a - b) * 100 > {_SRM_CRIT_NUM} * (a + b)
                 THEN 1 ELSE 0 END AS BIGINT) AS srm
FROM c
"""


# ---------------------------------------------------------------------------
# winsorized_means — per-source robust means via order-stat clipping
# ---------------------------------------------------------------------------

_WM_P_NUM = 1
_WM_P_DEN = 10  # winsorize 10% each tail


def q_winsorized_means(sf_dir: str):
    """10%-winsorized mean of document length per source: values below
    the ⌈0.1n⌉-th order statistic clip UP to it and values above the
    ⌈0.9n⌉-th clip DOWN — the robust location estimate that keeps all
    n observations (unlike trimming) while bounding any tail's
    influence; the per-source companion to mad_outliers. Output: per
    source n, both clip bounds and the quantized winsorized mean vs
    the raw mean.

    Exactness: clip bounds are exact order statistics; the clipped
    sum is an integer; both means are single integer divisions.
    Distributed shape: map-side (source, value) histogram partials;
    the per-source folds run over the bounded distinct-value support.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "n_chars"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        df = (
            pd.DataFrame(
                {
                    "source": batch.column("source").to_pylist(),
                    "v": batch.column("n_chars")
                    .to_numpy(zero_copy_only=False)
                    .astype(np.int64),
                }
            )
            .groupby(["source", "v"], sort=True)
            .size()
            .reset_index(name="c")
        )
        return pa.table(
            {
                "source": pa.array(df["source"], pa.string()),
                "v": pa.array(df["v"].to_numpy(np.int64), pa.int64()),
                "c": pa.array(df["c"].to_numpy(np.int64), pa.int64()),
            }
        )

    parts = docs.map_batches(partial, batch_format="pyarrow").take_all()  # bounded: value-histogram cells
    agg: dict = {}
    for r in parts:
        k = (r["source"], int(r["v"]))
        agg[k] = agg.get(k, 0) + int(r["c"])
    srcs = sorted({s for s, _ in agg})
    out = {
        "source": [], "n": [], "lo": [], "hi": [],
        "raw_mean_q": [], "wins_mean_q": [],
    }
    for s in srcs:
        vals = sorted(v for (ss, v) in agg if ss == s)
        cnts = [agg[(s, v)] for v in vals]
        n = sum(cnts)
        k_lo = (_WM_P_NUM * n + _WM_P_DEN - 1) // _WM_P_DEN
        k_hi = ((_WM_P_DEN - _WM_P_NUM) * n + _WM_P_DEN - 1) // _WM_P_DEN
        cum = np.cumsum(cnts)

        def os_(k):
            return vals[int(np.searchsorted(cum, k, side="left"))]

        lo, hi = os_(k_lo), os_(k_hi)
        raw = sum(v * c for v, c in zip(vals, cnts))
        wins = sum(
            min(max(v, lo), hi) * c for v, c in zip(vals, cnts)
        )
        out["source"].append(s)
        out["n"].append(n)
        out["lo"].append(lo)
        out["hi"].append(hi)
        out["raw_mean_q"].append(raw * _W62_Q // n)
        out["wins_mean_q"].append(wins * _W62_Q // n)
    return pa.table(
        {
            "source": pa.array(out["source"], pa.string()),
            "n": pa.array(out["n"], pa.int64()),
            "lo": pa.array(out["lo"], pa.int64()),
            "hi": pa.array(out["hi"], pa.int64()),
            "raw_mean_q": pa.array(out["raw_mean_q"], pa.int64()),
            "wins_mean_q": pa.array(out["wins_mean_q"], pa.int64()),
        }
    )


SQL_WINSORIZED_MEANS = f"""
WITH v AS (
  SELECT source, CAST(n_chars AS BIGINT) AS v,
         row_number() OVER (PARTITION BY source ORDER BY n_chars)
           AS rn,
         COUNT(*) OVER (PARTITION BY source) AS n
  FROM documents
),
bounds AS (
  SELECT source, CAST(MAX(n) AS BIGINT) AS n,
         MAX(CASE WHEN rn = ({_WM_P_NUM} * n + {_WM_P_DEN} - 1)
                             // {_WM_P_DEN}
                  THEN v END) AS lo,
         MAX(CASE WHEN rn = (({_WM_P_DEN} - {_WM_P_NUM}) * n
                             + {_WM_P_DEN} - 1) // {_WM_P_DEN}
                  THEN v END) AS hi
  FROM v GROUP BY source
),
m AS (
  SELECT v.source, bounds.n, bounds.lo, bounds.hi,
         CAST(SUM(v.v) AS BIGINT) AS raw,
         CAST(SUM(LEAST(GREATEST(v.v, bounds.lo), bounds.hi))
              AS BIGINT) AS wins
  FROM v JOIN bounds ON bounds.source = v.source
  GROUP BY v.source, bounds.n, bounds.lo, bounds.hi
)
SELECT source, n, lo, hi,
       raw * {_W62_Q} // n AS raw_mean_q,
       wins * {_W62_Q} // n AS wins_mean_q
FROM m
"""
