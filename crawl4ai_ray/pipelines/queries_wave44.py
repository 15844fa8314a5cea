"""Forty-fourth-wave operators (round-3 continuation session,
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
# acf_daily — autocorrelation function of the daily event counts
# ---------------------------------------------------------------------------

_ACF_MAX_LAG = 7


def q_acf_daily(sf_dir: str):
    """The sample autocorrelation function of the daily event counts at
    lags 1..7 — the first chart of any time-series diagnosis (is there
    weekly structure? is yesterday informative?). Computed with the
    N-scaled integer trick: centering by the rational mean S/N becomes
    exact by working with (N·x_t − S): the lag-k numerator
    Σ(N·x_t − S)(N·x_{t+k} − S) and the lag-0 denominator are exact
    int64 (N ≤ 31 days, x ≤ 1e4 → terms ≤ ~1e11, products ≤ ~1e22 —
    folded in HUGEINT on the SQL side and python int here, then the
    ONE mirrored division per lag).

    Distributed shape: ONE daily aggregate; O(#days·lags) driver fold.
    """
    from .queries_wave42 import _daily_counts

    rows = _daily_counts(sf_dir)
    xs = [x for _, x in rows]
    n = len(xs)
    s = sum(xs)
    c = [n * x - s for x in xs]  # exact python ints (arbitrary precision)
    den = sum(v * v for v in c)
    out = {"lag": [], "num": [], "acf": []}
    for k in range(1, _ACF_MAX_LAG + 1):
        num = sum(c[t] * c[t + k] for t in range(n - k))
        out["lag"].append(k)
        out["num"].append(num)
        out["acf"].append(float(num) / float(den) if den else 0.0)
    return pa.table(
        {
            "lag": pa.array(out["lag"], pa.int64()),
            "num": pa.array(out["num"], pa.int64()),
            "acf": pa.array(out["acf"], pa.float64()),
        }
    )


SQL_ACF_DAILY = f"""
WITH daily AS (
  SELECT epoch_us(ts) // 86400000000 AS day,
         CAST(COUNT(*) AS BIGINT) AS x
  FROM events GROUP BY 1
),
st AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n, CAST(SUM(x) AS BIGINT) AS s
  FROM daily
),
cx AS (
  SELECT day, CAST(st.n * x - st.s AS BIGINT) AS c
  FROM daily, st
),
den AS (
  SELECT CAST(SUM(CAST(c AS HUGEINT) * CAST(c AS HUGEINT)) AS HUGEINT)
           AS d
  FROM cx
),
lags AS (
  SELECT CAST(l AS BIGINT) + 1 AS lag FROM range({_ACF_MAX_LAG}) t(l)
),
num AS (
  SELECT lags.lag,
         CAST(SUM(CAST(a.c AS HUGEINT) * CAST(b.c AS HUGEINT)) AS HUGEINT)
           AS nm
  FROM lags
  JOIN cx a ON TRUE
  JOIN cx b ON b.day = a.day + lags.lag
  GROUP BY lags.lag
)
SELECT num.lag, CAST(num.nm AS BIGINT) AS num,
       CASE WHEN den.d = 0 THEN 0e0
            ELSE CAST(num.nm AS DOUBLE) / CAST(den.d AS DOUBLE)
       END AS acf
FROM num, den
"""


# ---------------------------------------------------------------------------
# decision_stump — best single-split classifier by weighted Gini
# ---------------------------------------------------------------------------

_DS_TOKEN = "query"


def q_decision_stump(sf_dir: str):
    """The ML-101 decision stump, fit exactly: predict y = "doc
    contains the token 'query'" from n_chars with the single threshold
    minimizing weighted Gini impurity n_L·G_L + n_R·G_R — the base
    learner of every boosted-tree stack, and the exact-search version
    of what a histogram-split GBDT does per feature. Output: one row
    with the best threshold, the split table and the quantized
    impurity.

    Exactness: weighted Gini · n_L · n_R is a pure integer expression
    (n_L·G_L = n_L − (pos_L² + neg_L²)/n_L → scale by n_L·n_R);
    both engines evaluate the identical double per candidate and argmin
    with ties → smaller threshold. Distributed shape: ONE
    (n_chars → n, pos) histogram groupby; the candidate scan folds
    ≤ |distinct values| rows.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text", "n_chars"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        nc = batch.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64)
        y = np.fromiter(
            (
                1 if _DS_TOKEN in (t or "").split() else 0
                for t in batch.column("text").to_pylist()
            ),
            dtype=np.int64,
            count=len(nc),
        )
        df = (
            pd.DataFrame({"v": nc, "y": y})
            .groupby("v", sort=True)
            .agg(n=("y", "size"), pos=("y", "sum"))
            .reset_index()
        )
        return pa.table(
            {
                "v": pa.array(df["v"].to_numpy(np.int64), pa.int64()),
                "n": pa.array(df["n"].to_numpy(np.int64), pa.int64()),
                "pos": pa.array(df["pos"].to_numpy(np.int64), pa.int64()),
            }
        )

    rows = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("v")
        .aggregate(
            ray.data.aggregate.Sum("n", alias_name="n"),
            ray.data.aggregate.Sum("pos", alias_name="pos"),
        )
        .take_all()  # bounded: value-histogram cells
    )
    rows.sort(key=lambda r: int(r["v"]))
    n_tot = sum(int(r["n"]) for r in rows)
    p_tot = sum(int(r["pos"]) for r in rows)
    best = None
    nl = pl = 0
    for r in rows[:-1]:
        nl += int(r["n"])
        pl += int(r["pos"])
        nr = n_tot - nl
        pr = p_tot - pl
        # weighted gini = nl*Gl + nr*Gr; Gl = 1 - (pl^2+(nl-pl)^2)/nl^2
        # -> objective * (nl*nr) is integer; compare as mirrored double
        gl = (float(nl) - (float(pl) ** 2 + float(nl - pl) ** 2) / float(nl))
        gr = (float(nr) - (float(pr) ** 2 + float(nr - pr) ** 2) / float(nr))
        obj = gl + gr
        key = (obj, int(r["v"]))
        if best is None or key < best[0]:
            best = (key, int(r["v"]), nl, pl, nr, pr, obj)
    _, t, nl, pl, nr, pr, obj = best
    return pa.table(
        {
            "threshold": pa.array([t], pa.int64()),
            "n_left": pa.array([nl], pa.int64()),
            "pos_left": pa.array([pl], pa.int64()),
            "n_right": pa.array([nr], pa.int64()),
            "pos_right": pa.array([pr], pa.int64()),
            "gini_q": pa.array(
                [math.floor(obj * 1e9 + 0.5)], pa.int64()
            ),
        }
    )


SQL_DECISION_STUMP = rf"""
WITH y AS (
  SELECT n_chars AS v,
         CASE WHEN list_contains(
                list_filter(regexp_split_to_array(text, '\s+'),
                            x -> x <> ''), '{_DS_TOKEN}')
              THEN 1 ELSE 0 END AS y
  FROM documents
),
h AS (
  SELECT v, CAST(COUNT(*) AS BIGINT) AS n, CAST(SUM(y) AS BIGINT) AS pos
  FROM y GROUP BY v
),
tot AS (SELECT CAST(SUM(n) AS BIGINT) AS n, CAST(SUM(pos) AS BIGINT) AS p
        FROM h),
mx AS (SELECT MAX(v) AS m FROM h),
cum AS (
  SELECT v,
         CAST(SUM(n) OVER (ORDER BY v) AS BIGINT) AS nl,
         CAST(SUM(pos) OVER (ORDER BY v) AS BIGINT) AS pl
  FROM h
),
cand AS (
  SELECT cum.v AS threshold, cum.nl, cum.pl,
         tot.n - cum.nl AS nr, tot.p - cum.pl AS pr,
         (CAST(cum.nl AS DOUBLE)
            - (CAST(cum.pl AS DOUBLE) * CAST(cum.pl AS DOUBLE)
               + CAST(cum.nl - cum.pl AS DOUBLE)
                 * CAST(cum.nl - cum.pl AS DOUBLE))
              / CAST(cum.nl AS DOUBLE))
         + (CAST(tot.n - cum.nl AS DOUBLE)
            - (CAST(tot.p - cum.pl AS DOUBLE)
                 * CAST(tot.p - cum.pl AS DOUBLE)
               + CAST((tot.n - cum.nl) - (tot.p - cum.pl) AS DOUBLE)
                 * CAST((tot.n - cum.nl) - (tot.p - cum.pl) AS DOUBLE))
              / CAST(tot.n - cum.nl AS DOUBLE)) AS obj
  FROM cum, tot, mx
  WHERE cum.v < mx.m
),
rk AS (
  SELECT cand.*, row_number() OVER (ORDER BY obj, threshold) AS rn
  FROM cand
)
SELECT threshold, nl AS n_left, pl AS pos_left,
       nr AS n_right, pr AS pos_right,
       CAST(floor(obj * 1e9 + 5e-1) AS BIGINT) AS gini_q
FROM rk WHERE rn = 1
"""


# ---------------------------------------------------------------------------
# feature_hash_audit — hashing-trick collision rate vs birthday theory
# ---------------------------------------------------------------------------

_FH_BUCKETS = 1024


def q_feature_hash_audit(sf_dir: str):
    """Hashing-trick quality audit: hash every distinct feature (corpus
    unigrams + bigrams) into 1024 buckets via md5 slices and compare
    the MEASURED number of occupied buckets / collided features against
    the birthday expectation m·(1 − (1 − 1/m)^n) — the check that a
    feature-hashed model's capacity loss is what the math says, not a
    broken hash (the bloom_fpr_curve sibling for the ML feature space).

    Exactness: occupancy counts are integers; the expectation is one
    mirrored pow expression quantized. Distributed shape: distinct
    features via ONE groupby; per-batch bucket partials → ONE
    groupby(bucket); the audit folds 1024 rows.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text"]
    )

    def feats(batch: pa.Table) -> pa.Table:
        fs = set()
        for t in batch.column("text").to_pylist():
            toks = (t or "").split()
            fs.update(toks)
            fs.update(
                f"{a}_{b}" for a, b in zip(toks, toks[1:])
            )
        return pa.table({"f": pa.array(sorted(fs), pa.string())})

    distinct = (
        docs.map_batches(feats, batch_format="pyarrow")
        .groupby("f")
        .aggregate(ray.data.aggregate.Count(alias_name="c"))
    )

    def bucketize(batch: pa.Table) -> pa.Table:
        bs = [
            int(hashlib.md5(f.encode()).hexdigest()[:8], 16) % _FH_BUCKETS
            for f in batch.column("f").to_pylist()
        ]
        u, c = np.unique(np.array(bs, np.int64), return_counts=True)
        return pa.table(
            {
                "bucket": pa.array(u, pa.int64()),
                "c": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    occ = (
        distinct.map_batches(bucketize, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(ray.data.aggregate.Sum("c", alias_name="c"))
        .take_all()  # bounded: one row per bucket (bounded key domain)
    )
    n_feats = sum(int(r["c"]) for r in occ)
    n_occupied = len(occ)
    n_collided = sum(int(r["c"]) - 1 for r in occ if int(r["c"]) > 1)
    expect_occ = float(_FH_BUCKETS) * (
        1.0
        - math.pow(
            1.0 - 1.0 / float(_FH_BUCKETS), float(n_feats)
        )
    )
    return pa.table(
        {
            "n_features": pa.array([n_feats], pa.int64()),
            "n_buckets": pa.array([_FH_BUCKETS], pa.int64()),
            "n_occupied": pa.array([n_occupied], pa.int64()),
            "n_collided": pa.array([n_collided], pa.int64()),
            "expect_occupied_q": pa.array(
                [math.floor(expect_occ * 1e6 + 0.5)], pa.int64()
            ),
        }
    )


SQL_FEATURE_HASH_AUDIT = rf"""
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS t
  FROM documents
),
uni AS (SELECT DISTINCT unnest(t) AS f FROM toks),
bi AS (
  SELECT DISTINCT t[i] || '_' || t[i + 1] AS f
  FROM toks, LATERAL UNNEST(generate_series(1, len(t) - 1)) AS s(i)
),
feats AS (SELECT f FROM uni UNION SELECT f FROM bi),
bk AS (
  SELECT CAST(('0x' || substr(md5(f), 1, 8)) AS BIGINT) % {_FH_BUCKETS}
           AS bucket,
         CAST(COUNT(*) AS BIGINT) AS c
  FROM feats GROUP BY 1
),
s AS (
  SELECT CAST(SUM(c) AS BIGINT) AS n_features,
         CAST(COUNT(*) AS BIGINT) AS n_occupied,
         CAST(SUM(CASE WHEN c > 1 THEN c - 1 ELSE 0 END) AS BIGINT)
           AS n_collided
  FROM bk
)
SELECT n_features, CAST({_FH_BUCKETS} AS BIGINT) AS n_buckets,
       n_occupied, n_collided,
       CAST(floor(CAST({_FH_BUCKETS} AS DOUBLE)
                  * (1e0 - POW(1e0 - 1e0 / CAST({_FH_BUCKETS} AS DOUBLE),
                               CAST(n_features AS DOUBLE)))
                  * 1e6 + 5e-1) AS BIGINT) AS expect_occupied_q
FROM s
"""
