"""Fifty-third-wave operators (round-3 continuation session,
2026-08-21) — AMS sketch, PCA power iteration, CUPED.

Listed by name in ``queries.py``'s QUERIES/ORACLES.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# ams_f2 — AMS second-frequency-moment sketch vs exact F2
# ---------------------------------------------------------------------------

_AMS_K = 16


def q_ams_f2(sf_dir: str):
    """AMS (Alon–Matias–Szegedy) F₂ sketch over the host stream: each
    of k={k} estimators keeps ONE signed counter S_j = Σ_h c_h·s_j(h)
    (s_j = ±1 from an md5 bit), and S_j² is an unbiased estimate of
    F₂ = Σ_h c_h² — the join-size/self-join-skew statistic, in O(k)
    memory instead of O(|hosts|). Output: one row with exact F₂, the
    mean and median-of-estimates, and the k counters' checksum.

    Exactness: counters, squares, mean (Σ//k) and the even-k median
    ((8th+9th order stats)//2) are all integers. Distributed shape:
    the sketch is LINEAR, so each batch contributes k signed partial
    sums map-side and one k-column aggregate closes it — the exact F₂
    reference rides the existing pages_per_host partial count.
    """
    from ..functions.urls import hosts_array
    from ..stages.agg import partial_count
    from .queries import _pages_ds

    pages = _pages_ds(sf_dir, columns=["url"])

    def add_host(batch: pa.Table) -> pa.Table:
        return pa.table({"host": hosts_array(batch.column("url"))})

    hosts_ds = pages.map_batches(
        add_host, batch_format="pyarrow"
    ).materialize()

    def sign(j: int, h: str) -> int:
        b = int(hashlib.md5(f"ams{j}|{h}".encode()).hexdigest()[:1], 16)
        return 1 - 2 * (b % 2)

    def sketch_partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        cnt = Counter(batch.column("host").to_pylist())
        cols = {}
        for j in range(_AMS_K):
            cols[f"s{j}"] = pa.array(
                [sum(c * sign(j, h) for h, c in cnt.items())], pa.int64()
            )
        return pa.table(cols)

    row = hosts_ds.map_batches(
        sketch_partial, batch_format="pyarrow"
    ).aggregate(
        *[
            ray.data.aggregate.Sum(f"s{j}", alias_name=f"s{j}")
            for j in range(_AMS_K)
        ]
    )
    s = [int(row[f"s{j}"]) for j in range(_AMS_K)]
    ests = sorted(v * v for v in s)
    est_mean = sum(ests) // _AMS_K
    est_median = (ests[_AMS_K // 2 - 1] + ests[_AMS_K // 2]) // 2
    counts = partial_count(hosts_ds, "host").take_all()  # bounded: one row per host
    f2 = sum(int(r["n"]) ** 2 for r in counts)
    return pa.table(
        {
            "f2_exact": pa.array([f2], pa.int64()),
            "est_mean": pa.array([est_mean], pa.int64()),
            "est_median": pa.array([est_median], pa.int64()),
            "counter_checksum": pa.array([sum(s)], pa.int64()),
        }
    )


def _sql_ams_f2(sql_pages: str) -> str:
    return f"""
WITH {sql_pages},
sk AS (
  SELECT j.range AS j,
         CAST(SUM(1 - 2 * (CAST(('0x' || substr(md5('ams' || j.range
                                                     || '|' || host),
                                                 1, 1)) AS BIGINT) % 2))
              AS BIGINT) AS s
  FROM purl CROSS JOIN range({_AMS_K}) j
  GROUP BY j.range
),
est AS (
  SELECT s * s AS e, row_number() OVER (ORDER BY s * s) AS rn, s
  FROM sk
),
f2x AS (
  SELECT CAST(SUM(n * n) AS BIGINT) AS f2
  FROM (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM purl GROUP BY host)
)
SELECT f2x.f2 AS f2_exact,
       (SELECT CAST(CAST(SUM(e) AS HUGEINT) // {_AMS_K} AS BIGINT)
        FROM est) AS est_mean,
       (SELECT CAST(CAST(SUM(e) AS HUGEINT) // 2 AS BIGINT) FROM est
        WHERE rn IN ({_AMS_K // 2}, {_AMS_K // 2 + 1})) AS est_median,
       (SELECT CAST(SUM(s) AS BIGINT) FROM est) AS counter_checksum
FROM f2x
"""


# ---------------------------------------------------------------------------
# pca_power_iteration — top principal component of the embedding table
# ---------------------------------------------------------------------------

_PCA_FP = 1048576.0  # 2^20 embedding fixed point (embedding_dim_stats)
_PCA_VS = 10**6  # eigenvector fixed point
_PCA_ROUNDS = 30


def _sgn_div(num: int, den: int, scale: int) -> int:
    """sign-split floor division: SQL // and python // disagree on
    negatives, so both engines compute sign(num)·(|num|·scale//den)."""
    if num < 0:
        return -((-num) * scale // den)
    return num * scale // den


def q_pca_power_iteration(sf_dir: str):
    """Top principal component of the embedding table by power
    iteration on the EXACT integer covariance: embeddings snap to 2²⁰
    fixed point, the centered covariance numerator n·M_ij − S_i·S_j is
    pure integer, and {rounds} matvec+max-normalize rounds (sized to the
    near-isotropic synthetic eigengap ~1.07) (sign-split
    integer divisions) converge to the dominant eigenvector — the
    drift/collapse diagnostic for any embedding column (one dominant
    direction = degenerate encoder). Output: per dimension the column
    sum and the final loading (sign-anchored at the largest-magnitude
    coordinate).

    Exactness: every step is integer arithmetic (128-bit intermediates
    in SQL); the one float op is the initial fixed-point floor, the
    same mirrored expression as embedding_dim_stats. Distributed
    shape: ONE map-side partial aggregate builds all 64+64²/2 moments
    (vectorized eᵀe per batch); the 64×64 power iteration is driver
    arithmetic.
    """
    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["embedding"]
    )

    def moments(batch: pa.Table) -> pa.Table:
        import math as _m

        vecs = batch.column("embedding").to_pylist()
        if not vecs:
            return pa.table(
                {
                    "n": pa.array([], pa.int64()),
                    "s": pa.array([], pa.list_(pa.int64())),
                    "m": pa.array([], pa.list_(pa.int64())),
                }
            )
        eq = np.array(
            [
                [_m.floor(float(x) * _PCA_FP) for x in v]
                for v in vecs
            ],
            dtype=np.int64,
        )
        d = eq.shape[1]
        m = eq.T @ eq  # exact in int64: |eq| <= 2^20, n_batch <= 4096
        return pa.table(
            {
                "n": pa.array([eq.shape[0]], pa.int64()),
                "s": pa.array([eq.sum(axis=0).tolist()], pa.list_(pa.int64())),
                "m": pa.array(
                    [m.reshape(d * d).tolist()], pa.list_(pa.int64())
                ),
            }
        )

    parts = emb.map_batches(moments, batch_format="pyarrow").take_all()  # bounded: d² moment partials per batch
    n = sum(int(r["n"]) for r in parts)
    d = int(math.isqrt(len(parts[0]["m"])))
    S = np.zeros(d, dtype=object)
    M = np.zeros((d, d), dtype=object)
    for r in parts:
        S = S + np.array([int(x) for x in r["s"]], dtype=object)
        M = M + np.array(
            [int(x) for x in r["m"]], dtype=object
        ).reshape(d, d)
    A = [[n * int(M[i][j]) - int(S[i]) * int(S[j]) for j in range(d)] for i in range(d)]
    v = [_PCA_VS] * d
    for _ in range(_PCA_ROUNDS):
        u = [sum(A[i][j] * v[j] for j in range(d)) for i in range(d)]
        m = max(abs(x) for x in u)
        v = [_sgn_div(x, max(m, 1), _PCA_VS) for x in u]
    # sign anchor: the largest-|v| coordinate (lowest index on ties)
    anchor = max(range(d), key=lambda i: (abs(v[i]), -i))
    if v[anchor] < 0:
        v = [-x for x in v]
    return pa.table(
        {
            "dim": pa.array(list(range(d)), pa.int64()),
            "s_q": pa.array([int(S[i]) for i in range(d)], pa.int64()),
            "loading_q": pa.array(v, pa.int64()),
        }
    )


def _sql_pca() -> str:
    VS = _PCA_VS
    parts = [
        f"""
e AS (
  SELECT vec_id,
         CAST(unnest(range(len(embedding))) AS BIGINT) AS dim,
         CAST(floor(CAST(unnest(embedding) AS DOUBLE) * {_PCA_FP!r})
              AS BIGINT) AS x
  FROM embeddings
),
nn AS (SELECT CAST(COUNT(DISTINCT vec_id) AS BIGINT) AS n FROM e),
sv AS (SELECT dim, CAST(SUM(x) AS BIGINT) AS s FROM e GROUP BY dim),
mm AS (
  SELECT e1.dim AS i, e2.dim AS j,
         CAST(SUM(e1.x * e2.x) AS BIGINT) AS m
  FROM e e1 JOIN e e2 ON e1.vec_id = e2.vec_id
  GROUP BY e1.dim, e2.dim
),
cov AS MATERIALIZED (
  SELECT mm.i, mm.j,
         CAST(nn.n AS HUGEINT) * mm.m
           - CAST(si.s AS HUGEINT) * sj.s AS a
  FROM mm JOIN sv si ON si.dim = mm.i JOIN sv sj ON sj.dim = mm.j, nn
),
v0 AS (SELECT dim, CAST({VS} AS HUGEINT) AS v FROM sv)"""
    ]
    prev = "v0"
    for r in range(1, _PCA_ROUNDS + 1):
        parts.append(
            f"""
u{r} AS MATERIALIZED (
  SELECT cov.i AS dim, SUM(cov.a * vv.v) AS u
  FROM cov JOIN {prev} vv ON vv.dim = cov.j
  GROUP BY cov.i
),
m{r} AS (SELECT GREATEST(MAX(abs(u)), 1) AS m FROM u{r}),
v{r} AS MATERIALIZED (
  SELECT dim,
         CASE WHEN u < 0 THEN -((-u) * {VS} // m{r}.m)
              ELSE u * {VS} // m{r}.m END AS v
  FROM u{r}, m{r}
)"""
        )
        prev = f"v{r}"
    parts.append(
        f"""
anch AS (
  SELECT CASE WHEN v < 0 THEN -1 ELSE 1 END AS sgn
  FROM {prev} ORDER BY abs(v) DESC, dim LIMIT 1
)
SELECT fin.dim, sv.s AS s_q,
       CAST(fin.v * anch.sgn AS BIGINT) AS loading_q
FROM {prev} fin JOIN sv ON sv.dim = fin.dim, anch"""
    )
    return "WITH " + ",".join(parts)


# ---------------------------------------------------------------------------
# cuped_adjustment — CUPED variance reduction on the event stream
# ---------------------------------------------------------------------------

_CUPED_CUT_DAY = 15
_CUPED_Q = 10**6


def q_cuped_adjustment(sf_dir: str):
    """CUPED (Controlled-experiment Using Pre-Experiment Data) on the
    event stream: per user, X = pre-cutover spend and Y = post-cutover
    spend (integer cents); θ = cov(X,Y)/var(X) and the adjusted metric
    Y−θX has variance var(Y)·(1−ρ²) — the industry-standard variance
    reduction that lets A/B tests detect effects ~1/(1−ρ²) times
    faster. Output: one row with the user count, the exact integer
    moment numerators, quantized θ and the variance-reduction
    fraction ρ².

    Exactness: per-user sums and the moment numerators n·Sxy−Sx·Sy
    etc. are exact integers; θ uses the sign-split division (SQL //
    rounds toward −∞ only for nonnegatives); ρ² = cov²·10⁶//(vx·vy) is
    ≤10⁶ by Cauchy–Schwarz. Distributed shape: ONE groupby(user)
    aggregate builds the per-user (pre, post) sums; a 6-integer
    map-side partial closes the moments.
    """
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "user_id", "value"]
    )

    def tag(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        day = us // 86_400_000_000 - 19723 + 1
        val = batch.column("value").to_numpy(zero_copy_only=False)
        cents = np.floor(val * 100.0 + 0.5).astype(np.int64)
        post = (day >= _CUPED_CUT_DAY).astype(np.int64)
        return pa.table(
            {
                "user_id": batch.column("user_id").cast(pa.int64()),
                "pre": pa.array(cents * (1 - post), pa.int64()),
                "post": pa.array(cents * post, pa.int64()),
            }
        )

    users = (
        ev.map_batches(tag, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(
            ray.data.aggregate.Sum("pre", alias_name="x"),
            ray.data.aggregate.Sum("post", alias_name="y"),
        )
    )

    def moments(batch: pa.Table) -> pa.Table:
        x = batch.column("x").to_numpy(zero_copy_only=False)
        y = batch.column("y").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "n": pa.array([len(x)], pa.int64()),
                "sx": pa.array([int(x.sum())], pa.int64()),
                "sy": pa.array([int(y.sum())], pa.int64()),
                "sxx": pa.array([int((x * x).sum())], pa.int64()),
                "sxy": pa.array([int((x * y).sum())], pa.int64()),
                "syy": pa.array([int((y * y).sum())], pa.int64()),
            }
        )

    row = users.map_batches(moments, batch_format="pyarrow").aggregate(
        *[
            ray.data.aggregate.Sum(c, alias_name=c)
            for c in ("n", "sx", "sy", "sxx", "sxy", "syy")
        ]
    )
    n = int(row["n"])
    sx, sy = int(row["sx"]), int(row["sy"])
    sxx, sxy, syy = int(row["sxx"]), int(row["sxy"]), int(row["syy"])
    cov = n * sxy - sx * sy
    vx = n * sxx - sx * sx
    vy = n * syy - sy * sy
    theta_q = _sgn_div(cov, max(vx, 1), _CUPED_Q)
    rho2_q = cov * cov * _CUPED_Q // max(vx * vy, 1)
    return pa.table(
        {
            "n_users": pa.array([n], pa.int64()),
            "cov_num": pa.array([cov], pa.int64()),
            "vx_num": pa.array([vx], pa.int64()),
            "vy_num": pa.array([vy], pa.int64()),
            "theta_q": pa.array([theta_q], pa.int64()),
            "rho2_q": pa.array([rho2_q], pa.int64()),
        }
    )


SQL_CUPED_ADJUSTMENT = f"""
WITH e AS (
  SELECT user_id,
         CAST(floor(value * 100e0 + 5e-1) AS BIGINT) AS cents,
         CASE WHEN CAST(date_part('day', ts) AS BIGINT)
                   >= {_CUPED_CUT_DAY} THEN 1 ELSE 0 END AS post
  FROM events
),
u AS (
  SELECT user_id,
         CAST(SUM(cents * (1 - post)) AS BIGINT) AS x,
         CAST(SUM(cents * post) AS BIGINT) AS y
  FROM e GROUP BY user_id
),
m AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(x) AS BIGINT) AS sx, CAST(SUM(y) AS BIGINT) AS sy,
         CAST(SUM(x * x) AS BIGINT) AS sxx,
         CAST(SUM(x * y) AS BIGINT) AS sxy,
         CAST(SUM(y * y) AS BIGINT) AS syy
  FROM u
),
d AS (
  SELECT n,
         CAST(n AS HUGEINT) * sxy - CAST(sx AS HUGEINT) * sy AS cov,
         CAST(n AS HUGEINT) * sxx - CAST(sx AS HUGEINT) * sx AS vx,
         CAST(n AS HUGEINT) * syy - CAST(sy AS HUGEINT) * sy AS vy
  FROM m
)
SELECT n AS n_users,
       CAST(cov AS BIGINT) AS cov_num,
       CAST(vx AS BIGINT) AS vx_num,
       CAST(vy AS BIGINT) AS vy_num,
       CAST(CASE WHEN cov < 0
                 THEN -((-cov) * {_CUPED_Q} // GREATEST(vx, 1))
                 ELSE cov * {_CUPED_Q} // GREATEST(vx, 1) END
            AS BIGINT) AS theta_q,
       CAST(cov * cov * {_CUPED_Q} // GREATEST(vx * vy, 1) AS BIGINT)
         AS rho2_q
FROM d
"""
