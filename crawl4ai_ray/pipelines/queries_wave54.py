"""Fifty-fourth-wave operators (round-3 continuation session,
2026-08-21) — k-segmentation, DP selection, partial correlation.

Listed by name in ``queries.py``'s QUERIES/ORACLES.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# ksegmentation — optimal 3-segment split of the hourly event series
# ---------------------------------------------------------------------------

_KSEG_D = 1 << 20


def q_ksegmentation(sf_dir: str):
    """Optimal 3-segmentation of the hourly event-count series: the
    (τ₁, τ₂) pair minimizing the summed per-segment SSE — the exact
    answer binary segmentation (changepoint_binseg) only approximates
    greedily, and the shape behind regime tables ("traffic was X until
    τ₁, Y until τ₂, Z after"). Output: one row with both boundary
    hours, segment sizes, quantized means and the total cost.

    Exactness: each segment cost quantizes as (n·S2−S²)·2²⁰//n from
    prefix-sum integers; the O(T²) candidate grid compares integer
    cost sums with (τ₁, τ₂)-ascending tie-break. Distributed shape:
    ONE groupby builds the T≈720-bucket series; the T² scan is
    vectorized driver numpy (T grows with time, not data volume).
    """
    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts"])

    def hour_partial(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        v, c = np.unique(us // 3_600_000_000, return_counts=True)
        return pa.table(
            {
                "hb": pa.array(v, pa.int64()),
                "n": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    rows = (
        ev.map_batches(hour_partial, batch_format="pyarrow")
        .groupby("hb")
        .aggregate(ray.data.aggregate.Sum("n", alias_name="n"))
        .take_all()  # bounded: one row per hour bucket
    )
    rows.sort(key=lambda r: int(r["hb"]))
    hbs = np.array([int(r["hb"]) for r in rows], np.int64)
    x = np.array([int(r["n"]) for r in rows], np.int64)
    T = len(x)
    sl = np.concatenate([[0], np.cumsum(x)])
    s2l = np.concatenate([[0], np.cumsum(x * x)])

    def seg_cost(i, j):
        # quantized SSE of segment (i, j] in prefix coordinates
        n = j - i
        s = sl[j] - sl[i]
        s2 = s2l[j] - s2l[i]
        return (n * s2 - s * s) * _KSEG_D // n

    # vectorized grids: c1[i] = cost(0, i); c3[j] = cost(j, T)
    ii = np.arange(1, T - 1)
    jj = np.arange(2, T)
    c1 = np.array([seg_cost(0, i) for i in ii], np.int64)
    c3 = np.array([seg_cost(j, T) for j in jj], np.int64)
    best = None
    for ix, i in enumerate(ii):
        js = jj[jj > i]
        if not len(js):
            continue
        n2 = js - i
        s2_ = sl[js] - sl[i]
        s22 = s2l[js] - s2l[i]
        c2 = (n2 * s22 - s2_ * s2_) * _KSEG_D // n2
        tot = c1[ix] + c2 + c3[js - 2]
        k = int(np.argmin(tot))  # first minimum => smallest tau2
        cand = (int(tot[k]), int(i), int(js[k]))
        if best is None or cand < best:
            best = cand
    cost_q, t1, t2 = best
    n1, n2_, n3 = t1, t2 - t1, T - t2
    return pa.table(
        {
            "tau1_hb": pa.array([int(hbs[t1])], pa.int64()),
            "tau2_hb": pa.array([int(hbs[t2])], pa.int64()),
            "n1": pa.array([n1], pa.int64()),
            "n2": pa.array([n2_], pa.int64()),
            "n3": pa.array([n3], pa.int64()),
            "mean1_q": pa.array(
                [int(sl[t1]) * 10**6 // n1], pa.int64()
            ),
            "mean2_q": pa.array(
                [int(sl[t2] - sl[t1]) * 10**6 // n2_], pa.int64()
            ),
            "mean3_q": pa.array(
                [int(sl[T] - sl[t2]) * 10**6 // n3], pa.int64()
            ),
            "cost_q": pa.array([cost_q], pa.int64()),
        }
    )


SQL_KSEGMENTATION = f"""
WITH hseries AS (
  SELECT CAST(epoch(date_trunc('hour', ts)) AS BIGINT) // 3600 AS hb,
         CAST(COUNT(*) AS BIGINT) AS x
  FROM events GROUP BY hb
),
o AS (
  SELECT hb, row_number() OVER (ORDER BY hb) AS pos,
         CAST(CAST(SUM(x) OVER (ORDER BY hb) AS HUGEINT) AS BIGINT)
           AS sl,
         CAST(CAST(SUM(x * x) OVER (ORDER BY hb) AS HUGEINT)
              AS BIGINT) AS s2l
  FROM hseries
),
b AS (
  SELECT CAST(0 AS BIGINT) AS pos, CAST(0 AS BIGINT) AS sl,
         CAST(0 AS BIGINT) AS s2l
  UNION ALL SELECT pos, sl, s2l FROM o
),
tt AS (SELECT CAST(MAX(pos) AS BIGINT) AS t FROM o),
cand AS (
  SELECT bi.pos AS t1, bj.pos AS t2,
         CAST((CAST(bi.pos AS HUGEINT) * bi.s2l
               - CAST(bi.sl AS HUGEINT) * bi.sl) * {_KSEG_D}
              // bi.pos AS BIGINT)
         + CAST((CAST(bj.pos - bi.pos AS HUGEINT)
                   * (bj.s2l - bi.s2l)
                 - CAST(bj.sl - bi.sl AS HUGEINT) * (bj.sl - bi.sl))
                  * {_KSEG_D} // (bj.pos - bi.pos) AS BIGINT)
         + CAST((CAST(tt.t - bj.pos AS HUGEINT)
                   * (e.s2l - bj.s2l)
                 - CAST(e.sl - bj.sl AS HUGEINT) * (e.sl - bj.sl))
                  * {_KSEG_D} // (tt.t - bj.pos) AS BIGINT) AS cost_q,
         bi.sl AS sl1, bj.sl - bi.sl AS sl2, e.sl - bj.sl AS sl3
  FROM b bi
  JOIN b bj ON bj.pos > bi.pos
  CROSS JOIN tt
  JOIN o e ON e.pos = tt.t
  WHERE bi.pos >= 1 AND bj.pos <= tt.t - 1
)
SELECT (SELECT hb FROM o WHERE o.pos = c.t1 + 1) AS tau1_hb,
       (SELECT hb FROM o WHERE o.pos = c.t2 + 1) AS tau2_hb,
       c.t1 AS n1, c.t2 - c.t1 AS n2, tt.t - c.t2 AS n3,
       c.sl1 * 1000000 // c.t1 AS mean1_q,
       c.sl2 * 1000000 // (c.t2 - c.t1) AS mean2_q,
       c.sl3 * 1000000 // (tt.t - c.t2) AS mean3_q,
       c.cost_q
FROM cand c, tt
ORDER BY c.cost_q, c.t1, c.t2
LIMIT 1
"""


# ---------------------------------------------------------------------------
# exp_mechanism — DP selection of the top host via seeded Gumbel-max
# ---------------------------------------------------------------------------


def q_exp_mechanism(sf_dir: str):
    """Exponential-mechanism selection of the busiest host under ε=1
    differential privacy, via the Gumbel-max equivalence: the argmax
    of score·ε/2 + Gumbel(md5 seed) is EXACTLY an exponential-
    mechanism draw — the DP way to answer "which host dominates?"
    without exposing exact counts. Completes the privacy trio:
    dp_host_counts (central noise), randomized_response (local),
    exp_mechanism (selection). Output: one row — the private winner,
    its count, its rank in the true ordering, and the true top host
    for audit.

    Exactness: u = (h52+½)/2⁵², g = −ln(−ln u), noisy = n/2 + g — the
    identical double expression chain both sides; argmax tie-break by
    host ASC. Distributed shape: the pages_per_host partial count +
    an O(hosts) fold.
    """
    from ..functions.urls import hosts_array
    from ..stages.agg import partial_count
    from .queries import _pages_ds

    pages = _pages_ds(sf_dir, columns=["url"])

    def add_host(batch: pa.Table) -> pa.Table:
        return pa.table({"host": hosts_array(batch.column("url"))})

    counts = partial_count(
        pages.map_batches(add_host, batch_format="pyarrow"), "host"
    ).take_all()  # bounded: one row per host
    rows = sorted((r["host"], int(r["n"])) for r in counts)
    noisy = {}
    for h, n in rows:
        h52 = int(hashlib.md5(f"em|{h}".encode()).hexdigest()[:13], 16)
        u = (float(h52) + 0.5) / 4503599627370496.0
        g = -math.log(-math.log(u))
        noisy[h] = float(n) / 2.0 + g
    chosen = min(noisy, key=lambda h: (-noisy[h], h))
    # true ranking: count DESC, host ASC
    order = sorted(rows, key=lambda t: (-t[1], t[0]))
    rank = next(i + 1 for i, (h, _) in enumerate(order) if h == chosen)
    byh = dict(rows)
    return pa.table(
        {
            "chosen_host": pa.array([chosen], pa.string()),
            "chosen_n": pa.array([byh[chosen]], pa.int64()),
            "chosen_rank": pa.array([rank], pa.int64()),
            "noisy_score": pa.array([noisy[chosen]], pa.float64()),
            "true_best_host": pa.array([order[0][0]], pa.string()),
            "true_best_n": pa.array([order[0][1]], pa.int64()),
        }
    )


def _sql_exp_mechanism(sql_pages: str) -> str:
    return f"""
WITH {sql_pages},
c AS (SELECT host, CAST(COUNT(*) AS BIGINT) AS n FROM purl GROUP BY host),
g AS (
  SELECT host, n,
         CAST(n AS DOUBLE) / 2e0
           + (-ln(-ln((CAST(CAST(('0x' || substr(md5('em|' || host),
                                                 1, 13)) AS BIGINT)
                            AS DOUBLE) + 5e-1)
                      / 4503599627370496e0))) AS noisy
  FROM c
),
ch AS (SELECT * FROM g ORDER BY noisy DESC, host LIMIT 1),
rk AS (
  SELECT host, row_number() OVER (ORDER BY n DESC, host) AS r FROM c
),
tb AS (SELECT host, n FROM c ORDER BY n DESC, host LIMIT 1)
SELECT ch.host AS chosen_host, ch.n AS chosen_n,
       CAST(rk.r AS BIGINT) AS chosen_rank,
       ch.noisy AS noisy_score,
       tb.host AS true_best_host, tb.n AS true_best_n
FROM ch JOIN rk ON rk.host = ch.host, tb
"""


# ---------------------------------------------------------------------------
# partial_correlation — chars ~ distinct types, controlling token count
# ---------------------------------------------------------------------------


def q_partial_correlation(sf_dir: str):
    """Partial correlation of document length (chars) with vocabulary
    size (distinct tokens), CONTROLLING for token count — the
    confounder-adjusted read on "are longer docs really more lexically
    diverse, or just longer?": r_xy·z = (r_xy − r_xz·r_yz) /
    √((1−r_xz²)(1−r_yz²)). Output: one row with n, the three raw
    correlations and the partial.

    Exactness: per-doc features and the full moment matrix are exact
    integers (one aggregate); each r and the partial are the identical
    double expression chain in both engines (the quality_correlations
    sqrt-parity discipline). Distributed shape: one map-side
    9-integer partial, one aggregate, driver arithmetic.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text", "n_chars"]
    )

    def feats(batch: pa.Table) -> pa.Table:
        xs, ys, zs = [], [], []
        for t, nc in zip(
            batch.column("text").to_pylist(),
            batch.column("n_chars").to_pylist(),
        ):
            toks = (t or "").split()
            xs.append(int(nc))
            ys.append(len(set(toks)))
            zs.append(len(toks))
        x = np.array(xs, np.int64)
        y = np.array(ys, np.int64)
        z = np.array(zs, np.int64)
        vals = {
            "n": len(x),
            "sx": x.sum(), "sy": y.sum(), "sz": z.sum(),
            "sxx": (x * x).sum(), "syy": (y * y).sum(),
            "szz": (z * z).sum(),
            "sxy": (x * y).sum(), "sxz": (x * z).sum(),
            "syz": (y * z).sum(),
        }
        return pa.table(
            {k: pa.array([int(v)], pa.int64()) for k, v in vals.items()}
        )

    cols = ("n", "sx", "sy", "sz", "sxx", "syy", "szz", "sxy", "sxz", "syz")
    row = docs.map_batches(feats, batch_format="pyarrow").aggregate(
        *[ray.data.aggregate.Sum(c, alias_name=c) for c in cols]
    )
    v = {c: int(row[c]) for c in cols}
    n = v["n"]

    def r(sab, sa, sb, saa, sbb):
        cov = n * sab - sa * sb
        va = n * saa - sa * sa
        vb = n * sbb - sb * sb
        return float(cov) / math.sqrt(float(va) * float(vb))

    rxy = r(v["sxy"], v["sx"], v["sy"], v["sxx"], v["syy"])
    rxz = r(v["sxz"], v["sx"], v["sz"], v["sxx"], v["szz"])
    ryz = r(v["syz"], v["sy"], v["sz"], v["syy"], v["szz"])
    partial = (rxy - rxz * ryz) / math.sqrt(
        (1.0 - rxz * rxz) * (1.0 - ryz * ryz)
    )
    return pa.table(
        {
            "n": pa.array([n], pa.int64()),
            "r_xy": pa.array([rxy], pa.float64()),
            "r_xz": pa.array([rxz], pa.float64()),
            "r_yz": pa.array([ryz], pa.float64()),
            "r_partial": pa.array([partial], pa.float64()),
        }
    )


SQL_PARTIAL_CORRELATION = """
WITH f AS (
  SELECT CAST(n_chars AS BIGINT) AS x,
         CAST(len(list_distinct(regexp_extract_all(text, '\\S+')))
              AS BIGINT) AS y,
         CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT) AS z
  FROM documents
),
m AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(x) AS BIGINT) AS sx, CAST(SUM(y) AS BIGINT) AS sy,
         CAST(SUM(z) AS BIGINT) AS sz,
         CAST(SUM(x * x) AS BIGINT) AS sxx,
         CAST(SUM(y * y) AS BIGINT) AS syy,
         CAST(SUM(z * z) AS BIGINT) AS szz,
         CAST(SUM(x * y) AS BIGINT) AS sxy,
         CAST(SUM(x * z) AS BIGINT) AS sxz,
         CAST(SUM(y * z) AS BIGINT) AS syz
  FROM f
),
rr AS (
  SELECT n,
         CAST(n * sxy - sx * sy AS DOUBLE)
           / sqrt(CAST(n * sxx - sx * sx AS DOUBLE)
                  * CAST(n * syy - sy * sy AS DOUBLE)) AS r_xy,
         CAST(n * sxz - sx * sz AS DOUBLE)
           / sqrt(CAST(n * sxx - sx * sx AS DOUBLE)
                  * CAST(n * szz - sz * sz AS DOUBLE)) AS r_xz,
         CAST(n * syz - sy * sz AS DOUBLE)
           / sqrt(CAST(n * syy - sy * sy AS DOUBLE)
                  * CAST(n * szz - sz * sz AS DOUBLE)) AS r_yz
  FROM m
)
SELECT n, r_xy, r_xz, r_yz,
       (r_xy - r_xz * r_yz)
         / sqrt((1e0 - r_xz * r_xz) * (1e0 - r_yz * r_yz)) AS r_partial
FROM rr
"""
