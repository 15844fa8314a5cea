"""Forty-fifth-wave operators (round-3 continuation session,
2026-08-20) — robust statistics wave.

Listed by name in ``queries.py``'s QUERIES/ORACLES.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# theil_sen_trend — robust slope of the daily event rate
# ---------------------------------------------------------------------------


def q_theil_sen_trend(sf_dir: str):
    """Theil–Sen trend estimate of the daily event rate: the MEDIAN of
    all pairwise slopes (x_j − x_i)/(d_j − d_i) — the robust
    alternative to OLS whose breakdown point tolerates ~29% of days
    being bursts or outages. Output: one row with the pair count and
    the lower-median slope (num/den ints plus the mirrored double).

    Exactness: each slope is the double of two exact ints (identical
    per pair on both engines); the median is the order statistic at
    1-based rank ⌈n/2⌉ under (slope, i, j) ordering — no averaging of
    middles, so the result is ONE pair's exact ratio.

    Distributed shape: ONE daily aggregate; the O(#days²) pair fold is
    calendar-bounded driver math (≤ ~500 pairs per month).
    """
    from .queries_wave42 import _daily_counts

    rows = _daily_counts(sf_dir)
    slopes = []
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            di, xi = rows[i]
            dj, xj = rows[j]
            slopes.append(
                (float(xj - xi) / float(dj - di), di, dj, xj - xi, dj - di)
            )
    slopes.sort(key=lambda s: (s[0], s[1], s[2]))
    n = len(slopes)
    med = slopes[(n + 1) // 2 - 1]
    return pa.table(
        {
            "n_pairs": pa.array([n], pa.int64()),
            "med_num": pa.array([med[3]], pa.int64()),
            "med_den": pa.array([med[4]], pa.int64()),
            "slope": pa.array([med[0]], pa.float64()),
        }
    )


SQL_THEIL_SEN_TREND = """
WITH daily AS (
  SELECT epoch_us(ts) // 86400000000 AS day,
         CAST(COUNT(*) AS BIGINT) AS x
  FROM events GROUP BY 1
),
prs AS (
  SELECT a.day AS di, b.day AS dj,
         CAST(b.x - a.x AS BIGINT) AS num,
         CAST(b.day - a.day AS BIGINT) AS den,
         CAST(b.x - a.x AS DOUBLE) / CAST(b.day - a.day AS DOUBLE)
           AS slope
  FROM daily a JOIN daily b ON b.day > a.day
),
rk AS (
  SELECT prs.*,
         row_number() OVER (ORDER BY slope, di, dj) AS rn,
         COUNT(*) OVER () AS n
  FROM prs
)
SELECT CAST(n AS BIGINT) AS n_pairs,
       num AS med_num, den AS med_den, slope
FROM rk WHERE rn = (n + 1) // 2
"""


# ---------------------------------------------------------------------------
# mann_kendall — nonparametric monotone-trend test
# ---------------------------------------------------------------------------


def q_mann_kendall(sf_dir: str):
    """The Mann–Kendall trend test on the daily event rate:
    S = Σ_{i<j} sign(x_j − x_i), tie-corrected variance
    Var = (n(n−1)(2n+5) − Σ_g t_g(t_g−1)(2t_g+5))/18, and the
    continuity-corrected z — the standard distribution-free "is this
    series drifting" test (the hypothesis-test companion to
    theil_sen_trend's effect size). Output: one row.

    Exactness: S and 18·Var are exact integers; z is one mirrored
    expression (sign-dependent ∓1 correction, 0 when S = 0).
    """
    from .queries_wave42 import _daily_counts

    rows = _daily_counts(sf_dir)
    xs = [x for _, x in rows]
    n = len(xs)
    s = 0
    for i in range(n):
        for j in range(i + 1, n):
            d = xs[j] - xs[i]
            s += (d > 0) - (d < 0)
    ties: dict[int, int] = {}
    for x in xs:
        ties[x] = ties.get(x, 0) + 1
    var18 = n * (n - 1) * (2 * n + 5) - sum(
        t * (t - 1) * (2 * t + 5) for t in ties.values() if t > 1
    )
    if s > 0:
        z = (float(s) - 1.0) / math.sqrt(float(var18) / 18.0)
    elif s < 0:
        z = (float(s) + 1.0) / math.sqrt(float(var18) / 18.0)
    else:
        z = 0.0
    return pa.table(
        {
            "n_days": pa.array([n], pa.int64()),
            "s": pa.array([s], pa.int64()),
            "var18": pa.array([var18], pa.int64()),
            "z_q": pa.array([math.floor(z * 1e9 + 0.5)], pa.int64()),
        }
    )


SQL_MANN_KENDALL = """
WITH daily AS (
  SELECT epoch_us(ts) // 86400000000 AS day,
         CAST(COUNT(*) AS BIGINT) AS x
  FROM events GROUP BY 1
),
nn AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM daily),
sgn AS (
  SELECT CAST(SUM(CASE WHEN b.x > a.x THEN 1
                       WHEN b.x < a.x THEN -1 ELSE 0 END) AS BIGINT) AS s
  FROM daily a JOIN daily b ON b.day > a.day
),
ties AS (
  SELECT CAST(COALESCE(SUM(t * (t - 1) * (2 * t + 5)), 0) AS BIGINT)
           AS corr
  FROM (SELECT COUNT(*) AS t FROM daily GROUP BY x) WHERE t > 1
),
v AS (
  SELECT CAST(nn.n * (nn.n - 1) * (2 * nn.n + 5) - ties.corr AS BIGINT)
           AS var18
  FROM nn, ties
)
SELECT nn.n AS n_days, sgn.s, v.var18,
       CAST(floor(
         CASE WHEN sgn.s > 0
              THEN (CAST(sgn.s AS DOUBLE) - 1e0)
                   / sqrt(CAST(v.var18 AS DOUBLE) / 18e0)
              WHEN sgn.s < 0
              THEN (CAST(sgn.s AS DOUBLE) + 1e0)
                   / sqrt(CAST(v.var18 AS DOUBLE) / 18e0)
              ELSE 0e0 END * 1e9 + 5e-1) AS BIGINT) AS z_q
FROM nn, sgn, v
"""


# ---------------------------------------------------------------------------
# capture_recapture — Lincoln-Petersen estimate of the URL universe
# ---------------------------------------------------------------------------

_CR_RATE = 40  # each sample keeps ~40% of urls (md5 % 100 < 40)


def q_capture_recapture(sf_dir: str):
    """Capture–recapture (Lincoln–Petersen) estimation of the crawl
    universe: two independent deterministic URL samples (md5-keyed,
    ~40% each) play the role of two crawl passes; the overlap gives
    N̂ = n₁·n₂/m — the ecology estimator that answers "how many pages
    exist that NEITHER pass saw", i.e. crawl-coverage estimation
    without a ground-truth frontier. Output: one row with the sample
    sizes, overlap, the estimate and the true N beside it.

    Exactness: memberships are integer md5 comparisons; N̂ is the one
    mirrored division. Distributed shape: one map folds all four
    counters per batch; a 4-integer fold closes it.
    """
    from .queries import _pages_ds

    pages = _pages_ds(sf_dir, columns=["url"])

    def partial(batch: pa.Table) -> pa.Table:
        n1 = n2 = m = tot = 0
        for u in batch.column("url").to_pylist():
            a = (
                int(hashlib.md5(f"s1|{u}".encode()).hexdigest()[:8], 16)
                % 100
                < _CR_RATE
            )
            b = (
                int(hashlib.md5(f"s2|{u}".encode()).hexdigest()[:8], 16)
                % 100
                < _CR_RATE
            )
            tot += 1
            n1 += a
            n2 += b
            m += a and b
        return pa.table(
            {
                "n1": pa.array([n1], pa.int64()),
                "n2": pa.array([n2], pa.int64()),
                "m": pa.array([m], pa.int64()),
                "tot": pa.array([tot], pa.int64()),
            }
        )

    rows = pages.map_batches(partial, batch_format="pyarrow").take_all()  # bounded: one partial row per batch
    n1 = sum(int(r["n1"]) for r in rows)
    n2 = sum(int(r["n2"]) for r in rows)
    m = sum(int(r["m"]) for r in rows)
    tot = sum(int(r["tot"]) for r in rows)
    est = float(n1) * float(n2) / float(m) if m else 0.0
    return pa.table(
        {
            "n1": pa.array([n1], pa.int64()),
            "n2": pa.array([n2], pa.int64()),
            "overlap": pa.array([m], pa.int64()),
            "n_true": pa.array([tot], pa.int64()),
            "n_est": pa.array([est], pa.float64()),
        }
    )


def _sql_capture_recapture(sql_pages: str) -> str:
    return f"""
WITH {sql_pages},
flags AS (
  SELECT url,
         CASE WHEN CAST(('0x' || substr(md5('s1|' || url), 1, 8))
                        AS BIGINT) % 100 < {_CR_RATE}
              THEN 1 ELSE 0 END AS a,
         CASE WHEN CAST(('0x' || substr(md5('s2|' || url), 1, 8))
                        AS BIGINT) % 100 < {_CR_RATE}
              THEN 1 ELSE 0 END AS b
  FROM purl
),
s AS (
  SELECT CAST(SUM(a) AS BIGINT) AS n1,
         CAST(SUM(b) AS BIGINT) AS n2,
         CAST(SUM(a * b) AS BIGINT) AS m,
         CAST(COUNT(*) AS BIGINT) AS tot
  FROM flags
)
SELECT n1, n2, m AS overlap, tot AS n_true,
       CASE WHEN m = 0 THEN 0e0
            ELSE CAST(n1 AS DOUBLE) * CAST(n2 AS DOUBLE)
                 / CAST(m AS DOUBLE) END AS n_est
FROM s
"""
