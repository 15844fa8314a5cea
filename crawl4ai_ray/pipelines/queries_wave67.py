"""Sixty-seventh-wave operators (round-3 continuation session,
2026-08-21) — STL-lite decomposition, ICC design effect, Lindley
waits.

Listed by name in ``queries.py``'s QUERIES/ORACLES.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

import ray

_W67_Q = 10**6


# ---------------------------------------------------------------------------
# stl_decompose — trend / seasonal / remainder split of hourly counts
# ---------------------------------------------------------------------------

_STL_P = 24  # daily seasonality on the hourly series


def q_stl_decompose(sf_dir: str):
    """STL-lite decomposition of the hourly event-count series: trend
    = centered 24-hour moving average (exact window sums), seasonal =
    per-hour-of-day mean of the detrended series (quantized), and the
    variance split shows how much of the traffic is structure vs noise
    — the decomposition every seasonality-aware alerting rule
    (seasonal_naive_eval, ewma, cusum) implicitly assumes. Output: one
    row per hour-of-day with the seasonal component, plus the exact
    integer variance numerators of series/detrended/remainder as
    repeated audit columns.

    Exactness: trend uses the exact 24-sum (detrended value =
    24·x − Σ window, an integer); seasonal means quantize as
    sum·10⁶//n; variance numerators are exact integers (n·Σz²−(Σz)²).
    Distributed shape: one hourly groupby; the T≈720-bucket fold is
    driver arithmetic.
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
    half = _STL_P // 2
    # detrended (scaled by P to stay integer): d = P*x - window sum,
    # defined where the full centered window [i-12, i+11] exists
    csum = np.concatenate([[0], np.cumsum(x)])
    det = {}
    for i in range(half, T - half + 1 - 1):
        wsum = int(csum[i + half] - csum[i - half])
        det[i] = _STL_P * int(x[i]) - wsum
    # seasonal: per hour-of-day mean of detrended, quantized
    sea_sum = {h: 0 for h in range(_STL_P)}
    sea_n = {h: 0 for h in range(_STL_P)}
    for i, d in det.items():
        h = int(hbs[i]) % _STL_P
        sea_sum[h] += d
        sea_n[h] += 1

    def sgn_div(num, den, scale):
        mag = abs(num) * scale // den
        return -mag if num < 0 else mag

    sea_q = {
        h: sgn_div(sea_sum[h], max(sea_n[h], 1), _W67_Q)
        for h in range(_STL_P)
    }
    sea3_q = {
        h: sgn_div(sea_sum[h], max(sea_n[h], 1), 1000)
        for h in range(_STL_P)
    }
    # variance numerators (n*S2 - S^2) of: raw detrended, remainder
    # (detrended minus its hour-of-day seasonal, in P*1e6 units)
    dn = len(det)
    s1 = sum(det.values())
    s2 = sum(d * d for d in det.values())
    var_det = dn * s2 - s1 * s1
    r1 = r2 = 0
    for d in sorted(det):
        h = int(hbs[d]) % _STL_P
        z = det[d] * 1000 - sea3_q[h]
        r1 += z
        r2 += z * z
    var_rem = dn * r2 - r1 * r1
    return pa.table(
        {
            "hour": pa.array(list(range(_STL_P)), pa.int64()),
            "n_obs": pa.array(
                [sea_n[h] for h in range(_STL_P)], pa.int64()
            ),
            "seasonal_q": pa.array(
                [sea_q[h] for h in range(_STL_P)], pa.int64()
            ),
            "var_det_num": pa.array([var_det] * _STL_P, pa.int64()),
            "var_rem_num": pa.array([var_rem] * _STL_P, pa.int64()),
        }
    )


SQL_STL_DECOMPOSE = f"""
WITH hseries AS (
  SELECT epoch_us(ts) // 3600000000 AS hb,
         CAST(COUNT(*) AS BIGINT) AS x
  FROM events GROUP BY hb
),
o AS (
  SELECT hb, x, row_number() OVER (ORDER BY hb) AS pos,
         CAST(COUNT(*) OVER () AS BIGINT) AS t
  FROM hseries
),
det AS (
  SELECT o.hb, o.pos,
         {_STL_P} * o.x
           - (SELECT CAST(SUM(o2.x) AS BIGINT) FROM o o2
              WHERE o2.pos >= o.pos - {_STL_P // 2}
                AND o2.pos <= o.pos + {_STL_P // 2} - 1) AS d
  FROM o
  WHERE o.pos > {_STL_P // 2}
    AND o.pos <= o.t - {_STL_P // 2}
),
sea AS (
  SELECT hb % {_STL_P} AS hour,
         CAST(COUNT(*) AS BIGINT) AS n_obs,
         CAST(SUM(d) AS BIGINT) AS s
  FROM det GROUP BY hb % {_STL_P}
),
seaq AS (
  SELECT hour, n_obs,
         CAST(CASE WHEN s < 0
                   THEN -((-s) * {_W67_Q} // GREATEST(n_obs, 1))
                   ELSE s * {_W67_Q} // GREATEST(n_obs, 1) END
              AS BIGINT) AS seasonal_q,
         CAST(CASE WHEN s < 0
                   THEN -((-s) * 1000 // GREATEST(n_obs, 1))
                   ELSE s * 1000 // GREATEST(n_obs, 1) END
              AS BIGINT) AS seasonal3_q
  FROM sea
),
vd AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS dn,
         CAST(SUM(d) AS BIGINT) AS s1,
         CAST(SUM(d * d) AS BIGINT) AS s2
  FROM det
),
remx AS (
  SELECT det.d * 1000 - seaq.seasonal3_q AS z
  FROM det JOIN seaq ON seaq.hour = det.hb % {_STL_P}
),
vr AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS rn,
         CAST(SUM(z) AS BIGINT) AS r1,
         SUM(CAST(z AS HUGEINT) * z) AS r2
  FROM remx
)
SELECT seaq.hour, seaq.n_obs, seaq.seasonal_q,
       CAST(vd.dn * vd.s2 - CAST(vd.s1 AS HUGEINT) * vd.s1 AS BIGINT)
         AS var_det_num,
       CAST(vr.rn * vr.r2 - CAST(vr.r1 AS HUGEINT) * vr.r1 AS BIGINT)
         AS var_rem_num
FROM seaq, vd, vr
"""


# ---------------------------------------------------------------------------
# icc_design_effect — intra-class correlation and cluster design effect
# ---------------------------------------------------------------------------


def q_icc_design_effect(sf_dir: str):
    """Intra-class correlation of event spend within users and the
    cluster-sampling design effect DEFF = 1 + (m̄−1)·ICC — the number
    that says how much a "sample users, take all their events" design
    inflates variance vs simple random sampling of events (ICC from
    the one-way ANOVA moment estimator). Output: one row with the
    exact between/within sum-of-squares numerators, quantized ICC and
    DEFF.

    Exactness: SSB/SSW reduce to integer expressions over per-user
    (n, Σ, Σ²) sums; ICC and DEFF are sign-split quantized rationals.
    Distributed shape: one groupby(user) aggregate + a driver fold.
    """
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "value"]
    )

    def tag(batch: pa.Table) -> pa.Table:
        val = batch.column("value").to_numpy(zero_copy_only=False)
        cents = np.floor(val * 100.0 + 0.5).astype(np.int64)
        return pa.table(
            {
                "user_id": batch.column("user_id").cast(pa.int64()),
                "c": pa.array(cents, pa.int64()),
                "c2": pa.array(cents * cents, pa.int64()),
                "one": pa.array(
                    np.ones(batch.num_rows, np.int64), pa.int64()
                ),
            }
        )

    users = (
        ev.map_batches(tag, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(
            ray.data.aggregate.Sum("c", alias_name="s"),
            ray.data.aggregate.Sum("c2", alias_name="s2"),
            ray.data.aggregate.Sum("one", alias_name="m"),
        )
        .take_all()  # bounded: grouped scalar sums
    )
    k = len(users)
    N = sum(int(r["m"]) for r in users)
    S = sum(int(r["s"]) for r in users)
    S2 = sum(int(r["s2"]) for r in users)
    # scale everything by Π m_i? no — use the standard ANOVA sums with
    # a common denominator: SSB = Σ s_i²/m_i − S²/N. To stay integer,
    # multiply through by N·Π? too big — use lcm-free form: compare via
    # the quantities scaled by N and by each m_i separately:
    # ssb_q = Σ (s_i² * Q // m_i) − S² * Q // N  (per-term floor — the
    # SAME floors in both engines)
    Q = _W67_Q
    ssb_q = sum(
        int(r["s"]) * int(r["s"]) * Q // int(r["m"]) for r in users
    ) - S * S * Q // N
    ssw_q = S2 * Q - sum(
        int(r["s"]) * int(r["s"]) * Q // int(r["m"]) for r in users
    )
    msb_q = ssb_q // (k - 1)
    msw_q = ssw_q // (N - k)
    # average cluster size (ANOVA n0): (N - Σm²/N) / (k-1), quantized
    m2 = sum(int(r["m"]) * int(r["m"]) for r in users)
    n0_q = (N * Q - m2 * Q // N) // (k - 1)
    num = msb_q - msw_q
    den = msb_q + (n0_q - Q) * msw_q // Q
    mag = abs(num) * Q // max(abs(den), 1)
    icc_q = -mag if (num < 0) != (den < 0) else mag
    mbar_q = N * Q // k
    gain = (mbar_q - Q) * abs(icc_q) // Q
    deff_q = Q - gain if icc_q < 0 else Q + gain
    return pa.table(
        {
            "k_users": pa.array([k], pa.int64()),
            "n_events": pa.array([N], pa.int64()),
            "ssb_q": pa.array([ssb_q], pa.int64()),
            "ssw_q": pa.array([ssw_q], pa.int64()),
            "icc_q": pa.array([icc_q], pa.int64()),
            "deff_q": pa.array([deff_q], pa.int64()),
        }
    )


SQL_ICC_DESIGN_EFFECT = f"""
WITH e AS (
  SELECT user_id,
         CAST(floor(value * 100e0 + 5e-1) AS BIGINT) AS c
  FROM events
),
u AS (
  SELECT user_id, CAST(SUM(c) AS BIGINT) AS s,
         CAST(SUM(c * c) AS BIGINT) AS s2,
         CAST(COUNT(*) AS BIGINT) AS m
  FROM e GROUP BY user_id
),
tot AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS k, CAST(SUM(m) AS BIGINT) AS n,
         CAST(SUM(s) AS BIGINT) AS st, CAST(SUM(s2) AS BIGINT) AS s2t,
         CAST(SUM(CAST(s AS HUGEINT) * s * {_W67_Q} // m) AS HUGEINT)
           AS sbq,
         CAST(SUM(m * m) AS BIGINT) AS m2
  FROM u
),
d AS (
  SELECT k, n,
         CAST(sbq - CAST(st AS HUGEINT) * st * {_W67_Q} // n
              AS HUGEINT) AS ssb_q,
         CAST(CAST(s2t AS HUGEINT) * {_W67_Q} - sbq AS HUGEINT)
           AS ssw_q,
         CAST((CAST(n AS HUGEINT) * {_W67_Q}
               - CAST(m2 AS HUGEINT) * {_W67_Q} // n) // (k - 1)
              AS HUGEINT) AS n0_q
  FROM tot
),
m AS (
  SELECT d.*, ssb_q // (k - 1) AS msb_q, ssw_q // (n - k) AS msw_q
  FROM d
),
icc AS (
  SELECT m.*,
         msb_q - msw_q AS num,
         msb_q + (n0_q - {_W67_Q}) * msw_q // {_W67_Q} AS den
  FROM m
),
fin AS (
  SELECT icc.*,
         CASE WHEN (num < 0) <> (den < 0)
              THEN -(abs(num) * {_W67_Q} // GREATEST(abs(den), 1))
              ELSE abs(num) * {_W67_Q} // GREATEST(abs(den), 1)
         END AS icc_q
  FROM icc
)
SELECT k AS k_users, n AS n_events,
       CAST(ssb_q AS BIGINT) AS ssb_q, CAST(ssw_q AS BIGINT) AS ssw_q,
       CAST(icc_q AS BIGINT) AS icc_q,
       CAST(CASE WHEN icc_q < 0
                 THEN {_W67_Q}
                      - (CAST(n AS HUGEINT) * {_W67_Q} // k
                         - {_W67_Q}) * (-icc_q) // {_W67_Q}
                 ELSE {_W67_Q}
                      + (CAST(n AS HUGEINT) * {_W67_Q} // k
                         - {_W67_Q}) * icc_q // {_W67_Q} END
            AS BIGINT) AS deff_q
FROM fin
"""


# ---------------------------------------------------------------------------
# lindley_waits — per-host queueing delay via the Lindley recursion
# ---------------------------------------------------------------------------

_LW_ARRIVAL_GAP = 40  # deterministic inter-arrival time units
_LW_MAXK = 30


def q_lindley_waits(sf_dir: str):
    """Per-host queueing delay by the Lindley recursion: host h's k-th
    fetch job arrives every {gap} time units and needs an md5 service
    time 1..79; W_{{k+1}} = max(0, W_k + S_k − {gap}) is the exact
    waiting time each job spends queued — the sample-path answer (vs
    mm1's steady-state formula) to "how far behind does this host's
    fetch queue fall?". Output: per host its job count, the final
    wait, the max wait and the total queued time.

    Exactness: the recursion is pure integer max/add; the oracle runs
    it with a recursive CTE keyed (host, k) — the politeness_budget
    wave-loop pattern. Distributed shape: the sessionize plan (host
    buckets, vectorized per-host recursion inside each bucket).
    """
    from ..functions.urls import hosts_array
    from .queries import _pages_ds

    pages = _pages_ds(sf_dir, columns=["url"])

    def tag(batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        hosts = hosts_array(batch.column("url")).to_pylist()
        ids = [int(u.rsplit("/", 1)[1]) for u in urls]
        return pa.table(
            {
                "bucket": pa.array(
                    [int(h.split(".")[0][4:]) % 16 for h in hosts],
                    pa.int64(),
                ),
                "host": pa.array(hosts, pa.string()),
                "doc_id": pa.array(ids, pa.int64()),
            }
        )

    def per_bucket(g: pa.Table) -> pa.Table:
        # arrow-native (r5): lexsorted (host, doc_id) runs; the Lindley
        # waiting-time recurrence stays a scalar loop per host
        hosts_a = np.asarray(g.column("host").to_pylist(), dtype=object)
        ids_a = g.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.lexsort((ids_a, hosts_a))
        hosts_a, ids_a = hosts_a[o], ids_a[o]
        starts = np.flatnonzero(np.r_[True, hosts_a[1:] != hosts_a[:-1]]) if len(hosts_a) else np.zeros(0, np.int64)
        ends = np.r_[starts[1:], len(hosts_a)] if len(hosts_a) else np.zeros(0, np.int64)
        out = {"host": [], "n_jobs": [], "w_final": [], "w_max": [], "w_total": []}
        for st, en in zip(starts, ends):
            host = hosts_a[st]
            ids = ids_a[st:en][:_LW_MAXK]
            w = 0
            wmax = wtot = 0
            for j, d in enumerate(ids):
                if j > 0:
                    s_prev = 1 + int(
                        hashlib.md5(
                            f"svc|{int(ids[j - 1])}".encode()
                        ).hexdigest()[:8],
                        16,
                    ) % 79
                    w = max(0, w + s_prev - _LW_ARRIVAL_GAP)
                wmax = max(wmax, w)
                wtot += w
            out["host"].append(host)
            out["n_jobs"].append(len(ids))
            out["w_final"].append(w)
            out["w_max"].append(wmax)
            out["w_total"].append(wtot)
        return pa.table(
            {
                "host": pa.array(out["host"], pa.string()),
                "n_jobs": pa.array(out["n_jobs"], pa.int64()),
                "w_final": pa.array(out["w_final"], pa.int64()),
                "w_max": pa.array(out["w_max"], pa.int64()),
                "w_total": pa.array(out["w_total"], pa.int64()),
            }
        )

    return (
        pages.map_batches(tag, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
    )


def _sql_lindley(sql_pages: str) -> str:
    return f"""
WITH RECURSIVE {sql_pages},
arr AS (
  SELECT host, doc_id,
         row_number() OVER (PARTITION BY host ORDER BY doc_id) AS seq,
         1 + CAST(('0x' || substr(md5('svc|' || doc_id), 1, 8))
                  AS BIGINT) % 79 AS svc
  FROM purl
),
arrk AS (SELECT * FROM arr WHERE seq <= {_LW_MAXK}),
lind AS (
  SELECT host, CAST(1 AS BIGINT) AS seq, CAST(0 AS BIGINT) AS w
  FROM arrk WHERE seq = 1
  UNION ALL
  SELECT l.host, l.seq + 1,
         GREATEST(0, l.w + a_prev.svc - {_LW_ARRIVAL_GAP})
  FROM lind l
  JOIN arrk a_prev ON a_prev.host = l.host AND a_prev.seq = l.seq
  JOIN arrk a_next ON a_next.host = l.host AND a_next.seq = l.seq + 1
)
SELECT host, CAST(COUNT(*) AS BIGINT) AS n_jobs,
       CAST(MAX(CASE WHEN seq = mx THEN w END) AS BIGINT) AS w_final,
       CAST(MAX(w) AS BIGINT) AS w_max,
       CAST(SUM(w) AS BIGINT) AS w_total
FROM (
  SELECT lind.*, MAX(seq) OVER (PARTITION BY host) AS mx FROM lind
)
GROUP BY host
"""
