"""Sixty-third-wave operators (round-3 continuation session,
2026-08-21) — energy distance, sweep-line concurrency, successive
halving.

Listed by name in ``queries.py``'s QUERIES/ORACLES.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

import ray

_W63_Q = 10**6


# ---------------------------------------------------------------------------
# energy_distance — exact two-sample energy statistic
# ---------------------------------------------------------------------------


def _pair_abs_sum(vals, ca, cb):
    """Σ_{x∈A, y∈B} |x−y| from aligned count vectors over the sorted
    support — O(support) via inclusive prefix sums, exact integers."""
    fa = np.cumsum(ca)
    sa = np.cumsum(np.array(vals, dtype=object) * ca)
    fat, sat = int(fa[-1]), int(sa[-1])
    total = 0
    for i, v in enumerate(vals):
        if cb[i] == 0:
            continue
        below = int(v) * int(fa[i]) - int(sa[i])
        above = (sat - int(sa[i])) - int(v) * (fat - int(fa[i]))
        total += int(cb[i]) * (below + above)
    return total


def q_energy_distance(sf_dir: str):
    """Exact two-sample ENERGY distance between en and non-en document
    lengths: E = 2·E|X−Y| − E|X−X'| − E|Y−Y'| — the member of the
    two-sample family (beside split_ks_test and wasserstein_1d) that
    is zero IFF the distributions are identical and generalizes to any
    metric space; here every pairwise-|difference| sum is an EXACT
    integer from prefix sums over the value histogram (never the
    O(n²) pair materialization). Output: one row with the three pair
    sums and the quantized statistic.

    Exactness: E_q = (2·S_xy·mn − S_xx·n² − S_yy·m²)·10⁶ // (m²n²) —
    one integer expression with 128-bit intermediates in SQL.
    Distributed shape: ONE (value, is_en) histogram aggregate; the
    O(support) fold is driver arithmetic.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        # arrow-native (r5): lexsorted (v, is_en) run counts
        v = batch.column("n_chars").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        is_en = np.array(
            [l == "en" for l in batch.column("lang").to_pylist()], np.int64
        )
        o = np.lexsort((is_en, v))
        v, is_en = v[o], is_en[o]
        newrun = np.r_[
            True, (v[1:] != v[:-1]) | (is_en[1:] != is_en[:-1])
        ] if len(v) else np.zeros(0, bool)
        run_id = np.cumsum(newrun) - 1
        c = np.bincount(run_id).astype(np.int64) if len(v) else np.zeros(0, np.int64)
        return pa.table(
            {
                "v": pa.array(v[newrun], pa.int64()),
                "is_en": pa.array(is_en[newrun], pa.int64()),
                "c": pa.array(c, pa.int64()),
            }
        )

    parts = docs.map_batches(partial, batch_format="pyarrow").take_all()  # bounded: value-histogram cells
    hist: dict = {}
    for r in parts:
        k = (int(r["v"]), int(r["is_en"]))
        hist[k] = hist.get(k, 0) + int(r["c"])
    vals = sorted({v for v, _ in hist})
    ca = np.array([hist.get((v, 1), 0) for v in vals], dtype=object)
    cb = np.array([hist.get((v, 0), 0) for v in vals], dtype=object)
    m, n = int(sum(ca)), int(sum(cb))
    sxy = _pair_abs_sum(vals, ca, cb)
    sxx = _pair_abs_sum(vals, ca, ca)
    syy = _pair_abs_sum(vals, cb, cb)
    e_q = (
        (2 * sxy * m * n - sxx * n * n - syy * m * m)
        * _W63_Q
        // (m * m * n * n)
    )
    return pa.table(
        {
            "m_en": pa.array([m], pa.int64()),
            "n_other": pa.array([n], pa.int64()),
            "s_xy": pa.array([sxy], pa.int64()),
            "s_xx": pa.array([sxx], pa.int64()),
            "s_yy": pa.array([syy], pa.int64()),
            "e_q": pa.array([e_q], pa.int64()),
        }
    )


SQL_ENERGY_DISTANCE = f"""
WITH h AS (
  SELECT CAST(n_chars AS BIGINT) AS v,
         CAST(SUM(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS BIGINT)
           AS ca,
         CAST(SUM(CASE WHEN lang <> 'en' THEN 1 ELSE 0 END) AS BIGINT)
           AS cb
  FROM documents GROUP BY n_chars
),
cum AS (
  SELECT v, ca, cb,
         CAST(CAST(SUM(ca) OVER (ORDER BY v) AS HUGEINT) AS BIGINT)
           AS fa,
         CAST(CAST(SUM(v * ca) OVER (ORDER BY v) AS HUGEINT)
              AS BIGINT) AS sa,
         CAST(CAST(SUM(cb) OVER (ORDER BY v) AS HUGEINT) AS BIGINT)
           AS fb,
         CAST(CAST(SUM(v * cb) OVER (ORDER BY v) AS HUGEINT)
              AS BIGINT) AS sb
  FROM h
),
tot AS (
  SELECT CAST(SUM(ca) AS BIGINT) AS m, CAST(SUM(cb) AS BIGINT) AS n,
         CAST(SUM(v * ca) AS BIGINT) AS sat,
         CAST(SUM(v * cb) AS BIGINT) AS sbt
  FROM h
),
sums AS (
  SELECT
    CAST(SUM(cum.cb * ((cum.v * cum.fa - cum.sa)
                       + ((tot.sat - cum.sa)
                          - cum.v * (tot.m - cum.fa)))) AS BIGINT)
      AS sxy,
    CAST(SUM(cum.ca * ((cum.v * cum.fa - cum.sa)
                       + ((tot.sat - cum.sa)
                          - cum.v * (tot.m - cum.fa)))) AS BIGINT)
      AS sxx,
    CAST(SUM(cum.cb * ((cum.v * cum.fb - cum.sb)
                       + ((tot.sbt - cum.sb)
                          - cum.v * (tot.n - cum.fb)))) AS BIGINT)
      AS syy
  FROM cum, tot
)
SELECT tot.m AS m_en, tot.n AS n_other,
       sums.sxy AS s_xy, sums.sxx AS s_xx, sums.syy AS s_yy,
       CAST((2 * CAST(sums.sxy AS HUGEINT) * tot.m * tot.n
             - CAST(sums.sxx AS HUGEINT) * tot.n * tot.n
             - CAST(sums.syy AS HUGEINT) * tot.m * tot.m)
              * {_W63_Q}
            // (CAST(tot.m AS HUGEINT) * tot.m * tot.n * tot.n)
            AS BIGINT) AS e_q
FROM sums, tot
"""


# ---------------------------------------------------------------------------
# peak_concurrency — sweep-line maximum concurrent sessions
# ---------------------------------------------------------------------------

_PC_GAP_US = 1800 * 10**6


def q_peak_concurrency(sf_dir: str):
    """Peak concurrent sessions by sweep line: sessionize each user's
    events at a 30-minute gap, emit (+1 at start, −1 just after end)
    deltas, and the maximum running sum over time is the peak
    concurrency — the capacity number (how many live sessions must
    the serving layer hold at once?) that averages hide. Output: one
    row with the session count, the peak and the earliest time it is
    attained.

    Exactness: session boundaries, delta timestamps and the running
    sum are pure integers (µs); ties at one timestamp apply all deltas
    before reading the level, and the earliest-peak tiebreak is exact.
    Distributed shape: the sessionize plan (hash(user) buckets, one
    shuffle) emits ≤2·sessions deltas; the sorted prefix-max fold is
    driver arithmetic (the two-level scan at open scale).
    """
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "user_id"]
    )

    def tag(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        uid = batch.column("user_id").to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array(uid % 16, pa.int64()),
                "user_id": pa.array(uid, pa.int64()),
                "us": pa.array(us, pa.int64()),
            }
        )

    def per_bucket(g: pa.Table) -> pa.Table:
        # arrow-native (r5): ONE lexsort over (user, ts); session
        # breaks = user change OR gap, fully vectorized
        uid = g.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        us = g.column("us").to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.lexsort((us, uid))
        uid, us = uid[o], us[o]
        if len(uid) == 0:
            z = pa.array([], pa.int64())
            return pa.table({"start": z, "endx": z})
        new_sess = np.r_[
            True,
            (uid[1:] != uid[:-1]) | (np.diff(us) > _PC_GAP_US),
        ]
        s_idx = np.flatnonzero(new_sess)
        e_idx = np.r_[s_idx[1:] - 1, len(us) - 1]
        return pa.table(
            {
                "start": pa.array(us[s_idx], pa.int64()),
                "endx": pa.array(us[e_idx], pa.int64()),
            }
        )

    sess = (
        ev.map_batches(tag, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
        .take_all()  # bounded: one row per bucket (bounded key domain)
    )
    deltas: dict = {}
    for r in sess:
        deltas[int(r["start"])] = deltas.get(int(r["start"]), 0) + 1
        deltas[int(r["endx"]) + 1] = deltas.get(int(r["endx"]) + 1, 0) - 1
    run = peak = 0
    t_peak = None
    for t in sorted(deltas):
        run += deltas[t]
        if run > peak:
            peak = run
            t_peak = t
    return pa.table(
        {
            "n_sessions": pa.array([len(sess)], pa.int64()),
            "peak": pa.array([peak], pa.int64()),
            "t_peak_us": pa.array([t_peak], pa.int64()),
        }
    )


SQL_PEAK_CONCURRENCY = f"""
WITH e AS (
  SELECT user_id, epoch_us(ts) AS us,
         CASE WHEN epoch_us(ts)
                   - lag(epoch_us(ts))
                     OVER (PARTITION BY user_id ORDER BY epoch_us(ts))
                   > {_PC_GAP_US} OR
                   lag(epoch_us(ts))
                     OVER (PARTITION BY user_id ORDER BY epoch_us(ts))
                   IS NULL
              THEN 1 ELSE 0 END AS brk
  FROM events
),
s AS (
  SELECT user_id, us,
         CAST(SUM(brk) OVER (PARTITION BY user_id ORDER BY us)
              AS BIGINT) AS sess
  FROM e
),
sess AS (
  SELECT CAST(MIN(us) AS BIGINT) AS start,
         CAST(MAX(us) AS BIGINT) AS endx
  FROM s GROUP BY user_id, sess
),
deltas AS (
  SELECT t, CAST(SUM(d) AS BIGINT) AS d FROM (
    SELECT start AS t, 1 AS d FROM sess
    UNION ALL SELECT endx + 1, -1 FROM sess
  ) GROUP BY t
),
sweep AS (
  SELECT t,
         CAST(CAST(SUM(d) OVER (ORDER BY t) AS HUGEINT) AS BIGINT)
           AS run
  FROM deltas
),
pk AS (SELECT MAX(run) AS peak FROM sweep)
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM sess) AS n_sessions,
       CAST(pk.peak AS BIGINT) AS peak,
       (SELECT MIN(t) FROM sweep WHERE run = pk.peak) AS t_peak_us
FROM pk
"""


# ---------------------------------------------------------------------------
# successive_halving — best-arm identification over hosts
# ---------------------------------------------------------------------------

_SH_ROUNDS = 4
_SH_BASE_PULLS = 2


def _sh_reward(host_id: int, i: int) -> int:
    noise = int(
        hashlib.md5(f"sh|{host_id}|{i}".encode()).hexdigest()[:8], 16
    ) % 1000
    return noise + 200 * (host_id % 5)  # true mean rises with id%5


def q_successive_halving(sf_dir: str):
    """Successive halving over the host pool: every host is an arm
    whose md5-seeded pull rewards carry a planted 200·(host_id%5) mean
    offset; each of {r} rounds doubles the per-arm pull budget, ranks
    arms by their running mean (EXACT cross-multiplied sum×count
    comparisons, ties → host ASC) and keeps the top half — the
    fixed-budget best-arm routine behind crawl-source triage and
    hyperparameter racing. Output: per host its survival round, pulls
    consumed, exact reward sum and the winner flag.

    Exactness: rewards, sums and the halving schedule are pure
    integers; mean comparisons never divide. Distributed shape: pull
    generation + per-arm partial sums are map work over the host
    table; the ≤log₂|arms| elimination folds are driver arithmetic.
    """
    from ..functions.urls import hosts_array
    from .queries import _pages_ds

    pages = _pages_ds(sf_dir, columns=["url"])

    def host_rows(batch: pa.Table) -> pa.Table:
        hosts = sorted(set(hosts_array(batch.column("url")).to_pylist()))
        return pa.table({"host": pa.array(hosts, pa.string())})

    hosts = sorted(
        r["host"]
        for r in pages.map_batches(host_rows, batch_format="pyarrow")
        .groupby("host")
        .aggregate(ray.data.aggregate.Count(alias_name="c"))
        .take_all()  # bounded: one row per host (bounded key domain)
    )
    alive = list(hosts)
    pulls = {h: 0 for h in hosts}
    sums = {h: 0 for h in hosts}
    survived = {h: 0 for h in hosts}
    budget = _SH_BASE_PULLS
    for rnd in range(1, _SH_ROUNDS + 1):
        for h in alive:
            hid = int(h.split(".")[0][4:])
            for i in range(pulls[h], pulls[h] + budget):
                sums[h] += _sh_reward(hid, i)
            pulls[h] += budget
            survived[h] = rnd
        # equal pulls per round => exact mean order == sum order
        alive = sorted(
            alive,
            key=lambda h: (-(sums[h]), h),  # equal pulls => sums order
        )
        keep = (len(alive) + 1) // 2
        alive = alive[:keep]
        budget *= 2
    winner = alive[0]
    return pa.table(
        {
            "host": pa.array(hosts, pa.string()),
            "survived_rounds": pa.array(
                [survived[h] for h in hosts], pa.int64()
            ),
            "pulls": pa.array([pulls[h] for h in hosts], pa.int64()),
            "reward_sum": pa.array([sums[h] for h in hosts], pa.int64()),
            "winner": pa.array(
                [int(h == winner) for h in hosts], pa.int64()
            ),
        }
    )


def _sql_successive_halving(sql_pages: str) -> str:
    # pull schedule: round r gives 2^r * BASE/2... budgets 2,4,8,16 →
    # cumulative pulls by survival round: 2, 6, 14, 30
    cum = []
    total = 0
    budget = _SH_BASE_PULLS
    for _ in range(_SH_ROUNDS):
        total += budget
        cum.append(total)
        budget *= 2
    rounds_sql = []
    prev_alive = "hosts"
    for rnd in range(1, _SH_ROUNDS + 1):
        rounds_sql.append(
            f"""
s{rnd} AS MATERIALIZED (
  SELECT a.host, a.host_id,
         CAST(SUM(CAST(('0x' || substr(md5('sh|' || a.host_id || '|'
                                            || p.range), 1, 8))
                       AS BIGINT) % 1000
                  + 200 * (a.host_id % 5)) AS BIGINT) AS s
  FROM {prev_alive} a CROSS JOIN range({cum[rnd - 1]}) p
  GROUP BY a.host, a.host_id
),
k{rnd} AS MATERIALIZED (
  SELECT host, host_id FROM s{rnd}
  ORDER BY s DESC, host
  LIMIT (SELECT (COUNT(*) + 1) // 2 FROM s{rnd})
)"""
        )
        prev_alive = f"k{rnd}"
    surv_cases = " ".join(
        f"WHEN hosts.host IN (SELECT host FROM k{r}) THEN {min(r + 1, _SH_ROUNDS)}"
        for r in range(_SH_ROUNDS, 0, -1)
    )
    pull_cases = " ".join(
        f"WHEN hosts.host IN (SELECT host FROM k{r - 1}) THEN {cum[r - 1]}"
        for r in range(_SH_ROUNDS, 1, -1)
    )
    return f"""
WITH {sql_pages},
hosts AS (SELECT DISTINCT host, host_id FROM purl),
{",".join(s.strip() for s in rounds_sql)},
winner AS (SELECT host FROM s{_SH_ROUNDS} ORDER BY s DESC, host LIMIT 1)
SELECT hosts.host,
       CAST(CASE {surv_cases} ELSE 1 END AS BIGINT)
         AS survived_rounds,
       CAST(CASE {pull_cases} ELSE {cum[0]} END AS BIGINT) AS pulls,
       (SELECT CAST(SUM(CAST(('0x' || substr(md5('sh|' || hosts.host_id
                                              || '|' || p.range), 1, 8))
                             AS BIGINT) % 1000
                        + 200 * (hosts.host_id % 5)) AS BIGINT)
        FROM range({cum[-1]}) p
        WHERE p.range < CASE {pull_cases} ELSE {cum[0]} END)
         AS reward_sum,
       CAST(CASE WHEN hosts.host = (SELECT host FROM winner)
                 THEN 1 ELSE 0 END AS BIGINT) AS winner
FROM hosts
"""
