"""Forty-seventh-wave operators (round-3 continuation session,
2026-08-21) — cache modeling, preference ranking, optimal stopping.

Listed by name in ``queries.py``'s QUERIES/ORACLES.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# lru_mrc — Mattson LRU stack-distance histogram + miss-ratio curve
# ---------------------------------------------------------------------------


def q_lru_mrc(sf_dir: str, rate_num: int = 1, rate_den: int = 1):
    """LRU stack-distance histogram and miss-ratio curve (Mattson) over
    the event stream: treating events ordered by event_id as accesses
    keyed by user_id, each re-access's stack distance is 1 + the number
    of DISTINCT other keys touched since its previous access — an LRU
    cache of size C hits the access iff distance ≤ C, so ONE pass yields
    the hit ratio at EVERY cache size (the classic inclusion-property
    result). First accesses are cold misses (dist = -1). Output: one row
    per distinct distance with its count and the cumulative hit ratio
    (cold rows contribute 0 to hits).

    Distributed shape (SHARDS, Waldspurger et al. FAST'15): spatial
    key-hash sampling (keep key iff md5-slice(key) % rate_den <
    rate_num — an SQL-mirrorable spatial hash, the wave-24 discipline)
    is the scale path — reuse distances computed on the key-sampled
    stream are unbiased after R = rate_den/rate_num scaling, so the
    materialized sample is SMALL BY CONSTRUCTION at any corpus size.
    Here: per-key occurrence lists built by one distributed groupby;
    the sampled index is broadcast once via ray.put; distances are
    counted per-query-batch with K vectorized searchsorted passes (no
    python loop over accesses); ONE groupby closes the histogram.
    When sampling is active the output ``dist`` column IS rescaled to
    full-stream units (``dist_sampled · rate_den // rate_num`` — the
    SHARDS contract; r3 advice: callers previously got sampled-unit
    distances with no marker); counts stay raw sampled counts, so
    ``hit_ratio`` (a ratio) needs no scaling. Cold misses stay -1.
    Registered twice: ``lru_mrc`` at rate 1/1 (the exact DuckDB
    correlated-COUNT(DISTINCT) oracle) and ``lru_mrc_sampled`` at rate
    1/4, whose oracle applies the SAME md5 predicate + rescale — the
    scale path is oracle-exercised, not demo-only.
    """
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id"]
    )

    if rate_num < rate_den:

        def sample(batch: pa.Table) -> pa.Table:
            uid = batch.column("user_id").to_numpy(zero_copy_only=False)
            keep = np.array(
                [
                    int(hashlib.md5(f"mrc|{int(u)}".encode()).hexdigest()[:8], 16)
                    % rate_den
                    < rate_num
                    for u in uid
                ],
                bool,
            )
            return batch.filter(pa.array(keep))

        ev = ev.map_batches(sample, batch_format="pyarrow")

    def occ_lists(df: pa.Table) -> pa.Table:
        # arrow-native (r5)
        df = df.sort_by("event_id")
        return pa.table(
            {
                "user_id": pa.array(
                    [int(df.column("user_id")[0].as_py())], pa.int64()
                ),
                "occ": pa.array(
                    [
                        df.column("event_id")
                        .to_numpy(zero_copy_only=False)
                        .astype(np.int64)
                        .tolist()
                    ],
                    pa.list_(pa.int64()),
                ),
            }
        )

    occ_rows = (
        ev.groupby("user_id")
        .map_groups(occ_lists, batch_format="pyarrow")
        .take_all()  # scale-note: full-rate key index (the rate-1/1 exact-oracle variant; lru_mrc_sampled exercises the SHARDS-sampled scale path)
    )
    # sampled per-key occurrence index: SMALL by the SHARDS contract;
    # broadcast once, read zero-copy in every distance batch
    occs = [np.asarray(r["occ"], np.int64) for r in occ_rows]
    n_cold = len(occs)
    occ_ref = ray.put(occs)

    # reuse intervals (prev, cur) per key, emitted as one vectorized
    # table per key pair-set
    ps, cs = [], []
    for o in occs:
        if len(o) > 1:
            ps.append(o[:-1])
            cs.append(o[1:])
    if ps:
        queries = ray.data.from_arrow(
            pa.table(
                {
                    "p": pa.array(np.concatenate(ps), pa.int64()),
                    "c": pa.array(np.concatenate(cs), pa.int64()),
                }
            )
        )

        def distances(batch: pa.Table) -> pa.Table:
            olists = ray.get(occ_ref)
            p = batch.column("p").to_numpy(zero_copy_only=False)
            c = batch.column("c").to_numpy(zero_copy_only=False)
            d = np.zeros(len(p), np.int64)
            for o in olists:
                # first occurrence of this key strictly after p; the
                # key contributes iff it lands strictly inside (p, c)
                idx = np.searchsorted(o, p, side="right")
                fa = np.where(idx < len(o), o[np.minimum(idx, len(o) - 1)], np.iinfo(np.int64).max)
                d += (fa < c).astype(np.int64)
            return pa.table({"dist": pa.array(d + 1, pa.int64())})

        hist_rows = (
            queries.map_batches(distances, batch_format="pyarrow")
            .groupby("dist")
            .aggregate(ray.data.aggregate.Count(alias_name="n"))
            .take_all()  # bounded: one row per dist (bounded key domain)
        )
    else:
        hist_rows = []

    hist = {int(r["dist"]): int(r["n"]) for r in hist_rows}
    if n_cold:
        hist[-1] = n_cold
    dists = sorted(hist)
    total = sum(hist.values())
    out_d, out_n, out_r = [], [], []
    cum_hits = 0
    for dval in dists:
        if dval >= 0:
            cum_hits += hist[dval]
        # SHARDS rescale to full-stream units when sampling is active
        # (-1 cold sentinel passes through); integer-exact
        out_d.append(dval * rate_den // rate_num if dval >= 0 else dval)
        out_n.append(hist[dval])
        out_r.append(float(cum_hits) / float(total))
    return pa.table(
        {
            "dist": pa.array(out_d, pa.int64()),
            "n": pa.array(out_n, pa.int64()),
            "hit_ratio": pa.array(out_r, pa.float64()),
        }
    )


SQL_LRU_MRC = """
WITH acc AS (
  SELECT event_id AS pos, user_id,
         lag(event_id) OVER (PARTITION BY user_id ORDER BY event_id) AS prev
  FROM events
),
d AS (
  SELECT CASE WHEN prev IS NULL THEN CAST(-1 AS BIGINT)
              ELSE CAST((SELECT COUNT(DISTINCT e2.user_id) FROM events e2
                         WHERE e2.event_id > acc.prev
                           AND e2.event_id < acc.pos) + 1 AS BIGINT)
         END AS dist
  FROM acc
),
h AS (SELECT dist, CAST(COUNT(*) AS BIGINT) AS n FROM d GROUP BY dist),
t AS (SELECT CAST(SUM(n) AS BIGINT) AS total FROM h)
SELECT h.dist, h.n,
       CAST(CAST(SUM(CASE WHEN h.dist >= 0 THEN h.n ELSE 0 END)
                 OVER (ORDER BY h.dist) AS BIGINT) AS DOUBLE)
         / CAST(t.total AS DOUBLE) AS hit_ratio
FROM h, t
"""


# ---------------------------------------------------------------------------
# bradley_terry — preference ranking of sources from pairwise duels
# ---------------------------------------------------------------------------

_BT_SCALE = 100_000
_BT_ITERS = 15


def q_bradley_terry(sf_dir: str):
    """Bradley–Terry preference strengths over sources: every cross-
    source document pair is a duel won by the longer document (strict
    n_chars comparison; ties count for neither side — the standard BT
    wins-matrix convention), and the source strengths p solve the
    Zermelo fixed point p_a = W_a / Σ_b n_ab/(p_a+p_b) — the model
    behind pairwise preference data (RLHF comparisons, search
    interleaving). Output: per source its total wins, duel count, the
    quantized strength after {iters} iterations and the final rank.

    Exactness: the O(n²) duel count reduces to per-source length
    histograms + prefix sums (ONE distributed map-side partial count;
    only (source, n_chars, count) rows leave the map); the fixed point
    runs in pure integer arithmetic — each term n_ab·S²//(p_a+p_b),
    then W_a·S²//D_a, then a S-rescale — so the unrolled DuckDB CTE
    chain reproduces it bit-for-bit (no float fold order anywhere).
    Overflow bound (r3 advice: the old S=1e6 left only ~7.8× headroom
    at sf0.1 and would overflow the BIGINT oracle near sf1): with
    S=1e5, wtot·S² < 2^63 holds up to wtot ≈ 9.2e8 wins per source
    (~775× headroom at sf0.1, safely past sf1); a ValueError guard
    asserts the bound so a silent-divergence regime can't produce a
    Python result the BIGINT oracle would reject.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "n_chars"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        # arrow-native (r5): lexsorted (source, n_chars) run counts
        srcs = np.asarray(batch.column("source").to_pylist(), dtype=object)
        nch = batch.column("n_chars").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        o = np.lexsort((nch, srcs))
        srcs, nch = srcs[o], nch[o]
        newrun = np.r_[
            True, (srcs[1:] != srcs[:-1]) | (nch[1:] != nch[:-1])
        ] if len(srcs) else np.zeros(0, bool)
        run_id = np.cumsum(newrun) - 1
        cnt = np.bincount(run_id).astype(np.int64) if len(srcs) else np.zeros(0, np.int64)
        return pa.table(
            {
                "source": pa.array(srcs[newrun].tolist(), pa.string()),
                "n_chars": pa.array(nch[newrun], pa.int64()),
                "cnt": pa.array(cnt, pa.int64()),
            }
        )

    parts = docs.map_batches(partial, batch_format="pyarrow").take_all()  # bounded: (source × distinct length) cells
    agg: dict[tuple[str, int], int] = {}
    for r in parts:
        k = (r["source"], int(r["n_chars"]))
        agg[k] = agg.get(k, 0) + int(r["cnt"])
    srcs = sorted({s for s, _ in agg})
    ksrc = len(srcs)
    # per-source sorted unique lengths + counts + prefix sums
    per = {}
    for s in srcs:
        vals = sorted(v for (ss, v) in agg if ss == s)
        cnts = np.array([agg[(s, v)] for v in vals], np.int64)
        per[s] = (np.array(vals, np.int64), cnts, np.concatenate([[0], np.cumsum(cnts)]))
    # wins[a][b] = sum_x h_a[x] * (# b-docs with length < x)
    wins = {}
    for a in srcs:
        va, ca, _ = per[a]
        for b in srcs:
            if a == b:
                continue
            vb, _, pb = per[b]
            idx = np.searchsorted(vb, va, side="left")
            wins[(a, b)] = int(np.sum(ca * pb[idx]))
    S = _BT_SCALE
    S2 = S * S
    p = {s: S for s in srcs}
    wtot = {a: sum(wins[(a, b)] for b in srcs if b != a) for a in srcs}
    # explicit BIGINT-parity guard: the SQL oracle computes wtot*S^2 and
    # nab*S^2 in int64 -- refuse the regime where Python's arbitrary
    # precision would silently diverge from it
    worst = max(
        [wtot[a] for a in srcs]
        + [wins[(a, b)] + wins[(b, a)] for a in srcs for b in srcs if a != b],
        default=0,
    )
    if worst * S2 >= 1 << 63:
        raise ValueError(
            f"bradley_terry: wins total {worst} * S^2 overflows int64 -- "
            "reduce _BT_SCALE or pre-normalize wins"
        )
    for _ in range(_BT_ITERS):
        pn = {}
        for a in srcs:
            d = 0
            for b in srcs:
                if b == a:
                    continue
                nab = wins[(a, b)] + wins[(b, a)]
                d += nab * S2 // max(p[a] + p[b], 1)
            pn[a] = wtot[a] * S2 // max(d, 1)
        tot = sum(pn.values())
        p = {a: pn[a] * (ksrc * S) // max(tot, 1) for a in srcs}
    order = sorted(srcs, key=lambda s: (-p[s], s))
    rank = {s: i + 1 for i, s in enumerate(order)}
    n_duels = {
        a: sum(wins[(a, b)] + wins[(b, a)] for b in srcs if b != a)
        for a in srcs
    }
    return pa.table(
        {
            "source": pa.array(srcs, pa.string()),
            "wins": pa.array([wtot[s] for s in srcs], pa.int64()),
            "n_duels": pa.array([n_duels[s] for s in srcs], pa.int64()),
            "p_q": pa.array([p[s] for s in srcs], pa.int64()),
            "rank": pa.array([rank[s] for s in srcs], pa.int64()),
        }
    )


def _sql_bradley_terry() -> str:
    S = _BT_SCALE
    S2 = S * S
    parts = [
        f"""
srcs AS (SELECT DISTINCT source FROM documents),
kk AS (SELECT CAST(COUNT(*) AS BIGINT) AS k FROM srcs),
wraw AS (
  SELECT d1.source AS a, d2.source AS b, CAST(COUNT(*) AS BIGINT) AS w
  FROM documents d1 JOIN documents d2
    ON d1.source <> d2.source AND d1.n_chars > d2.n_chars
  GROUP BY d1.source, d2.source
),
pairs AS (
  SELECT s1.source AS a, s2.source AS b
  FROM srcs s1, srcs s2 WHERE s1.source <> s2.source
),
nw AS MATERIALIZED (
  SELECT p.a, p.b,
         COALESCE(w1.w, 0) AS wab,
         COALESCE(w1.w, 0) + COALESCE(w2.w, 0) AS nab
  FROM pairs p
  LEFT JOIN wraw w1 ON w1.a = p.a AND w1.b = p.b
  LEFT JOIN wraw w2 ON w2.a = p.b AND w2.b = p.a
),
it0 AS (SELECT source, CAST({S} AS BIGINT) AS p FROM srcs)"""
    ]
    prev = "it0"
    for k in range(1, _BT_ITERS + 1):
        parts.append(
            f"""
it{k}r AS MATERIALIZED (
  SELECT t.source,
         CAST(t.wtot * {S2} // GREATEST(t.d, 1) AS BIGINT) AS p
  FROM (
    SELECT nw.a AS source,
           CAST(SUM(nw.wab) AS BIGINT) AS wtot,
           CAST(SUM(nw.nab * {S2} // GREATEST(pa.p + pb.p, 1))
                AS BIGINT) AS d
    FROM nw JOIN {prev} pa ON pa.source = nw.a
            JOIN {prev} pb ON pb.source = nw.b
    GROUP BY nw.a
  ) t
),
it{k} AS MATERIALIZED (
  SELECT r.source,
         CAST(r.p * (kk.k * {S})
              // GREATEST((SELECT CAST(SUM(p) AS BIGINT) FROM it{k}r), 1)
              AS BIGINT) AS p
  FROM it{k}r r, kk
)"""
        )
        prev = f"it{k}"
    parts.append(
        f"""
wt AS (
  SELECT a AS source, CAST(SUM(wab) AS BIGINT) AS wins,
         CAST(SUM(nab) AS BIGINT) AS n_duels
  FROM nw GROUP BY a
)
SELECT wt.source, wt.wins, wt.n_duels, fin.p AS p_q,
       CAST(row_number() OVER (ORDER BY fin.p DESC, wt.source)
            AS BIGINT) AS rank
FROM wt JOIN {prev} fin ON fin.source = wt.source"""
    )
    return "WITH " + ",".join(parts)


# ---------------------------------------------------------------------------
# secretary_admission — optimal-stopping (1/e rule) crawl admission
# ---------------------------------------------------------------------------

_SEC_E_NUM = 367879  # floor(m / e) ~= m * 367879 // 1000000
_SEC_E_DEN = 1_000_000


def q_secretary_admission(sf_dir: str):
    """Secretary-problem admission per host: scanning each host's pages
    in doc_id order with an md5-derived quality score, observe the first
    r = ⌊m·0.367879⌋ pages without committing, then admit the FIRST page
    that beats everything observed (falling back to the last page) —
    the 1/e optimal-stopping rule, i.e. "when to stop sampling a host
    and lock in a representative page". Output: per host the stream
    length, the observation cutoff, the admitted page, the true best
    page and whether the rule found it (succeeds ~37% of hosts in the
    classical limit).

    Exactness: quality = first 12 md5 hex digits (48-bit int, both
    engines); the cutoff is one integer multiply-divide; all
    comparisons strict. Distributed shape: the sessionize plan —
    hash(host)%16 buckets, ONE shuffle, fully vectorized per-host
    numpy passes inside each bucket (prefix max + first-exceed argmax).
    """
    from ..functions.urls import hosts_array
    from .queries import _pages_ds

    pages = _pages_ds(sf_dir, columns=["url"])

    def tag(batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        hosts = hosts_array(batch.column("url")).to_pylist()
        ids = [int(u.rsplit("/", 1)[1]) for u in urls]
        q = [
            int(hashlib.md5(f"sec|{u}".encode()).hexdigest()[:12], 16)
            for u in urls
        ]
        return pa.table(
            {
                "bucket": pa.array(
                    [int(h.split(".")[0][4:]) % 16 for h in hosts], pa.int64()
                ),
                "host": pa.array(hosts, pa.string()),
                "doc_id": pa.array(ids, pa.int64()),
                "q": pa.array(q, pa.int64()),
            }
        )

    def per_bucket(g: pa.Table) -> pa.Table:
        # arrow-native (r5): lexsorted (host, doc_id) runs
        out = {
            "host": [],
            "m": [],
            "r": [],
            "chosen_doc": [],
            "chosen_q": [],
            "best_doc": [],
            "best_q": [],
            "success": [],
        }
        hosts_a = np.asarray(g.column("host").to_pylist(), dtype=object)
        ids_a = g.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        q_a = g.column("q").to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.lexsort((ids_a, hosts_a))
        hosts_a, ids_a, q_a = hosts_a[o], ids_a[o], q_a[o]
        starts = np.flatnonzero(np.r_[True, hosts_a[1:] != hosts_a[:-1]]) if len(hosts_a) else np.zeros(0, np.int64)
        ends = np.r_[starts[1:], len(hosts_a)] if len(hosts_a) else np.zeros(0, np.int64)
        for s, t in zip(starts, ends):
            host = hosts_a[s]
            q = q_a[s:t]
            ids = ids_a[s:t]
            m = len(q)
            r = m * _SEC_E_NUM // _SEC_E_DEN
            if r > 0:
                premax = int(q[:r].max())
                beats = np.nonzero(q[r:] > premax)[0]
                ci = r + int(beats[0]) if len(beats) else m - 1
            else:
                ci = 0
            bi = int(np.argmax(q))  # first (lowest doc_id) max
            out["host"].append(host)
            out["m"].append(m)
            out["r"].append(r)
            out["chosen_doc"].append(int(ids[ci]))
            out["chosen_q"].append(int(q[ci]))
            out["best_doc"].append(int(ids[bi]))
            out["best_q"].append(int(q[bi]))
            out["success"].append(int(ids[ci] == ids[bi]))
        return pa.table(
            {
                "host": pa.array(out["host"], pa.string()),
                "m": pa.array(out["m"], pa.int64()),
                "r": pa.array(out["r"], pa.int64()),
                "chosen_doc": pa.array(out["chosen_doc"], pa.int64()),
                "chosen_q": pa.array(out["chosen_q"], pa.int64()),
                "best_doc": pa.array(out["best_doc"], pa.int64()),
                "best_q": pa.array(out["best_q"], pa.int64()),
                "success": pa.array(out["success"], pa.int64()),
            }
        )

    return (
        pages.map_batches(tag, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
    )


def _sql_secretary(sql_pages: str) -> str:
    return f"""
WITH {sql_pages},
s AS (
  SELECT host, doc_id,
         CAST(('0x' || substr(md5('sec|' || url), 1, 12)) AS BIGINT) AS q,
         row_number() OVER (PARTITION BY host ORDER BY doc_id) AS pos,
         COUNT(*) OVER (PARTITION BY host) AS m
  FROM purl
),
s2 AS (
  SELECT s.*, CAST(m * {_SEC_E_NUM} // {_SEC_E_DEN} AS BIGINT) AS r
  FROM s
),
s3 AS (
  SELECT s2.*,
         MAX(CASE WHEN pos <= r THEN q END)
           OVER (PARTITION BY host) AS premax
  FROM s2
),
s4 AS (
  SELECT s3.*,
         MIN(CASE WHEN pos > r AND (premax IS NULL OR q > premax)
                  THEN pos END)
           OVER (PARTITION BY host) AS cpos
  FROM s3
),
ch AS (
  SELECT host, CAST(m AS BIGINT) AS m, r,
         doc_id AS chosen_doc, q AS chosen_q
  FROM s4 WHERE pos = COALESCE(cpos, CASE WHEN r > 0 THEN m ELSE 1 END)
),
best AS (
  SELECT host, doc_id AS best_doc, q AS best_q
  FROM (SELECT host, doc_id, q,
               row_number() OVER (PARTITION BY host
                                  ORDER BY q DESC, doc_id) AS rn
        FROM s)
  WHERE rn = 1
)
SELECT ch.host, ch.m, ch.r, ch.chosen_doc, ch.chosen_q,
       best.best_doc, best.best_q,
       CAST(CASE WHEN ch.chosen_doc = best.best_doc THEN 1 ELSE 0 END
            AS BIGINT) AS success
FROM ch JOIN best USING (host)
"""


SQL_LRU_MRC_SAMPLED = """
WITH sev AS (
  SELECT event_id, user_id FROM events
  WHERE CAST(('0x' || substr(md5('mrc|' || user_id), 1, 8)) AS BIGINT)
        % 4 < 1
),
acc AS (
  SELECT event_id AS pos, user_id,
         lag(event_id) OVER (PARTITION BY user_id ORDER BY event_id) AS prev
  FROM sev
),
d AS (
  SELECT CASE WHEN prev IS NULL THEN CAST(-1 AS BIGINT)
              ELSE CAST(((SELECT COUNT(DISTINCT e2.user_id) FROM sev e2
                          WHERE e2.event_id > acc.prev
                            AND e2.event_id < acc.pos) + 1) * 4
                        AS BIGINT)
         END AS dist
  FROM acc
),
h AS (SELECT dist, CAST(COUNT(*) AS BIGINT) AS n FROM d GROUP BY dist),
t AS (SELECT CAST(SUM(n) AS BIGINT) AS total FROM h)
SELECT h.dist, h.n,
       CAST(CAST(SUM(CASE WHEN h.dist >= 0 THEN h.n ELSE 0 END)
                 OVER (ORDER BY h.dist) AS BIGINT) AS DOUBLE)
         / CAST(t.total AS DOUBLE) AS hit_ratio
FROM h, t
"""


def q_lru_mrc_sampled(sf_dir: str):
    """SHARDS scale path of ``lru_mrc``, oracle-exercised: spatial
    md5-key sampling at rate 1/4, distances rescaled ×4 to full-stream
    units (see q_lru_mrc docstring)."""
    return q_lru_mrc(sf_dir, rate_num=1, rate_den=4)
