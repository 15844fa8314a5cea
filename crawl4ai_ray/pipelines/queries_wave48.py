"""Forty-eighth-wave operators (round-3 continuation session,
2026-08-21) — DP release, stylometry, changepoint detection.

Listed by name in ``queries.py``'s QUERIES/ORACLES.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# dp_host_counts — differentially-private release of per-host page counts
# ---------------------------------------------------------------------------

_DP_B = 1.0  # Laplace scale = sensitivity / epsilon = 1 / 1


def q_dp_host_counts(sf_dir: str):
    """ε-differentially-private release of per-host page counts via the
    Laplace mechanism: each count gets Laplace(b = sensitivity/ε = 1/1)
    noise — adding/removing one page changes exactly one host's count
    by 1, and host counts partition the data, so parallel composition
    gives the WHOLE release ε = 1. Noise is drawn by inverse-CDF from a
    seeded md5 uniform (u = (h52 + ½)/2⁵², never 0 or 1), making the
    release deterministic for the oracle while keeping the exact
    Laplace shape. Output: per host the true count (for audit), the
    uniform draw, the noise and the released value.

    Exactness: u < ½ → b·ln(2u), else −b·ln(2(1−u)) — one mirrored ln
    per host, operand-for-operand (libm parity, the pmi_pairs
    discipline). Distributed shape: the pages_per_host map-side partial
    count; noise is a |hosts|-row map.
    """
    from ..functions.urls import hosts_array
    from ..stages.agg import partial_count

    pages = _pages(sf_dir)

    def add_host(batch: pa.Table) -> pa.Table:
        return pa.table({"host": hosts_array(batch.column("url"))})

    counts = partial_count(
        pages.map_batches(add_host, batch_format="pyarrow"), "host"
    ).take_all()  # bounded: one row per host

    hosts = sorted(r["host"] for r in counts)
    byh = {r["host"]: int(r["n"]) for r in counts}
    us, noises, rel = [], [], []
    for h in hosts:
        h52 = int(hashlib.md5(f"dp|{h}".encode()).hexdigest()[:13], 16)
        u = (float(h52) + 0.5) / 4503599627370496.0
        if u < 0.5:
            noise = _DP_B * math.log(2.0 * u)
        else:
            noise = -_DP_B * math.log(2.0 * (1.0 - u))
        us.append(u)
        noises.append(noise)
        rel.append(float(byh[h]) + noise)
    return pa.table(
        {
            "host": pa.array(hosts, pa.string()),
            "n": pa.array([byh[h] for h in hosts], pa.int64()),
            "u": pa.array(us, pa.float64()),
            "noise": pa.array(noises, pa.float64()),
            "released": pa.array(rel, pa.float64()),
        }
    )


def _pages(sf_dir: str):
    from .queries import _pages_ds

    return _pages_ds(sf_dir, columns=["url"])


def _sql_dp_host_counts(sql_pages: str) -> str:
    return f"""
WITH {sql_pages},
c AS (SELECT host, CAST(COUNT(*) AS BIGINT) AS n FROM purl GROUP BY host),
uu AS (
  SELECT host, n,
         (CAST(CAST(('0x' || substr(md5('dp|' || host), 1, 13)) AS BIGINT)
               AS DOUBLE) + 5e-1) / 4503599627370496e0 AS u
  FROM c
)
SELECT host, n, u,
       CASE WHEN u < 5e-1 THEN {_DP_B!r} * ln(2e0 * u)
            ELSE -{_DP_B!r} * ln(2e0 * (1e0 - u)) END AS noise,
       CAST(n AS DOUBLE)
         + CASE WHEN u < 5e-1 THEN {_DP_B!r} * ln(2e0 * u)
                ELSE -{_DP_B!r} * ln(2e0 * (1e0 - u)) END AS released
FROM uu
"""


# ---------------------------------------------------------------------------
# burrows_delta — stylometric distance between sources (Burrows' Delta)
# ---------------------------------------------------------------------------

_BD_TOP = 20
_BD_FQ = 10**12  # relative-frequency fixed point
_BD_TQ = 10**6  # per-term z-difference fixed point


def q_burrows_delta(sf_dir: str):
    """Burrows' Delta between every source pair — the standard
    stylometric attribution distance: take the corpus's {top} most
    frequent tokens, express each source as relative frequencies,
    z-score each feature across sources, Delta(a,b) = mean |z_a − z_b|.
    Low Delta = stylistically-similar sources (mirror feeds, shared
    boilerplate, same generator) — a provenance signal for training-
    data curation. Output: one row per unordered pair with the
    quantized Delta.

    Exactness: ALL arithmetic is integer fixed point — f = c·10¹²//n
    per (source, token), feature mean = Σf//K, variance = Σ(f−mean)²
    (128-bit in SQL), σ quantized after ONE mirrored sqrt, per-term
    |f_a−f_b|·10⁶//σ, Delta = Σterms//M — so the oracle reproduces it
    bit-for-bit with no float fold anywhere. Distributed shape:
    map-side (source, token) Counter partials (bounded by |S|·|vocab|
    per batch — this corpus's vocab is tiny; at open-web scale the
    top-M step would ride the CMS heavy-hitter stage instead); the
    K·M z-score fold is driver arithmetic.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "text"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        cnt: Counter = Counter()
        srcs = batch.column("source").to_pylist()
        for s, t in zip(srcs, batch.column("text").to_pylist()):
            for tok in (t or "").split():
                cnt[(s, tok)] += 1
        items = sorted(cnt.items())
        return pa.table(
            {
                "source": pa.array([k[0] for k, _ in items], pa.string()),
                "tok": pa.array([k[1] for k, _ in items], pa.string()),
                "c": pa.array([v for _, v in items], pa.int64()),
            }
        )

    # distributed (r4: the former vocabulary-sized collect is gone):
    # per-(source, tok) counts stay a Dataset; the driver folds only
    # per-source totals (≤ sources), the exact global top-M (distributed
    # sort+limit), and the K×M filtered cells
    cst_ds = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby(["source", "tok"])
        .aggregate(ray.data.aggregate.Sum("c", alias_name="c"))
        .materialize()
    )
    ns = {
        r["source"]: int(r["c"])
        for r in cst_ds.groupby("source")
        .aggregate(ray.data.aggregate.Sum("c", alias_name="c"))
        .take_all()  # bounded: one row per source
    }
    srcs = sorted(ns)
    K = len(srcs)
    top = [
        r["tok"]
        for r in cst_ds.groupby("tok")
        .aggregate(ray.data.aggregate.Sum("c", alias_name="c"))
        .sort(["c", "tok"], descending=[True, False])
        .limit(_BD_TOP)
        .take_all()  # bounded: exactly the M heavy tokens
    ]
    M = len(top)
    top_ref = ray.put(set(top))

    def only_top(batch: pa.Table) -> pa.Table:
        ts = ray.get(top_ref)
        keep = pa.array([t in ts for t in batch.column("tok").to_pylist()])
        return batch.filter(keep)

    cst = {
        (r["source"], r["tok"]): int(r["c"])
        for r in cst_ds.map_batches(only_top, batch_format="pyarrow")
        .take_all()  # bounded: ≤ K×M cells
    }
    # fixed-point relative frequencies, then integer z-score pieces
    fq = {
        (s, t): cst.get((s, t), 0) * _BD_FQ // ns[s] for s in srcs for t in top
    }
    sig = {}
    for t in top:
        mq = sum(fq[(s, t)] for s in srcs) // K
        vn = sum((fq[(s, t)] - mq) ** 2 for s in srcs)
        sig[t] = max(int(math.floor(math.sqrt(float(vn) / float(K)) + 0.5)), 1)
    aa, bb, dd = [], [], []
    for i, a in enumerate(srcs):
        for b in srcs[i + 1 :]:
            tot = sum(
                abs(fq[(a, t)] - fq[(b, t)]) * _BD_TQ // sig[t] for t in top
            )
            aa.append(a)
            bb.append(b)
            dd.append(tot // M)
    return pa.table(
        {
            "a": pa.array(aa, pa.string()),
            "b": pa.array(bb, pa.string()),
            "delta_q": pa.array(dd, pa.int64()),
        }
    )


SQL_BURROWS_DELTA = f"""
WITH tokx AS (
  SELECT source, unnest(regexp_extract_all(text, '\\S+')) AS tok
  FROM documents
),
cst AS (
  SELECT source, tok, CAST(COUNT(*) AS BIGINT) AS c
  FROM tokx GROUP BY source, tok
),
ns AS (SELECT source, CAST(SUM(c) AS BIGINT) AS n FROM cst GROUP BY source),
kk AS (SELECT CAST(COUNT(*) AS BIGINT) AS k FROM ns),
top AS (
  SELECT tok FROM (
    SELECT tok, CAST(SUM(c) AS BIGINT) AS tc FROM cst GROUP BY tok
    ORDER BY tc DESC, tok LIMIT {_BD_TOP}
  )
),
mm AS (SELECT CAST(COUNT(*) AS BIGINT) AS m FROM top),
f AS (
  SELECT ns.source, top.tok,
         COALESCE(cst.c, 0) * {_BD_FQ} // ns.n AS fq
  FROM ns CROSS JOIN top
  LEFT JOIN cst ON cst.source = ns.source AND cst.tok = top.tok
),
meanq AS (
  SELECT f.tok, CAST(CAST(SUM(f.fq) AS HUGEINT) // kk.k AS BIGINT) AS mq
  FROM f, kk GROUP BY f.tok, kk.k
),
vq AS (
  SELECT f.tok,
         SUM(CAST(f.fq - meanq.mq AS HUGEINT)
             * CAST(f.fq - meanq.mq AS HUGEINT)) AS vn
  FROM f JOIN meanq ON meanq.tok = f.tok GROUP BY f.tok
),
sig AS (
  SELECT vq.tok,
         GREATEST(CAST(floor(sqrt(CAST(vq.vn AS DOUBLE)
                                  / CAST(kk.k AS DOUBLE)) + 5e-1)
                       AS BIGINT), 1) AS sq
  FROM vq, kk
),
pr AS (
  SELECT s1.source AS a, s2.source AS b
  FROM ns s1, ns s2 WHERE s1.source < s2.source
),
terms AS (
  SELECT pr.a, pr.b, abs(fa.fq - fb.fq) * {_BD_TQ} // sig.sq AS t
  FROM pr
  JOIN f fa ON fa.source = pr.a
  JOIN f fb ON fb.source = pr.b AND fb.tok = fa.tok
  JOIN sig ON sig.tok = fa.tok
)
SELECT terms.a, terms.b,
       CAST(CAST(SUM(terms.t) AS HUGEINT) // mm.m AS BIGINT) AS delta_q
FROM terms, mm GROUP BY terms.a, terms.b, mm.m
"""


# ---------------------------------------------------------------------------
# changepoint_binseg — exact least-squares changepoint on hourly counts
# ---------------------------------------------------------------------------

_CP_D = 1 << 20  # cost fixed point
_CP_MQ = 10**6  # mean fixed point


def q_changepoint_binseg(sf_dir: str):
    """Single least-squares changepoint on the hourly event-count
    series (binary segmentation's first split): pick the boundary τ
    minimizing SSE_left + SSE_right — the variance-reduction split
    behind traffic-shift detection (did the crawl/source mix change at
    hour τ?). Output: one row — the boundary hour, segment sizes,
    quantized segment means and the quantized best cost.

    Exactness: SSE_L + SSE_R = [(n_L·S2_L−S_L²)·n_R + (n_R·S2_R−S_R²)
    ·n_L] / (n_L·n_R); the comparison key is that rational quantized by
    ·2²⁰ with 128-bit intermediates, argmin tie → earliest τ — pure
    integers, so both engines pick the identical split. Distributed
    shape: ONE groupby builds the hourly series; the O(T) prefix-sum
    scan over T≈720 bucket rows is driver arithmetic (T grows with
    time, not data volume).
    """
    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts"])

    def hour_partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        us = batch.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        hb = us // 3_600_000_000
        v, c = np.unique(hb, return_counts=True)
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
    hbs = [int(r["hb"]) for r in rows]
    x = [int(r["n"]) for r in rows]
    T = len(x)
    best = None
    SL = S2L = 0
    S = sum(x)
    S2 = sum(v * v for v in x)
    for tau in range(1, T):
        SL += x[tau - 1]
        S2L += x[tau - 1] * x[tau - 1]
        nL, nR = tau, T - tau
        SR, S2R = S - SL, S2 - S2L
        num = (nL * S2L - SL * SL) * nR + (nR * S2R - SR * SR) * nL
        cost_q = num * _CP_D // (nL * nR)
        if best is None or cost_q < best[0]:
            best = (cost_q, tau, nL, nR, SL, SR)
    cost_q, tau, nL, nR, SLb, SRb = best
    return pa.table(
        {
            "tau_hb": pa.array([hbs[tau]], pa.int64()),
            "n_left": pa.array([nL], pa.int64()),
            "n_right": pa.array([nR], pa.int64()),
            "mean_left_q": pa.array([SLb * _CP_MQ // nL], pa.int64()),
            "mean_right_q": pa.array([SRb * _CP_MQ // nR], pa.int64()),
            "cost_q": pa.array([cost_q], pa.int64()),
        }
    )


SQL_CHANGEPOINT_BINSEG = f"""
WITH hseries AS (
  SELECT CAST(epoch(date_trunc('hour', ts)) AS BIGINT) // 3600 AS hb,
         CAST(COUNT(*) AS BIGINT) AS x
  FROM events GROUP BY hb
),
o AS (
  SELECT hb, x,
         row_number() OVER (ORDER BY hb) AS pos,
         CAST(CAST(SUM(x) OVER (ORDER BY hb) AS HUGEINT) AS BIGINT) AS sl,
         CAST(CAST(SUM(x * x) OVER (ORDER BY hb) AS HUGEINT)
              AS BIGINT) AS s2l
  FROM hseries
),
tot AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS t, CAST(SUM(x) AS BIGINT) AS s,
         CAST(SUM(x * x) AS BIGINT) AS s2
  FROM hseries
),
nxt AS (
  SELECT o.pos AS tau, o.sl, o.s2l,
         lead(o.hb) OVER (ORDER BY o.pos) AS tau_hb
  FROM o
),
costs AS (
  SELECT nxt.tau_hb, nxt.tau AS nl, tot.t - nxt.tau AS nr,
         nxt.sl, tot.s - nxt.sl AS sr,
         CAST((CAST(nxt.tau AS HUGEINT) * nxt.s2l
               - CAST(nxt.sl AS HUGEINT) * nxt.sl)
                * (tot.t - nxt.tau)
              + (CAST(tot.t - nxt.tau AS HUGEINT) * (tot.s2 - nxt.s2l)
                 - CAST(tot.s - nxt.sl AS HUGEINT) * (tot.s - nxt.sl))
                * nxt.tau AS HUGEINT) * {_CP_D}
           // (CAST(nxt.tau AS HUGEINT) * (tot.t - nxt.tau)) AS cost_q
  FROM nxt, tot
  WHERE nxt.tau < tot.t
)
SELECT tau_hb,
       CAST(nl AS BIGINT) AS n_left,
       CAST(nr AS BIGINT) AS n_right,
       CAST(CAST(sl AS HUGEINT) * {_CP_MQ} // nl AS BIGINT)
         AS mean_left_q,
       CAST(CAST(sr AS HUGEINT) * {_CP_MQ} // nr AS BIGINT)
         AS mean_right_q,
       CAST(cost_q AS BIGINT) AS cost_q
FROM costs
ORDER BY cost_q, tau_hb
LIMIT 1
"""
