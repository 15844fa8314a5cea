"""Fifteenth-wave operators (round-3 continuation session, 2026-08-20).

Listed by name in ``queries.py``'s QUERIES/ORACLES.

House rules throughout: Arrow batches end to end, map-side partials
before any groupby, broadcast small sides via ``ray.put``, bucketed
union+groupby instead of ``Dataset.join``, and an operand-for-operand
DuckDB oracle for every query (integer accumulation, float divisions
mirrored operand-for-operand, scalar libm for transcendentals,
exponent-form float literals in SQL so they type as DOUBLE directly).
"""

from __future__ import annotations

import math
import re

import numpy as np
import pandas as pd
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# user_survival — discrete hazard table over user activity lifetimes
# ---------------------------------------------------------------------------

_US_DAY_US = 86_400_000_000


def q_user_survival(sf_dir: str):
    """User-churn survival analysis over the event log: per user,
    lifetime = floor((last event − first event) / 1 day); then the
    discrete hazard table — for each observed lifetime d, the number of
    users whose activity ENDS at d (deaths), the number still active at
    d (at-risk = users with lifetime ≥ d), the hazard d(d)/n(d) and the
    survival fraction n(d)/total. The life-table companion of the
    cohort ``retention`` query (retention fixes a cohort window; this
    estimates the lifetime distribution itself).

    Distributed shape: per-batch (user, min_ts, max_ts) partials, ONE
    groupby(user) min/max, a lifetime-day map, ONE groupby(days) count
    — the histogram is ≤ |distinct lifetimes| rows, so the reverse
    cumulative at-risk counts fold on the driver over a provably tiny
    table. All-integer until the two final divisions, mirrored
    operand-for-operand.
    """
    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        uid = batch.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
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

    spans = (
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(
            ray.data.aggregate.Min("mn", alias_name="mn"),
            ray.data.aggregate.Max("mx", alias_name="mx"),
        )
    )

    def days_rows(batch: pa.Table) -> pa.Table:
        mn = batch.column("mn").to_numpy(zero_copy_only=False).astype(np.int64)
        mx = batch.column("mx").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"days": pa.array((mx - mn) // _US_DAY_US, pa.int64())})

    hist = (
        spans.map_batches(days_rows, batch_format="pyarrow")
        .groupby("days")
        .aggregate(ray.data.aggregate.Count(alias_name="n_deaths"))
        .take_all()  # ≤ |distinct lifetime days| — tiny by construction
    )
    hist.sort(key=lambda r: -int(r["days"]))
    total = sum(int(r["n_deaths"]) for r in hist)
    out_d, out_n, out_r = [], [], []
    at_risk = 0
    for r in hist:  # descending days: at_risk = reverse cumsum
        at_risk += int(r["n_deaths"])
        out_d.append(int(r["days"]))
        out_n.append(int(r["n_deaths"]))
        out_r.append(at_risk)
    hazard = [float(n) / float(ar) for n, ar in zip(out_n, out_r)]
    surv = [float(ar) / float(total) for ar in out_r]
    return pa.table(
        {
            "days": pa.array(out_d, pa.int64()),
            "n_deaths": pa.array(out_n, pa.int64()),
            "n_at_risk": pa.array(out_r, pa.int64()),
            "hazard": pa.array(hazard, pa.float64()),
            "survival": pa.array(surv, pa.float64()),
        }
    )


SQL_USER_SURVIVAL = f"""
WITH l AS (
  SELECT user_id,
         (epoch_us(MAX(ts)) - epoch_us(MIN(ts))) // {_US_DAY_US} AS days
  FROM events GROUP BY user_id
),
h AS (
  SELECT days, CAST(COUNT(*) AS BIGINT) AS n_deaths FROM l GROUP BY days
),
t AS (SELECT CAST(COUNT(*) AS BIGINT) AS total FROM l),
r AS (
  SELECT days, n_deaths,
         CAST(SUM(n_deaths) OVER (ORDER BY days DESC) AS BIGINT) AS n_at_risk
  FROM h
)
SELECT days, n_deaths, n_at_risk,
       CAST(n_deaths AS DOUBLE) / CAST(n_at_risk AS DOUBLE) AS hazard,
       CAST(n_at_risk AS DOUBLE) / CAST(t.total AS DOUBLE) AS survival
FROM r, t
"""


# ---------------------------------------------------------------------------
# readability_flesch — Flesch reading-ease quality feature
# ---------------------------------------------------------------------------

_RF_VOWELS = re.compile(r"[aeiouy]+")
_RF_SENT = re.compile(r"[.!?]+")


def q_readability_flesch(sf_dir: str):
    """Flesch reading-ease per document — the classic readability
    quality feature (206.835 − 1.015·W/S − 84.6·SYL/W) with the
    standard cheap proxies: words = whitespace tokens, sentences =
    [.!?]+ runs clamped to ≥ 1, syllables = [aeiouy]+ vowel groups
    (whitespace breaks a run, so counting groups over the whole text
    equals the per-word sum). Sits beside token_stats / quality_counts
    in the stage-1 webtext scoring family.

    Distributed shape: pure map — three compiled regex/str passes per
    doc, integer counts, then the one mirrored float expression
    (constants written in exponent form in SQL so they type as DOUBLE
    directly — the DECIMAL-literal gotcha from NOTES_r3). W = 0 →
    NULL score on both sides.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def score(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        ws, ss, syls, scores = [], [], [], []
        for t in batch.column("text").to_pylist():
            t = t or ""
            low = t.lower()
            w = len(low.split())
            s = max(1, len(_RF_SENT.findall(t)))
            syl = len(_RF_VOWELS.findall(low))
            ws.append(w)
            ss.append(s)
            syls.append(syl)
            if w == 0:
                scores.append(None)
            else:
                scores.append(
                    206.835
                    - 1.015 * (float(w) / float(s))
                    - 84.6 * (float(syl) / float(w))
                )
        return pa.table(
            {
                "doc_id": ids,
                "n_words": pa.array(ws, pa.int64()),
                "n_sentences": pa.array(ss, pa.int64()),
                "n_syllables": pa.array(syls, pa.int64()),
                "flesch": pa.array(scores, pa.float64()),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow")


SQL_READABILITY_FLESCH = r"""
WITH c AS (
  SELECT doc_id,
         CAST(len(list_filter(regexp_split_to_array(lower(text), '\s+'),
                              x -> x <> '')) AS BIGINT) AS w,
         CAST(greatest(1, len(regexp_extract_all(text, '[.!?]+'))) AS BIGINT) AS s,
         CAST(len(regexp_extract_all(lower(text), '[aeiouy]+')) AS BIGINT) AS syl
  FROM documents
)
SELECT doc_id, w AS n_words, s AS n_sentences, syl AS n_syllables,
       CASE WHEN w = 0 THEN NULL
            ELSE 2.06835e2
                 - 1.015e0 * (CAST(w AS DOUBLE) / CAST(s AS DOUBLE))
                 - 8.46e1 * (CAST(syl AS DOUBLE) / CAST(w AS DOUBLE))
       END AS flesch
FROM c
"""


# ---------------------------------------------------------------------------
# degree_powerlaw_mle — Hill/MLE power-law exponent of the degree tail
# ---------------------------------------------------------------------------

_DPL_DMIN = 2


def q_degree_powerlaw_mle(sf_dir: str):
    """Continuous-MLE (Hill) power-law exponent of the link-graph degree
    tail (Clauset–Shalizi–Newman): α = 1 + n / Σᵢ ln(dᵢ/dmin) over
    degrees ≥ dmin = 2, with the standard error σ = (α−1)/√n. The
    scale-free check next to zipf_fit (tokens) and host_gini (host
    skew): a natural web graph has α ≈ 2–3; a templated or truncated
    crawl doesn't.

    Float discipline (the zipf_fit pattern): each ln(d/dmin) is
    fixed-point-quantized to floor(ln·1e9 + 0.5) with scalar libm log;
    the weighted sum Σ cnt·q is an EXACT integer (HUGEINT in SQL), and
    α / σ are the only float operations, mirrored operand-for-operand.

    Distributed shape: degrees via the shared undirected_dedup +
    node_degrees kernels; the degree HISTOGRAM (≤ |distinct degrees|
    rows) is the only thing collected — the ln loop runs over
    distinct degree values, never over nodes.
    """
    from ..stages.graph import node_degrees, undirected_dedup
    from .queries import _synthetic_link_edges

    edges = undirected_dedup(_synthetic_link_edges(sf_dir), "src", "dst")
    degs = node_degrees(edges)
    hist = (
        degs.groupby("deg")
        .aggregate(ray.data.aggregate.Count(alias_name="cnt"))
        .take_all()  # ≤ |distinct degrees| — tiny
    )
    n_tail = 0
    s_q = 0
    for r in hist:
        d, c = int(r["deg"]), int(r["cnt"])
        if d < _DPL_DMIN:
            continue
        n_tail += c
        s_q += c * math.floor(
            math.log(float(d) / float(_DPL_DMIN)) * 1e9 + 0.5
        )
    if s_q == 0:  # empty tail, or every tail degree == dmin: MLE undefined
        alpha = sigma = None
    else:
        alpha = 1.0 + float(n_tail) / (float(s_q) / 1e9)
        sigma = (alpha - 1.0) / math.sqrt(float(n_tail))
    return pa.table(
        {
            "dmin": pa.array([_DPL_DMIN], pa.int64()),
            "n_tail": pa.array([n_tail], pa.int64()),
            "sum_q": pa.array([s_q], pa.int64()),
            "alpha": pa.array([alpha], pa.float64()),
            "sigma": pa.array([sigma], pa.float64()),
        }
    )


SQL_DEGREE_POWERLAW_MLE = f"""
WITH nn AS (SELECT COUNT(*) AS c FROM documents),
child AS (
  SELECT DISTINCT LEAST(src_id, dst_id) AS a, GREATEST(src_id, dst_id) AS b
  FROM (
    SELECT doc_id AS src_id, (2 * doc_id + 1) % nn.c AS dst_id FROM documents, nn
    UNION ALL
    SELECT doc_id, (2 * doc_id + 2) % nn.c FROM documents, nn
    UNION ALL
    SELECT doc_id, (7 * doc_id + 3) % nn.c FROM documents, nn
  )
  WHERE src_id <> dst_id
),
deg AS (
  SELECT node, CAST(COUNT(*) AS BIGINT) AS deg FROM (
    SELECT a AS node FROM child UNION ALL SELECT b FROM child
  ) GROUP BY node
),
hist AS (
  SELECT deg, CAST(COUNT(*) AS BIGINT) AS cnt FROM deg GROUP BY deg
),
tail AS (
  SELECT CAST(SUM(cnt) AS BIGINT) AS n_tail,
         CAST(SUM(CAST(cnt AS HUGEINT)
                  * CAST(floor(ln(CAST(deg AS DOUBLE) / CAST({_DPL_DMIN} AS DOUBLE))
                               * 1e9 + 5e-1) AS HUGEINT)) AS BIGINT) AS sum_q
  FROM hist WHERE deg >= {_DPL_DMIN}
)
SELECT CAST({_DPL_DMIN} AS BIGINT) AS dmin, n_tail, sum_q,
       CASE WHEN sum_q = 0 THEN NULL
            ELSE 1e0 + CAST(n_tail AS DOUBLE) / (CAST(sum_q AS DOUBLE) / 1e9)
       END AS alpha,
       CASE WHEN sum_q = 0 THEN NULL
            ELSE (1e0 + CAST(n_tail AS DOUBLE) / (CAST(sum_q AS DOUBLE) / 1e9)
                  - 1e0) / sqrt(CAST(n_tail AS DOUBLE))
       END AS sigma
FROM tail
"""


# ---------------------------------------------------------------------------
# minhash_lsh_eval — precision/recall of LSH banding vs exact Jaccard
# ---------------------------------------------------------------------------

_MLE_BANDS = 4
_MLE_ROWS = 4  # 4 bands × 4 rows = the 16-perm estimator family
_MLE_THRESHOLDS = (0.5, 0.7, 0.8)


def q_minhash_lsh_eval(sf_dir: str):
    """Candidate-quality evaluation of minhash LSH banding (4 bands ×
    4 rows over the 16-permutation Carter-Wegman family): each doc is
    paired with its planted near-copy (text minus the first token —
    the minhash_estimator pair family), a pair is an LSH CANDIDATE iff
    some band's 4 signature slots all agree, and the exact shingle
    Jaccard is the ground truth. For each threshold j₀ ∈ {0.5, 0.7,
    0.8}: n_true (J ≥ j₀), n_cand, tp/fp/fn and precision/recall — the
    measured operating point of the banding curve 1−(1−s^r)^b that
    dedup_minhash runs on in production.

    Distributed shape: one map computes signatures + band flags + exact
    J per planted pair (pair-local by construction, like the
    estimator); per-batch confusion-count PARTIALS per threshold fold
    map-side, ONE groupby(threshold) sums them — only 3×|batches|
    fixed-width rows ever shuffle. Integer counts; the two divisions
    are mirrored (0-denominator → NULL on both sides).
    """
    from .queries_wave10 import mh_est_coeffs, mh_shingle_hashes, mh_sig

    coeffs_a, coeffs_b = mh_est_coeffs()
    shingle_hashes = mh_shingle_hashes

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def partials(batch: pa.Table) -> pa.Table:
        # per-threshold confusion partials over this batch's planted pairs
        n_pairs = np.zeros(len(_MLE_THRESHOLDS), np.int64)
        n_true = np.zeros_like(n_pairs)
        n_cand = np.zeros_like(n_pairs)
        tp = np.zeros_like(n_pairs)
        for text in batch.column("text").to_pylist():
            toks = (text or "").split()
            xa = shingle_hashes(toks)
            xb = shingle_hashes(toks[1:])
            if len(xa) == 0 or len(xb) == 0:
                continue

            eq = mh_sig(xa, coeffs_a, coeffs_b) == mh_sig(xb, coeffs_a, coeffs_b)
            cand = bool(
                eq.reshape(_MLE_BANDS, _MLE_ROWS).all(axis=1).any()
            )
            sa, sb = set(xa.tolist()), set(xb.tolist())
            j = float(len(sa & sb)) / float(len(sa | sb))
            for k, t in enumerate(_MLE_THRESHOLDS):
                n_pairs[k] += 1
                is_true = j >= t
                n_true[k] += is_true
                n_cand[k] += cand
                tp[k] += cand and is_true
        return pa.table(
            {
                "j_threshold": pa.array(list(_MLE_THRESHOLDS), pa.float64()),
                "n_pairs": pa.array(n_pairs, pa.int64()),
                "n_true": pa.array(n_true, pa.int64()),
                "n_cand": pa.array(n_cand, pa.int64()),
                "tp": pa.array(tp, pa.int64()),
            }
        )

    agg = (
        docs.map_batches(partials, batch_format="pyarrow")
        .groupby("j_threshold")
        .aggregate(
            ray.data.aggregate.Sum("n_pairs", alias_name="n_pairs"),
            ray.data.aggregate.Sum("n_true", alias_name="n_true"),
            ray.data.aggregate.Sum("n_cand", alias_name="n_cand"),
            ray.data.aggregate.Sum("tp", alias_name="tp"),
        )
    )

    def finish(batch: pa.Table) -> pa.Table:
        nt = batch.column("n_true").to_numpy(zero_copy_only=False).astype(np.int64)
        nc = batch.column("n_cand").to_numpy(zero_copy_only=False).astype(np.int64)
        tp_ = batch.column("tp").to_numpy(zero_copy_only=False).astype(np.int64)
        fp = nc - tp_
        fn = nt - tp_
        prec = [
            float(t) / float(c) if c else None for t, c in zip(tp_, nc)
        ]
        rec = [float(t) / float(n) if n else None for t, n in zip(tp_, nt)]
        return pa.table(
            {
                "j_threshold": batch.column("j_threshold"),
                "n_pairs": batch.column("n_pairs").cast(pa.int64()),
                "n_true": pa.array(nt, pa.int64()),
                "n_cand": pa.array(nc, pa.int64()),
                "tp": pa.array(tp_, pa.int64()),
                "fp": pa.array(fp, pa.int64()),
                "fn": pa.array(fn, pa.int64()),
                "precision": pa.array(prec, pa.float64()),
                "recall": pa.array(rec, pa.float64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def _sql_minhash_lsh_eval() -> str:
    from .queries_wave10 import MH_PAIR_SQL_PREFIX, _MH_EST_PERMS, _MH_P

    thresholds = ", ".join(f"({t:.17e})" for t in _MLE_THRESHOLDS)
    return (
        (MH_PAIR_SQL_PREFIX
        + r""",
bandmatch AS (
  SELECT p.a_id, sa.i // {R} AS band,
         MIN(CASE WHEN sa.m = sb.m THEN 1 ELSE 0 END) AS allmatch
  FROM pairs p
  JOIN sigs sa ON sa.id = p.a_id
  JOIN sigs sb ON sb.id = p.b_id AND sb.i = sa.i
  GROUP BY p.a_id, sa.i // {R}
),
cand AS (
  SELECT a_id, CAST(MAX(allmatch) AS BIGINT) AS is_cand
  FROM bandmatch GROUP BY a_id
),
ab AS (
  SELECT p.a_id, s.x,
         MAX(CASE WHEN s.id = p.a_id THEN 1 ELSE 0 END) AS ia,
         MAX(CASE WHEN s.id = p.b_id THEN 1 ELSE 0 END) AS ib
  FROM pairs p JOIN shh s ON s.id IN (p.a_id, p.b_id)
  GROUP BY p.a_id, s.x
),
exact AS (
  SELECT a_id,
         CAST(SUM(ia * ib) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE) AS j
  FROM ab GROUP BY a_id
),
th(j_threshold) AS (VALUES {THS}),
conf AS (
  SELECT th.j_threshold,
         CAST(COUNT(*) AS BIGINT) AS n_pairs,
         CAST(SUM(CASE WHEN e.j >= th.j_threshold THEN 1 ELSE 0 END)
              AS BIGINT) AS n_true,
         CAST(SUM(c.is_cand) AS BIGINT) AS n_cand,
         CAST(SUM(CASE WHEN c.is_cand = 1 AND e.j >= th.j_threshold
                       THEN 1 ELSE 0 END) AS BIGINT) AS tp
  FROM exact e JOIN cand c USING (a_id), th
  GROUP BY th.j_threshold
)
SELECT j_threshold, n_pairs, n_true, n_cand, tp,
       n_cand - tp AS fp, n_true - tp AS fn,
       CASE WHEN n_cand = 0 THEN NULL
            ELSE CAST(tp AS DOUBLE) / CAST(n_cand AS DOUBLE) END AS precision,
       CASE WHEN n_true = 0 THEN NULL
            ELSE CAST(tp AS DOUBLE) / CAST(n_true AS DOUBLE) END AS recall
FROM conf
"""
        )
        .replace("{P}", str(_MH_P))
        .replace("{K}", str(_MH_EST_PERMS))
        .replace("{R}", str(_MLE_ROWS))
        .replace("{THS}", thresholds)
    )
