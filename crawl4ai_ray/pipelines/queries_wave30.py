"""Thirtieth-wave operators (round-3 continuation session, 2026-08-20).

Listed by name in ``queries.py``'s QUERIES/ORACLES. f1_threshold_sweep nests the
fellegi_sunter oracle as a CTE at registration.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# kneser_ney_bigrams — interpolated Kneser-Ney bigram probabilities
# ---------------------------------------------------------------------------

_KN_D = 0.75
_KN_TOP = 50


def q_kneser_ney_bigrams(sf_dir: str):
    """Interpolated Kneser–Ney bigram probabilities — the standard
    n-gram smoothing (Kneser & Ney 1995; Chen & Goodman's benchmark
    winner) that backs off to CONTINUATION counts (in how many distinct
    contexts does w appear) rather than raw unigram frequency:

        P(w2|w1) = max(c(w1w2) − D, 0)/c(w1·)
                 + D·N1+(w1·)/c(w1·) · N1+(·w2)/|bigram types|

    Output: the top-50 bigrams by (count DESC, w1, w2) with their
    component counts and the quantized probability. Every term is a
    pure function of integer counts, so the one float expression per
    row is mirrored operand-for-operand and quantized — no
    order-sensitive float folds anywhere.

    Distributed shape: per-batch bigram Counter partials → ONE
    groupby(w1, w2); the three marginal tables (c(w1·), N1+(w1·),
    N1+(·w2), type count) fold from that aggregate and broadcast back
    into a map (the broadcast-aggregate-back pattern) — sized by
    |vocab|, not the corpus.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        cnt: dict[tuple, int] = {}
        for t in batch.column("text").to_pylist():
            toks = (t or "").split()
            for i in range(len(toks) - 1):
                k = (toks[i], toks[i + 1])
                cnt[k] = cnt.get(k, 0) + 1
        ks = sorted(cnt)
        return pa.table(
            {
                "w1": pa.array([k[0] for k in ks], pa.string()),
                "w2": pa.array([k[1] for k in ks], pa.string()),
                "c": pa.array([cnt[k] for k in ks], pa.int64()),
            }
        )

    big = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby(["w1", "w2"])
        .aggregate(ray.data.aggregate.Sum("c", alias_name="c"))
        .materialize()
    )
    # r4: the bigram-vocabulary collect is gone — exact top-K via
    # distributed sort+limit; n_types via ONE count; marginals computed
    # distributed and collected ONLY for the top rows' w1/w2 sets
    n_types = big.count()
    top = (
        big.sort(["c", "w1", "w2"], descending=[True, False, False])
        .limit(_KN_TOP)
        .take_all()  # bounded: exactly the K bigram rows
    )
    w1s = ray.put({r["w1"] for r in top})
    w2s = ray.put({r["w2"] for r in top})

    def keep_w1(batch: pa.Table) -> pa.Table:
        ks = ray.get(w1s)
        return batch.filter(
            pa.array([w in ks for w in batch.column("w1").to_pylist()])
        )

    def keep_w2(batch: pa.Table) -> pa.Table:
        ks = ray.get(w2s)
        return batch.filter(
            pa.array([w in ks for w in batch.column("w2").to_pylist()])
        )

    fwd = {
        r["w1"]: (int(r["c_ctx"]), int(r["n1"]))
        for r in big.map_batches(keep_w1, batch_format="pyarrow")
        .groupby("w1")
        .aggregate(
            ray.data.aggregate.Sum("c", alias_name="c_ctx"),
            ray.data.aggregate.Count(alias_name="n1"),
        )
        .take_all()  # bounded: ≤ K distinct w1 rows
    }
    n1_bwd = {
        r["w2"]: int(r["n1"])
        for r in big.map_batches(keep_w2, batch_format="pyarrow")
        .groupby("w2")
        .aggregate(ray.data.aggregate.Count(alias_name="n1"))
        .take_all()  # bounded: ≤ K distinct w2 rows
    }
    c_w1 = {w: v[0] for w, v in fwd.items()}
    n1_fwd = {w: v[1] for w, v in fwd.items()}
    out = {"w1": [], "w2": [], "c": [], "c_ctx": [], "n1_fwd": [],
           "n1_bwd": [], "kn_q": []}
    for r in top:
        w1, w2, c = r["w1"], r["w2"], int(r["c"])
        cc = c_w1[w1]
        nf = n1_fwd[w1]
        nb = n1_bwd[w2]
        p = max(float(c) - _KN_D, 0.0) / float(cc) + _KN_D * float(
            nf
        ) / float(cc) * (float(nb) / float(n_types))
        out["w1"].append(w1)
        out["w2"].append(w2)
        out["c"].append(c)
        out["c_ctx"].append(cc)
        out["n1_fwd"].append(nf)
        out["n1_bwd"].append(nb)
        out["kn_q"].append(math.floor(p * 1e12 + 0.5))
    return pa.table(
        {
            "w1": pa.array(out["w1"], pa.string()),
            "w2": pa.array(out["w2"], pa.string()),
            "c": pa.array(out["c"], pa.int64()),
            "c_ctx": pa.array(out["c_ctx"], pa.int64()),
            "n1_fwd": pa.array(out["n1_fwd"], pa.int64()),
            "n1_bwd": pa.array(out["n1_bwd"], pa.int64()),
            "kn_q": pa.array(out["kn_q"], pa.int64()),
        }
    )


SQL_KNESER_NEY_BIGRAMS = rf"""
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS t
  FROM documents
),
bg AS MATERIALIZED (
  SELECT t[i] AS w1, t[i + 1] AS w2, CAST(COUNT(*) AS BIGINT) AS c
  FROM toks, LATERAL UNNEST(generate_series(1, len(t) - 1)) AS s(i)
  GROUP BY t[i], t[i + 1]
),
m1 AS (
  SELECT w1, CAST(SUM(c) AS BIGINT) AS c_ctx,
         CAST(COUNT(*) AS BIGINT) AS n1_fwd
  FROM bg GROUP BY w1
),
m2 AS (SELECT w2, CAST(COUNT(*) AS BIGINT) AS n1_bwd FROM bg GROUP BY w2),
tt AS (SELECT CAST(COUNT(*) AS BIGINT) AS n_types FROM bg),
r AS (
  SELECT bg.w1, bg.w2, bg.c, m1.c_ctx, m1.n1_fwd, m2.n1_bwd,
         row_number() OVER (ORDER BY bg.c DESC, bg.w1, bg.w2) AS rn,
         CAST(floor((GREATEST(CAST(bg.c AS DOUBLE) - {_KN_D!r}, 0e0)
                       / CAST(m1.c_ctx AS DOUBLE)
                     + {_KN_D!r} * CAST(m1.n1_fwd AS DOUBLE)
                       / CAST(m1.c_ctx AS DOUBLE)
                       * (CAST(m2.n1_bwd AS DOUBLE)
                          / CAST(tt.n_types AS DOUBLE))) * 1e12 + 5e-1)
              AS BIGINT) AS kn_q
  FROM bg JOIN m1 USING (w1) JOIN m2 USING (w2) CROSS JOIN tt
)
SELECT w1, w2, c, c_ctx, n1_fwd, n1_bwd, kn_q
FROM r WHERE rn <= {_KN_TOP}
"""


# ---------------------------------------------------------------------------
# good_turing_vocab — unseen-mass and species-richness estimators
# ---------------------------------------------------------------------------


def q_good_turing_vocab(sf_dir: str):
    """Good–Turing unseen-probability mass and Chao1 species richness
    over the corpus vocabulary: P(unseen) ≈ N₁/N (singleton types /
    tokens) and Chao1 = V + N₁²/(2·N₂) — the two standard answers to
    "how much vocabulary has this crawl NOT seen yet", i.e. whether
    more crawling still buys coverage (the estimator sibling of
    vocab_growth / heaps_fit).

    Distributed shape: per-batch token Counter partials → ONE
    groupby(token) → the count-of-counts fold is over ≤ |vocab| rows.
    All outputs are integer counts plus two mirrored divisions.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        cnt: dict[str, int] = {}
        for t in batch.column("text").to_pylist():
            for tok in (t or "").split():
                cnt[tok] = cnt.get(tok, 0) + 1
        ks = sorted(cnt)
        return pa.table(
            {
                "tok": pa.array(ks, pa.string()),
                "c": pa.array([cnt[k] for k in ks], pa.int64()),
            }
        )

    # count-of-counts histogram: the driver folds one row per DISTINCT
    # FREQUENCY (≤ O(√n tokens)), never the vocabulary (r4)
    hist = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("tok")
        .aggregate(ray.data.aggregate.Sum("c", alias_name="c"))
        .groupby("c")
        .aggregate(ray.data.aggregate.Count(alias_name="m"))
        .take_all()  # bounded: count-of-counts cells
    )
    v = sum(int(r["m"]) for r in hist)
    n = sum(int(r["c"]) * int(r["m"]) for r in hist)
    n1 = sum(int(r["m"]) for r in hist if int(r["c"]) == 1)
    n2 = sum(int(r["m"]) for r in hist if int(r["c"]) == 2)
    p0 = float(n1) / float(n) if n else 0.0
    chao1 = (
        float(v) + float(n1 * n1) / float(2 * n2) if n2 else float(v)
    )
    return pa.table(
        {
            "v_types": pa.array([v], pa.int64()),
            "n_tokens": pa.array([n], pa.int64()),
            "n1": pa.array([n1], pa.int64()),
            "n2": pa.array([n2], pa.int64()),
            "p_unseen": pa.array([p0], pa.float64()),
            "chao1": pa.array([chao1], pa.float64()),
        }
    )


SQL_GOOD_TURING_VOCAB = r"""
WITH tk AS (
  SELECT unnest(list_filter(regexp_split_to_array(text, '\s+'),
                            x -> x <> '')) AS tok
  FROM documents
),
cnt AS (SELECT tok, CAST(COUNT(*) AS BIGINT) AS c FROM tk GROUP BY tok),
s AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS v,
         CAST(SUM(c) AS BIGINT) AS n,
         CAST(SUM(CASE WHEN c = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n1,
         CAST(SUM(CASE WHEN c = 2 THEN 1 ELSE 0 END) AS BIGINT) AS n2
  FROM cnt
)
SELECT v AS v_types, n AS n_tokens, n1, n2,
       CASE WHEN n = 0 THEN 0e0
            ELSE CAST(n1 AS DOUBLE) / CAST(n AS DOUBLE) END AS p_unseen,
       CASE WHEN n2 = 0 THEN CAST(v AS DOUBLE)
            ELSE CAST(v AS DOUBLE)
                 + CAST(n1 * n1 AS DOUBLE) / CAST(2 * n2 AS DOUBLE)
       END AS chao1
FROM s
"""


# ---------------------------------------------------------------------------
# f1_threshold_sweep — precision/recall/F1 across linkage-score cutoffs
# ---------------------------------------------------------------------------


def q_f1_threshold_sweep(sf_dir: str):
    """Operating-point selection for the Fellegi–Sunter linkage scores:
    for every distinct score value t (the only thresholds where the
    confusion matrix changes), classify pairs with score ≥ t as
    matches and report TP/FP/FN, precision, recall and F1 — plus a
    best flag on the F1-argmax row (ties → larger threshold). The
    final step of every classifier-on-pairs pipeline.

    Exactness: F1 = 2·TP / (2·TP + FP + FN) — ONE division straight
    from integer counts (never precision/recall composed, which would
    stack three float ops); the argmax compares those exact doubles.

    Distributed shape: per-batch (score, is_match) count partials →
    ONE groupby; the threshold sweep folds over ≤ |distinct scores|
    rows on the driver (8 combinations of 3 binary fields).
    """
    from .queries_wave29 import q_fellegi_sunter

    scored = q_fellegi_sunter(sf_dir)

    def partial(batch: pa.Table) -> pa.Table:
        df = (
            pd.DataFrame(
                {
                    "score_q": batch.column("score_q").to_numpy(
                        zero_copy_only=False
                    ),
                    "is_match": batch.column("is_match").to_numpy(
                        zero_copy_only=False
                    ),
                }
            )
            .groupby(["score_q", "is_match"], sort=True)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "score_q": pa.array(
                    df["score_q"].to_numpy(np.int64), pa.int64()
                ),
                "is_match": pa.array(
                    df["is_match"].to_numpy(np.int64), pa.int64()
                ),
                "n": pa.array(df["n"].to_numpy(np.int64), pa.int64()),
            }
        )

    rows = (
        scored.map_batches(partial, batch_format="pyarrow")
        .groupby(["score_q", "is_match"])
        .aggregate(ray.data.aggregate.Sum("n", alias_name="n"))
        .take_all()  # bounded: (quantized score × label) cells
    )
    pos = {}
    neg = {}
    for r in rows:
        (pos if int(r["is_match"]) == 1 else neg)[int(r["score_q"])] = int(
            r["n"]
        )
    total_pos = sum(pos.values())
    thresholds = sorted(set(pos) | set(neg))
    out = {
        "threshold_q": [], "tp": [], "fp": [], "fn": [],
        "precision": [], "recall": [], "f1": [],
    }
    for t in thresholds:
        tp = sum(v for k, v in pos.items() if k >= t)
        fp = sum(v for k, v in neg.items() if k >= t)
        fn = total_pos - tp
        out["threshold_q"].append(t)
        out["tp"].append(tp)
        out["fp"].append(fp)
        out["fn"].append(fn)
        out["precision"].append(
            float(tp) / float(tp + fp) if tp + fp else 0.0
        )
        out["recall"].append(
            float(tp) / float(total_pos) if total_pos else 0.0
        )
        out["f1"].append(
            2.0 * float(tp) / float(2 * tp + fp + fn)
            if 2 * tp + fp + fn
            else 0.0
        )
    best_i = max(
        range(len(thresholds)),
        key=lambda i: (out["f1"][i], out["threshold_q"][i]),
    )
    best = [int(i == best_i) for i in range(len(thresholds))]
    return pa.table(
        {
            "threshold_q": pa.array(out["threshold_q"], pa.int64()),
            "tp": pa.array(out["tp"], pa.int64()),
            "fp": pa.array(out["fp"], pa.int64()),
            "fn": pa.array(out["fn"], pa.int64()),
            "precision": pa.array(out["precision"], pa.float64()),
            "recall": pa.array(out["recall"], pa.float64()),
            "f1": pa.array(out["f1"], pa.float64()),
            "best": pa.array(best, pa.int64()),
        }
    )


def _sql_f1_threshold_sweep(oracles: dict) -> str:
    return f"""
WITH scored AS MATERIALIZED ({oracles["fellegi_sunter"].strip()}),
th AS (SELECT DISTINCT score_q AS t FROM scored),
tot AS (SELECT CAST(SUM(is_match) AS BIGINT) AS p FROM scored),
conf AS (
  SELECT th.t,
         CAST(SUM(CASE WHEN s.score_q >= th.t AND s.is_match = 1
                       THEN 1 ELSE 0 END) AS BIGINT) AS tp,
         CAST(SUM(CASE WHEN s.score_q >= th.t AND s.is_match = 0
                       THEN 1 ELSE 0 END) AS BIGINT) AS fp
  FROM th, scored s GROUP BY th.t
),
m AS (
  SELECT conf.t AS threshold_q, conf.tp, conf.fp,
         tot.p - conf.tp AS fn,
         CASE WHEN conf.tp + conf.fp = 0 THEN 0e0
              ELSE CAST(conf.tp AS DOUBLE)
                   / CAST(conf.tp + conf.fp AS DOUBLE) END AS precision,
         CASE WHEN tot.p = 0 THEN 0e0
              ELSE CAST(conf.tp AS DOUBLE) / CAST(tot.p AS DOUBLE)
         END AS recall,
         CASE WHEN 2 * conf.tp + conf.fp + (tot.p - conf.tp) = 0 THEN 0e0
              ELSE 2e0 * CAST(conf.tp AS DOUBLE)
                   / CAST(2 * conf.tp + conf.fp + (tot.p - conf.tp)
                          AS DOUBLE) END AS f1
  FROM conf, tot
),
rk AS (
  SELECT m.*, row_number() OVER (ORDER BY f1 DESC, threshold_q DESC) AS rn
  FROM m
)
SELECT threshold_q, tp, fp, fn, precision, recall, f1,
       CAST(CASE WHEN rn = 1 THEN 1 ELSE 0 END AS BIGINT) AS best
FROM rk
"""
