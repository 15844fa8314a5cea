"""Sixtieth-wave operators (round-3 continuation session, 2026-08-21)
— naive Bayes language ID, Merkle integrity root, Cochran's Q.

Listed by name in ``queries.py``'s QUERIES/ORACLES.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# naive_bayes_langid — multinomial NB trained on half the corpus
# ---------------------------------------------------------------------------

_NB_Q = 10**9
# class-conditional support cap — far above any test-scale vocabulary
# (model and confusion matrix are exact vs the SQL oracle); the
# web-scale driver bound: the driver holds ≤ K tokens + ≤ K·C counts
_NB_VOCAB_K = 1 << 18


def _nb_fit_distributed(docs, train_partial, vocab_k: int = _NB_VOCAB_K):
    """Distributed NB fit (r5 — closes the last brief-relevant
    vocabulary-sized driver fold, r4 VERDICT task #1).

    Shape: map-side (class, token) partials → ONE (lang, tok) groupby;
    per-token totals feed ``stages.lmscore._select_vocab``'s exact
    distributed sort+limit (driver ≤ vocab_k rows); the kept-token set
    broadcasts via ``ray.put`` and filters the class-conditional rows
    map-side, so the driver collect is ≤ vocab_k·num_classes rows.
    Priors / per-class totals close with lang-keyed groupbys (≤ C
    rows). V in the Laplace denominator remains the FULL distinct
    vocabulary count (a scalar from the same selection pass), so at
    test scale (vocab < vocab_k) the quantized model is bit-identical
    to the unbounded fit; past the cap, non-kept tokens score as
    unseen — the standard capped-vocabulary NB semantics.

    Returns a plasma ref to (classes, th_sparse, ln_unseen, ln_prior):
    th_sparse holds only NONZERO (class, token) entries — a kept token
    absent from a class quantizes to exactly ln_unseen[c], so
    ``th.get((c, tok), unz[c])`` reproduces the dense model.
    """
    import pyarrow.compute as pc

    from ..stages.lmscore import _select_vocab

    counts = (
        docs.map_batches(train_partial, batch_format="pyarrow")
        .groupby(["lang", "tok"])
        .aggregate(ray.data.aggregate.Sum("c", alias_name="c"))
        .materialize()
    )

    def only_prior(b: pa.Table) -> pa.Table:
        return b.filter(pc.equal(b.column("tok"), "\x00prior"))

    def only_tok(b: pa.Table) -> pa.Table:
        return b.filter(pc.not_equal(b.column("tok"), "\x00prior"))

    prior_rows = counts.map_batches(
        only_prior, batch_format="pyarrow"
    ).take_all()  # bounded: ≤ num_classes rows after the groupby
    prior = {r["lang"]: int(r["c"]) for r in prior_rows}
    classes = sorted(prior)
    n_train = sum(prior.values())

    tokc = counts.map_batches(only_tok, batch_format="pyarrow")
    kept, _tok_total, v_distinct = _select_vocab(
        tokc.groupby("tok")
        .aggregate(ray.data.aggregate.Sum("c", alias_name="c"))
        .rename_columns({"tok": "w"}),
        vocab_k,
    )
    V = v_distinct
    kept_ref = ray.put(pa.array(sorted(w for w, _ in kept), pa.string()))

    nc_rows = (
        tokc.groupby("lang")
        .aggregate(ray.data.aggregate.Sum("c", alias_name="c"))
        .take_all()  # bounded: ≤ num_classes rows
    )
    nc = {r["lang"]: int(r["c"]) for r in nc_rows}

    def only_kept(b: pa.Table) -> pa.Table:
        return b.filter(
            pc.is_in(b.column("tok"), value_set=ray.get(kept_ref))
        )

    cc_rows = tokc.map_batches(
        only_kept, batch_format="pyarrow"
    ).take_all()  # bounded: ≤ vocab_k × num_classes rows by construction

    # quantized log model: one mirrored ln per nonzero (class, token)
    lnth = {
        (r["lang"], r["tok"]): math.floor(
            math.log(
                float(int(r["c"]) + 1) / float(nc[r["lang"]] + V)
            )
            * float(_NB_Q)
        )
        for r in cc_rows
    }
    ln_unseen = {
        c: math.floor(
            math.log(1.0 / float(nc.get(c, 0) + V)) * float(_NB_Q)
        )
        for c in classes
    }
    lnpi = {
        c: math.floor(
            math.log(float(prior[c]) / float(n_train)) * float(_NB_Q)
        )
        for c in classes
    }
    return ray.put((classes, lnth, ln_unseen, lnpi))


def q_naive_bayes_langid(sf_dir: str):
    """Multinomial naive Bayes language ID trained on the even-doc_id
    half and evaluated on the odd half: Laplace-smoothed token
    likelihoods θ_tc = (c_tc+1)/(n_c+V), class priors from train
    counts, prediction = argmax_c [ln π_c + Σ_t tf·ln θ_tc] — the
    supervised classical baseline beside the repo's heuristic lang_id
    (and, because the synthetic text is en-like vocabulary for EVERY
    metadata lang, an honest measurement of that gap: the confusion
    matrix shows how much signal the tokens actually carry). Output:
    the test confusion matrix (true, pred, n).

    Exactness: every ln θ and ln π quantizes ONCE to an integer
    (⌊ln·10⁹⌋, one mirrored ln per (token, class)); per-doc scores are
    then pure integer dot products — no float fold across tokens;
    argmax ties break lang-ASC. Distributed shape: train counts are a
    map-side (class, token) partial; scoring is a map with the
    V·K-entry quantized model broadcast; the confusion closes with one
    aggregate.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )

    def train_partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        cnt: Counter = Counter()
        prior: Counter = Counter()
        for d, t, l in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("text").to_pylist(),
            batch.column("lang").to_pylist(),
        ):
            if int(d) % 2 != 0:
                continue
            prior[l] += 1
            for tok in (t or "").split():
                cnt[(l, tok)] += 1
        items = sorted(cnt.items())
        return pa.table(
            {
                "lang": pa.array(
                    [k[0] for k, _ in items]
                    + [l for l in sorted(prior)],
                    pa.string(),
                ),
                "tok": pa.array(
                    [k[1] for k, _ in items]
                    + ["\x00prior" for _ in prior],
                    pa.string(),
                ),
                "c": pa.array(
                    [v for _, v in items]
                    + [prior[l] for l in sorted(prior)],
                    pa.int64(),
                ),
            }
        )

    model = _nb_fit_distributed(docs, train_partial)

    def predict(batch: pa.Table) -> pa.Table:
        from collections import Counter

        cls, th, unz, pi = ray.get(model)
        conf: Counter = Counter()
        for d, t, l in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("text").to_pylist(),
            batch.column("lang").to_pylist(),
        ):
            if int(d) % 2 == 0:
                continue
            tf = Counter((t or "").split())
            best = None
            for c in cls:
                s = pi[c]
                for tok, f in tf.items():
                    s += f * th.get((c, tok), unz[c])
                if best is None or (-s, c) < best:
                    best = (-s, c)
            conf[(l, best[1])] += 1
        items = sorted(conf.items())
        return pa.table(
            {
                "true_lang": pa.array([k[0] for k, _ in items], pa.string()),
                "pred_lang": pa.array([k[1] for k, _ in items], pa.string()),
                "n": pa.array([v for _, v in items], pa.int64()),
            }
        )

    rows = (
        docs.map_batches(predict, batch_format="pyarrow")
        .groupby(["true_lang", "pred_lang"])
        .aggregate(ray.data.aggregate.Sum("n", alias_name="n"))
        .take_all()  # bounded: (lang × lang) confusion cells
    )
    rows.sort(key=lambda r: (r["true_lang"], r["pred_lang"]))
    return pa.table(
        {
            "true_lang": pa.array(
                [r["true_lang"] for r in rows], pa.string()
            ),
            "pred_lang": pa.array(
                [r["pred_lang"] for r in rows], pa.string()
            ),
            "n": pa.array([int(r["n"]) for r in rows], pa.int64()),
        }
    )


SQL_NAIVE_BAYES = f"""
WITH tokx AS (
  SELECT doc_id, lang, unnest(regexp_extract_all(text, '\\S+')) AS tok
  FROM documents
),
trainx AS (SELECT * FROM tokx WHERE doc_id % 2 = 0),
prior AS (
  SELECT lang, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS p
  FROM trainx GROUP BY lang
),
ntr AS (SELECT CAST(SUM(p) AS BIGINT) AS n FROM prior),
ctc AS (
  SELECT lang, tok, CAST(COUNT(*) AS BIGINT) AS c
  FROM trainx GROUP BY lang, tok
),
ncc AS (SELECT lang, CAST(SUM(c) AS BIGINT) AS nc FROM ctc GROUP BY lang),
voc AS (SELECT DISTINCT tok FROM ctc),
vv AS (SELECT CAST(COUNT(*) AS BIGINT) AS v FROM voc),
lnth AS MATERIALIZED (
  SELECT p.lang, voc.tok,
         CAST(floor(ln(CAST(COALESCE(ctc.c, 0) + 1 AS DOUBLE)
                       / CAST(ncc.nc + vv.v AS DOUBLE))
                    * {float(_NB_Q)!r}) AS BIGINT) AS lq
  FROM prior p CROSS JOIN voc
  LEFT JOIN ctc ON ctc.lang = p.lang AND ctc.tok = voc.tok
  JOIN ncc ON ncc.lang = p.lang, vv
),
unz AS (
  SELECT ncc.lang,
         CAST(floor(ln(1e0 / CAST(ncc.nc + vv.v AS DOUBLE))
                    * {float(_NB_Q)!r}) AS BIGINT) AS lq
  FROM ncc, vv
),
lnpi AS (
  SELECT prior.lang,
         CAST(floor(ln(CAST(prior.p AS DOUBLE) / CAST(ntr.n AS DOUBLE))
                    * {float(_NB_Q)!r}) AS BIGINT) AS lq
  FROM prior, ntr
),
testtf AS (
  SELECT doc_id, lang, tok, CAST(COUNT(*) AS BIGINT) AS tf
  FROM tokx WHERE doc_id % 2 = 1 GROUP BY doc_id, lang, tok
),
scores AS (
  SELECT t.doc_id, t.lang AS true_lang, p.lang AS cls,
         lnpi.lq
           + CAST(SUM(t.tf * COALESCE(lnth.lq, unz.lq)) AS BIGINT)
           AS s
  FROM testtf t
  CROSS JOIN prior p
  LEFT JOIN lnth ON lnth.lang = p.lang AND lnth.tok = t.tok
  JOIN unz ON unz.lang = p.lang
  JOIN lnpi ON lnpi.lang = p.lang
  GROUP BY t.doc_id, t.lang, p.lang, lnpi.lq
),
pred AS (
  SELECT doc_id, true_lang, cls AS pred_lang,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY s DESC, cls) AS rn
  FROM scores
)
SELECT true_lang, pred_lang, CAST(COUNT(*) AS BIGINT) AS n
FROM pred WHERE rn = 1
GROUP BY true_lang, pred_lang
"""


# ---------------------------------------------------------------------------
# merkle_root — dataset-integrity Merkle tree over document hashes
# ---------------------------------------------------------------------------

_MK_LEVELS = 12  # covers up to 4096 leaves; extra levels are no-ops


def q_merkle_root(sf_dir: str):
    """Merkle root of the documents table: leaf_i = md5(doc_id||'|'||
    md5(text)) in doc_id order, parents = md5(left||right) with odd
    nodes promoted unchanged — the dataset-versioning fingerprint that
    lets two parties prove corpus equality (or locate the differing
    subtree in log n probes) without shipping the data. Output: one
    row with the leaf count and the root hash.

    Exactness: pure md5 string arithmetic, identical in both engines.
    Routed through ``stages.merkle.merkle_root`` — leaf hashing is one
    map; rank assignment is a range-bucket two-level prefix scan and
    each tree level is ONE halving groupby (total shuffled volume
    ≤ 2× the leaf digests, driver holds ≤ num_partitions count rows),
    with the test-locked local fold fast path at test scale.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def leaves(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        hs = [
            hashlib.md5(
                f"{d}|{hashlib.md5((t or '').encode()).hexdigest()}".encode()
            ).hexdigest()
            for d, t in zip(ids, batch.column("text").to_pylist())
        ]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "h": pa.array(hs, pa.string()),
            }
        )

    from ..stages.merkle import merkle_root

    n, root = merkle_root(
        docs.map_batches(leaves, batch_format="pyarrow"),
        key_col="doc_id",
        hash_col="h",
        levels=_MK_LEVELS,
    )
    return pa.table(
        {
            "n_leaves": pa.array([n], pa.int64()),
            "root": pa.array([root], pa.string()),
        }
    )


def _sql_merkle() -> str:
    parts = [
        """
l0 AS (
  SELECT CAST(row_number() OVER (ORDER BY doc_id) - 1 AS BIGINT) AS i,
         md5(doc_id || '|' || md5(text)) AS h
  FROM documents
)"""
    ]
    prev = "l0"
    for k in range(1, _MK_LEVELS + 1):
        parts.append(
            f"""
l{k} AS MATERIALIZED (
  SELECT a.i // 2 AS i,
         CASE WHEN b.h IS NULL THEN a.h ELSE md5(a.h || b.h) END AS h
  FROM {prev} a
  LEFT JOIN {prev} b ON b.i = a.i + 1 AND b.i % 2 = 1
  WHERE a.i % 2 = 0
)"""
        )
        prev = f"l{k}"
    parts.append(
        f"""
rootx AS (SELECT h FROM {prev})
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM l0) AS n_leaves,
       (SELECT h FROM rootx) AS root"""
    )
    return "WITH " + ",".join(parts)


# ---------------------------------------------------------------------------
# cochran_q — Cochran's Q over the three matched quality gates
# ---------------------------------------------------------------------------


def q_cochran_q(sf_dir: str):
    """Cochran's Q test across the THREE matched quality gates
    (gopher, C4, lang='en') — the k-treatment generalization of
    McNemar: with per-doc pass counts R_i and per-gate totals G_j,
    Q = (k−1)·(k·ΣG_j² − (ΣG_j)²) / (k·ΣR_i − ΣR_i²); a large Q means
    the gates pass systematically different fractions of the SAME
    documents. Output: one row with the gate totals, the integer
    numerator/denominator pieces and Q.

    Exactness: all sums are integers from one map partial; Q is the
    single mirrored double division. Distributed shape: the
    quality_gate_funnel kernel map + one 5-integer aggregate.
    """
    import functools

    from ..stages import textstats

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    gopher = functools.partial(textstats.gopher_rules_batch, min_stops=1)

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        langs = batch.column("lang").to_pylist()
        raw = pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array([t or "" for t in texts], pa.string()),
            }
        )
        g1 = gopher(raw).column("keep").to_numpy(zero_copy_only=False)
        structured = pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(
                    [
                        textstats.derive_structured_page(i, t or "")
                        for i, t in zip(ids, texts)
                    ],
                    pa.string(),
                ),
            }
        )
        g2 = (
            textstats.c4_rules_batch(structured)
            .column("keep")
            .to_numpy(zero_copy_only=False)
        )
        g3 = np.array([l == "en" for l in langs], bool)
        r = g1.astype(np.int64) + g2.astype(np.int64) + g3.astype(np.int64)
        return pa.table(
            {
                "g1": pa.array([int(g1.sum())], pa.int64()),
                "g2": pa.array([int(g2.sum())], pa.int64()),
                "g3": pa.array([int(g3.sum())], pa.int64()),
                "sr": pa.array([int(r.sum())], pa.int64()),
                "sr2": pa.array([int((r * r).sum())], pa.int64()),
            }
        )

    names = ("g1", "g2", "g3", "sr", "sr2")
    row = docs.map_batches(partial, batch_format="pyarrow").aggregate(
        *[ray.data.aggregate.Sum(c, alias_name=c) for c in names]
    )
    g1, g2, g3, sr, sr2 = (int(row[c]) for c in names)
    k = 3
    num = (k - 1) * (k * (g1 * g1 + g2 * g2 + g3 * g3) - sr * sr)
    den = k * sr - sr2
    q = float(num) / float(den) if den else None
    return pa.table(
        {
            "g1": pa.array([g1], pa.int64()),
            "g2": pa.array([g2], pa.int64()),
            "g3": pa.array([g3], pa.int64()),
            "q_num": pa.array([num], pa.int64()),
            "q_den": pa.array([den], pa.int64()),
            "q": pa.array([q], pa.float64()),
        }
    )


def _sql_cochran_q(oracles: dict) -> str:
    gopher_sql = oracles["gopher_rules"].strip()
    c4_sql = oracles["c4_rules"].strip()
    return f"""
WITH gf AS ({gopher_sql}),
c4 AS ({c4_sql}),
j AS (
  SELECT CASE WHEN gf.keep THEN 1 ELSE 0 END AS g1,
         CASE WHEN c4.keep THEN 1 ELSE 0 END AS g2,
         CASE WHEN d.lang = 'en' THEN 1 ELSE 0 END AS g3
  FROM documents d
  JOIN gf ON gf.doc_id = d.doc_id
  JOIN c4 ON c4.doc_id = d.doc_id
),
agg AS (
  SELECT CAST(SUM(g1) AS BIGINT) AS g1, CAST(SUM(g2) AS BIGINT) AS g2,
         CAST(SUM(g3) AS BIGINT) AS g3,
         CAST(SUM(g1 + g2 + g3) AS BIGINT) AS sr,
         CAST(SUM((g1 + g2 + g3) * (g1 + g2 + g3)) AS BIGINT) AS sr2
  FROM j
)
SELECT g1, g2, g3,
       2 * (3 * (g1 * g1 + g2 * g2 + g3 * g3) - sr * sr) AS q_num,
       3 * sr - sr2 AS q_den,
       CASE WHEN 3 * sr - sr2 = 0 THEN NULL
            ELSE CAST(2 * (3 * (g1 * g1 + g2 * g2 + g3 * g3) - sr * sr)
                      AS DOUBLE)
                 / CAST(3 * sr - sr2 AS DOUBLE) END AS q
FROM agg
"""
