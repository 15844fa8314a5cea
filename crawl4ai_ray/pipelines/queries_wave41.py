"""Forty-first-wave operators (round-3 continuation session,
2026-08-20) — text-generation-eval wave.

Listed by name in ``queries.py``'s QUERIES/ORACLES.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

import ray


def _ngrams(toks: list, n: int) -> dict:
    out: dict[tuple, int] = {}
    for i in range(len(toks) - n + 1):
        g = tuple(toks[i : i + n])
        out[g] = out.get(g, 0) + 1
    return out


def _clipped_overlap(cand: dict, ref: dict) -> int:
    return sum(min(c, ref.get(g, 0)) for g, c in cand.items())


# ---------------------------------------------------------------------------
# rouge_pairs — ROUGE-1/2 of extractive summaries vs their documents
# ---------------------------------------------------------------------------

_RG_STRIDE = 13
_RG_SUMMARY_TOKENS = 15


def q_rouge_pairs(sf_dir: str):
    """ROUGE-1 and ROUGE-2 for the planted extractive-summary family
    (every 13th doc's first 15 tokens as the candidate summary, the
    full doc as reference): clipped n-gram overlap, candidate/reference
    counts and F1 = 2·ov/(n_cand + n_ref) — the summarization-eval
    metric computed the exact clipped-count way (Lin 2004). One row per
    (doc, n).

    Exactness: every count is an integer; F1 is the one mirrored
    division. Distributed shape: pure map — each pair is row-local.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def score(batch: pa.Table) -> pa.Table:
        out = {k: [] for k in ("doc_id", "n", "overlap", "n_cand", "n_ref", "f1")}
        for did, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            if did % _RG_STRIDE != 0:
                continue
            ref = (t or "").split()
            cand = ref[:_RG_SUMMARY_TOKENS]
            for n in (1, 2):
                cg = _ngrams(cand, n)
                rg = _ngrams(ref, n)
                ov = _clipped_overlap(cg, rg)
                nc = sum(cg.values())
                nr = sum(rg.values())
                if nc + nr == 0:
                    continue
                out["doc_id"].append(did)
                out["n"].append(n)
                out["overlap"].append(ov)
                out["n_cand"].append(nc)
                out["n_ref"].append(nr)
                out["f1"].append(2.0 * float(ov) / float(nc + nr))
        return pa.table(
            {
                "doc_id": pa.array(out["doc_id"], pa.int64()),
                "n": pa.array(out["n"], pa.int64()),
                "overlap": pa.array(out["overlap"], pa.int64()),
                "n_cand": pa.array(out["n_cand"], pa.int64()),
                "n_ref": pa.array(out["n_ref"], pa.int64()),
                "f1": pa.array(out["f1"], pa.float64()),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow")


SQL_ROUGE_PAIRS = rf"""
WITH base AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS ref
  FROM documents WHERE doc_id % {_RG_STRIDE} = 0
),
pairs AS (
  SELECT doc_id, ref, ref[1:{_RG_SUMMARY_TOKENS}] AS cand FROM base
),
ns(n) AS (VALUES (1), (2)),
cg AS (
  SELECT p.doc_id, ns.n,
         array_to_string(p.cand[i:i + ns.n - 1], ' ') AS g,
         CAST(COUNT(*) AS BIGINT) AS c
  FROM pairs p, ns,
       LATERAL UNNEST(generate_series(1, len(p.cand) - ns.n + 1)) AS s(i)
  GROUP BY p.doc_id, ns.n, array_to_string(p.cand[i:i + ns.n - 1], ' ')
),
rg AS (
  SELECT p.doc_id, ns.n,
         array_to_string(p.ref[i:i + ns.n - 1], ' ') AS g,
         CAST(COUNT(*) AS BIGINT) AS c
  FROM pairs p, ns,
       LATERAL UNNEST(generate_series(1, len(p.ref) - ns.n + 1)) AS s(i)
  GROUP BY p.doc_id, ns.n, array_to_string(p.ref[i:i + ns.n - 1], ' ')
),
ov AS (
  SELECT cg.doc_id, cg.n,
         CAST(SUM(LEAST(cg.c, COALESCE(rg.c, 0))) AS BIGINT) AS overlap
  FROM cg LEFT JOIN rg ON rg.doc_id = cg.doc_id AND rg.n = cg.n
                       AND rg.g = cg.g
  GROUP BY cg.doc_id, cg.n
),
cnt AS (
  SELECT doc_id, n, CAST(SUM(c) AS BIGINT) AS n_cand FROM cg GROUP BY 1, 2
),
rcnt AS (
  SELECT doc_id, n, CAST(SUM(c) AS BIGINT) AS n_ref FROM rg GROUP BY 1, 2
)
SELECT ov.doc_id, CAST(ov.n AS BIGINT) AS n, ov.overlap,
       cnt.n_cand, rcnt.n_ref,
       2e0 * CAST(ov.overlap AS DOUBLE)
         / CAST(cnt.n_cand + rcnt.n_ref AS DOUBLE) AS f1
FROM ov JOIN cnt USING (doc_id, n) JOIN rcnt USING (doc_id, n)
WHERE cnt.n_cand + rcnt.n_ref > 0
"""


# ---------------------------------------------------------------------------
# bleu_pairs — smoothed BLEU-2 of gappy candidates vs their documents
# ---------------------------------------------------------------------------

_BL_STRIDE = 13
_BL_WINDOW = 24  # candidate = first 24 tokens with every 3rd dropped


def q_bleu_pairs(sf_dir: str):
    """Smoothed BLEU-2 for a gappy-candidate family (every 13th doc;
    candidate = its first 24 tokens with every 3rd removed — unigrams
    survive, a third of the bigrams break, so p₂ genuinely varies):
    p₁ = clipped unigram precision, p₂ = (ov₂+1)/(n₂+1) (BLEU+1
    smoothing), BP = exp(1 − r/c) for c < r, BLEU = BP·√(p₁·p₂) —
    the MT metric with its standard smoothing, every exp/sqrt a
    mirrored scalar libm call on exact integer ratios. One row per doc
    with the component counts and the quantized score.

    Distributed shape: pure map — each pair is row-local.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def score(batch: pa.Table) -> pa.Table:
        out = {
            k: []
            for k in (
                "doc_id", "ov1", "n1", "ov2", "n2", "c_len", "r_len",
                "bleu_q",
            )
        }
        for did, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            if did % _BL_STRIDE != 0:
                continue
            ref = (t or "").split()
            window = ref[:_BL_WINDOW]
            cand = [w for i, w in enumerate(window) if i % 3 != 2]
            if len(cand) < 2:
                continue
            ov1 = _clipped_overlap(_ngrams(cand, 1), _ngrams(ref, 1))
            n1 = len(cand)
            ov2 = _clipped_overlap(_ngrams(cand, 2), _ngrams(ref, 2))
            n2 = len(cand) - 1
            p1 = float(ov1) / float(n1)
            p2 = (float(ov2) + 1.0) / (float(n2) + 1.0)
            bp = (
                math.exp(1.0 - float(len(ref)) / float(len(cand)))
                if len(cand) < len(ref)
                else 1.0
            )
            bleu = bp * math.sqrt(p1 * p2)
            out["doc_id"].append(did)
            out["ov1"].append(ov1)
            out["n1"].append(n1)
            out["ov2"].append(ov2)
            out["n2"].append(n2)
            out["c_len"].append(len(cand))
            out["r_len"].append(len(ref))
            out["bleu_q"].append(math.floor(bleu * 1e12 + 0.5))
        return pa.table(
            {
                "doc_id": pa.array(out["doc_id"], pa.int64()),
                "ov1": pa.array(out["ov1"], pa.int64()),
                "n1": pa.array(out["n1"], pa.int64()),
                "ov2": pa.array(out["ov2"], pa.int64()),
                "n2": pa.array(out["n2"], pa.int64()),
                "c_len": pa.array(out["c_len"], pa.int64()),
                "r_len": pa.array(out["r_len"], pa.int64()),
                "bleu_q": pa.array(out["bleu_q"], pa.int64()),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow")


SQL_BLEU_PAIRS = rf"""
WITH base AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS ref
  FROM documents WHERE doc_id % {_BL_STRIDE} = 0
),
cpos AS (
  SELECT doc_id, i, ref[i] AS w
  FROM base,
       LATERAL UNNEST(generate_series(1, LEAST(len(ref), {_BL_WINDOW})))
         AS s(i)
  WHERE (i - 1) % 3 <> 2
),
cagg AS (
  SELECT doc_id, LIST(w ORDER BY i) AS cand FROM cpos GROUP BY doc_id
),
ok AS (
  SELECT base.doc_id, base.ref, cagg.cand
  FROM base JOIN cagg USING (doc_id)
  WHERE len(cagg.cand) >= 2
),
c1 AS (
  SELECT doc_id, cand[i] AS g, CAST(COUNT(*) AS BIGINT) AS c
  FROM ok, LATERAL UNNEST(generate_series(1, len(cand))) AS s(i)
  GROUP BY doc_id, cand[i]
),
r1 AS (
  SELECT doc_id, ref[i] AS g, CAST(COUNT(*) AS BIGINT) AS c
  FROM ok, LATERAL UNNEST(generate_series(1, len(ref))) AS s(i)
  GROUP BY doc_id, ref[i]
),
c2 AS (
  SELECT doc_id, cand[i] || ' ' || cand[i + 1] AS g,
         CAST(COUNT(*) AS BIGINT) AS c
  FROM ok, LATERAL UNNEST(generate_series(1, len(cand) - 1)) AS s(i)
  GROUP BY doc_id, cand[i] || ' ' || cand[i + 1]
),
r2 AS (
  SELECT doc_id, ref[i] || ' ' || ref[i + 1] AS g,
         CAST(COUNT(*) AS BIGINT) AS c
  FROM ok, LATERAL UNNEST(generate_series(1, len(ref) - 1)) AS s(i)
  GROUP BY doc_id, ref[i] || ' ' || ref[i + 1]
),
m AS (
  SELECT ok.doc_id,
         (SELECT CAST(SUM(LEAST(c1.c, COALESCE(r1.c, 0))) AS BIGINT)
          FROM c1 LEFT JOIN r1 ON r1.doc_id = c1.doc_id AND r1.g = c1.g
          WHERE c1.doc_id = ok.doc_id) AS ov1,
         CAST(len(ok.cand) AS BIGINT) AS n1,
         (SELECT CAST(SUM(LEAST(c2.c, COALESCE(r2.c, 0))) AS BIGINT)
          FROM c2 LEFT JOIN r2 ON r2.doc_id = c2.doc_id AND r2.g = c2.g
          WHERE c2.doc_id = ok.doc_id) AS ov2,
         CAST(len(ok.cand) - 1 AS BIGINT) AS n2,
         CAST(len(ok.cand) AS BIGINT) AS c_len,
         CAST(len(ok.ref) AS BIGINT) AS r_len
  FROM ok
)
SELECT doc_id, ov1, n1, ov2, n2, c_len, r_len,
       CAST(floor(
         (CASE WHEN c_len < r_len
               THEN exp(1e0 - CAST(r_len AS DOUBLE) / CAST(c_len AS DOUBLE))
               ELSE 1e0 END)
         * sqrt((CAST(ov1 AS DOUBLE) / CAST(n1 AS DOUBLE))
                * ((CAST(ov2 AS DOUBLE) + 1e0)
                   / (CAST(n2 AS DOUBLE) + 1e0)))
         * 1e12 + 5e-1) AS BIGINT) AS bleu_q
FROM m
"""


# ---------------------------------------------------------------------------
# term_coherence — NPMI coherence of the top document-frequency terms
# ---------------------------------------------------------------------------

_TC_TOP = 10
_TC_EXCLUDE = ("a", "the")


def q_term_coherence(sf_dir: str):
    """Topic-coherence readout: NPMI over all pairs of the top-10
    document-frequency terms (stopword tokens 'a'/'the' excluded) —
    npmi(a,b) = ln(N·df_ab/(df_a·df_b)) / −ln(df_ab/N) over doc-level
    co-occurrence, the standard automatic coherence measure (Bouma
    2009 / Röder et al. 2015) for any induced topic or keyword set.
    Output: one row per pair with the counts and the quantized NPMI,
    plus the pair-set mean on every row.

    Exactness: counts are integers; each NPMI is a mirrored scalar
    libm expression quantized ×1e9; the mean folds the quantized
    integers. Distributed shape: ONE df groupby; the pair co-occurrence
    folds per-batch partial counts over the broadcast 10-term set
    (45 accumulators per batch).
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text"]
    )

    def df_partial(batch: pa.Table) -> pa.Table:
        cnt: dict[str, int] = {}
        for t in batch.column("text").to_pylist():
            for tok in set((t or "").split()):
                cnt[tok] = cnt.get(tok, 0) + 1
        ks = sorted(cnt)
        return pa.table(
            {
                "tok": pa.array(ks, pa.string()),
                "df": pa.array([cnt[k] for k in ks], pa.int64()),
            }
        )

    def drop_excluded(batch: pa.Table) -> pa.Table:
        toks = batch.column("tok").to_pylist()
        keep = pa.array([t not in _TC_EXCLUDE for t in toks])
        return batch.filter(keep)

    # exact top-K terms by (df desc, tok asc) via distributed sort+limit
    # (r4: the former full-vocabulary collect is gone)
    cand = (
        docs.map_batches(df_partial, batch_format="pyarrow")
        .groupby("tok")
        .aggregate(ray.data.aggregate.Sum("df", alias_name="df"))
        .map_batches(drop_excluded, batch_format="pyarrow")
        .sort(["df", "tok"], descending=[True, False])
        .limit(_TC_TOP)
        .take_all()  # bounded: exactly the K candidate terms
    )
    n_docs = docs.count()
    terms = [r["tok"] for r in cand]
    dfs = {r["tok"]: int(r["df"]) for r in cand}
    tref = ray.put(terms)

    def co_partial(batch: pa.Table) -> pa.Table:
        ts = ray.get(tref)
        k = len(ts)
        acc = np.zeros((k, k), np.int64)
        for t in batch.column("text").to_pylist():
            present = [i for i, tok in enumerate(ts) if tok in set((t or "").split())]
            for ii in range(len(present)):
                for jj in range(ii + 1, len(present)):
                    acc[present[ii], present[jj]] += 1
        ij = np.nonzero(acc)
        return pa.table(
            {
                "i": pa.array(ij[0], pa.int64()),
                "j": pa.array(ij[1], pa.int64()),
                "c": pa.array(acc[ij], pa.int64()),
            }
        )

    co = (
        docs.map_batches(co_partial, batch_format="pyarrow")
        .groupby(["i", "j"])
        .aggregate(ray.data.aggregate.Sum("c", alias_name="c"))
        .take_all()  # bounded: (dim × dim) co-occurrence cells
    )
    comap = {(int(r["i"]), int(r["j"])): int(r["c"]) for r in co}
    out = {"term_a": [], "term_b": [], "df_a": [], "df_b": [],
           "df_ab": [], "npmi_q": []}
    qs = []
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            # pair emitted in ALPHABETICAL order (the oracle's a.tok <
            # b.tok) — the selection list is df-ranked, which need not
            # agree (caught by the sf0.001 value hash)
            a, b = sorted((terms[i], terms[j]))
            dab = comap.get((i, j), 0)
            if dab == 0 or dab == n_docs:
                npmi_q = 0 if dab == 0 else 1_000_000_000
            else:
                pmi = math.log(
                    float(n_docs) * float(dab) / (float(dfs[a]) * float(dfs[b]))
                )
                npmi = pmi / -math.log(float(dab) / float(n_docs))
                npmi_q = math.floor(npmi * 1e9 + 0.5)
            out["term_a"].append(a)
            out["term_b"].append(b)
            out["df_a"].append(dfs[a])
            out["df_b"].append(dfs[b])
            out["df_ab"].append(dab)
            out["npmi_q"].append(npmi_q)
            qs.append(npmi_q)
    # float mean, NOT an integer division: npmi_q can be negative and
    # python's // floors while SQL's // need not agree on negatives
    mean_npmi = float(sum(qs)) / float(len(qs))
    out["mean_npmi"] = [mean_npmi] * len(qs)
    return pa.table(
        {
            "term_a": pa.array(out["term_a"], pa.string()),
            "term_b": pa.array(out["term_b"], pa.string()),
            "df_a": pa.array(out["df_a"], pa.int64()),
            "df_b": pa.array(out["df_b"], pa.int64()),
            "df_ab": pa.array(out["df_ab"], pa.int64()),
            "npmi_q": pa.array(out["npmi_q"], pa.int64()),
            "mean_npmi": pa.array(out["mean_npmi"], pa.float64()),
        }
    )


SQL_TERM_COHERENCE = rf"""
WITH dt AS (
  SELECT DISTINCT doc_id,
         unnest(list_filter(regexp_split_to_array(text, '\s+'),
                            x -> x <> '')) AS tok
  FROM documents
),
dfreq AS (SELECT tok, CAST(COUNT(*) AS BIGINT) AS df FROM dt GROUP BY tok),
nn AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM documents),
top AS (
  SELECT tok, df FROM (
    SELECT tok, df,
           row_number() OVER (ORDER BY df DESC, tok) AS rn
    FROM dfreq
    WHERE tok NOT IN ({", ".join(f"'{t}'" for t in _TC_EXCLUDE)})
  ) WHERE rn <= {_TC_TOP}
),
prs AS (
  SELECT a.tok AS term_a, b.tok AS term_b, a.df AS df_a, b.df AS df_b
  FROM top a JOIN top b ON a.tok < b.tok
),
co AS (
  SELECT p.term_a, p.term_b, p.df_a, p.df_b,
         CAST(COUNT(*) AS BIGINT) AS df_ab
  FROM prs p
  JOIN dt x ON x.tok = p.term_a
  JOIN dt y ON y.tok = p.term_b AND y.doc_id = x.doc_id
  GROUP BY p.term_a, p.term_b, p.df_a, p.df_b
),
allp AS (
  SELECT p.term_a, p.term_b, p.df_a, p.df_b,
         COALESCE(co.df_ab, 0) AS df_ab
  FROM prs p LEFT JOIN co USING (term_a, term_b, df_a, df_b)
),
q AS (
  SELECT term_a, term_b, df_a, df_b, df_ab,
         CASE WHEN df_ab = 0 THEN 0
              WHEN df_ab = nn.n THEN 1000000000
              ELSE CAST(floor(
                ln(CAST(nn.n AS DOUBLE) * CAST(df_ab AS DOUBLE)
                   / (CAST(df_a AS DOUBLE) * CAST(df_b AS DOUBLE)))
                / -ln(CAST(df_ab AS DOUBLE) / CAST(nn.n AS DOUBLE))
                * 1e9 + 5e-1) AS BIGINT) END AS npmi_q
  FROM allp, nn
),
mq AS (
  SELECT CAST(SUM(npmi_q) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE) AS m
  FROM q
)
SELECT q.term_a, q.term_b, q.df_a, q.df_b, q.df_ab, q.npmi_q,
       mq.m AS mean_npmi
FROM q, mq
"""
