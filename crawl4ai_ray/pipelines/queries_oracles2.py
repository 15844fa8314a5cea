"""SQL-oracle registry, part 2 of 2: pinned sf0.01 goldens + the late
oracle additions layered onto queries_oracles.ORACLES (same dict object
— mutated in place, import order matters and is owned by queries.py).
"""

from __future__ import annotations

import math  # noqa: F401

import numpy as np  # noqa: F401
import pyarrow as pa  # noqa: F401

import ray  # noqa: F401

from . import queries_oracles as _o1
from . import queries_part1 as _p1
from . import queries_part2 as _p2

# namespace merge (the parts' helpers/SQL fragments AND part-1 oracle
# helpers like _STOP_RE are what these expressions interpolate);
# _o1's ORACLES dict itself also arrives this way and is mutated in place
for _m in (_p1, _p2, _o1):
    globals().update(
        {k: v for k, v in vars(_m).items() if not k.startswith("__")}
    )
del _m

# Pinned sf0.01 golden oracles for the non-SQL-expressible queries
# (hash-valued / iterative / heuristic): deterministic output captured as
# literal VALUES tables by scripts/gen_golden_oracles.py, with an
# independent pure-python recompute where possible (fingerprints). The
# driver's correctness gate runs at sf=0.01, which these pins target.
try:
    from .golden_sf001 import GOLDEN_SQL as _GOLDEN_SQL

    ORACLES.update(_GOLDEN_SQL)
    # These oracles are literal VALUES pinned at sf0.01 — comparing them
    # at any other scale factor is meaningless by construction. Local
    # sweeps at other sfs should skip them, not report MISMATCH.
    GOLDEN_PINNED_SF001 = frozenset(_GOLDEN_SQL)
except ImportError:  # pragma: no cover — before first generation
    GOLDEN_PINNED_SF001 = frozenset()

# the bloom-semijoin variant is exact (bucketed verify kills false
# positives) → same contamination oracle as the broadcast-exact path
ORACLES["decontaminate_bloom"] = ORACLES["decontaminate"]

# Fuzzy (near-dup) decontamination: bench = every 97th doc with its first
# token dropped; gram model identical to the ngram_jaccard_pairs oracle;
# the Jaccard predicate mirrors verify_pairs' judge operand-for-operand
# (float division, not the cross-multiplied form).
ORACLES["decontaminate_fuzzy"] = r"""
WITH ctoks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS t
  FROM documents
),
btoks AS (
  SELECT doc_id, t[2:len(t)] AS t FROM ctoks WHERE doc_id % 97 = 0
),
cgrams AS (
  SELECT DISTINCT doc_id, g
  FROM (
    SELECT doc_id,
      CASE WHEN len(t) < 3 THEN [array_to_string(t, ' ')]
           ELSE [t[i] || ' ' || t[i+1] || ' ' || t[i+2]
                 FOR i IN generate_series(1, len(t) - 2)]
      END AS gl
    FROM ctoks WHERE len(t) > 0
  ), UNNEST(gl) AS u(g)
),
bgrams AS (
  SELECT DISTINCT doc_id, g
  FROM (
    SELECT doc_id,
      CASE WHEN len(t) < 3 THEN [array_to_string(t, ' ')]
           ELSE [t[i] || ' ' || t[i+1] || ' ' || t[i+2]
                 FOR i IN generate_series(1, len(t) - 2)]
      END AS gl
    FROM btoks WHERE len(t) > 0
  ), UNNEST(gl) AS u(g)
),
csz AS (SELECT doc_id, COUNT(*) AS sz FROM cgrams GROUP BY doc_id),
bsz AS (SELECT doc_id, COUNT(*) AS sz FROM bgrams GROUP BY doc_id),
inter AS (
  SELECT cg.doc_id AS a, bg.doc_id AS b, COUNT(*) AS i
  FROM cgrams cg JOIN bgrams bg ON cg.g = bg.g
  GROUP BY 1, 2
),
hits AS (
  SELECT i.a, COUNT(*) AS n
  FROM inter i
  JOIN csz ON csz.doc_id = i.a
  JOIN bsz ON bsz.doc_id = i.b
  WHERE CAST(i.i AS DOUBLE) / (csz.sz + bsz.sz - i.i) >= CAST(0.8 AS DOUBLE)
  GROUP BY i.a
)
SELECT c.doc_id,
       CAST(COALESCE(h.n, 0) AS BIGINT) AS n_fuzzy_matches,
       CAST(CASE WHEN COALESCE(h.n, 0) > 0 THEN 1 ELSE 0 END
            AS BIGINT) AS fuzzy_contaminated
FROM ctoks c LEFT JOIN hits h ON h.a = c.doc_id
"""

# RefinedWeb-style boilerplate line dedup: identical segment model as the
# Ray side (non-overlapping 3-token windows incl. the partial tail;
# whitespace-split tokens), doc-frequency > 2 = boilerplate. Parallel
# unnest(range(...)) zips the per-row segment index; empty-token docs fall
# out of segs and are restored by the LEFT JOIN with ('', 0, 0).
ORACLES["line_dedup"] = r"""
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS t
  FROM documents
),
idxd AS (
  SELECT doc_id, t,
         unnest(range(CAST(ceil(len(t) / 3.0) AS BIGINT))) AS seg_idx
  FROM toks
),
seg2 AS (
  SELECT doc_id, seg_idx,
         array_to_string(list_slice(t, seg_idx * 3 + 1, seg_idx * 3 + 3), ' ') AS seg
  FROM idxd
),
boiler AS (
  SELECT seg
  FROM (SELECT DISTINCT doc_id, seg FROM seg2)
  GROUP BY seg
  HAVING COUNT(*) > 2
),
kept AS (
  SELECT doc_id, seg_idx, seg
  FROM seg2
  WHERE seg NOT IN (SELECT seg FROM boiler)
),
agg AS (
  SELECT doc_id, COUNT(*) AS n_kept,
         string_agg(seg, ' ' ORDER BY seg_idx) AS clean_text
  FROM kept GROUP BY doc_id
),
tot AS (SELECT doc_id, COUNT(*) AS n_seg FROM seg2 GROUP BY doc_id)
SELECT d.doc_id,
       CAST(COALESCE(tot.n_seg, 0) AS BIGINT) AS n_seg,
       CAST(COALESCE(agg.n_kept, 0) AS BIGINT) AS n_kept,
       COALESCE(agg.clean_text, '') AS clean_text
FROM documents d
LEFT JOIN tot USING (doc_id)
LEFT JOIN agg USING (doc_id)
"""

# CCNet-style unigram-LM bucketing: identical model fit (top-16 vocab by
# (count desc, token asc) + one OOV class, add-one smoothing over
# n + v_kept + 1) and the identical per-token fixed-point quantization
# floor(-ln((c+1)/denom) * 1e8 + 0.5) — the per-doc SUM is then pure
# int64, so summation order cannot perturb the value hash.
ORACLES["lm_bucket"] = r"""
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS t
  FROM documents
),
tok AS (SELECT doc_id, unnest(t) AS w FROM toks),
cnt AS (SELECT w, CAST(COUNT(*) AS BIGINT) AS c FROM tok GROUP BY w),
st AS (SELECT CAST(SUM(c) AS BIGINT) AS n, CAST(COUNT(*) AS BIGINT) AS v FROM cnt),
kept AS (SELECT w, c FROM cnt ORDER BY c DESC, w LIMIT 16),
kst AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS vk,
         CAST(COALESCE(SUM(c), 0) AS BIGINT) AS ck
  FROM kept
),
par AS (
  SELECT st.n, kst.vk,
         (st.n - kst.ck) // GREATEST(st.v - kst.vk, 1) AS oov_c,
         st.n + kst.vk + 1 AS denom
  FROM st, kst
),
q AS (
  SELECT w,
         CAST(floor(-ln(CAST(c + 1 AS DOUBLE) / CAST(par.denom AS DOUBLE))
                    * 1e8 + CAST(0.5 AS DOUBLE)) AS BIGINT) AS nq
  FROM kept, par
),
oq AS (
  SELECT CAST(floor(-ln(CAST(par.oov_c + 1 AS DOUBLE) / CAST(par.denom AS DOUBLE))
                    * 1e8 + CAST(0.5 AS DOUBLE)) AS BIGINT) AS nq
  FROM par
),
scored AS (
  SELECT tok.doc_id,
         CAST(SUM(COALESCE(q.nq, (SELECT nq FROM oq))) AS BIGINT) AS nll,
         CAST(COUNT(*) AS BIGINT) AS dl
  FROM tok LEFT JOIN q ON tok.w = q.w
  GROUP BY tok.doc_id
),
m AS (
  SELECT d.doc_id,
         CAST(COALESCE(s.dl, 0) AS BIGINT) AS dl,
         CAST(COALESCE(s.nll, 0) AS BIGINT) AS nll_fixed,
         CAST(CASE WHEN COALESCE(s.dl, 0) = 0 THEN 0
                   ELSE s.nll // s.dl END AS BIGINT) AS mean_nll_fixed
  FROM documents d LEFT JOIN scored s USING (doc_id)
)
SELECT doc_id, dl, nll_fixed, mean_nll_fixed,
       CASE WHEN mean_nll_fixed < 342800000 THEN 'head'
            WHEN mean_nll_fixed < 343500000 THEN 'middle'
            ELSE 'tail' END AS bucket
FROM m
"""

# The flagship four-stage composition, recomputed stage-for-stage:
# quality ≥ 0.5 → 3-token-window boilerplate removal (df > 2 over the
# SURVIVOR corpus, boilerplate-only docs dropped) → exact dedup on the
# cleaned text (min doc_id per distinct clean_text) → unigram-LM bucket
# fit on the DEDUPED cleaned corpus, tail dropped. Same float/integer
# discipline as quality_filter / line_dedup / lm_bucket.
ORACLES["webtext_pipeline"] = rf"""
WITH qc AS (
  SELECT doc_id, text,
         CAST(length(text) AS DOUBLE) AS n_chars,
         CAST(length(regexp_extract_all(text, '\S+')) AS DOUBLE) AS n_tok,
         CAST(length(regexp_extract_all(text, '[.,;:!?]')) AS DOUBLE) AS n_punct,
         CAST(length(regexp_extract_all(text, '[0-9]')) AS DOUBLE) AS n_digit,
         CAST(length(regexp_extract_all(lower(text), '{_STOP_RE}')) AS DOUBLE) AS n_stop
  FROM documents
),
surv AS (
  SELECT doc_id, text FROM qc
  WHERE (LEAST(GREATEST(n_tok / CAST(100.0 AS DOUBLE), CAST(0.0 AS DOUBLE)), CAST(1.0 AS DOUBLE))
     + LEAST(GREATEST(CAST(1.0 AS DOUBLE) - CAST(5.0 AS DOUBLE) * (n_punct + n_digit) / GREATEST(n_chars, CAST(1.0 AS DOUBLE)), CAST(0.0 AS DOUBLE)), CAST(1.0 AS DOUBLE))
     + LEAST(GREATEST(CAST(5.0 AS DOUBLE) * n_stop / GREATEST(n_tok, CAST(1.0 AS DOUBLE)), CAST(0.0 AS DOUBLE)), CAST(1.0 AS DOUBLE))
    ) / CAST(3.0 AS DOUBLE) >= CAST(0.5 AS DOUBLE)
),
toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS t
  FROM surv
),
idxd AS (
  SELECT doc_id, t,
         unnest(range(CAST(ceil(len(t) / 3.0) AS BIGINT))) AS seg_idx
  FROM toks
),
seg2 AS (
  SELECT doc_id, seg_idx,
         array_to_string(list_slice(t, seg_idx * 3 + 1, seg_idx * 3 + 3), ' ') AS seg
  FROM idxd
),
boiler AS (
  SELECT seg FROM (SELECT DISTINCT doc_id, seg FROM seg2)
  GROUP BY seg HAVING COUNT(*) > 2
),
cleaned AS (
  SELECT doc_id, string_agg(seg, ' ' ORDER BY seg_idx) AS clean_text
  FROM seg2 WHERE seg NOT IN (SELECT seg FROM boiler)
  GROUP BY doc_id
),
dedup AS (
  SELECT clean_text, CAST(MIN(doc_id) AS BIGINT) AS doc_id
  FROM cleaned GROUP BY clean_text
),
tok2 AS (
  SELECT doc_id,
         unnest(list_filter(regexp_split_to_array(clean_text, '\s+'), x -> x <> '')) AS w
  FROM dedup
),
cnt AS (SELECT w, CAST(COUNT(*) AS BIGINT) AS c FROM tok2 GROUP BY w),
st AS (SELECT CAST(SUM(c) AS BIGINT) AS n, CAST(COUNT(*) AS BIGINT) AS v FROM cnt),
kept AS (SELECT w, c FROM cnt ORDER BY c DESC, w LIMIT 16),
kst AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS vk,
         CAST(COALESCE(SUM(c), 0) AS BIGINT) AS ck
  FROM kept
),
par AS (
  SELECT st.n, kst.vk,
         (st.n - kst.ck) // GREATEST(st.v - kst.vk, 1) AS oov_c,
         st.n + kst.vk + 1 AS denom
  FROM st, kst
),
q AS (
  SELECT w,
         CAST(floor(-ln(CAST(c + 1 AS DOUBLE) / CAST(par.denom AS DOUBLE))
                    * 1e8 + CAST(0.5 AS DOUBLE)) AS BIGINT) AS nq
  FROM kept, par
),
oq AS (
  SELECT CAST(floor(-ln(CAST(par.oov_c + 1 AS DOUBLE) / CAST(par.denom AS DOUBLE))
                    * 1e8 + CAST(0.5 AS DOUBLE)) AS BIGINT) AS nq
  FROM par
),
scored AS (
  SELECT tok2.doc_id,
         CAST(SUM(COALESCE(q.nq, (SELECT nq FROM oq))) AS BIGINT) AS nll_fixed,
         CAST(COUNT(*) AS BIGINT) AS dl
  FROM tok2 LEFT JOIN q ON tok2.w = q.w
  GROUP BY tok2.doc_id
),
m AS (
  SELECT doc_id, dl, nll_fixed,
         CAST(nll_fixed // dl AS BIGINT) AS mean_nll_fixed
  FROM scored
)
SELECT m.doc_id, m.dl, m.nll_fixed, m.mean_nll_fixed,
       CASE WHEN m.mean_nll_fixed < 342900000 THEN 'head'
            WHEN m.mean_nll_fixed < 343500000 THEN 'middle'
            ELSE 'tail' END AS bucket,
       d.clean_text
FROM m JOIN dedup d ON d.doc_id = m.doc_id
WHERE m.mean_nll_fixed < 343500000
"""


def _kmeans_cte_chain(k: int, iters: int, emb_src: str = "embeddings",
                      prefix: str = "") -> str:
    """Unrolled fixed-point k-means as a CTE chain mirroring
    stages/cluster.py kmeans_fp operand-for-operand: quantize
    floor(v*2^20+0.5) in DOUBLE, integer squared distances, ties to the
    lowest cluster, centroid update floor(SUM::DOUBLE / COUNT) (exact
    while |sum| < 2^53 — DuckDB's // truncates toward zero, so it is NOT
    used), empty clusters carry the previous centroid. AS MATERIALIZED on
    every multi-consumer CTE or DuckDB 1.0 inlines the chain
    exponentially (same gotcha as the logreg oracle)."""
    parts = [
        f"""{prefix}efp AS MATERIALIZED (
  SELECT vec_id,
         CAST(unnest(range(len(embedding))) AS BIGINT) AS dim,
         CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1048576.0
                    + CAST(0.5 AS DOUBLE)) AS BIGINT) AS e
  FROM {emb_src}
),
{prefix}c0 AS MATERIALIZED (SELECT vec_id AS cluster, dim, e AS c FROM {prefix}efp WHERE vec_id < {k})"""
    ]
    for i in range(1, iters + 1):
        parts.append(
            f"""{prefix}d{i} AS (
  SELECT f.vec_id, c.cluster, SUM((f.e - c.c) * (f.e - c.c)) AS d
  FROM {prefix}efp f JOIN {prefix}c{i - 1} c USING (dim) GROUP BY f.vec_id, c.cluster
),
{prefix}a{i} AS MATERIALIZED (
  SELECT vec_id, cluster FROM (
    SELECT vec_id, cluster,
           row_number() OVER (PARTITION BY vec_id ORDER BY d, cluster) AS rn
    FROM {prefix}d{i}) WHERE rn = 1
),
{prefix}c{i} AS MATERIALIZED (
  SELECT prev.cluster, prev.dim, COALESCE(upd.c, prev.c) AS c
  FROM {prefix}c{i - 1} prev LEFT JOIN (
    SELECT a.cluster, f.dim,
           CAST(floor(CAST(SUM(f.e) AS DOUBLE) / COUNT(*)) AS BIGINT) AS c
    FROM {prefix}a{i} a JOIN {prefix}efp f USING (vec_id) GROUP BY a.cluster, f.dim
  ) upd ON prev.cluster = upd.cluster AND prev.dim = upd.dim
)"""
        )
    parts.append(
        f"""{prefix}dfin AS (
  SELECT f.vec_id, c.cluster, SUM((f.e - c.c) * (f.e - c.c)) AS d
  FROM {prefix}efp f JOIN {prefix}c{iters} c USING (dim) GROUP BY f.vec_id, c.cluster
),
{prefix}afinal AS MATERIALIZED (
  SELECT vec_id, cluster, d FROM (
    SELECT vec_id, cluster, d,
           row_number() OVER (PARTITION BY vec_id ORDER BY d, cluster) AS rn
    FROM {prefix}dfin) WHERE rn = 1
)"""
    )
    return ",\n".join(parts)


# PQ-ANN: two prefixed k-means chains (one per 32-dim subspace slice),
# then ADC = per-(query, neighbor) sum of integer squared distances
# query-subvector ↔ the centroid of the neighbor's code, per subspace.
ORACLES["ann_topk_pq"] = f"""
WITH s0 AS MATERIALIZED (
  SELECT vec_id, embedding[1:32] AS embedding FROM embeddings
),
s1 AS MATERIALIZED (
  SELECT vec_id, embedding[33:64] AS embedding FROM embeddings
),
{_kmeans_cte_chain(8, 2, emb_src="s0", prefix="p0_")},
{_kmeans_cte_chain(8, 2, emb_src="s1", prefix="p1_")},
q AS (SELECT vec_id FROM embeddings WHERE vec_id < 5),
dd0 AS MATERIALIZED (
  SELECT q.vec_id AS query_id, a.vec_id AS neighbor_id,
         SUM((f.e - c.c) * (f.e - c.c)) AS d
  FROM q
  JOIN p0_afinal a ON a.vec_id <> q.vec_id
  JOIN p0_efp f ON f.vec_id = q.vec_id
  JOIN p0_c2 c ON c.cluster = a.cluster AND c.dim = f.dim
  GROUP BY 1, 2
),
dd1 AS MATERIALIZED (
  SELECT q.vec_id AS query_id, a.vec_id AS neighbor_id,
         SUM((f.e - c.c) * (f.e - c.c)) AS d
  FROM q
  JOIN p1_afinal a ON a.vec_id <> q.vec_id
  JOIN p1_efp f ON f.vec_id = q.vec_id
  JOIN p1_c2 c ON c.cluster = a.cluster AND c.dim = f.dim
  GROUP BY 1, 2
),
tot AS (
  SELECT query_id, neighbor_id, dd0.d + dd1.d AS d
  FROM dd0 JOIN dd1 USING (query_id, neighbor_id)
),
ranked AS (
  SELECT query_id, neighbor_id, d,
         row_number() OVER (PARTITION BY query_id ORDER BY d, neighbor_id) AS rn
  FROM tot
)
SELECT query_id, neighbor_id, CAST(d AS BIGINT) AS dist_fp,
       CAST(rn AS BIGINT) AS rank
FROM ranked WHERE rn <= 10
"""

# IVF-PQ: the PQ oracle's two subspace chains PLUS a coarse chain over the
# full vectors; per query the cells are ranked by the same integer L2
# (ties -> lower cell), and the ADC ranking only sees neighbors whose
# coarse cell is among the query's nprobe=2 probes. The body is shared
# with the recall oracle below.
_IVFPQ_CTE_BODY = f"""s0 AS MATERIALIZED (
  SELECT vec_id, embedding[1:32] AS embedding FROM embeddings
),
s1 AS MATERIALIZED (
  SELECT vec_id, embedding[33:64] AS embedding FROM embeddings
),
{_kmeans_cte_chain(4, 2, emb_src="embeddings", prefix="cc_")},
{_kmeans_cte_chain(8, 2, emb_src="s0", prefix="p0_")},
{_kmeans_cte_chain(8, 2, emb_src="s1", prefix="p1_")},
q AS (SELECT vec_id FROM embeddings WHERE vec_id < 5),
qcell AS MATERIALIZED (
  SELECT q.vec_id AS query_id, c.cluster AS cell,
         SUM((f.e - c.c) * (f.e - c.c)) AS d
  FROM q
  JOIN cc_efp f ON f.vec_id = q.vec_id
  JOIN cc_c2 c ON c.dim = f.dim
  GROUP BY 1, 2
),
probes AS MATERIALIZED (
  SELECT query_id, cell FROM (
    SELECT query_id, cell,
           row_number() OVER (PARTITION BY query_id ORDER BY d, cell) AS rn
    FROM qcell) WHERE rn <= 2
),
dd0 AS MATERIALIZED (
  SELECT q.vec_id AS query_id, a.vec_id AS neighbor_id,
         SUM((f.e - c.c) * (f.e - c.c)) AS d
  FROM q
  JOIN p0_afinal a ON a.vec_id <> q.vec_id
  JOIN p0_efp f ON f.vec_id = q.vec_id
  JOIN p0_c2 c ON c.cluster = a.cluster AND c.dim = f.dim
  GROUP BY 1, 2
),
dd1 AS MATERIALIZED (
  SELECT q.vec_id AS query_id, a.vec_id AS neighbor_id,
         SUM((f.e - c.c) * (f.e - c.c)) AS d
  FROM q
  JOIN p1_afinal a ON a.vec_id <> q.vec_id
  JOIN p1_efp f ON f.vec_id = q.vec_id
  JOIN p1_c2 c ON c.cluster = a.cluster AND c.dim = f.dim
  GROUP BY 1, 2
),
tot AS (
  SELECT dd0.query_id, dd0.neighbor_id, dd0.d + dd1.d AS d
  FROM dd0
  JOIN dd1 USING (query_id, neighbor_id)
  JOIN cc_afinal ca ON ca.vec_id = dd0.neighbor_id
  JOIN probes p ON p.query_id = dd0.query_id AND p.cell = ca.cluster
),
ranked AS (
  SELECT query_id, neighbor_id, d,
         row_number() OVER (PARTITION BY query_id ORDER BY d, neighbor_id) AS rn
  FROM tot
)"""

ORACLES["ann_topk_ivfpq"] = f"""
WITH {_IVFPQ_CTE_BODY}
SELECT query_id, neighbor_id, CAST(d AS BIGINT) AS dist_fp,
       CAST(rn AS BIGINT) AS rank
FROM ranked WHERE rn <= 10
"""

# recall@10 of the IVF-PQ ranking against the EXACT integer-L2 ranking
# over the same fixed-point vectors (cc_efp doubles as the ground-truth
# vector table — same quantization, same tie discipline).
ORACLES["ann_recall_ivfpq"] = f"""
WITH {_IVFPQ_CTE_BODY},
exact_d AS MATERIALIZED (
  SELECT q.vec_id AS query_id, f2.vec_id AS neighbor_id,
         SUM((f.e - f2.e) * (f.e - f2.e)) AS d
  FROM q
  JOIN cc_efp f ON f.vec_id = q.vec_id
  JOIN cc_efp f2 ON f2.dim = f.dim AND f2.vec_id <> q.vec_id
  GROUP BY 1, 2
),
exact_ranked AS MATERIALIZED (
  SELECT query_id, neighbor_id,
         row_number() OVER (PARTITION BY query_id ORDER BY d, neighbor_id) AS rn
  FROM exact_d
),
hits AS (
  SELECT r.query_id, COUNT(*) AS n_hits
  FROM ranked r
  JOIN exact_ranked x
    ON x.query_id = r.query_id AND x.neighbor_id = r.neighbor_id
   AND x.rn <= 10
  WHERE r.rn <= 10
  GROUP BY r.query_id
)
SELECT q.vec_id AS query_id,
       CAST(COALESCE(h.n_hits, 0) AS BIGINT) AS n_hits,
       CAST(COALESCE(h.n_hits, 0) AS DOUBLE) / 10 AS recall
FROM q LEFT JOIN hits h ON h.query_id = q.vec_id
"""

ORACLES["mmr_rerank"] = _mmr_sql(20, 5)

ORACLES["embedding_norm_outliers"] = """
WITH efp AS MATERIALIZED (
  SELECT vec_id,
         CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1048576.0
                    + CAST(0.5 AS DOUBLE)) AS BIGINT) AS e
  FROM embeddings
),
nrm AS MATERIALIZED (
  SELECT vec_id, CAST(SUM(e * e) AS BIGINT) AS v FROM efp GROUP BY vec_id
),
mm AS (SELECT MIN(v) AS m FROM nrm),
mo AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(v - mm.m) AS BIGINT) AS s1,
         CAST(SUM((v - mm.m) * (v - mm.m)) AS BIGINT) AS s2
  FROM nrm, mm
),
z AS (
  SELECT nrm.vec_id, nrm.v AS norm2_fp,
         CASE WHEN mo.n * mo.s2 - mo.s1 * mo.s1 > 0
              THEN CAST((nrm.v - mm.m) * mo.n - mo.s1 AS DOUBLE)
                   / sqrt(CAST(mo.n * mo.s2 - mo.s1 * mo.s1 AS DOUBLE))
              ELSE CAST(0 AS DOUBLE) END AS zscore
  FROM nrm, mm, mo
)
SELECT vec_id, norm2_fp, zscore,
       abs(zscore) > CAST(2 AS DOUBLE) AS is_outlier
FROM z
"""

ORACLES["kmeans_embeddings"] = f"""
WITH {_kmeans_cte_chain(8, 4)}
SELECT vec_id, CAST(cluster AS BIGINT) AS cluster, CAST(d AS BIGINT) AS dist_fp
FROM afinal
"""

# semdedup: the same k-means chain over the doubled (planted-copy) table,
# then within-cluster lower-id-dominates cosine drops, integer-exact:
# cos(u,v) > 0.9  ⟺  dot > 0 AND dot^2*100 > 81*|u|^2*|v|^2 (HUGEINT).
ORACLES["semdedup"] = f"""
WITH emb2 AS MATERIALIZED (
  SELECT vec_id, embedding FROM embeddings
  UNION ALL
  SELECT vec_id + (SELECT COUNT(*) FROM embeddings), embedding FROM embeddings
),
{_kmeans_cte_chain(8, 4, emb_src="emb2")},
norms AS MATERIALIZED (
  SELECT vec_id, SUM(CAST(e AS HUGEINT) * e) AS nn FROM efp GROUP BY vec_id
),
pairs AS (
  SELECT a.vec_id AS u, b.vec_id AS v
  FROM afinal a JOIN afinal b ON a.cluster = b.cluster AND a.vec_id < b.vec_id
),
dots AS (
  SELECT p.u, p.v, SUM(CAST(fu.e AS HUGEINT) * fv.e) AS dot
  FROM pairs p
  JOIN efp fu ON fu.vec_id = p.u
  JOIN efp fv ON fv.vec_id = p.v AND fv.dim = fu.dim
  GROUP BY p.u, p.v
),
dropped AS (
  SELECT DISTINCT d.v
  FROM dots d
  JOIN norms nu ON nu.vec_id = d.u
  JOIN norms nv ON nv.vec_id = d.v
  WHERE d.dot > 0 AND d.dot * d.dot * 100 > 81 * nu.nn * nv.nn
)
SELECT a.vec_id, CAST(a.cluster AS BIGINT) AS cluster,
       a.vec_id NOT IN (SELECT v FROM dropped) AS keep
FROM afinal a
"""


# neardup_keep: the ngram_jaccard_pairs oracle supplies the edge list;
# components close via a recursive CTE (UNION dedups the label frontier,
# so the recursion enumerates (node, reachable-label) pairs — bounded on
# near-dup clusters, which are tiny); canonical winner = min label.
ORACLES["neardup_keep"] = f"""
WITH RECURSIVE pairs AS MATERIALIZED ({ORACLES["ngram_jaccard_pairs"]}),
und AS MATERIALIZED (
  SELECT a AS src, b AS dst FROM pairs
  UNION ALL
  SELECT b AS src, a AS dst FROM pairs
),
cc(node, comp) AS (
  SELECT doc_id, doc_id FROM documents
  UNION
  SELECT e.dst, c.comp FROM cc c JOIN und e ON e.src = c.node
)
SELECT node AS doc_id, CAST(MIN(comp) AS BIGINT) AS component,
       (node = MIN(comp)) AS keep
FROM cc GROUP BY node
"""

# hybrid_rrf: BM25 lexical top-20 + exact-cosine semantic top-20
# (query = embedding 0), fused with integer reciprocal-rank contributions
# 10^9 // (60 + rank). DuckDB // truncates toward zero == floor here
# (operands positive).
ORACLES["hybrid_rrf"] = rf"""
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '\s+'), x -> x <> '') AS t
  FROM documents
),
tf AS (
  SELECT doc_id, len(t) AS dl,
         len(list_filter(t, x -> x = 'table')) AS tf0,
         len(list_filter(t, x -> x = 'scan'))  AS tf1,
         len(list_filter(t, x -> x = 'merge')) AS tf2
  FROM toks
),
st AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n_docs,
         CAST(SUM(dl) AS BIGINT) AS sum_dl,
         CAST(COUNT(*) FILTER (tf0 > 0) AS BIGINT) AS df0,
         CAST(COUNT(*) FILTER (tf1 > 0) AS BIGINT) AS df1,
         CAST(COUNT(*) FILTER (tf2 > 0) AS BIGINT) AS df2
  FROM tf
),
scored AS (
  SELECT tf.doc_id,
    ROUND(
      ln((st.n_docs - st.df0 + CAST(0.5 AS DOUBLE)) / (st.df0 + CAST(0.5 AS DOUBLE)) + CAST(1.0 AS DOUBLE))
        * (tf.tf0 * (CAST(1.2 AS DOUBLE) + CAST(1.0 AS DOUBLE)))
        / (tf.tf0 + CAST(1.2 AS DOUBLE) * (CAST(1.0 AS DOUBLE) - CAST(0.75 AS DOUBLE)
            + CAST(0.75 AS DOUBLE) * tf.dl / (CAST(st.sum_dl AS DOUBLE) / CAST(st.n_docs AS DOUBLE))))
    + ln((st.n_docs - st.df1 + CAST(0.5 AS DOUBLE)) / (st.df1 + CAST(0.5 AS DOUBLE)) + CAST(1.0 AS DOUBLE))
        * (tf.tf1 * (CAST(1.2 AS DOUBLE) + CAST(1.0 AS DOUBLE)))
        / (tf.tf1 + CAST(1.2 AS DOUBLE) * (CAST(1.0 AS DOUBLE) - CAST(0.75 AS DOUBLE)
            + CAST(0.75 AS DOUBLE) * tf.dl / (CAST(st.sum_dl AS DOUBLE) / CAST(st.n_docs AS DOUBLE))))
    + ln((st.n_docs - st.df2 + CAST(0.5 AS DOUBLE)) / (st.df2 + CAST(0.5 AS DOUBLE)) + CAST(1.0 AS DOUBLE))
        * (tf.tf2 * (CAST(1.2 AS DOUBLE) + CAST(1.0 AS DOUBLE)))
        / (tf.tf2 + CAST(1.2 AS DOUBLE) * (CAST(1.0 AS DOUBLE) - CAST(0.75 AS DOUBLE)
            + CAST(0.75 AS DOUBLE) * tf.dl / (CAST(st.sum_dl AS DOUBLE) / CAST(st.n_docs AS DOUBLE))))
    , 8) AS score
  FROM tf, st
),
lex AS (
  SELECT doc_id, r FROM (
    SELECT doc_id, ROW_NUMBER() OVER (ORDER BY score DESC, doc_id) AS r
    FROM scored
  ) WHERE r <= 20
),
q AS (SELECT CAST(embedding AS DOUBLE[]) AS qe FROM embeddings WHERE vec_id = 0),
sem AS (
  SELECT doc_id, r FROM (
    SELECT e.vec_id AS doc_id,
           ROW_NUMBER() OVER (
             ORDER BY list_cosine_similarity(q.qe, CAST(e.embedding AS DOUBLE[])) DESC,
                      e.vec_id
           ) AS r
    FROM q CROSS JOIN embeddings e WHERE e.vec_id <> 0
  ) WHERE r <= 20
),
contribs AS (
  SELECT doc_id, 1000000000 // (60 + r) AS c FROM lex
  UNION ALL
  SELECT doc_id, 1000000000 // (60 + r) AS c FROM sem
),
fused AS (
  SELECT doc_id, CAST(SUM(c) AS BIGINT) AS rrf_fp
  FROM contribs GROUP BY doc_id
)
SELECT doc_id, rrf_fp,
       CAST(ROW_NUMBER() OVER (ORDER BY rrf_fp DESC, doc_id) AS BIGINT) AS rank
FROM fused
ORDER BY rank LIMIT 10
"""

# --- sitemap_urls -----------------------------------------------------------
# The Ray side builds per-host sitemap XML (index -> parity-split urlsets,
# lastmod/priority from the multiplicative sampling hash), walks it from the
# root indexes and parses it back with ElementTree. The oracle derives the
# same (host, url, lastmod, priority) rows DIRECTLY from the pages universe:
# a lossy or lossless-but-wrong XML round-trip on the Ray side (missed strip,
# dropped entry, field swap, glob drift) breaks rows or the value hash.
ORACLES["sitemap_urls"] = f"""
WITH {SQL_PAGES},
h AS (
  SELECT host, url, (doc_id * 2654435761 + 12345) % 1000000007 AS hsh
  FROM purl
  WHERE url LIKE 'https://site1%.example.com/%'
)
SELECT host, url,
       CAST(CAST(DATE '2024-01-01' + (hsh % 365) * INTERVAL 1 DAY AS DATE) AS VARCHAR) AS lastmod,
       CAST(hsh % 9 + 1 AS DOUBLE) / 10.0 AS priority
FROM h
"""

# --- url_traps ---------------------------------------------------------------
# Every trap rule recomputed generically from the URL string (no branching on
# the variant index k): path/query split by regex, segment list via
# str_split+list_filter, the consecutive-repeat rule over indexed segments
# (RE2 has no backreferences), TRY_CAST-guarded year range.
ORACLES["url_traps"] = r"""
WITH v AS (
  SELECT doc_id,
         'https://site' || (doc_id % 50) || '.example.com/page/' || doc_id AS base,
         doc_id % 8 AS k
  FROM documents
),
u AS (
  SELECT doc_id,
    CASE k
      WHEN 0 THEN base
      WHEN 1 THEN base || '/x/x/x'
      WHEN 2 THEN base || '/a1/a2/a3/a4/a5/a6/a7'
      WHEN 3 THEN base || '?phpsessid=deadbeef'
      WHEN 4 THEN base || '?a=1&b=2&c=3&d=4&e=5'
      WHEN 5 THEN base || '/' || repeat('x', 200)
      WHEN 6 THEN base || '/2050/01/05/report'
      ELSE base || '/y/z/y/z'
    END AS url
  FROM v
),
parts AS (
  SELECT doc_id, url,
         regexp_extract(url, '^[a-z]+://[^/?#]*([^?#]*)', 1) AS path,
         regexp_extract(url, '\?([^#]*)', 1) AS query
  FROM u
),
segged AS (
  SELECT doc_id, url, path, query,
         list_filter(str_split(path, '/'), s -> s <> '') AS segs
  FROM parts
),
flags AS (
  SELECT doc_id, url,
    len(segs) >= 3 AND len(list_filter(range(1, len(segs) - 1),
        i -> list_extract(segs, i) = list_extract(segs, i + 1)
         AND list_extract(segs, i) = list_extract(segs, i + 2))) > 0
      AS repeated_segment,
    len(segs) > 8 AS too_deep,
    regexp_matches('&' || lower(query), '&(sessionid|phpsessid|jsessionid|sid|sess)=')
      AS session_id,
    len(list_filter(str_split(query, '&'), p -> p <> '')) >= 5 AS many_params,
    length(url) > 200 AS too_long,
    len(list_filter(segs, s -> regexp_matches(s, '^[0-9]{4}$')
         AND (TRY_CAST(s AS INTEGER) < 1990 OR TRY_CAST(s AS INTEGER) > 2025))) > 0
      AS bad_year
  FROM segged
)
SELECT doc_id, url, repeated_segment, too_deep, session_id, many_params,
       too_long, bad_year,
       (repeated_segment OR too_deep OR session_id OR many_params
        OR too_long OR bad_year) AS is_trap
FROM flags
"""

# --- temperature_mix ---------------------------------------------------------
# α=1/2 temperature sampling: weight = floor(sqrt(count)) — FLOOR(SQRT())
# agrees with math.isqrt exactly for counts < 2^52 (IEEE sqrt of an integer
# is correctly rounded and the fractional gap to the next integer is far
# above one ulp at this magnitude). All later arithmetic is BIGINT.
ORACLES["temperature_mix"] = r"""
WITH cnt AS (SELECT lang, COUNT(*) AS c FROM documents GROUP BY lang),
w AS (SELECT lang, c, CAST(FLOOR(SQRT(CAST(c AS DOUBLE))) AS BIGINT) AS wt FROM cnt),
tot AS (SELECT SUM(wt) AS sw FROM w),
cuts AS (
  SELECT lang,
         LEAST(10000, (((wt * 10000) // tot.sw) * 250) // c) AS cut
  FROM w, tot
)
SELECT d.doc_id, d.lang
FROM documents d JOIN cuts USING (lang)
WHERE ((d.doc_id * 2654435761 + 12345) % 1000000007) % 10000 < cuts.cut
"""


# the indexed BM25 path is defined to equal the scan path — same oracle
ORACLES["bm25_topk_indexed"] = ORACLES["bm25_topk"]

# compacted-index BM25 ≡ scan over the surviving docs (tombstones applied)
ORACLES["bm25_topk_merged"] = ORACLES["bm25_topk"].replace(
    "  FROM documents\n)",
    "  FROM documents WHERE doc_id % 31 <> 0\n)",
    1,
)
assert "doc_id % 31" in ORACLES["bm25_topk_merged"]


# r5: LLM extraction through the recorded-completion kernel — a REAL
# SQL oracle (not a golden pin): every field the recorded completions
# carry is independently recomputable from `documents`, so this
# verifies the values that travelled the prompt → completion → parse
# path byte-for-byte. Tokenization mirrors python str.split():
# regexp_split on whitespace + drop empties.
ORACLES["llm_extract_recorded"] = r"""
WITH tk AS (
  SELECT doc_id, text,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS t
  FROM documents
)
SELECT doc_id,
       array_to_string(t[1:6], ' ') AS title,
       CAST(len(t) AS BIGINT) AS n_tokens,
       md5(text) AS content_md5
FROM tk
"""
