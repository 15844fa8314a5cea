"""Thirty-sixth-wave operators (round-3 continuation session,
2026-08-20).

Listed by name in ``queries.py``'s QUERIES/ORACLES. cascade_rerank nests the
bm25_topk oracle.

Token embeddings here are the deterministic md5-slice stand-in (8 int
dims in [−128, 127]) — the declared-stub embedding discipline
(stages/embed.py): the RANKING algebra (MaxSim, cascade) is real and
oracle-exact; swap the embedding fn for a learned one in production.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

import ray

_CB_DIMS = 8
_CB_QUERY = ("table", "scan", "merge")
_CB_TOPK = 10


def _tok_vec(tok: str) -> np.ndarray:
    hx = hashlib.md5(tok.encode()).hexdigest()
    return np.array(
        [
            int(hx[4 * j : 4 * j + 4], 16) % 256 - 128
            for j in range(_CB_DIMS)
        ],
        np.int64,
    )


def _maxsim_scores(batch: pa.Table, qmat: np.ndarray) -> tuple:
    """(ids, scores) — type-level MaxSim per doc over md5 token vectors,
    with a per-batch token-vector cache."""
    cache: dict[str, np.ndarray] = {}
    ids, scores = [], []
    for did, t in zip(
        batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
    ):
        toks = sorted(set((t or "").lower().split()))
        if not toks:
            continue
        mat = np.empty((len(toks), _CB_DIMS), np.int64)
        for i, tok in enumerate(toks):
            v = cache.get(tok)
            if v is None:
                v = _tok_vec(tok)
                cache[tok] = v
            mat[i] = v
        dots = mat @ qmat.T  # (n_tok, n_q)
        ids.append(did)
        scores.append(int(dots.max(axis=0).sum()))
    return ids, scores


def q_colbert_maxsim(sf_dir: str):
    """Late-interaction (ColBERT-style) retrieval over the corpus: each
    document is a BAG of token vectors, and the query–document score is
    MaxSim — Σ over query tokens of the max dot product against any
    document token (Khattab & Zaharia 2020). The ranking algebra that
    beats single-vector retrieval on fine-grained term matches, here
    exact over the md5 stand-in embeddings (type-level: distinct doc
    tokens). Output: top-10 docs by (score DESC, doc_id).

    Distributed shape: the 3×8 query matrix broadcasts; one map scores
    every doc vectorized (per-batch token-vector cache + one matmul per
    doc) and keeps a local top-k; ONE tiny sort+limit closes it.
    """
    qmat = np.stack([_tok_vec(t) for t in _CB_QUERY])
    qref = ray.put(qmat)

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def score(batch: pa.Table) -> pa.Table:
        ids, scores = _maxsim_scores(batch, ray.get(qref))
        if ids:
            order = np.lexsort(
                (np.array(ids), -np.array(scores))
            )[:_CB_TOPK]
            ids = [ids[i] for i in order]
            scores = [scores[i] for i in order]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "maxsim": pa.array(scores, pa.int64()),
                "neg": pa.array([-s for s in scores], pa.int64()),
            }
        )

    return (
        docs.map_batches(score, batch_format="pyarrow")
        .sort(["neg", "doc_id"])
        .limit(_CB_TOPK)
        .select_columns(["doc_id", "maxsim"])
    )


def _sql_tokvec_cte() -> str:
    """(tok, dim, v) for every distinct corpus token — the md5-slice
    embedding mirrored in SQL."""
    return rf"""te AS MATERIALIZED (
  SELECT tok, CAST(j.j AS BIGINT) AS dim,
         CAST(('0x' || substr(md5(tok), 4 * j.j + 1, 4)) AS BIGINT)
           % 256 - 128 AS v
  FROM (SELECT DISTINCT unnest(
          list_filter(regexp_split_to_array(lower(text), '\s+'),
                      x -> x <> '')) AS tok
        FROM documents) t, range({_CB_DIMS}) j(j)
),
dtok AS MATERIALIZED (
  SELECT DISTINCT doc_id,
         unnest(list_filter(regexp_split_to_array(lower(text), '\s+'),
                            x -> x <> '')) AS tok
  FROM documents
)"""


def _sql_maxsim_cte(qterms) -> str:
    qvals = []
    for qt in qterms:
        vec = _tok_vec(qt)
        for j, v in enumerate(vec):
            qvals.append(f"('{qt}', {j}, {int(v)})")
    return f"""qe(qtok, dim, qv) AS (VALUES {", ".join(qvals)}),
dots AS MATERIALIZED (
  SELECT dtok.doc_id, dtok.tok, qe.qtok,
         CAST(SUM(te.v * qe.qv) AS BIGINT) AS dot
  FROM dtok
  JOIN te ON te.tok = dtok.tok
  JOIN qe ON qe.dim = te.dim
  GROUP BY dtok.doc_id, dtok.tok, qe.qtok
),
ms AS MATERIALIZED (
  SELECT doc_id, qtok, MAX(dot) AS m FROM dots GROUP BY doc_id, qtok
),
msum AS MATERIALIZED (
  SELECT doc_id, CAST(SUM(m) AS BIGINT) AS maxsim
  FROM ms GROUP BY doc_id HAVING COUNT(*) = {len(list(qterms))}
)"""


def _sql_colbert_maxsim() -> str:
    return (
        "WITH "
        + _sql_tokvec_cte()
        + ",\n"
        + _sql_maxsim_cte(_CB_QUERY)
        + f"""
SELECT doc_id, maxsim FROM msum
ORDER BY maxsim DESC, doc_id LIMIT {_CB_TOPK}
"""
    )


# ---------------------------------------------------------------------------
# cascade_rerank — BM25 candidates re-ranked by MaxSim
# ---------------------------------------------------------------------------


def q_cascade_rerank(sf_dir: str):
    """The two-stage retrieval cascade every production search system
    runs: a cheap recall stage (BM25 top-10) followed by an expensive
    precision re-ranker (ColBERT MaxSim) over ONLY those candidates.
    Output: the 10 candidates with their BM25 rank, MaxSim score and
    the final re-ranked position — the table that shows exactly which
    candidates the re-ranker promoted or demoted.

    Distributed shape: the candidate id set (k ids) broadcasts; one
    filter map scores just those docs; the rest is k-row arithmetic.
    """
    from .queries import QUERIES

    top = QUERIES["bm25_topk"](sf_dir)
    top = top.to_pandas() if not isinstance(top, pa.Table) else top.to_pandas()  # bounded: k-row query output
    top = top.sort_values(["score", "doc_id"], ascending=[False, True])
    ids = [int(x) for x in top["doc_id"]]
    bm_rank = {d: i + 1 for i, d in enumerate(ids)}
    id_ref = ray.put(np.array(sorted(ids), np.int64))
    qmat = np.stack([_tok_vec(t) for t in _CB_QUERY])
    qref = ray.put(qmat)

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def score(batch: pa.Table) -> pa.Table:
        d = batch.column("doc_id").to_numpy(zero_copy_only=False)
        keep = np.isin(d, ray.get(id_ref))
        sub = batch.filter(pa.array(keep))
        ids_, scores = _maxsim_scores(sub, ray.get(qref))
        return pa.table(
            {
                "doc_id": pa.array(ids_, pa.int64()),
                "maxsim": pa.array(scores, pa.int64()),
            }
        )

    rows = docs.map_batches(score, batch_format="pyarrow").take_all()  # bounded: BM25-candidate rows only (isin-filtered)
    ms = {int(r["doc_id"]): int(r["maxsim"]) for r in rows}
    order = sorted(ids, key=lambda d: (-ms[d], d))
    final_rank = {d: i + 1 for i, d in enumerate(order)}
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "bm25_rank": pa.array([bm_rank[d] for d in ids], pa.int64()),
            "maxsim": pa.array([ms[d] for d in ids], pa.int64()),
            "final_rank": pa.array(
                [final_rank[d] for d in ids], pa.int64()
            ),
        }
    )


def _sql_cascade_rerank(oracles: dict) -> str:
    return (
        f"WITH bm AS MATERIALIZED ({oracles['bm25_topk'].strip()}),\n"
        + """cand AS (
  SELECT doc_id,
         row_number() OVER (ORDER BY score DESC, doc_id) AS bm25_rank
  FROM bm
),
"""
        + _sql_tokvec_cte()
        + ",\n"
        + _sql_maxsim_cte(_CB_QUERY)
        + """
SELECT c.doc_id, CAST(c.bm25_rank AS BIGINT) AS bm25_rank,
       m.maxsim,
       CAST(row_number() OVER (ORDER BY m.maxsim DESC, c.doc_id)
            AS BIGINT) AS final_rank
FROM cand c JOIN msum m ON m.doc_id = c.doc_id
"""
    )


# ---------------------------------------------------------------------------
# prefix_completions — autocomplete top-k per token prefix
# ---------------------------------------------------------------------------

_PFX_LENS = (1, 2, 3)
_PFX_TOPK = 3


def q_prefix_completions(sf_dir: str):
    """Query-autocomplete index: for every token prefix of length 1–3,
    the top-3 completions by corpus occurrence count (ties → token
    ASC) — the prefix-keyed top-k structure behind every search box,
    materialized as rows (prefix, rank, token, c).

    Distributed shape: ONE token-count groupby (vocab-sized), a prefix
    explode over those |vocab| rows, and the shared grouped_topk
    (hash-bucketed string group keys) — never a per-prefix scheduling
    unit.
    """
    from ..stages.agg import grouped_topk

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
                "token": pa.array(ks, pa.string()),
                "c": pa.array([cnt[k] for k in ks], pa.int64()),
            }
        )

    counts = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("token")
        .aggregate(ray.data.aggregate.Sum("c", alias_name="c"))
    )

    def explode(batch: pa.Table) -> pa.Table:
        toks = batch.column("token").to_pylist()
        cs = batch.column("c").to_pylist()
        p_out, t_out, c_out = [], [], []
        for t, c in zip(toks, cs):
            for L in _PFX_LENS:
                if len(t) >= L:
                    p_out.append(t[:L])
                    t_out.append(t)
                    c_out.append(c)
        return pa.table(
            {
                "prefix": pa.array(p_out, pa.string()),
                "token": pa.array(t_out, pa.string()),
                "c": pa.array(c_out, pa.int64()),
            }
        )

    exploded = counts.map_batches(explode, batch_format="pyarrow")
    topk = grouped_topk(
        exploded, key="prefix", value="c", k=_PFX_TOPK,
        extra_cols=("token",),
    )

    def shape(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "prefix": batch.column("prefix"),
                "rank": batch.column("rank").cast(pa.int64()),
                "token": batch.column("token"),
                "c": batch.column("c").cast(pa.int64()),
            }
        )

    return topk.map_batches(shape, batch_format="pyarrow")


SQL_PREFIX_COMPLETIONS = rf"""
WITH tk AS (
  SELECT unnest(list_filter(regexp_split_to_array(text, '\s+'),
                            x -> x <> '')) AS token
  FROM documents
),
cnt AS (SELECT token, CAST(COUNT(*) AS BIGINT) AS c FROM tk GROUP BY token),
px AS (
  SELECT substr(token, 1, L.L) AS prefix, token, c
  FROM cnt, (VALUES {", ".join(f"({L})" for L in _PFX_LENS)}) L(L)
  WHERE strlen(token) >= L.L
),
rk AS (
  SELECT prefix, token, c,
         row_number() OVER (
           PARTITION BY prefix ORDER BY c DESC, token) AS rank
  FROM px
)
SELECT prefix, CAST(rank AS BIGINT) AS rank, token, c
FROM rk WHERE rank <= {_PFX_TOPK}
"""
