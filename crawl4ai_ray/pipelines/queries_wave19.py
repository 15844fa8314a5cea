"""Nineteenth-wave operators (round-3 continuation session, 2026-08-20).

Listed by name in ``queries.py``'s QUERIES/ORACLES.

House rules throughout: Arrow batches end to end, map-side partials
before any groupby, integer accumulation with the zipf_fit fixed-point
quantization for ln sums, and cross-multiplied integer numerators where
a SQL aggregate SUM over floats would be order-sensitive.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pandas as pd
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# span_corruption_masks — T5-style span-corruption mask planning
# ---------------------------------------------------------------------------

_SCM_BLOCK = 20  # tokens per block; one masked span per big-enough block
_SCM_MIN = 5  # blocks shorter than this get no span


def _scm_h(doc_id: int, blk: int, salt: str) -> int:
    return int(
        hashlib.md5(f"{doc_id}|{blk}|{salt}".encode()).hexdigest()[:15], 16
    )


def q_span_corruption_masks(sf_dir: str):
    """Span-corruption mask planning (the T5 / UL2 pretraining
    preprocessing step): tokens are partitioned into 20-token blocks;
    every block of ≥ 5 tokens gets ONE masked span of hash-derived
    length 2–4 at a hash-derived start — non-overlapping by
    construction (one span per block), deterministic (md5-derived
    decisions, so any worker / any run plans the same masks), and
    density ≈ 3/20 = 15%, the standard corruption rate. Output per
    doc: n_tokens, n_spans, n_masked, mask_ratio.

    Distributed shape: pure map — the plan is row-local arithmetic on
    (n_tokens, block hashes); no token ever shuffles. The oracle
    recomputes every decision from md5 slices over (doc_id, blk) — no
    per-token unnesting on either side.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def plan(batch: pa.Table) -> pa.Table:
        nt_l, ns_l, nm_l, mr_l = [], [], [], []
        for did, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            n = len((t or "").split())
            n_spans = n_masked = 0
            for blk in range((n + _SCM_BLOCK - 1) // _SCM_BLOCK):
                m = min(_SCM_BLOCK, n - blk * _SCM_BLOCK)
                if m < _SCM_MIN:
                    continue
                span = 2 + _scm_h(did, blk, "len") % 3
                # start is derived but doesn't change the counts; compute
                # it anyway so the plan is fully specified (and assertable)
                _ = _scm_h(did, blk, "start") % (m - span + 1)
                n_spans += 1
                n_masked += span
            nt_l.append(n)
            ns_l.append(n_spans)
            nm_l.append(n_masked)
            mr_l.append(float(n_masked) / float(n) if n else None)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_tokens": pa.array(nt_l, pa.int64()),
                "n_spans": pa.array(ns_l, pa.int64()),
                "n_masked": pa.array(nm_l, pa.int64()),
                "mask_ratio": pa.array(mr_l, pa.float64()),
            }
        )

    return docs.map_batches(plan, batch_format="pyarrow")


SQL_SPAN_CORRUPTION_MASKS = rf"""
WITH d AS (
  SELECT doc_id,
         CAST(len(list_filter(regexp_split_to_array(text, '\s+'),
                              x -> x <> '')) AS BIGINT) AS n
  FROM documents
),
blocks AS (
  SELECT doc_id, n, r.i AS blk,
         LEAST({_SCM_BLOCK}, n - r.i * {_SCM_BLOCK}) AS m
  FROM d, LATERAL UNNEST(range(0, (n + {_SCM_BLOCK} - 1) // {_SCM_BLOCK})) AS r(i)
),
spans AS (
  SELECT doc_id,
         CAST(COUNT(*) FILTER (m >= {_SCM_MIN}) AS BIGINT) AS n_spans,
         CAST(COALESCE(SUM(CASE WHEN m >= {_SCM_MIN}
              THEN 2 + CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR) || '|'
                   || CAST(blk AS VARCHAR) || '|len'), 1, 15)) AS BIGINT) % 3
              ELSE 0 END), 0) AS BIGINT) AS n_masked
  FROM blocks GROUP BY doc_id
)
SELECT d.doc_id, d.n AS n_tokens,
       COALESCE(s.n_spans, 0) AS n_spans,
       COALESCE(s.n_masked, 0) AS n_masked,
       CASE WHEN d.n = 0 THEN NULL
            ELSE CAST(COALESCE(s.n_masked, 0) AS DOUBLE) / CAST(d.n AS DOUBLE)
       END AS mask_ratio
FROM d LEFT JOIN spans s ON s.doc_id = d.doc_id
"""


# ---------------------------------------------------------------------------
# shard_mix_entropy — source-mix entropy per training shard
# ---------------------------------------------------------------------------

_SME_SHARDS = 16
_SME_SEED = 7
_SME_MULT = 6364136223846793005
_SME_INC = 1442695040888963407


def q_shard_mix_entropy(sf_dir: str):
    """Training-shuffle quality check: after the deterministic
    seed-keyed shuffle (the shuffle_export LCG placement, same seed 7),
    does every shard carry the same SOURCE mix? Per shard: n_docs,
    n_sources, and the Shannon entropy of its source distribution — a
    shard whose entropy sags below the corpus's is a mixing failure
    (sequential-source input leaking through the shuffle).

    Distributed shape: map-side (shard, source) count partials (shard
    = LCG key % 16, row-local), ONE pair groupby; the entropy fold runs
    on the ≤ shards×|sources| histogram with the zipf_fit fixed-point
    ln quantization (Σ c·q exact, HUGEINT in SQL; H = −(S/n)/1e9 the
    only float op).
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        key = (
            ids.astype(np.uint64) * np.uint64(_SME_MULT)
            + np.uint64(_SME_INC)
            + np.uint64(_SME_SEED)
        )
        shard = (key % np.uint64(_SME_SHARDS)).astype(np.int64)
        src = batch.column("source").to_pylist()
        df = (
            pd.DataFrame({"shard": shard, "source": src})
            .groupby(["shard", "source"], sort=True)
            .size()
            .reset_index(name="c")
        )
        return pa.table(
            {
                "shard": pa.array(df["shard"].to_numpy(np.int64), pa.int64()),
                "source": pa.array(df["source"], pa.string()),
                "c": pa.array(df["c"].to_numpy(np.int64), pa.int64()),
            }
        )

    hist = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby(["shard", "source"])
        .aggregate(ray.data.aggregate.Sum("c", alias_name="c"))
        .take_all()  # ≤ shards × |sources| — tiny
    )
    tot: dict[int, int] = {}
    nsrc: dict[int, int] = {}
    for r in hist:
        s = int(r["shard"])
        tot[s] = tot.get(s, 0) + int(r["c"])
        nsrc[s] = nsrc.get(s, 0) + 1
    s_q: dict[int, int] = {}
    for r in hist:
        s, c = int(r["shard"]), int(r["c"])
        q = math.floor(math.log(float(c) / float(tot[s])) * 1e9 + 0.5)
        s_q[s] = s_q.get(s, 0) + c * q
    shards = sorted(tot)
    return pa.table(
        {
            "shard": pa.array(shards, pa.int64()),
            "n_docs": pa.array([tot[s] for s in shards], pa.int64()),
            "n_sources": pa.array([nsrc[s] for s in shards], pa.int64()),
            "sum_q": pa.array([s_q[s] for s in shards], pa.int64()),
            "entropy": pa.array(
                [-(float(s_q[s]) / float(tot[s])) / 1e9 for s in shards],
                pa.float64(),
            ),
        }
    )


SQL_SHARD_MIX_ENTROPY = f"""
WITH k AS (
  SELECT doc_id, source,
         CAST((CAST(doc_id AS HUGEINT) * {_SME_MULT} + {_SME_INC} + {_SME_SEED})
              % CAST('18446744073709551616' AS HUGEINT)
              % {_SME_SHARDS} AS BIGINT) AS shard
  FROM documents
),
h AS (
  SELECT shard, source, CAST(COUNT(*) AS BIGINT) AS c
  FROM k GROUP BY shard, source
),
t AS (
  SELECT shard, CAST(SUM(c) AS BIGINT) AS n_docs,
         CAST(COUNT(*) AS BIGINT) AS n_sources
  FROM h GROUP BY shard
),
q AS (
  SELECT h.shard,
         CAST(SUM(CAST(h.c AS HUGEINT)
                  * CAST(floor(ln(CAST(h.c AS DOUBLE) / CAST(t.n_docs AS DOUBLE))
                               * 1e9 + 5e-1) AS HUGEINT)) AS BIGINT) AS sum_q
  FROM h JOIN t USING (shard) GROUP BY h.shard
)
SELECT t.shard, t.n_docs, t.n_sources, q.sum_q,
       -(CAST(q.sum_q AS DOUBLE) / CAST(t.n_docs AS DOUBLE)) / 1e9 AS entropy
FROM t JOIN q USING (shard)
"""


# ---------------------------------------------------------------------------
# embedding_drift — snapshot-over-snapshot embedding distribution drift
# ---------------------------------------------------------------------------

_ED_SCALE = 65536.0  # 2^16, the embedding_dim_stats quantization


def q_embedding_drift(sf_dir: str):
    """Embedding distribution drift between two snapshots (here the
    deterministic even/odd vec_id split standing in for crawl t vs
    t+1): cosine between the two mean vectors and the squared L2
    distance of the means — the monitor that catches an encoder change
    or a corpus shift before it poisons ANN recall / dedup thresholds.

    Float discipline: per-dim fixed-point sums (2¹⁶, exact integers);
    cosine over the mean vectors uses the n-cancellation
    cos = Σ a_i·b_i / (√Σa_i² · √Σb_i²) on the INTEGER per-dim sums
    (python-int / HUGEINT exact, order-free), and the mean-diff L2² is
    cross-multiplied to the integer numerator Σ(a_i·n_b − b_i·n_a)²
    over (n_a·n_b)² — every SQL SUM is over exact integers, so
    summation order can't flip a bit; the two divisions and two sqrts
    are the only float ops, mirrored.
    """
    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        vid = batch.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
        col = batch.column("embedding").combine_chunks()
        n = len(col)
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        dim = flat.size // n if n else 0
        x = flat.reshape(n, dim)
        q = np.floor(x * _ED_SCALE + 0.5).astype(np.int64)
        half = (vid % 2).astype(np.int64)
        out = {"dim": [], "half": [], "n": [], "sq": []}
        for h in (0, 1):
            m = half == h
            if not m.any():
                continue
            out["dim"].extend(range(1, dim + 1))
            out["half"].extend([h] * dim)
            out["n"].extend([int(m.sum())] * dim)
            out["sq"].extend(q[m].sum(axis=0).tolist())
        return pa.table(
            {
                "dim": pa.array(out["dim"], pa.int64()),
                "half": pa.array(out["half"], pa.int64()),
                "n": pa.array(out["n"], pa.int64()),
                "sq": pa.array(out["sq"], pa.int64()),
            }
        )

    hist = (
        emb.map_batches(partial, batch_format="pyarrow")
        .groupby(["dim", "half"])
        .aggregate(
            ray.data.aggregate.Sum("n", alias_name="n"),
            ray.data.aggregate.Sum("sq", alias_name="sq"),
        )
        .take_all()  # ≤ 2·dim rows
    )
    a: dict[int, int] = {}
    b: dict[int, int] = {}
    n_a = n_b = 0
    for r in hist:
        d, h, sq = int(r["dim"]), int(r["half"]), int(r["sq"])
        if h == 0:
            a[d] = sq
            n_a = int(r["n"])
        else:
            b[d] = sq
            n_b = int(r["n"])
    dims = sorted(a)
    dot = sum(a[d] * b[d] for d in dims)  # python int — exact
    na2 = sum(a[d] * a[d] for d in dims)
    nb2 = sum(b[d] * b[d] for d in dims)
    cos = float(dot) / (math.sqrt(float(na2)) * math.sqrt(float(nb2)))
    l2num = sum((a[d] * n_b - b[d] * n_a) ** 2 for d in dims)
    denom = float(n_a) * float(n_b) * _ED_SCALE
    l2sq = float(l2num) / (denom * denom)
    return pa.table(
        {
            "n_old": pa.array([n_a], pa.int64()),
            "n_new": pa.array([n_b], pa.int64()),
            "mean_cosine": pa.array([cos], pa.float64()),
            "mean_l2sq": pa.array([l2sq], pa.float64()),
        }
    )


SQL_EMBEDDING_DRIFT = """
WITH q AS (
  SELECT vec_id % 2 AS half, i AS dim,
         CAST(floor(CAST(embedding[i] AS DOUBLE) * 6.5536e4 + 5e-1)
              AS BIGINT) AS qv
  FROM embeddings, LATERAL UNNEST(range(1, len(embedding) + 1)) AS r(i)
),
sums AS (
  SELECT half, dim, CAST(SUM(qv) AS BIGINT) AS sq
  FROM q GROUP BY half, dim
),
ns AS (
  SELECT CAST(SUM(CASE WHEN vec_id % 2 = 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_a,
         CAST(SUM(CASE WHEN vec_id % 2 = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_b
  FROM embeddings
),
j AS (
  SELECT a.dim, a.sq AS sa, b.sq AS sb
  FROM sums a JOIN sums b ON b.dim = a.dim AND a.half = 0 AND b.half = 1
),
m AS (
  SELECT CAST(SUM(CAST(sa AS HUGEINT) * CAST(sb AS HUGEINT)) AS DOUBLE) AS dot,
         CAST(SUM(CAST(sa AS HUGEINT) * CAST(sa AS HUGEINT)) AS DOUBLE) AS na2,
         CAST(SUM(CAST(sb AS HUGEINT) * CAST(sb AS HUGEINT)) AS DOUBLE) AS nb2,
         CAST(SUM(CAST(sa * ns.n_b - sb * ns.n_a AS HUGEINT)
                  * CAST(sa * ns.n_b - sb * ns.n_a AS HUGEINT)) AS DOUBLE)
           AS l2num
  FROM j, ns GROUP BY ns.n_a, ns.n_b
)
SELECT ns.n_a AS n_old, ns.n_b AS n_new,
       m.dot / (sqrt(m.na2) * sqrt(m.nb2)) AS mean_cosine,
       m.l2num / ((CAST(ns.n_a AS DOUBLE) * CAST(ns.n_b AS DOUBLE) * 6.5536e4)
                  * (CAST(ns.n_a AS DOUBLE) * CAST(ns.n_b AS DOUBLE) * 6.5536e4))
         AS mean_l2sq
FROM m, ns
"""
