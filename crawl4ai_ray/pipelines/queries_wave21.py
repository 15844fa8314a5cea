"""Twenty-first-wave operators (round-3 continuation session,
2026-08-20): scalar-quantization (SQ8) ANN, completing the compression
family (IVF cells, PQ codebooks, b-bit minhash — SQ8 was the missing
standard variant).

Listed by name in ``queries.py``'s QUERIES/ORACLES.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# ann_recall_sq8 — int8 scalar-quantized ANN + recall vs exact
# ---------------------------------------------------------------------------

_SQ8_K = 10
_SQ8_Q = 5


def sq8_codes_stats(emb: "ray.data.Dataset"):
    """Per-dim (min, max) of the fixed-point embedding matrix — the SQ8
    calibration statistics (one tiny groupby(dim); the table never
    shuffles)."""
    from ..stages.cluster import quantize_embeddings

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "dim": pa.array([], pa.int64()),
                    "mn": pa.array([], pa.int64()),
                    "mx": pa.array([], pa.int64()),
                }
            )
        x = quantize_embeddings(batch)  # (n, d) int64 fixed-point
        d = x.shape[1] if x.size else 0
        return pa.table(
            {
                "dim": pa.array(np.arange(d, dtype=np.int64), pa.int64()),
                "mn": pa.array(x.min(axis=0), pa.int64()),
                "mx": pa.array(x.max(axis=0), pa.int64()),
            }
        )

    rows = (
        emb.map_batches(partial, batch_format="pyarrow")
        .groupby("dim")
        .aggregate(
            ray.data.aggregate.Min("mn", alias_name="mn"),
            ray.data.aggregate.Max("mx", alias_name="mx"),
        )
        .take_all()  # bounded: one row per dim (bounded key domain)
    )
    d = len(rows)
    mn = np.zeros(d, np.int64)
    mx = np.zeros(d, np.int64)
    for r in rows:
        mn[int(r["dim"])] = int(r["mn"])
        mx[int(r["dim"])] = int(r["mx"])
    return mn, mx


def _sq8_encode(x_fp: np.ndarray, mn: np.ndarray, mx: np.ndarray) -> np.ndarray:
    """Fixed-point → uint8 code, mirrored operand-for-operand by the
    oracle: floor((e − mn)·255.0/(mx − mn) + 0.5); collapsed dims → 0."""
    rng = (mx - mn).astype(np.float64)
    safe = np.where(rng == 0.0, 1.0, rng)
    c = np.floor((x_fp - mn) * 255.0 / safe + 0.5).astype(np.int64)
    return np.where(rng == 0.0, np.int64(0), c)


def q_ann_recall_sq8(sf_dir: str):
    """Recall@10 of int8 SCALAR-quantized search (SQ8 — per-dim min/max
    calibration, 8-bit codes, exact integer L2 in code space) against
    the exact fixed-point ranking — the evaluation row for the memory-
    cheapest standard compression (4× smaller than float32; PQ's
    codebook-free sibling). Same ground truth, tie discipline and
    recall fold as ann_recall_ivfpq, so the two compression operating
    points are directly comparable.

    Distributed shape: one tiny per-dim min/max aggregate (broadcast
    with the query codes via ``ray.put``), one map_batches top-k scan
    in code space (integer einsum per batch), the shared per-query
    reduce, and the shared tagged-union recall fold. The embedding
    table never shuffles.
    """
    from ..stages.ann import (
        _fetch_query_fp,
        _make_fp_reduce_q,
        brute_l2fp_topk,
        recall_at_k,
    )
    from ..stages.cluster import quantize_embeddings

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    mn, mx = sq8_codes_stats(emb)
    qset, q_fp = _fetch_query_fp(emb, range(_SQ8_Q), "vec_id")
    q_codes = _sq8_encode(q_fp, mn, mx)
    ctx = ray.put((mn, mx, q_codes, np.asarray(qset, np.int64)))

    class SQ8TopK:
        def __init__(self):
            self.mn, self.mx, self.qc, self.qids = ray.get(ctx)

        def __call__(self, batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return pa.table(
                    {
                        "query_id": pa.array([], pa.int64()),
                        "neighbor_id": pa.array([], pa.int64()),
                        "dist_fp": pa.array([], pa.int64()),
                    }
                )
            ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
            codes = _sq8_encode(quantize_embeddings(batch), self.mn, self.mx)
            kk = min(_SQ8_K + 1, len(ids))
            out_q, out_n, out_d = [], [], []
            for qi in range(len(self.qids)):
                diff = codes - self.qc[qi][None, :]
                dist = np.einsum("nd,nd->n", diff, diff)
                order = np.lexsort((ids, dist))[:kk]
                out_q.extend([int(self.qids[qi])] * kk)
                out_n.extend(ids[order].tolist())
                out_d.extend(dist[order].tolist())
            return pa.table(
                {
                    "query_id": pa.array(out_q, pa.int64()),
                    "neighbor_id": pa.array(out_n, pa.int64()),
                    "dist_fp": pa.array(out_d, pa.int64()),
                }
            )

    approx = (
        emb.map_batches(
            SQ8TopK, batch_format="pyarrow", batch_size=1024, concurrency=(1, 8)
        )
        .groupby("query_id")
        .map_groups(_make_fp_reduce_q(_SQ8_K), batch_format="pyarrow")
    )
    exact = brute_l2fp_topk(emb, query_ids=range(_SQ8_Q), k=_SQ8_K)
    return recall_at_k(approx, exact, k=_SQ8_K)


SQL_ANN_RECALL_SQ8 = f"""
WITH efp AS MATERIALIZED (
  SELECT vec_id,
         CAST(unnest(range(len(embedding))) AS BIGINT) AS dim,
         CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1048576.0
                    + CAST(0.5 AS DOUBLE)) AS BIGINT) AS e
  FROM embeddings
),
mm AS MATERIALIZED (
  SELECT dim, CAST(MIN(e) AS BIGINT) AS mn, CAST(MAX(e) AS BIGINT) AS mx
  FROM efp GROUP BY dim
),
codes AS MATERIALIZED (
  SELECT f.vec_id, f.dim,
         CASE WHEN mm.mx = mm.mn THEN CAST(0 AS BIGINT)
              ELSE CAST(floor((f.e - mm.mn) * 2.55e2 / (mm.mx - mm.mn) + 5e-1)
                        AS BIGINT) END AS c
  FROM efp f JOIN mm USING (dim)
),
q AS (SELECT vec_id FROM embeddings WHERE vec_id < {_SQ8_Q}),
appr_d AS MATERIALIZED (
  SELECT q.vec_id AS query_id, b.vec_id AS neighbor_id,
         SUM((a.c - b.c) * (a.c - b.c)) AS d
  FROM q
  JOIN codes a ON a.vec_id = q.vec_id
  JOIN codes b ON b.dim = a.dim AND b.vec_id <> q.vec_id
  GROUP BY 1, 2
),
ranked AS (
  SELECT query_id, neighbor_id,
         row_number() OVER (PARTITION BY query_id ORDER BY d, neighbor_id) AS rn
  FROM appr_d
),
exact_d AS MATERIALIZED (
  SELECT q.vec_id AS query_id, f2.vec_id AS neighbor_id,
         SUM((f.e - f2.e) * (f.e - f2.e)) AS d
  FROM q
  JOIN efp f ON f.vec_id = q.vec_id
  JOIN efp f2 ON f2.dim = f.dim AND f2.vec_id <> q.vec_id
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
   AND x.rn <= {_SQ8_K}
  WHERE r.rn <= {_SQ8_K}
  GROUP BY r.query_id
)
SELECT q.vec_id AS query_id,
       CAST(COALESCE(h.n_hits, 0) AS BIGINT) AS n_hits,
       CAST(COALESCE(h.n_hits, 0) AS DOUBLE) / {_SQ8_K} AS recall
FROM q LEFT JOIN hits h ON h.query_id = q.vec_id
"""
