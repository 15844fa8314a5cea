"""Twenty-ninth-wave operators (round-3 continuation session,
2026-08-20).

Listed by name in ``queries.py``'s QUERIES/ORACLES.

- jl_projection_eval: ±1 Johnson–Lindenstrauss projection with an
  integer-exact distance-distortion readout — completes the embedding
  compression family (IVF / PQ / SQ8 / b-bit minhash) with the
  dimension-reduction member.
- ring_assign: consistent-hash ring with virtual nodes, next to the
  rendezvous (HRW) assigner for the classic ring-vs-HRW comparison.
- fellegi_sunter: probabilistic record-linkage field weights + match
  scores over the SNM candidate pairs (registration-time composition).
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# jl_projection_eval — ±1 JL projection distance-preservation readout
# ---------------------------------------------------------------------------

_JL_OUT_DIMS = 16


def _jl_sign(j: int, dim: int) -> int:
    """±1 from the md5-slice parity — recomputable in SQL."""
    u = int(hashlib.md5(f"jl|{j}|{dim}".encode()).hexdigest()[:8], 16)
    return 1 if u % 2 == 0 else -1


def q_jl_projection_eval(sf_dir: str):
    """Johnson–Lindenstrauss ±1 random projection 64→16 dims with its
    distance-preservation readout on the consecutive-id pair family:
    per pair, the exact squared L2 in the original fixed-point space
    and in the projected space (scaled by 1/out_dims), plus the
    distortion ratio — the measurement that justifies (or rejects)
    shipping 4× smaller vectors through every downstream ANN/dedup
    stage. Achlioptas ±1 entries come from md5-slice parities, so the
    WHOLE projection is integer arithmetic both engines reproduce;
    output folds per projected-distance-decile? No — per pair
    (a, b, d2_orig, d2_proj_scaled_q, ratio_q), ids consecutive
    (vec_id, vec_id+1), vec_id % 5 == 0 (100 pairs at sf0.01).

    Distributed shape: pairs are row-local after ONE bucketed
    co-location of (vec_id, vec_id+1) (map emits both endpoints keyed
    by the pair id; one groupby(pair) joins them).
    """
    from ..stages.cluster import quantize_embeddings

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    # sign matrix (64 x out) — built once, broadcast
    signs = np.array(
        [
            [_jl_sign(j, d) for j in range(_JL_OUT_DIMS)]
            for d in range(64)
        ],
        dtype=np.int64,
    )
    sref = ray.put(signs)

    def tag(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
        x = quantize_embeddings(batch)
        s = ray.get(sref)[: x.shape[1]]
        p = x @ s  # (n, out) int64
        out_pair, out_side, out_rows_x, out_rows_p = [], [], [], []
        for i, vid in enumerate(ids):
            if vid % 5 == 0:
                out_pair.append(vid)
                out_side.append(0)
                out_rows_x.append(x[i])
                out_rows_p.append(p[i])
            if vid % 5 == 1 and vid >= 1:
                out_pair.append(vid - 1)
                out_side.append(1)
                out_rows_x.append(x[i])
                out_rows_p.append(p[i])
        if not out_pair:
            return pa.table(
                {
                    "pair": pa.array([], pa.int64()),
                    "side": pa.array([], pa.int64()),
                    "x": pa.array([], pa.list_(pa.int64())),
                    "p": pa.array([], pa.list_(pa.int64())),
                }
            )
        return pa.table(
            {
                "pair": pa.array(out_pair, pa.int64()),
                "side": pa.array(out_side, pa.int64()),
                "x": pa.array(
                    [r.tolist() for r in out_rows_x], pa.list_(pa.int64())
                ),
                "p": pa.array(
                    [r.tolist() for r in out_rows_p], pa.list_(pa.int64())
                ),
            }
        )

    def per_pair(group: pa.Table) -> pa.Table:
        if group.num_rows != 2:
            return pa.table(
                {
                    "a": pa.array([], pa.int64()),
                    "b": pa.array([], pa.int64()),
                    "d2_orig": pa.array([], pa.int64()),
                    "d2_proj": pa.array([], pa.int64()),
                    "ratio_q": pa.array([], pa.int64()),
                }
            )
        sides = group.column("side").to_pylist()
        ia, ib = sides.index(0), sides.index(1)
        xa = np.array(group.column("x")[ia].as_py(), np.int64)
        xb = np.array(group.column("x")[ib].as_py(), np.int64)
        pa_ = np.array(group.column("p")[ia].as_py(), np.int64)
        pb = np.array(group.column("p")[ib].as_py(), np.int64)
        d2o = int(((xa - xb) ** 2).sum())
        d2p = int(((pa_ - pb) ** 2).sum())
        # E[d2p] = out_dims * d2o -> scaled ratio: d2p / (out * d2o)
        ratio_q = (
            math.floor(float(d2p) / float(_JL_OUT_DIMS) / float(d2o) * 1e9 + 0.5)
            if d2o
            else 0
        )
        pid = int(group.column("pair")[0].as_py())
        return pa.table(
            {
                "a": pa.array([pid], pa.int64()),
                "b": pa.array([pid + 1], pa.int64()),
                "d2_orig": pa.array([d2o], pa.int64()),
                "d2_proj": pa.array([d2p], pa.int64()),
                "ratio_q": pa.array([ratio_q], pa.int64()),
            }
        )

    return (
        emb.map_batches(tag, batch_format="pyarrow")
        .groupby("pair")
        .map_groups(per_pair, batch_format="pyarrow")
    )


def _sql_jl_projection_eval() -> str:
    return f"""
WITH xf AS MATERIALIZED (
  SELECT vec_id, generate_subscripts(embedding, 1) - 1 AS dim,
         CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1048576.0
                    + CAST(0.5 AS DOUBLE)) AS BIGINT) AS v
  FROM embeddings
),
sg AS MATERIALIZED (
  SELECT j.j, d.dim,
         CASE WHEN CAST(('0x' || substr(
                md5('jl|' || CAST(j.j AS VARCHAR) || '|'
                           || CAST(d.dim AS VARCHAR)), 1, 8)) AS BIGINT)
                % 2 = 0
              THEN 1 ELSE -1 END AS s
  FROM range({_JL_OUT_DIMS}) j(j), (SELECT DISTINCT dim FROM xf) d
),
proj AS MATERIALIZED (
  SELECT xf.vec_id, sg.j, CAST(SUM(xf.v * sg.s) AS BIGINT) AS pv
  FROM xf JOIN sg ON sg.dim = xf.dim
  GROUP BY xf.vec_id, sg.j
),
prs AS (
  SELECT a.vec_id AS a, a.vec_id + 1 AS b
  FROM embeddings a JOIN embeddings b2 ON b2.vec_id = a.vec_id + 1
  WHERE a.vec_id % 5 = 0
),
d2o AS (
  SELECT p.a, p.b, CAST(SUM((xa.v - xb.v) * (xa.v - xb.v)) AS BIGINT) AS d2
  FROM prs p
  JOIN xf xa ON xa.vec_id = p.a
  JOIN xf xb ON xb.vec_id = p.b AND xb.dim = xa.dim
  GROUP BY p.a, p.b
),
d2p AS (
  SELECT p.a, p.b, CAST(SUM((pa.pv - pb.pv) * (pa.pv - pb.pv)) AS BIGINT) AS d2
  FROM prs p
  JOIN proj pa ON pa.vec_id = p.a
  JOIN proj pb ON pb.vec_id = p.b AND pb.j = pa.j
  GROUP BY p.a, p.b
)
SELECT o.a, o.b, o.d2 AS d2_orig, pj.d2 AS d2_proj,
       CASE WHEN o.d2 = 0 THEN 0
            ELSE CAST(floor(CAST(pj.d2 AS DOUBLE)
                            / CAST({_JL_OUT_DIMS} AS DOUBLE)
                            / CAST(o.d2 AS DOUBLE) * 1e9 + 5e-1)
                      AS BIGINT) END AS ratio_q
FROM d2o o JOIN d2p pj ON pj.a = o.a
"""


# ---------------------------------------------------------------------------
# ring_assign — consistent-hash ring with virtual nodes
# ---------------------------------------------------------------------------

_RING_WORKERS = 8
_RING_VNODES = 16


def q_ring_assign(sf_dir: str):
    """Consistent-hash ring assignment of hosts to workers: each worker
    owns _RING_VNODES virtual points on a 2^32 ring (md5-slice of
    'worker|vnode'); a host goes to the owner of the first vnode at or
    clockwise after its own hash (wraparound to the ring minimum) — the
    classic Karger/Chord scheme, sitting next to rendezvous_assign
    (HRW) so the two sharding disciplines are directly comparable on
    the same host set. Output: (host, worker) + per-row worker load.

    Distributed shape: the ring (workers·vnodes points) broadcasts;
    assignment is one vectorized searchsorted per batch; the load
    column comes from ONE groupby folded back map-side.
    """
    from ..functions.urls import hosts_array
    from .queries import _pages_ds

    ring = []
    for w in range(_RING_WORKERS):
        for v in range(_RING_VNODES):
            h = int(
                hashlib.md5(f"ring|{w}|{v}".encode()).hexdigest()[:8], 16
            )
            ring.append((h, w))
    ring.sort()
    ring_h = np.array([h for h, _ in ring], np.int64)
    ring_w = np.array([w for _, w in ring], np.int64)
    rref = ray.put((ring_h, ring_w))

    pages = _pages_ds(sf_dir, columns=["url"])

    def assign(batch: pa.Table) -> pa.Table:
        rh, rw = ray.get(rref)
        hosts = hosts_array(batch.column("url"))
        hl = hosts.to_pylist()
        hh = np.array(
            [
                int(hashlib.md5(h.encode()).hexdigest()[:8], 16)
                for h in hl
            ],
            np.int64,
        )
        idx = np.searchsorted(rh, hh, side="left")
        idx = np.where(idx == len(rh), 0, idx)  # wraparound
        return pa.table(
            {
                "host": pa.array(hl, pa.string()),
                "worker": pa.array(rw[idx], pa.int64()),
            }
        )

    return (
        pages.map_batches(assign, batch_format="pyarrow")
        .groupby(["host", "worker"])
        .aggregate(ray.data.aggregate.Count(alias_name="n_pages"))
    )


def _sql_ring_assign(sql_pages: str) -> str:
    ring = []
    for w in range(_RING_WORKERS):
        for v in range(_RING_VNODES):
            h = int(hashlib.md5(f"ring|{w}|{v}".encode()).hexdigest()[:8], 16)
            ring.append((h, w))
    ring.sort()
    vals = ", ".join(f"({h}, {w})" for h, w in ring)
    return f"""
WITH {sql_pages},
ring(h, w) AS (VALUES {vals}),
hh AS (
  SELECT host,
         CAST(('0x' || substr(md5(host), 1, 8)) AS BIGINT) AS hv
  FROM purl
),
asg AS (
  SELECT hh.host,
         COALESCE(
           (SELECT r.w FROM ring r WHERE r.h >= hh.hv
            ORDER BY r.h LIMIT 1),
           (SELECT r.w FROM ring r ORDER BY r.h LIMIT 1)) AS worker
  FROM hh
)
SELECT host, CAST(worker AS BIGINT) AS worker,
       CAST(COUNT(*) AS BIGINT) AS n_pages
FROM asg GROUP BY host, worker
"""


# ---------------------------------------------------------------------------
# fellegi_sunter — probabilistic record-linkage weights over SNM pairs
# ---------------------------------------------------------------------------


def q_fellegi_sunter(sf_dir: str):
    """Fellegi–Sunter probabilistic record linkage over the SNM
    candidate pairs: for each comparison field f — same token-set key,
    same length bucket (n_tokens // 10), same first token — estimate
    m_f = P(agree | true pair) and u_f = P(agree | non-pair) from the
    candidates (truth = the planted (i, i+n) pairs), then score every
    candidate with the log-likelihood-ratio sum Σ_f ln(m_f/u_f) if it
    agrees on f else ln((1−m_f)/(1−u_f)) — THE classical ER match
    score (1969), still the backbone of production linkage systems.

    Exactness: m/u are ratios of exact integer agreement counts;
    per-field weights are fixed-point-quantized ln ratios (scalar libm
    log, mirrored), so each pair's score is an exact integer SUM of
    quantized terms. Laplace +1/+2 smoothing keeps every log finite.

    Output: per candidate pair (a, b, is_match, agree bits, score_q).

    Distributed shape: the agreement bits ride on the SNM pair stream
    (pair-local); the m/u aggregate is ONE tiny fold; scoring is a
    second map over the same stream with the 6 weights broadcast.
    """
    from .queries_wave24 import q_snm_pairs

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    n_docs = docs.count()

    from ..functions.hashing import hash64
    from ..stages.graph import attach_node_value

    # per-record feature CODE: len-bucket in the high 16 bits, a 48-bit
    # first-token hash below — one int64 the bucketed attach can carry;
    # the score only ever COMPARES features, never decodes them. (A
    # driver-side id→feature dict would be O(corpus) driver state — the
    # exact anti-pattern the attach exists to avoid.)
    def feats(batch: pa.Table) -> pa.Table:
        ids_out, code = [], []
        for did, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            for off, toks in ((0, (t or "").split()), (n_docs, (t or "").split()[1:])):
                lb = len(toks) // 10
                fth = (
                    int(hash64([toks[0]])[0] >> np.uint64(16))
                    if toks
                    else 0
                )
                ids_out.append(did + off)
                code.append((lb << 48) | fth)
        return pa.table(
            {
                "id": pa.array(ids_out, pa.int64()),
                "code": pa.array(code, pa.int64()),
            }
        )

    fvals = docs.map_batches(feats, batch_format="pyarrow")

    pairs = q_snm_pairs(sf_dir)
    base_cols = ["a", "b", "rank_dist", "same_key"]
    withf = attach_node_value(
        pairs, fvals, key_col="a", out_col="fa", schema_cols=base_cols
    )
    withf = attach_node_value(
        withf, fvals, key_col="b", out_col="fb",
        schema_cols=base_cols + ["fa"],
    )

    def agree(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch.column("b").to_numpy(zero_copy_only=False).astype(np.int64)
        sk = batch.column("same_key").to_numpy(zero_copy_only=False).astype(np.int64)
        fa = batch.column("fa").to_numpy(zero_copy_only=False).astype(np.int64)
        fb = batch.column("fb").to_numpy(zero_copy_only=False).astype(np.int64)
        mask = (1 << 48) - 1
        return pa.table(
            {
                "a": pa.array(a, pa.int64()),
                "b": pa.array(b, pa.int64()),
                "is_match": pa.array(
                    ((b - a == n_docs) & (a < n_docs)).astype(np.int64),
                    pa.int64(),
                ),
                "g_key": pa.array(sk, pa.int64()),
                "g_len": pa.array(
                    ((fa >> 48) == (fb >> 48)).astype(np.int64), pa.int64()
                ),
                "g_ft": pa.array(
                    ((fa & mask) == (fb & mask)).astype(np.int64), pa.int64()
                ),
            }
        )

    tagged = withf.map_batches(agree, batch_format="pyarrow").materialize()

    stats = (
        tagged.groupby("is_match")
        .aggregate(
            ray.data.aggregate.Count(alias_name="n"),
            ray.data.aggregate.Sum("g_key", alias_name="a_key"),
            ray.data.aggregate.Sum("g_len", alias_name="a_len"),
            ray.data.aggregate.Sum("g_ft", alias_name="a_ft"),
        )
        .take_all()  # bounded: global agreement-count fold (few scalar sums)
    )
    by = {int(r["is_match"]): r for r in stats}
    weights = {}
    for f in ("key", "len", "ft"):
        m = (int(by[1][f"a_{f}"]) + 1) / (int(by[1]["n"]) + 2)
        u = (int(by[0][f"a_{f}"]) + 1) / (int(by[0]["n"]) + 2)
        weights[f] = (
            math.floor(math.log(m / u) * 1e9 + 0.5),
            math.floor(math.log((1.0 - m) / (1.0 - u)) * 1e9 + 0.5),
        )
    wref = ray.put(weights)

    def score(batch: pa.Table) -> pa.Table:
        wt = ray.get(wref)
        s = np.zeros(batch.num_rows, np.int64)
        for f in ("key", "len", "ft"):
            g = batch.column(f"g_{f}").to_numpy(zero_copy_only=False)
            s += np.where(g == 1, wt[f][0], wt[f][1])
        return batch.append_column("score_q", pa.array(s, pa.int64()))

    return tagged.map_batches(score, batch_format="pyarrow")


def _sql_fellegi_sunter(oracles: dict) -> str:
    return rf"""
WITH cand AS MATERIALIZED ({oracles["snm_pairs"].strip()}),
nn AS (SELECT CAST(COUNT(*) AS BIGINT) AS c FROM documents),
toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS t
  FROM documents
),
feat AS MATERIALIZED (
  SELECT doc_id AS id, len(t) // 10 AS lb,
         COALESCE(t[1], '') AS ft
  FROM toks
  UNION ALL
  SELECT doc_id + nn.c, len(t[2:]) // 10, COALESCE(t[2], '')
  FROM toks, nn
),
ag AS MATERIALIZED (
  SELECT c.a, c.b,
         CASE WHEN c.b - c.a = nn.c AND c.a < nn.c THEN 1 ELSE 0 END
           AS is_match,
         c.same_key AS g_key,
         CASE WHEN fa.lb = fb.lb THEN 1 ELSE 0 END AS g_len,
         CASE WHEN fa.ft = fb.ft THEN 1 ELSE 0 END AS g_ft
  FROM cand c
  JOIN feat fa ON fa.id = c.a
  JOIN feat fb ON fb.id = c.b
  CROSS JOIN nn
),
st AS (
  SELECT is_match, CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(g_key) AS BIGINT) AS a_key,
         CAST(SUM(g_len) AS BIGINT) AS a_len,
         CAST(SUM(g_ft) AS BIGINT) AS a_ft
  FROM ag GROUP BY is_match
),
w AS (
  SELECT
    CAST(floor(ln(((m.a_key + 1) / CAST(m.n + 2 AS DOUBLE))
               / ((u.a_key + 1) / CAST(u.n + 2 AS DOUBLE))) * 1e9 + 5e-1)
         AS BIGINT) AS w_key_1,
    CAST(floor(ln((1e0 - (m.a_key + 1) / CAST(m.n + 2 AS DOUBLE))
               / (1e0 - (u.a_key + 1) / CAST(u.n + 2 AS DOUBLE))) * 1e9 + 5e-1)
         AS BIGINT) AS w_key_0,
    CAST(floor(ln(((m.a_len + 1) / CAST(m.n + 2 AS DOUBLE))
               / ((u.a_len + 1) / CAST(u.n + 2 AS DOUBLE))) * 1e9 + 5e-1)
         AS BIGINT) AS w_len_1,
    CAST(floor(ln((1e0 - (m.a_len + 1) / CAST(m.n + 2 AS DOUBLE))
               / (1e0 - (u.a_len + 1) / CAST(u.n + 2 AS DOUBLE))) * 1e9 + 5e-1)
         AS BIGINT) AS w_len_0,
    CAST(floor(ln(((m.a_ft + 1) / CAST(m.n + 2 AS DOUBLE))
               / ((u.a_ft + 1) / CAST(u.n + 2 AS DOUBLE))) * 1e9 + 5e-1)
         AS BIGINT) AS w_ft_1,
    CAST(floor(ln((1e0 - (m.a_ft + 1) / CAST(m.n + 2 AS DOUBLE))
               / (1e0 - (u.a_ft + 1) / CAST(u.n + 2 AS DOUBLE))) * 1e9 + 5e-1)
         AS BIGINT) AS w_ft_0
  FROM (SELECT * FROM st WHERE is_match = 1) m,
       (SELECT * FROM st WHERE is_match = 0) u
)
SELECT ag.a, ag.b, ag.is_match, ag.g_key, ag.g_len, ag.g_ft,
       CAST(CASE WHEN ag.g_key = 1 THEN w.w_key_1 ELSE w.w_key_0 END
          + CASE WHEN ag.g_len = 1 THEN w.w_len_1 ELSE w.w_len_0 END
          + CASE WHEN ag.g_ft = 1 THEN w.w_ft_1 ELSE w.w_ft_0 END
          AS BIGINT) AS score_q
FROM ag, w
"""
