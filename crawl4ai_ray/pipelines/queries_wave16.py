"""Sixteenth-wave operators (round-3 continuation session, 2026-08-20).

Listed by name in ``queries.py``'s QUERIES/ORACLES.

House rules throughout: Arrow batches end to end, map-side partials
before any groupby, broadcast small sides via ``ray.put``, bucketed
union+groupby instead of ``Dataset.join``, and an operand-for-operand
DuckDB oracle for every query (integer accumulation, float divisions
mirrored operand-for-operand, scalar libm for transcendentals with
zipf_fit fixed-point quantization where sums of ln terms are needed).
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# bowtie_components — Broder web-graph bowtie decomposition around a pivot
# ---------------------------------------------------------------------------


def q_bowtie_components(sf_dir: str):
    """Bowtie decomposition of the directed link graph relative to the
    pivot page (doc 0), after Broder et al. (WWW 2000): every node is
    classified by reachability — ``scc`` (reaches the pivot AND is
    reached by it: the pivot's strongly connected component plus
    nothing else, by Broder's construction), ``in`` (reaches the pivot
    only), ``out`` (reached from the pivot only), ``other`` (neither) —
    the standard macro-structure census of a crawl's link graph.

    Distributed shape: ONE run of the shared ``multi_source_bfs``
    min-label-propagation kernel over the DISJOINT UNION of the forward
    graph and the reversed copy (reverse-copy node ids offset by 2³¹;
    the reversal itself is a free column swap in the edge map), seeded
    at {0, 0+2³¹} — both reachability sweeps share every per-sweep
    shuffle instead of paying the fixed sweep cost twice sequentially.
    Then two bucketed ``attach_node_value`` flag attaches onto the node
    list and a vectorized CASE. No driver-resident reachable sets: the
    BFS outputs stay Datasets end to end.
    """
    from ..stages.graph import attach_node_value, multi_source_bfs
    from .queries import _synthetic_link_edges

    OFF = 1 << 31  # reverse-copy offset; seeds must fit in uint32

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    nodes = docs.map_batches(
        lambda b: pa.table({"node": b.column("doc_id").cast(pa.int64())}),
        batch_format="pyarrow",
    )
    edges = _synthetic_link_edges(sf_dir)

    def both_copies_nodes(batch: pa.Table) -> pa.Table:
        n = batch.column("node").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"node": pa.array(np.concatenate([n, n + OFF]), pa.int64())})

    def both_copies_edges(batch: pa.Table) -> pa.Table:
        s = batch.column("src").to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch.column("dst").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "src": pa.array(np.concatenate([s, d + OFF]), pa.int64()),
                "dst": pa.array(np.concatenate([d, s + OFF]), pa.int64()),
            }
        )

    nodes2 = nodes.map_batches(both_copies_nodes, batch_format="pyarrow")
    edges2 = edges.map_batches(both_copies_edges, batch_format="pyarrow")
    # materialized: consumed by BOTH flag splits (fwd + bwd) — without it
    # the whole BFS fixpoint would re-run for the second consumer
    reach = multi_source_bfs(nodes2, edges2, [0, OFF]).materialize()

    def split_flags(which: int):
        def fn(batch: pa.Table) -> pa.Table:
            n = batch.column("node").to_numpy(zero_copy_only=False).astype(np.int64)
            m = (n >= OFF) if which else (n < OFF)
            kept = n[m] - (OFF if which else 0)
            return pa.table(
                {
                    "node": pa.array(kept, pa.int64()),
                    "one": pa.array(np.ones(len(kept), np.int64), pa.int64()),
                }
            )

        return fn

    fwd = reach.map_batches(split_flags(0), batch_format="pyarrow")
    bwd = reach.map_batches(split_flags(1), batch_format="pyarrow")

    base = nodes.map_batches(
        lambda b: pa.table({"node": b.column("node")}), batch_format="pyarrow"
    )
    with_f = attach_node_value(base, fwd, "node", "f", ["node"])
    with_fb = attach_node_value(with_f, bwd, "node", "b", ["node", "f"])

    def classify(batch: pa.Table) -> pa.Table:
        f = batch.column("f").to_numpy(zero_copy_only=False) == 1
        bk = batch.column("b").to_numpy(zero_copy_only=False) == 1
        comp = np.where(
            f & bk, "scc", np.where(f, "out", np.where(bk, "in", "other"))
        )
        return pa.table(
            {
                "doc_id": batch.column("node").cast(pa.int64()),
                "comp": pa.array(comp.tolist(), pa.string()),
            }
        )

    return with_fb.map_batches(classify, batch_format="pyarrow")


SQL_BOWTIE_COMPONENTS = """
WITH RECURSIVE nn AS (SELECT COUNT(*) AS c FROM documents),
child AS (
  SELECT DISTINCT src_id, dst_id FROM (
    SELECT doc_id AS src_id, (2 * doc_id + 1) % nn.c AS dst_id FROM documents, nn
    UNION ALL
    SELECT doc_id, (2 * doc_id + 2) % nn.c FROM documents, nn
    UNION ALL
    SELECT doc_id, (7 * doc_id + 3) % nn.c FROM documents, nn
  )
),
fwd(node) AS (
  SELECT CAST(0 AS BIGINT)
  UNION
  SELECT c.dst_id FROM child c JOIN fwd ON c.src_id = fwd.node
),
bwd(node) AS (
  SELECT CAST(0 AS BIGINT)
  UNION
  SELECT c.src_id FROM child c JOIN bwd ON c.dst_id = bwd.node
)
SELECT d.doc_id,
       CASE WHEN f.node IS NOT NULL AND b.node IS NOT NULL THEN 'scc'
            WHEN f.node IS NOT NULL THEN 'out'
            WHEN b.node IS NOT NULL THEN 'in'
            ELSE 'other' END AS comp
FROM documents d
LEFT JOIN fwd f ON f.node = d.doc_id
LEFT JOIN bwd b ON b.node = d.doc_id
"""


# ---------------------------------------------------------------------------
# embedding_dim_stats — per-dimension whitening statistics (fixed-point exact)
# ---------------------------------------------------------------------------

_EDS_SCALE = 65536.0  # 2^16 quantization — headroom: q² ≈ 4e11 per element


def q_embedding_dim_stats(sf_dir: str):
    """Per-dimension mean/variance of the embedding table — the
    whitening statistics that PCA/SemDeDup-style pipelines center and
    scale by before any cosine or clustering step, and the first
    diagnostic for a collapsed embedding dimension (var → 0).

    Float discipline: every float32 component is fixed-point-quantized
    to q = floor(x·2¹⁶ + 0.5) (float32 → DOUBLE is exact, the multiply
    and floor are IEEE-identical on both engines); Σq and Σq² are then
    EXACT integers (HUGEINT in SQL), and mean/var are the only float
    operations, mirrored operand-for-operand:
    mean = (Σq/n)/2¹⁶, var = (Σq²/n − (Σq/n)²)/2³².

    Distributed shape: per-batch per-dim partial sums over the
    zero-copy flattened list buffer (one reshape + two np.sum(axis=0) —
    never a python loop over rows), emitting exactly ``dim`` rows per
    batch; ONE groupby(dim) closes it. The embedding table never
    shuffles.
    """
    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["embedding"])

    def partial(batch: pa.Table) -> pa.Table:
        col = batch.column("embedding").combine_chunks()
        n = len(col)
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        dim = flat.size // n if n else 0
        x = flat.reshape(n, dim)
        q = np.floor(x * _EDS_SCALE + 0.5).astype(np.int64)
        return pa.table(
            {
                "dim": pa.array(np.arange(1, dim + 1, dtype=np.int64), pa.int64()),
                "n": pa.array(np.full(dim, n, np.int64), pa.int64()),
                "sq": pa.array(q.sum(axis=0), pa.int64()),
                "sqq": pa.array((q * q).sum(axis=0), pa.int64()),
            }
        )

    agg = (
        emb.map_batches(partial, batch_format="pyarrow")
        .groupby("dim")
        .aggregate(
            ray.data.aggregate.Sum("n", alias_name="n"),
            ray.data.aggregate.Sum("sq", alias_name="sum_q"),
            ray.data.aggregate.Sum("sqq", alias_name="sumsq_q"),
        )
    )

    def finish(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy(zero_copy_only=False).astype(np.float64)
        sq = batch.column("sum_q").to_numpy(zero_copy_only=False).astype(np.float64)
        sqq = batch.column("sumsq_q").to_numpy(zero_copy_only=False).astype(np.float64)
        mean = (sq / n) / _EDS_SCALE
        var = (sqq / n - (sq / n) * (sq / n)) / (_EDS_SCALE * _EDS_SCALE)
        return pa.table(
            {
                "dim": batch.column("dim").cast(pa.int64()),
                "n": batch.column("n").cast(pa.int64()),
                "sum_q": batch.column("sum_q").cast(pa.int64()),
                "sumsq_q": batch.column("sumsq_q").cast(pa.int64()),
                "mean": pa.array(mean, pa.float64()),
                "var": pa.array(var, pa.float64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


SQL_EMBEDDING_DIM_STATS = """
WITH q AS (
  SELECT i AS dim,
         CAST(floor(CAST(embedding[i] AS DOUBLE) * 6.5536e4 + 5e-1)
              AS BIGINT) AS q
  FROM embeddings, LATERAL UNNEST(range(1, len(embedding) + 1)) AS r(i)
),
agg AS (
  SELECT dim, CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(q) AS BIGINT) AS sum_q,
         CAST(SUM(CAST(q AS HUGEINT) * CAST(q AS HUGEINT)) AS BIGINT) AS sumsq_q
  FROM q GROUP BY dim
)
SELECT dim, n, sum_q, sumsq_q,
       (CAST(sum_q AS DOUBLE) / CAST(n AS DOUBLE)) / 6.5536e4 AS mean,
       (CAST(sumsq_q AS DOUBLE) / CAST(n AS DOUBLE)
         - (CAST(sum_q AS DOUBLE) / CAST(n AS DOUBLE))
           * (CAST(sum_q AS DOUBLE) / CAST(n AS DOUBLE)))
         / (6.5536e4 * 6.5536e4) AS var
FROM agg
"""


# ---------------------------------------------------------------------------
# transition_entropy — per-state entropy of the behavior Markov chain
# ---------------------------------------------------------------------------


def q_transition_entropy(sf_dir: str):
    """Per-state Shannon entropy of the event-type transition matrix —
    how predictable each state's successor is (H = 0: deterministic
    funnel step; H = ln k: uniform wandering). Builds directly on the
    oracle-proven ``event_transitions`` counts; the entropy fold runs
    on the ≤ |types|² matrix.

    Float discipline (zipf_fit): each ln(c_ij/c_i) is fixed-point-
    quantized with scalar libm log; S_i = Σ_j c_ij·q_ij is an exact
    integer (HUGEINT in SQL), and H_i = −(S_i/c_i)/1e9 is the only
    float arithmetic, mirrored operand-for-operand.
    """
    from .queries import q_event_transitions

    trans = q_event_transitions(sf_dir).take_all()  # ≤ |types|² — tiny
    totals: dict[str, int] = {}
    for r in trans:
        totals[r["src_type"]] = totals.get(r["src_type"], 0) + int(r["n"])
    s_q: dict[str, int] = {}
    n_dst: dict[str, int] = {}
    for r in trans:
        src, c = r["src_type"], int(r["n"])
        q = math.floor(
            math.log(float(c) / float(totals[src])) * 1e9 + 0.5
        )
        s_q[src] = s_q.get(src, 0) + c * q
        n_dst[src] = n_dst.get(src, 0) + 1
    srcs = sorted(totals)
    ent = [
        -(float(s_q[s]) / float(totals[s])) / 1e9 for s in srcs
    ]
    return pa.table(
        {
            "src_type": pa.array(srcs, pa.string()),
            "n_out": pa.array([totals[s] for s in srcs], pa.int64()),
            "n_dst_types": pa.array([n_dst[s] for s in srcs], pa.int64()),
            "sum_q": pa.array([s_q[s] for s in srcs], pa.int64()),
            "entropy": pa.array(ent, pa.float64()),
        }
    )


SQL_TRANSITION_ENTROPY = """
WITH nxt AS (
  SELECT event_type AS src_type,
         LEAD(event_type) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
         ) AS dst_type
  FROM events
),
tc AS (
  SELECT src_type, dst_type, CAST(COUNT(*) AS BIGINT) AS c
  FROM nxt WHERE dst_type IS NOT NULL
  GROUP BY src_type, dst_type
),
tot AS (
  SELECT src_type, CAST(SUM(c) AS BIGINT) AS total,
         CAST(COUNT(*) AS BIGINT) AS n_dst_types
  FROM tc GROUP BY src_type
),
qs AS (
  SELECT tc.src_type, tot.total, tot.n_dst_types,
         CAST(SUM(CAST(tc.c AS HUGEINT)
                  * CAST(floor(ln(CAST(tc.c AS DOUBLE) / CAST(tot.total AS DOUBLE))
                               * 1e9 + 5e-1) AS HUGEINT)) AS BIGINT) AS sum_q
  FROM tc JOIN tot USING (src_type)
  GROUP BY tc.src_type, tot.total, tot.n_dst_types
)
SELECT src_type, total AS n_out, n_dst_types, sum_q,
       -(CAST(sum_q AS DOUBLE) / CAST(total AS DOUBLE)) / 1e9 AS entropy
FROM qs
"""


# ---------------------------------------------------------------------------
# host_coverage_curve — Lorenz-style crawl concentration curve
# ---------------------------------------------------------------------------


def q_host_coverage_curve(sf_dir: str):
    """Crawl concentration curve: hosts ranked by page count DESC
    (host_id ASC tiebreak) with cumulative page counts and cumulative
    corpus share — the discrete Lorenz curve whose scalar summary is
    ``host_gini``. The operational question it answers: "how many hosts
    until 80% of the corpus?" — the capacity-planning view of crawl
    skew.

    Distributed shape: per-batch host partials (≤ 50 rows per batch),
    ONE groupby(host) sum; the ranked cumulative fold runs on the
    |hosts| histogram (int cumsum; the share is the ONE mirrored
    division).
    """
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        host = np.where(ids % 7 == 0, 0, ids % 50)
        h, c = np.unique(host, return_counts=True)
        return pa.table(
            {
                "host_id": pa.array(h, pa.int64()),
                "c": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    counts = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("host_id")
        .aggregate(ray.data.aggregate.Sum("c", alias_name="n_pages"))
        .take_all()  # ≤ |hosts| — tiny
    )
    counts.sort(key=lambda r: (-int(r["n_pages"]), int(r["host_id"])))
    total = sum(int(r["n_pages"]) for r in counts)
    ranks, hosts, pages, cums, shares = [], [], [], [], []
    cum = 0
    for i, r in enumerate(counts, start=1):
        cum += int(r["n_pages"])
        ranks.append(i)
        hosts.append(int(r["host_id"]))
        pages.append(int(r["n_pages"]))
        cums.append(cum)
        shares.append(float(cum) / float(total))
    return pa.table(
        {
            "rank": pa.array(ranks, pa.int64()),
            "host_id": pa.array(hosts, pa.int64()),
            "n_pages": pa.array(pages, pa.int64()),
            "cum_pages": pa.array(cums, pa.int64()),
            "cum_share": pa.array(shares, pa.float64()),
        }
    )


SQL_HOST_COVERAGE_CURVE = """
WITH hc AS (
  SELECT CASE WHEN doc_id % 7 = 0 THEN 0 ELSE doc_id % 50 END AS host_id,
         CAST(COUNT(*) AS BIGINT) AS n_pages
  FROM documents GROUP BY 1
),
t AS (SELECT CAST(SUM(n_pages) AS BIGINT) AS total FROM hc),
r AS (
  SELECT host_id, n_pages,
         CAST(row_number() OVER (ORDER BY n_pages DESC, host_id) AS BIGINT) AS rank,
         CAST(SUM(n_pages) OVER (ORDER BY n_pages DESC, host_id) AS BIGINT)
           AS cum_pages
  FROM hc
)
SELECT rank, host_id, n_pages, cum_pages,
       CAST(cum_pages AS DOUBLE) / CAST(t.total AS DOUBLE) AS cum_share
FROM r, t
"""
