"""Ninth-wave operators (round-3 continuation session, 2026-08-19).

Listed by name in ``queries.py``'s QUERIES/ORACLES.

House rules throughout: Arrow batches end to end, map-side partials
before any groupby, broadcast small sides via ``ray.put``, bucketed
union+groupby instead of ``Dataset.join``, and an operand-for-operand
DuckDB oracle for every query (scalar libm transcendentals, ordered
window sums for float accumulation, integer cross-multiplication with
at most one division per float output column).
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# token_entropy — per-doc Shannon entropy of the token distribution
# ---------------------------------------------------------------------------

def q_token_entropy(sf_dir: str):
    """Per-document token-distribution Shannon entropy — a classic
    quality/diversity feature (low entropy = repetitive/templated text;
    complements lexical_diversity's type-token ratio with a
    frequency-weighted measure). H = ln(n) − (Σ c·ln c)/n over the
    distinct-token counts c.

    Float discipline: each c·ln c term is quantized to fixed point
    (floor(term·1e9 + 0.5) — the same trick logreg_quality uses for its
    gradient sums) so Σ is an ORDER-INDEPENDENT int64 sum; a first cut
    that summed doubles in sorted-token order drifted 1 ulp on 9% of
    docs because DuckDB's cumulative window SUM is not strictly
    sequential. ln is scalar libm in both engines; the final expression
    is the identical dequantize → divide → subtract chain. Pure map
    stage — nothing shuffles."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def entropy(batch: pa.Table) -> pa.Table:
        from collections import Counter

        ids = batch.column("doc_id").to_pylist()
        n_tok, n_types, ent = [], [], []
        for text in batch.column("text").to_pylist():
            # str.split(' ') mirrors DuckDB string_split(text, ' ')
            # (consecutive separators produce empty tokens in BOTH)
            counts = Counter((text or "").split(" "))
            n = sum(counts.values())
            acc = 0
            for c in counts.values():
                acc += math.floor(float(c) * math.log(float(c)) * 1e9 + 0.5)
            n_tok.append(n)
            n_types.append(len(counts))
            ent.append(
                math.log(float(n)) - float(acc) / 1e9 / float(n) if n else 0.0
            )
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_tok": pa.array(n_tok, pa.int64()),
                "n_types": pa.array(n_types, pa.int64()),
                "entropy": pa.array(ent, pa.float64()),
            }
        )

    return docs.map_batches(entropy, batch_format="pyarrow")


SQL_TOKEN_ENTROPY = """
WITH t AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
),
c AS (
  SELECT doc_id, tok, CAST(COUNT(*) AS BIGINT) AS c
  FROM t GROUP BY doc_id, tok
),
agg AS (
  SELECT doc_id, CAST(SUM(c) AS BIGINT) AS n_tok,
         CAST(COUNT(*) AS BIGINT) AS n_types,
         CAST(SUM(CAST(floor(
           CAST(c AS DOUBLE) * ln(CAST(c AS DOUBLE)) * 1e9
             + CAST(0.5 AS DOUBLE)) AS BIGINT)) AS BIGINT) AS acc_fp
  FROM c GROUP BY doc_id
)
SELECT doc_id, n_tok, n_types,
       ln(CAST(n_tok AS DOUBLE))
         - CAST(acc_fp AS DOUBLE) / 1e9 / CAST(n_tok AS DOUBLE) AS entropy
FROM agg
"""


# ---------------------------------------------------------------------------
# assoc_rules — event-type association rules over (user, day) baskets
# ---------------------------------------------------------------------------

def q_assoc_rules(sf_dir: str):
    """Market-basket association rules over per-(user, day) event-type
    sets: for every ordered type pair (x → y) co-occurring in ≥ 25
    baskets, the support / confidence / lift triple. Distinct baskets
    via ONE groupby; pair generation is a vectorized pandas self-merge
    inside hash(basket)%P buckets (never one scheduling unit per
    basket); the 5-row type marginals are broadcast. Every float output
    is ONE division of exact int64 products, bit-identical in both
    engines."""
    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"]
    )

    def basket_rows(batch: pa.Table) -> pa.Table:
        days = batch.column("ts").cast(pa.date32()).cast(pa.int32())
        users = batch.column("user_id").cast(pa.int64())
        bk = pa.compute.add(
            pa.compute.multiply(users, pa.scalar(1_000_000, pa.int64())),
            days.cast(pa.int64()),
        )
        return pa.table({"bk": bk, "event_type": batch.column("event_type")})

    distinct = (
        events.map_batches(basket_rows, batch_format="pyarrow")
        .groupby(["bk", "event_type"])
        .count()
        .select_columns(["bk", "event_type"])
        .materialize()  # consumed three times (pairs, marginals, basket count)
    )

    n_baskets = (
        distinct.groupby("bk").count().count()
    )
    marg = {
        r["event_type"]: int(r["count()"])
        for r in distinct.groupby("event_type").count().take_all()  # bounded: one row per event_type (bounded key domain)
    }
    marg_ref = ray.put(marg)

    P = 32

    def tag(batch: pa.Table) -> pa.Table:
        bk = batch.column("bk").to_numpy(zero_copy_only=False)
        return batch.append_column(
            "bucket", pa.array((bk % P).astype(np.int64), pa.int64())
        )

    def pairs_in_bucket(g: pa.Table) -> pa.Table:
        # arrow-native (r5): sorted bk runs + per-run cross product
        bk = g.column("bk").to_numpy(zero_copy_only=False).astype(np.int64)
        et = np.asarray(g.column("event_type").to_pylist(), dtype=object)
        o = np.argsort(bk, kind="stable")
        bk, et = bk[o], et[o]
        starts = np.flatnonzero(np.r_[True, bk[1:] != bk[:-1]]) if len(bk) else np.zeros(0, np.int64)
        ends = np.r_[starts[1:], len(bk)] if len(bk) else np.zeros(0, np.int64)
        X, Y = [], []
        for s, t in zip(starts, ends):
            run = et[s:t]
            ii, jj = np.meshgrid(np.arange(len(run)), np.arange(len(run)), indexing="ij")
            mask = run[ii] != run[jj]
            X.append(run[ii[mask]])
            Y.append(run[jj[mask]])
        x = np.concatenate(X) if X else np.zeros(0, object)
        y = np.concatenate(Y) if Y else np.zeros(0, object)
        return pa.table(
            {
                "x": pa.array(x.tolist(), pa.string()),
                "y": pa.array(y.tolist(), pa.string()),
            }
        )

    nxy = (
        distinct.map_batches(tag, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(pairs_in_bucket, batch_format="pyarrow")
        .groupby(["x", "y"])
        .count()
    )

    def score(batch: pa.Table) -> pa.Table:
        mg = ray.get(marg_ref)
        xs = batch.column("x").to_pylist()
        ys = batch.column("y").to_pylist()
        n_xy = batch.column("count()").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        keep = n_xy >= 25
        xs = [x for x, k in zip(xs, keep) if k]
        ys = [y for y, k in zip(ys, keep) if k]
        n_xy = n_xy[keep]
        n_x = np.array([mg[x] for x in xs], np.int64)
        n_y = np.array([mg[y] for y in ys], np.int64)
        nb = np.int64(n_baskets)
        return pa.table(
            {
                "antecedent": pa.array(xs, pa.string()),
                "consequent": pa.array(ys, pa.string()),
                "n_xy": pa.array(n_xy, pa.int64()),
                "n_x": pa.array(n_x, pa.int64()),
                "n_y": pa.array(n_y, pa.int64()),
                "n_baskets": pa.array(np.full(len(xs), nb), pa.int64()),
                "support": pa.array(
                    n_xy.astype(np.float64) / np.float64(nb), pa.float64()
                ),
                "confidence": pa.array(
                    n_xy.astype(np.float64) / n_x.astype(np.float64),
                    pa.float64(),
                ),
                "lift": pa.array(
                    (n_xy * nb).astype(np.float64)
                    / (n_x * n_y).astype(np.float64),
                    pa.float64(),
                ),
            }
        )

    return nxy.map_batches(score, batch_format="pyarrow")


SQL_ASSOC_RULES = """
WITH b AS MATERIALIZED (
  SELECT DISTINCT user_id, CAST(ts AS DATE) AS d, event_type FROM events
),
p AS (
  SELECT b1.event_type AS x, b2.event_type AS y
  FROM b b1 JOIN b b2
    ON b1.user_id = b2.user_id AND b1.d = b2.d
   AND b1.event_type <> b2.event_type
),
nxy AS (
  SELECT x, y, CAST(COUNT(*) AS BIGINT) AS n_xy FROM p GROUP BY x, y
),
m AS (SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n FROM b GROUP BY 1),
nb AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n
  FROM (SELECT DISTINCT user_id, d FROM b)
)
SELECT nxy.x AS antecedent, nxy.y AS consequent, nxy.n_xy,
       mx.n AS n_x, my.n AS n_y, nb.n AS n_baskets,
       CAST(nxy.n_xy AS DOUBLE) / CAST(nb.n AS DOUBLE) AS support,
       CAST(nxy.n_xy AS DOUBLE) / CAST(mx.n AS DOUBLE) AS confidence,
       CAST(nxy.n_xy * nb.n AS DOUBLE) / CAST(mx.n * my.n AS DOUBLE) AS lift
FROM nxy
JOIN m mx ON mx.event_type = nxy.x
JOIN m my ON my.event_type = nxy.y
CROSS JOIN nb
WHERE nxy.n_xy >= 25
"""


# ---------------------------------------------------------------------------
# cocitation_pairs — co-citation + bibliographic coupling on the link graph
# ---------------------------------------------------------------------------

def q_cocitation_pairs(sf_dir: str):
    """Co-citation (|in(a) ∩ in(b)|, pages cited together) and
    bibliographic coupling (|out(a) ∩ out(b)|, pages citing the same
    targets) over the DIRECTED synthetic link graph — the two classic
    directed-wedge similarity measures HITS/link_prediction don't give
    (link_prediction works on the undirected simple graph). Two
    per-pivot wedge enumerations (pivot = citing page for co-citation,
    pivot = cited page for coupling), each a bucketed map_groups over
    hash(pivot)%P with a per-pivot neighbor cap; the two pair streams
    union with side flags into ONE groupby-sum. Only (pivot, neighbor)
    ids ever shuffle."""
    from .queries import _synthetic_link_edges

    edges = _synthetic_link_edges(sf_dir)

    def distinct_directed(batch: pa.Table) -> pa.Table:
        s = batch.column("src").to_numpy(zero_copy_only=False)
        d = batch.column("dst").to_numpy(zero_copy_only=False)
        keep = s != d
        return pa.table(
            {
                "src": pa.array(s[keep], pa.int64()),
                "dst": pa.array(d[keep], pa.int64()),
            }
        )

    e = (
        edges.map_batches(distinct_directed, batch_format="pyarrow")
        .groupby(["src", "dst"])
        .count()
        .select_columns(["src", "dst"])
        .materialize()  # consumed by both wedge passes
    )

    P = 32
    CAP = 256  # per-pivot neighbor cap (synthetic degrees ≤ ~6; documented
    # recall loss above the cap, same discipline as link_prediction)

    def make_wedges(pivot_col: str, other_col: str, is_cocite: int):
        def tag(batch: pa.Table) -> pa.Table:
            piv = batch.column(pivot_col).to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "bucket": pa.array((piv % P).astype(np.int64), pa.int64()),
                    "pivot": pa.array(piv, pa.int64()),
                    "other": batch.column(other_col).cast(pa.int64()),
                }
            )

        def wedges(g: pa.Table) -> pa.Table:
            # arrow-native (r5): lexsorted (pivot, other) runs
            piv = g.column("pivot").to_numpy(zero_copy_only=False).astype(np.int64)
            oth = g.column("other").to_numpy(zero_copy_only=False).astype(np.int64)
            o = np.lexsort((oth, piv))
            piv, oth = piv[o], oth[o]
            starts = np.flatnonzero(np.r_[True, piv[1:] != piv[:-1]]) if len(piv) else np.zeros(0, np.int64)
            ends = np.r_[starts[1:], len(piv)] if len(piv) else np.zeros(0, np.int64)
            out_a, out_b = [], []
            for s, t in zip(starts, ends):
                nb = oth[s:t][:CAP]
                if len(nb) < 2:
                    continue
                ia, ib = np.triu_indices(len(nb), k=1)
                out_a.append(nb[ia])
                out_b.append(nb[ib])
            a = np.concatenate(out_a) if out_a else np.zeros(0, np.int64)
            b = np.concatenate(out_b) if out_b else np.zeros(0, np.int64)
            n = len(a)
            return pa.table(
                {
                    "a": pa.array(a, pa.int64()),
                    "b": pa.array(b, pa.int64()),
                    "co": pa.array(
                        np.full(n, is_cocite, np.int64), pa.int64()
                    ),
                    "cp": pa.array(
                        np.full(n, 1 - is_cocite, np.int64), pa.int64()
                    ),
                }
            )

        return (
            e.map_batches(tag, batch_format="pyarrow")
            .groupby("bucket")
            .map_groups(wedges, batch_format="pyarrow")
        )

    cocite = make_wedges("src", "dst", 1)   # pairs of dsts sharing a src
    couple = make_wedges("dst", "src", 0)   # pairs of srcs sharing a dst

    both = cocite.union(couple).groupby(["a", "b"]).aggregate(
        ray.data.aggregate.Sum("co", alias_name="cocitation"),
        ray.data.aggregate.Sum("cp", alias_name="coupling"),
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "a": batch.column("a"),
                "b": batch.column("b"),
                "cocitation": batch.column("cocitation").cast(pa.int64()),
                "coupling": batch.column("coupling").cast(pa.int64()),
            }
        )

    return both.map_batches(finish, batch_format="pyarrow")


SQL_COCITATION_PAIRS = """
WITH nn AS (SELECT COUNT(*) AS c FROM documents),
raw AS (
  SELECT CAST(doc_id AS BIGINT) AS src,
         CAST((2 * doc_id + 1) % nn.c AS BIGINT) AS dst FROM documents, nn
  UNION ALL
  SELECT doc_id, (2 * doc_id + 2) % nn.c FROM documents, nn
  UNION ALL
  SELECT doc_id, (7 * doc_id + 3) % nn.c FROM documents, nn
),
e AS MATERIALIZED (SELECT DISTINCT src, dst FROM raw WHERE src <> dst),
co AS (
  SELECT e1.dst AS a, e2.dst AS b
  FROM e e1 JOIN e e2 ON e1.src = e2.src AND e1.dst < e2.dst
),
cp AS (
  SELECT e1.src AS a, e2.src AS b
  FROM e e1 JOIN e e2 ON e1.dst = e2.dst AND e1.src < e2.src
)
SELECT a, b,
       CAST(SUM(co) AS BIGINT) AS cocitation,
       CAST(SUM(cp) AS BIGINT) AS coupling
FROM (
  SELECT a, b, 1 AS co, 0 AS cp FROM co
  UNION ALL
  SELECT a, b, 0, 1 FROM cp
)
GROUP BY a, b
"""


# ---------------------------------------------------------------------------
# community_modularity — Newman modularity of the LPA communities
# ---------------------------------------------------------------------------

def q_community_modularity(sf_dir: str):
    """Newman modularity readout for the label-propagation partition —
    the quality gate a real pipeline runs after any community step.
    Per community c over the undirected simple graph restricted to
    labeled nodes: intra-edge count l_c, total endpoint degree d_c, and
    the exact integer numerator q_num = 4·m·l_c − d_c² of the
    modularity term (q_term = q_num / 4m², ONE division → bit-equal
    doubles; global Q = Σ q_term is left to the reader so no float sum
    crosses rows). Labels ride onto the edge list via two bucketed
    attach_node_value passes (union+groupby, no Dataset.join); the
    per-community stats are map-side np partials into one tiny
    groupby-sum."""
    from ..stages.graph import (
        attach_node_value,
        label_propagation,
        undirected_dedup,
    )
    from .queries import _synthetic_link_edges

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    nodes = docs.map_batches(
        lambda b: pa.table({"node": b.column("doc_id")}), batch_format="pyarrow"
    )
    edges = _synthetic_link_edges(sf_dir)
    labels = label_propagation(
        nodes, edges, seeds={i: i for i in range(5)}, n_sweeps=4
    ).materialize()  # consumed by two attaches + the n_nodes aggregate

    ue = undirected_dedup(_synthetic_link_edges(sf_dir))
    e1 = attach_node_value(ue, labels, "a", "ca", ["a", "b"])
    e2 = attach_node_value(e1, labels, "b", "cb", ["a", "b", "ca"])

    def keep_labeled(batch: pa.Table) -> pa.Table:
        ca = batch.column("ca").to_numpy(zero_copy_only=False)
        cb = batch.column("cb").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array((ca >= 0) & (cb >= 0)))

    re = e2.map_batches(keep_labeled, batch_format="pyarrow").materialize()
    m = re.count()

    def edge_partials(batch: pa.Table) -> pa.Table:
        ca = batch.column("ca").to_numpy(zero_copy_only=False)
        cb = batch.column("cb").to_numpy(zero_copy_only=False)
        # d_c: every endpoint; l_c: intra edges once (on ca == cb)
        comms, d = np.unique(np.concatenate([ca, cb]), return_counts=True)
        intra_c, intra_n = np.unique(ca[ca == cb], return_counts=True)
        lmap = dict(zip(intra_c, intra_n))
        return pa.table(
            {
                "community": pa.array(comms, pa.int64()),
                "l_c": pa.array(
                    [int(lmap.get(c, 0)) for c in comms], pa.int64()
                ),
                "d_c": pa.array(d.astype(np.int64), pa.int64()),
                "n_nodes": pa.array(np.zeros(len(comms), np.int64), pa.int64()),
            }
        )

    def node_partials(batch: pa.Table) -> pa.Table:
        c, n = np.unique(
            batch.column("community").to_numpy(zero_copy_only=False),
            return_counts=True,
        )
        z = np.zeros(len(c), np.int64)
        return pa.table(
            {
                "community": pa.array(c, pa.int64()),
                "l_c": pa.array(z, pa.int64()),
                "d_c": pa.array(z, pa.int64()),
                "n_nodes": pa.array(n.astype(np.int64), pa.int64()),
            }
        )

    combined = (
        re.map_batches(edge_partials, batch_format="pyarrow")
        .union(labels.map_batches(node_partials, batch_format="pyarrow"))
        .groupby("community")
        .aggregate(
            ray.data.aggregate.Sum("l_c", alias_name="l_c"),
            ray.data.aggregate.Sum("d_c", alias_name="d_c"),
            ray.data.aggregate.Sum("n_nodes", alias_name="n_nodes"),
        )
    )

    def score(batch: pa.Table) -> pa.Table:
        l_c = batch.column("l_c").to_numpy(zero_copy_only=False).astype(np.int64)
        d_c = batch.column("d_c").to_numpy(zero_copy_only=False).astype(np.int64)
        q_num = 4 * m * l_c - d_c * d_c
        q_term = q_num.astype(np.float64) / np.float64(4 * m * m)
        return pa.table(
            {
                "community": batch.column("community").cast(pa.int64()),
                "n_nodes": batch.column("n_nodes").cast(pa.int64()),
                "l_c": pa.array(l_c, pa.int64()),
                "d_c": pa.array(d_c, pa.int64()),
                "q_num": pa.array(q_num, pa.int64()),
                "q_term": pa.array(q_term, pa.float64()),
            }
        )

    return combined.map_batches(score, batch_format="pyarrow")


def _community_modularity_sql(n_sweeps: int = 4) -> str:
    from .queries import _label_prop_ctes

    return (
        "WITH "
        + _label_prop_ctes(n_sweeps)
        + f""",
lab AS MATERIALIZED (
  SELECT node, CAST(lbl AS BIGINT) AS community
  FROM lab{n_sweeps} WHERE lbl IS NOT NULL
),
ue AS MATERIALIZED (
  SELECT DISTINCT LEAST(src, dst) AS a, GREATEST(src, dst) AS b
  FROM e WHERE src <> dst
),
re AS MATERIALIZED (
  SELECT ue.a, ue.b, la.community AS ca, lb.community AS cb
  FROM ue JOIN lab la ON la.node = ue.a JOIN lab lb ON lb.node = ue.b
),
mm AS (SELECT CAST(COUNT(*) AS BIGINT) AS m FROM re),
lc AS (
  SELECT ca AS community, CAST(COUNT(*) AS BIGINT) AS l_c
  FROM re WHERE ca = cb GROUP BY 1
),
dc AS (
  SELECT community, CAST(COUNT(*) AS BIGINT) AS d_c FROM (
    SELECT ca AS community FROM re UNION ALL SELECT cb FROM re
  ) GROUP BY 1
),
nc AS (
  SELECT community, CAST(COUNT(*) AS BIGINT) AS n_nodes FROM lab GROUP BY 1
)
SELECT nc.community, nc.n_nodes,
       CAST(COALESCE(lc.l_c, 0) AS BIGINT) AS l_c,
       CAST(COALESCE(dc.d_c, 0) AS BIGINT) AS d_c,
       CAST(4 * mm.m * COALESCE(lc.l_c, 0)
            - COALESCE(dc.d_c, 0) * COALESCE(dc.d_c, 0) AS BIGINT) AS q_num,
       CAST(4 * mm.m * COALESCE(lc.l_c, 0)
            - COALESCE(dc.d_c, 0) * COALESCE(dc.d_c, 0) AS DOUBLE)
         / CAST(4 * mm.m * mm.m AS DOUBLE) AS q_term
FROM nc
LEFT JOIN lc USING (community)
LEFT JOIN dc USING (community)
CROSS JOIN mm
"""
    )


# ---------------------------------------------------------------------------
# hard_negatives — nearest different-label neighbor per query embedding
# ---------------------------------------------------------------------------

def q_hard_negatives(sf_dir: str):
    """Contrastive-training hard-negative mining: for each query vector
    (vec_id % 50 == 0) the single nearest neighbor carrying a DIFFERENT
    label — exact integer fixed-point squared L2 (the brute_l2fp
    quantize + tie discipline: ties → lowest neighbor id), so the
    oracle recomputes it operand-for-operand. Broadcast (Q, d) query
    matrix + labels, per-batch masked argmin, one tiny per-query
    reduce. The embeddings table streams once; nothing but (query,
    candidate) rows shuffle."""
    from ..stages.cluster import quantize_embeddings

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")

    def pick_queries(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids % 50 == 0))

    qrows = emb.map_batches(pick_queries, batch_format="pyarrow").take_all()  # scale-note: fixed-rate sampled pool (shrink the rate with corpus size at web scale)
    qrows.sort(key=lambda r: r["vec_id"])
    qtab = pa.Table.from_pylist(qrows)
    q_fp = quantize_embeddings(qtab)
    q_ids = np.array([r["vec_id"] for r in qrows], np.int64)
    q_labels = np.array([r["label"] for r in qrows], np.int64)
    q_ref = ray.put((q_ids, q_labels, q_fp))

    class HardNeg:
        def __init__(self):
            self.q_ids, self.q_labels, self.q_fp = ray.get(q_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            out = {
                "query_id": [],
                "query_label": [],
                "neg_id": [],
                "neg_label": [],
                "dist_fp": [],
            }
            if batch.num_rows:
                ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
                labels = batch.column("label").to_numpy(
                    zero_copy_only=False
                ).astype(np.int64)
                x = quantize_embeddings(batch)
                for qi in range(len(self.q_ids)):
                    mask = labels != self.q_labels[qi]
                    if not mask.any():
                        continue
                    diff = x[mask] - self.q_fp[qi][None, :]
                    dist = np.einsum("nd,nd->n", diff, diff)
                    cand_ids = ids[mask]
                    best = np.lexsort((cand_ids, dist))[0]
                    out["query_id"].append(int(self.q_ids[qi]))
                    out["query_label"].append(int(self.q_labels[qi]))
                    out["neg_id"].append(int(cand_ids[best]))
                    out["neg_label"].append(int(labels[mask][best]))
                    out["dist_fp"].append(int(dist[best]))
            return pa.table(
                {k: pa.array(v, pa.int64()) for k, v in out.items()}
            )

    cand = emb.map_batches(
        HardNeg, batch_format="pyarrow", batch_size=1024, concurrency=(1, 8)
    )

    def reduce_q(group: pa.Table) -> pa.Table:
        dist = group.column("dist_fp").to_numpy(zero_copy_only=False)
        nid = group.column("neg_id").to_numpy(zero_copy_only=False)
        best = np.lexsort((nid, dist))[0]
        return group.take([best])

    return cand.groupby("query_id").map_groups(reduce_q, batch_format="pyarrow")


SQL_HARD_NEGATIVES = """
WITH q AS (
  SELECT vec_id AS qid, label AS qlab, embedding AS e
  FROM embeddings WHERE vec_id % 50 = 0
),
qf AS (
  SELECT qid, generate_subscripts(e, 1) AS dim,
         CAST(floor(CAST(unnest(e) AS DOUBLE) * 1048576.0
                    + CAST(0.5 AS DOUBLE)) AS BIGINT) AS v
  FROM q
),
xf AS (
  SELECT vec_id, generate_subscripts(embedding, 1) AS dim,
         CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1048576.0
                    + CAST(0.5 AS DOUBLE)) AS BIGINT) AS v
  FROM embeddings
),
d AS (
  SELECT qf.qid, xf.vec_id,
         CAST(SUM((qf.v - xf.v) * (qf.v - xf.v)) AS BIGINT) AS dist_fp
  FROM qf JOIN xf USING (dim)
  GROUP BY qf.qid, xf.vec_id
),
r AS (
  SELECT d.qid AS query_id,
         CAST(ql.label AS BIGINT) AS query_label,
         d.vec_id AS neg_id,
         CAST(xl.label AS BIGINT) AS neg_label,
         d.dist_fp,
         row_number() OVER (
           PARTITION BY d.qid ORDER BY d.dist_fp, d.vec_id
         ) AS rn
  FROM d
  JOIN embeddings ql ON ql.vec_id = d.qid
  JOIN embeddings xl ON xl.vec_id = d.vec_id
  WHERE xl.label <> ql.label
)
SELECT query_id, query_label, neg_id, neg_label, dist_fp
FROM r WHERE rn = 1
"""


# ---------------------------------------------------------------------------
# containment_pairs — asymmetric n-gram containment for partial copies
# ---------------------------------------------------------------------------

def q_containment_pairs(sf_dir: str):
    """Partial-copy detection: documents ∪ planted TRUNCATIONS (every
    13th doc's first 15 tokens at doc_id + 2_000_000 — the excerpt case
    whose Jaccard vs its source is far below any dedup threshold but
    whose containment is 1.0), then exact all-pairs 3-gram containment
    ≥ 0.8 via stages/dedup.py:ngram_containment_pairs (postings-based,
    docs never shuffle, integer cross-multiplied threshold)."""
    from ..stages.dedup import ngram_containment_pairs

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def truncated(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        keep = ids % 13 == 0
        texts = [
            " ".join(t.split()[:15])
            for t, k in zip(batch.column("text").to_pylist(), keep)
            if k
        ]
        return pa.table(
            {
                "doc_id": pa.array(ids[keep] + 2_000_000, pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )

    corpus = docs.union(docs.map_batches(truncated, batch_format="pyarrow"))
    return ngram_containment_pairs(corpus, tau=0.8, shingle=3)


SQL_CONTAINMENT_PAIRS = r"""
WITH base AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 2000000,
         array_to_string(
           list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '')[1:15],
           ' ')
  FROM documents WHERE doc_id % 13 = 0
),
toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS t
  FROM base
),
grams AS (
  SELECT DISTINCT doc_id, g
  FROM (
    SELECT doc_id,
      CASE WHEN len(t) < 3 THEN [array_to_string(t, ' ')]
           ELSE [t[i] || ' ' || t[i+1] || ' ' || t[i+2]
                 FOR i IN generate_series(1, len(t) - 2)]
      END AS gl
    FROM toks WHERE len(t) > 0
  ), UNNEST(gl) AS u(g)
),
sizes AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS sz FROM grams GROUP BY doc_id),
inter AS (
  SELECT ga.doc_id AS a, gb.doc_id AS b, CAST(COUNT(*) AS BIGINT) AS i
  FROM grams ga JOIN grams gb ON ga.g = gb.g AND ga.doc_id < gb.doc_id
  GROUP BY 1, 2
)
SELECT i.a, i.b, i.i AS inter, sa.sz AS sa, sb.sz AS sb,
       CAST(i.i AS DOUBLE) / CAST(LEAST(sa.sz, sb.sz) AS DOUBLE) AS containment
FROM inter i
JOIN sizes sa ON sa.doc_id = i.a
JOIN sizes sb ON sb.doc_id = i.b
WHERE i.i * 1000 >= 800 * LEAST(sa.sz, sb.sz)
"""


# ---------------------------------------------------------------------------
# random_walks — deterministic k-step random walks over the link graph
# ---------------------------------------------------------------------------

# adjacency-size bound for the walk broadcast path (tests pin both paths)
_RW_BROADCAST_CAP = 1_000_000


def _walk_choose(wid: int, step: int, nbrs: list) -> int:
    """The md5-keyed neighbor choice. ONE definition shared by the
    broadcast and bucketed paths — their bit-identity is load-bearing
    (oracle + dual-path parity test)."""
    import hashlib

    return min(
        nbrs,
        key=lambda d: (hashlib.md5(f"{wid}|{step}|{d}".encode()).hexdigest(), d),
    )


def q_random_walks(sf_dir: str):
    """Deterministic 4-step random walks (the node2vec/DeepWalk sampling
    primitive) from seed pages doc_id % 97 == 0: at move i from node v,
    the walk steps to the out-neighbor minimizing
    md5(f"{walk_id}|{i}|{dst}") — an md5-keyed choice the oracle
    reproduces verbatim. Each move is ONE bucketed union+groupby join
    (walk positions shuffle to their node's hash(node)%P bucket where
    the adjacency rows live — the Pregel random-walk pattern; the edge
    list never leaves its buckets conceptually, and only (walk, node)
    int rows move). Output = the full trajectories (walk_id, step,
    node), step 0..4."""
    from .queries import _synthetic_link_edges

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    edges = (
        _synthetic_link_edges(sf_dir)
        .map_batches(
            lambda b: pa.table(
                {
                    "src": b.column("src"),
                    "dst": b.column("dst"),
                }
            ).filter(
                pa.compute.not_equal(b.column("src"), b.column("dst"))
            ),
            batch_format="pyarrow",
        )
        .groupby(["src", "dst"])
        .count()
        .select_columns(["src", "dst"])
        .materialize()  # reused every move
    )

    P = 32

    def seeds(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        keep = ids % 97 == 0
        return pa.table(
            {
                "walk_id": pa.array(ids[keep], pa.int64()),
                "node": pa.array(ids[keep], pa.int64()),
            }
        )

    cur = docs.map_batches(seeds, batch_format="pyarrow")
    trail = [cur]

    # adaptive transport (the kcore discipline): a small adjacency list
    # travels ONCE via plasma and every move is a shuffle-free
    # map_batches; above the cap each move is the bucketed union+groupby
    # below. Identical md5-keyed choice either way (locked by the
    # brute-force parity test and the oracle).
    n_edges = edges.count()
    if n_edges <= _RW_BROADCAST_CAP:
        adj_all: dict[int, list] = {}
        # batch-wise fold: no per-row dict materialization on the driver
        for eb in edges.iter_batches(batch_format="pyarrow"):
            for s, d in zip(
                eb.column("src").to_numpy(zero_copy_only=False),
                eb.column("dst").to_numpy(zero_copy_only=False),
            ):
                adj_all.setdefault(int(s), []).append(int(d))
        adj_ref = ray.put(adj_all)

        def make_bcast_step(i: int):
            def move(batch: pa.Table) -> pa.Table:
                adj = ray.get(adj_ref)
                out_w, out_n = [], []
                for wid, node in zip(
                    batch.column("walk_id").to_pylist(),
                    batch.column("node").to_pylist(),
                ):
                    nbrs = adj.get(int(node))
                    if not nbrs:
                        continue  # dead end: walk stops
                    out_w.append(int(wid))
                    out_n.append(_walk_choose(int(wid), i, nbrs))
                return pa.table(
                    {
                        "walk_id": pa.array(out_w, pa.int64()),
                        "node": pa.array(out_n, pa.int64()),
                    }
                )

            return move

        for i in range(4):
            cur = cur.map_batches(make_bcast_step(i), batch_format="pyarrow")
            trail.append(cur)
        return _stamp_trail(trail)

    def tag_edges(batch: pa.Table) -> pa.Table:
        src = batch.column("src").to_numpy(zero_copy_only=False)
        n = len(src)
        return pa.table(
            {
                "bucket": pa.array((src % P).astype(np.int64), pa.int64()),
                "node": pa.array(src, pa.int64()),
                "walk_id": pa.array(np.full(n, -1, np.int64), pa.int64()),
                "dst": batch.column("dst").cast(pa.int64()),
            }
        )

    edges_tagged = edges.map_batches(tag_edges, batch_format="pyarrow").materialize()

    def make_step(i: int):
        def tag_walks(batch: pa.Table) -> pa.Table:
            node = batch.column("node").to_numpy(zero_copy_only=False)
            n = len(node)
            return pa.table(
                {
                    "bucket": pa.array((node % P).astype(np.int64), pa.int64()),
                    "node": pa.array(node, pa.int64()),
                    "walk_id": batch.column("walk_id").cast(pa.int64()),
                    "dst": pa.array(np.full(n, -1, np.int64), pa.int64()),
                }
            )

        def step_bucket(g: pa.Table) -> pa.Table:
            # arrow-in (r5): same row-order-preserving adjacency fold,
            # no pandas block conversion
            wid_all = g.column("walk_id").to_numpy(zero_copy_only=False)
            node_all = g.column("node").to_numpy(zero_copy_only=False)
            dst_all = g.column("dst").to_numpy(zero_copy_only=False)
            em = wid_all < 0
            adj: dict = {}
            for node, dst in zip(node_all[em], dst_all[em]):
                adj.setdefault(int(node), []).append(int(dst))
            out_w, out_n = [], []
            for wid, node in zip(wid_all[~em], node_all[~em]):
                nbrs = adj.get(int(node))
                if not nbrs:
                    continue  # dead end: walk stops
                out_w.append(int(wid))
                out_n.append(_walk_choose(int(wid), i, nbrs))
            return pa.table(
                {
                    "walk_id": pa.array(out_w, pa.int64()),
                    "node": pa.array(out_n, pa.int64()),
                }
            )

        return tag_walks, step_bucket

    for i in range(4):
        tag_walks, step_bucket = make_step(i)
        cur = (
            cur.map_batches(tag_walks, batch_format="pyarrow")
            .union(edges_tagged)
            .groupby("bucket")
            .map_groups(step_bucket, batch_format="pyarrow")
        )
        trail.append(cur)

    return _stamp_trail(trail)


def _stamp_trail(trail: list) -> "ray.data.Dataset":
    """(walk_id, node) per step → the unioned (walk_id, step, node)
    trajectory table."""

    def stamp(step: int):
        def add(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "walk_id": batch.column("walk_id").cast(pa.int64()),
                    "step": pa.array(
                        np.full(batch.num_rows, step, np.int64), pa.int64()
                    ),
                    "node": batch.column("node").cast(pa.int64()),
                }
            )

        return add

    out = trail[0].map_batches(stamp(0), batch_format="pyarrow")
    for s, ds in enumerate(trail[1:], start=1):
        out = out.union(ds.map_batches(stamp(s), batch_format="pyarrow"))
    return out


def _random_walks_sql(n_steps: int = 4) -> str:
    parts = [
        """nn AS (SELECT COUNT(*) AS c FROM documents),
raw AS (
  SELECT CAST(doc_id AS BIGINT) AS src,
         CAST((2 * doc_id + 1) % nn.c AS BIGINT) AS dst FROM documents, nn
  UNION ALL
  SELECT doc_id, (2 * doc_id + 2) % nn.c FROM documents, nn
  UNION ALL
  SELECT doc_id, (7 * doc_id + 3) % nn.c FROM documents, nn
),
e AS MATERIALIZED (SELECT DISTINCT src, dst FROM raw WHERE src <> dst),
w0 AS MATERIALIZED (
  SELECT CAST(doc_id AS BIGINT) AS walk_id, CAST(doc_id AS BIGINT) AS node
  FROM documents WHERE doc_id % 97 = 0
)"""
    ]
    for t in range(1, n_steps + 1):
        parts.append(
            f"""w{t} AS MATERIALIZED (
  SELECT walk_id, node FROM (
    SELECT w.walk_id, e.dst AS node,
           row_number() OVER (
             PARTITION BY w.walk_id
             ORDER BY md5(CAST(w.walk_id AS VARCHAR) || '|' ||
                          CAST({t - 1} AS VARCHAR) || '|' ||
                          CAST(e.dst AS VARCHAR)), e.dst) AS rn
    FROM w{t - 1} w JOIN e ON e.src = w.node
  ) WHERE rn = 1
)"""
        )
    selects = [
        f"SELECT walk_id, CAST({t} AS BIGINT) AS step, node FROM w{t}"
        for t in range(n_steps + 1)
    ]
    return "WITH " + ",\n".join(parts) + "\n" + "\nUNION ALL\n".join(selects)


# ---------------------------------------------------------------------------
# vocab_growth — Heaps'-law vocabulary growth over the token stream
# ---------------------------------------------------------------------------

def q_vocab_growth(sf_dir: str):
    """Heaps'-law curve: distinct 3-gram vocabulary size at 5 prefix
    checkpoints (⌈T/16⌉ … T tokens) of the doc_id-ordered concatenated
    token stream. Global token offsets come from the packing two-level
    prefix scan (stages/packing.py — only (id, count) ints shuffle);
    per-gram first-occurrence positions = tok_start + in-doc index,
    attached to the exploded gram rows by ONE bucketed attach, then
    groupby(gram).min and a map-side checkpoint histogram into one tiny
    aggregate. Documents never shuffle — only int gram rows do."""
    from ..functions.hashing import hash64
    from ..stages.graph import attach_node_value
    from ..stages.packing import pack_sequences

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    offsets = pack_sequences(docs).select_columns(
        ["doc_id", "tok_start", "n_tok"]
    ).materialize()
    total = int(
        offsets.aggregate(ray.data.aggregate.Sum("n_tok", alias_name="t"))["t"]
    )
    # ceil(T/denom) checkpoints, smallest first
    marks = sorted({(total + d - 1) // d for d in (16, 8, 4, 2, 1)})
    marks_ref = ray.put(np.array(marks, np.int64))

    def gram_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        g_out, i_out, d_out = [], [], []
        for did, text in zip(ids, batch.column("text").to_pylist()):
            toks = (text or "").split()
            if len(toks) < 3:
                continue
            th = hash64(toks)
            n = len(th) - 2
            with np.errstate(over="ignore"):
                acc = np.zeros(n, dtype=np.uint64)
                for j in range(3):
                    acc = acc * np.uint64(1_000_003) + th[j : j + n]
            g_out.append(acc.view(np.int64))
            i_out.append(np.arange(n, dtype=np.int64))
            d_out.append(np.full(n, did, np.int64))
        if not g_out:
            z = np.zeros(0, np.int64)
            return pa.table(
                {
                    "gram": pa.array(z, pa.int64()),
                    "idx": pa.array(z, pa.int64()),
                    "doc_id": pa.array(z, pa.int64()),
                }
            )
        return pa.table(
            {
                "gram": pa.array(np.concatenate(g_out), pa.int64()),
                "idx": pa.array(np.concatenate(i_out), pa.int64()),
                "doc_id": pa.array(np.concatenate(d_out), pa.int64()),
            }
        )

    grams = docs.map_batches(gram_rows, batch_format="pyarrow")
    attached = attach_node_value(
        grams,
        offsets.select_columns(["doc_id", "tok_start"]),
        "doc_id",
        "tok_start",
        ["gram", "idx", "doc_id"],
    )

    def pos(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "gram": batch.column("gram"),
                "fp": pa.compute.add(
                    batch.column("tok_start"), batch.column("idx")
                ),
            }
        )

    firsts = (
        attached.map_batches(pos, batch_format="pyarrow")
        .groupby("gram")
        .min("fp")
    )

    def ck_partial(batch: pa.Table) -> pa.Table:
        mk = ray.get(marks_ref)
        fp = batch.column("min(fp)").to_numpy(zero_copy_only=False)
        # counts per checkpoint: fp < mark
        v = (fp[None, :] < mk[:, None]).sum(axis=1).astype(np.int64)
        return pa.table(
            {
                "n_tokens": pa.array(mk, pa.int64()),
                "vocab": pa.array(v, pa.int64()),
            }
        )

    return (
        firsts.map_batches(ck_partial, batch_format="pyarrow")
        .groupby("n_tokens")
        .sum("vocab")
        .map_batches(
            lambda b: pa.table(
                {
                    "n_tokens": b.column("n_tokens"),
                    "vocab": b.column("sum(vocab)").cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )


SQL_VOCAB_GROWTH = r"""
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS t
  FROM documents
),
cnt AS (SELECT doc_id, len(t) AS n FROM toks WHERE len(t) > 0),
off AS (
  SELECT doc_id,
         SUM(n) OVER (ORDER BY doc_id ROWS UNBOUNDED PRECEDING) - n
           AS tok_start
  FROM cnt
),
tot AS (SELECT CAST(SUM(n) AS BIGINT) AS t FROM cnt),
wins AS (
  SELECT doc_id, i - 1 AS idx, t[i] || ' ' || t[i+1] || ' ' || t[i+2] AS g
  FROM toks, LATERAL UNNEST(generate_series(1, len(t) - 2)) AS s(i)
  WHERE len(t) >= 3
),
firsts AS (
  SELECT g, MIN(o.tok_start + w.idx) AS fp
  FROM wins w JOIN off o USING (doc_id) GROUP BY g
),
marks AS (
  SELECT DISTINCT (tot.t + d.d - 1) // d.d AS n_tokens
  FROM tot, (SELECT UNNEST([16, 8, 4, 2, 1]) AS d) d
)
SELECT m.n_tokens,
       CAST(COUNT(*) FILTER (WHERE f.fp < m.n_tokens) AS BIGINT) AS vocab
FROM marks m CROSS JOIN firsts f
GROUP BY m.n_tokens
"""


# ---------------------------------------------------------------------------
# length_bucket_batching — padding-waste accounting for batch packing
# ---------------------------------------------------------------------------

def q_length_bucket_batching(sf_dir: str):
    """Padding-waste ledger for fixed-size-32 training batches under two
    batching schemes: 'length' (docs ranked by (n_tok, doc_id) — the
    length-bucketed batching every trainer uses to cut pad tokens) vs
    'arrival' (doc_id order). Waste per batch = n·max_len − Σlen. The
    length rank is EXACT without a global sort: counting-sort over the
    bounded token-count histogram (broadcast cumulative start ranks —
    the quality_deciles discipline) + intra-length enumeration inside
    one hash(n_tok)%P shuffle. Integer-only output."""
    from .queries import _token_counts_ds

    B = 32
    toks = _token_counts_ds(sf_dir).materialize()

    hist = toks.groupby("n_tok").count().take_all()  # bounded: doc-length histogram (length domain)
    hist.sort(key=lambda r: r["n_tok"])
    starts, acc = {}, 0
    for r in hist:
        starts[int(r["n_tok"])] = acc
        acc += int(r["count()"])
    starts_ref = ray.put(starts)
    P = 32

    def tag(batch: pa.Table) -> pa.Table:
        n = batch.column("n_tok").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "bucket": pa.array((n % P).astype(np.int64), pa.int64()),
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "n_tok": pa.array(n.astype(np.int64), pa.int64()),
            }
        )

    def rank_bucket(g: pa.Table) -> pa.Table:
        # arrow-native (r5)
        st = ray.get(starts_ref)
        g = g.sort_by([("n_tok", "ascending"), ("doc_id", "ascending")])
        n = g.column("n_tok").to_numpy(zero_copy_only=False).astype(np.int64)
        # intra-length enumeration: position within each equal-n run
        run_start = np.flatnonzero(np.r_[True, n[1:] != n[:-1]])
        offs = np.arange(len(n), dtype=np.int64)
        offs -= np.repeat(run_start, np.diff(np.r_[run_start, len(n)]))
        rank = np.array([st[int(v)] for v in n], np.int64) + offs
        return pa.table(
            {
                "doc_id": g.column("doc_id").cast(pa.int64()),
                "n_tok": pa.array(n, pa.int64()),
                "rank": pa.array(rank, pa.int64()),
            }
        )

    ranked = (
        toks.map_batches(tag, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(rank_bucket, batch_format="pyarrow")
    )

    def scheme_rows(batch: pa.Table) -> pa.Table:
        n = batch.column("n_tok").to_numpy(zero_copy_only=False)
        rk = batch.column("rank").to_numpy(zero_copy_only=False)
        did = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "scheme": pa.array(
                    ["length"] * len(n) + ["arrival"] * len(n), pa.string()
                ),
                "batch_id": pa.array(
                    np.concatenate([rk // B, did // B]), pa.int64()
                ),
                "n_tok": pa.array(np.concatenate([n, n]), pa.int64()),
            }
        )

    agg = (
        ranked.map_batches(scheme_rows, batch_format="pyarrow")
        .groupby(["scheme", "batch_id"])
        .aggregate(
            ray.data.aggregate.Count(alias_name="n_docs"),
            ray.data.aggregate.Max("n_tok", alias_name="max_len"),
            ray.data.aggregate.Sum("n_tok", alias_name="sum_tok"),
        )
    )

    def waste(batch: pa.Table) -> pa.Table:
        nd = batch.column("n_docs").to_numpy(zero_copy_only=False).astype(np.int64)
        mx = batch.column("max_len").to_numpy(zero_copy_only=False).astype(np.int64)
        sm = batch.column("sum_tok").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "scheme": batch.column("scheme"),
                "batch_id": batch.column("batch_id").cast(pa.int64()),
                "n_docs": pa.array(nd, pa.int64()),
                "max_len": pa.array(mx, pa.int64()),
                "sum_tok": pa.array(sm, pa.int64()),
                "waste": pa.array(nd * mx - sm, pa.int64()),
            }
        )

    return agg.map_batches(waste, batch_format="pyarrow")


SQL_LENGTH_BUCKET_BATCHING = r"""
WITH toks AS (
  SELECT doc_id,
         CAST(len(list_filter(regexp_split_to_array(text, '\s+'),
                              x -> x <> '')) AS BIGINT) AS n_tok
  FROM documents
),
ranked AS (
  SELECT doc_id, n_tok,
         row_number() OVER (ORDER BY n_tok, doc_id) - 1 AS rank
  FROM toks
),
rows_ AS (
  SELECT 'length' AS scheme, rank // 32 AS batch_id, n_tok FROM ranked
  UNION ALL
  SELECT 'arrival', doc_id // 32, n_tok FROM ranked
)
SELECT scheme, CAST(batch_id AS BIGINT) AS batch_id,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(MAX(n_tok) AS BIGINT) AS max_len,
       CAST(SUM(n_tok) AS BIGINT) AS sum_tok,
       CAST(COUNT(*) * MAX(n_tok) - SUM(n_tok) AS BIGINT) AS waste
FROM rows_ GROUP BY scheme, batch_id
"""


# ---------------------------------------------------------------------------
# interarrival_stats — per-user event gap statistics
# ---------------------------------------------------------------------------

def q_interarrival_stats(sf_dir: str):
    """Per-user inter-arrival statistics (the cadence features behind
    bot/burst detection and recrawl modeling): gaps in microseconds
    between consecutive events, min/max/sum as exact int64 and the mean
    as ONE division. Same bucketed discipline as sessionize: one
    hash(user)%P shuffle, a single vectorized sort→diff pass per bucket
    — never a group per user. Ties in ts contribute a 0 gap regardless
    of order, so the (user, ts) sort is deterministic where it
    matters."""
    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    P = 32

    def tag(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "bucket": pa.array((u % P).astype(np.int64), pa.int64()),
                "user_id": pa.array(u.astype(np.int64), pa.int64()),
                "ts_us": batch.column("ts").cast(pa.int64()),
            }
        )

    def per_bucket(g: pa.Table) -> pa.Table:
        # arrow-native (r5)
        g = g.sort_by([("user_id", "ascending"), ("ts_us", "ascending")])
        u = g.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        t = g.column("ts_us").to_numpy(zero_copy_only=False).astype(np.int64)
        same = np.r_[False, u[1:] == u[:-1]]
        gaps = np.diff(t, prepend=t[:1])[same] if len(t) else np.zeros(0, np.int64)
        gu = u[same]
        users, idx = np.unique(gu, return_inverse=True)
        n_gaps = np.bincount(idx, minlength=len(users)).astype(np.int64)
        sums = np.bincount(idx, weights=gaps, minlength=len(users)).astype(
            np.int64
        )
        mins = np.full(len(users), np.iinfo(np.int64).max, np.int64)
        np.minimum.at(mins, idx, gaps)
        maxs = np.zeros(len(users), np.int64)
        np.maximum.at(maxs, idx, gaps)
        # users with a single event in this bucket have no gaps and are
        # dropped here; they re-enter via the n_events partial below
        return pa.table(
            {
                "user_id": pa.array(users, pa.int64()),
                "n_gaps": pa.array(n_gaps, pa.int64()),
                "sum_gap_us": pa.array(sums, pa.int64()),
                "min_gap_us": pa.array(mins, pa.int64()),
                "max_gap_us": pa.array(maxs, pa.int64()),
            }
        )

    gaps = (
        events.map_batches(tag, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
    )
    counts = events.groupby("user_id").count()

    def finish_counts(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        z = np.zeros(n, np.int64)
        return pa.table(
            {
                "user_id": batch.column("user_id").cast(pa.int64()),
                "n_events": batch.column("count()").cast(pa.int64()),
                "n_gaps": pa.array(z, pa.int64()),
                "sum_gap_us": pa.array(z, pa.int64()),
                "min_gap_us": pa.array(
                    np.full(n, np.iinfo(np.int64).max, np.int64), pa.int64()
                ),
                "max_gap_us": pa.array(z, pa.int64()),
            }
        )

    def finish_gaps(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "n_events", pa.array(np.zeros(batch.num_rows, np.int64), pa.int64())
        )

    merged = (
        counts.map_batches(finish_counts, batch_format="pyarrow")
        .union(gaps.map_batches(finish_gaps, batch_format="pyarrow"))
        .groupby("user_id")
        .aggregate(
            ray.data.aggregate.Sum("n_events", alias_name="n_events"),
            ray.data.aggregate.Sum("n_gaps", alias_name="n_gaps"),
            ray.data.aggregate.Sum("sum_gap_us", alias_name="sum_gap_us"),
            ray.data.aggregate.Min("min_gap_us", alias_name="min_gap_us"),
            ray.data.aggregate.Max("max_gap_us", alias_name="max_gap_us"),
        )
    )

    def score(batch: pa.Table) -> pa.Table:
        ng = batch.column("n_gaps").to_numpy(zero_copy_only=False).astype(np.int64)
        sm = batch.column("sum_gap_us").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        has = ng > 0
        mean = np.where(
            has, sm.astype(np.float64) / np.maximum(ng, 1).astype(np.float64), 0.0
        )
        mn = batch.column("min_gap_us").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        return pa.table(
            {
                "user_id": batch.column("user_id").cast(pa.int64()),
                "n_events": batch.column("n_events").cast(pa.int64()),
                "n_gaps": pa.array(ng, pa.int64()),
                "min_gap_us": pa.array(np.where(has, mn, 0), pa.int64()),
                "max_gap_us": batch.column("max_gap_us").cast(pa.int64()),
                "mean_gap_us": pa.array(mean, pa.float64()),
            }
        )

    return merged.map_batches(score, batch_format="pyarrow")


SQL_INTERARRIVAL_STATS = """
WITH g AS (
  SELECT user_id,
         date_diff('microsecond',
                   LAG(ts) OVER (PARTITION BY user_id ORDER BY ts),
                   ts) AS gap
  FROM events
),
agg AS (
  SELECT user_id,
         CAST(COUNT(*) AS BIGINT) AS n_events,
         CAST(COUNT(gap) AS BIGINT) AS n_gaps,
         CAST(COALESCE(SUM(gap), 0) AS BIGINT) AS sum_gap_us,
         CAST(COALESCE(MIN(gap), 0) AS BIGINT) AS min_gap_us,
         CAST(COALESCE(MAX(gap), 0) AS BIGINT) AS max_gap_us
  FROM g GROUP BY user_id
)
SELECT user_id, n_events, n_gaps, min_gap_us, max_gap_us,
       CASE WHEN n_gaps > 0
            THEN CAST(sum_gap_us AS DOUBLE) / CAST(n_gaps AS DOUBLE)
            ELSE CAST(0.0 AS DOUBLE) END AS mean_gap_us
FROM agg
"""


# ---------------------------------------------------------------------------
# bigram_logprob — add-one-smoothed bigram LM scoring (perplexity filter)
# ---------------------------------------------------------------------------

def q_bigram_logprob(sf_dir: str):
    """CCNet-style perplexity filtering, one order up from lm_bucket's
    unigram model: every doc scored by its average add-one-smoothed
    bigram log-probability under the corpus's own bigram LM —
    ln((c(w1 w2)+1) / (c(w1)+V)) summed over the doc's bigram stream.
    Counts are distributed groupbys (map-side Counter partials); each
    doc's bigram occurrences get their c(w1w2) and c(w1) attached by
    TWO bucketed attaches (no Dataset.join, only int rows move); each
    term is fixed-point-quantized (floor(ln(p)·1e9 + 0.5)) so the
    per-doc sum is an order-independent int64 — the token_entropy
    discipline. V = distinct unigram count (scalar). Output mean =
    dequantize + ONE division."""
    from ..functions.hashing import hash64
    from ..stages.graph import attach_node_value

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def bigram_occurrences(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        d_out, b_out, u_out = [], [], []
        for did, text in zip(ids, batch.column("text").to_pylist()):
            toks = (text or "").split()
            if len(toks) < 2:
                continue
            th = hash64(toks)
            n = len(th) - 1
            with np.errstate(over="ignore"):
                bg = th[:-1] * np.uint64(1_000_003) + th[1:]
            d_out.append(np.full(n, did, np.int64))
            b_out.append(bg.view(np.int64))
            u_out.append(th[:-1].view(np.int64))
        if not d_out:
            z = np.zeros(0, np.int64)
            return pa.table(
                {"doc_id": pa.array(z, pa.int64()),
                 "bg": pa.array(z, pa.int64()),
                 "w1": pa.array(z, pa.int64())}
            )
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate(d_out), pa.int64()),
                "bg": pa.array(np.concatenate(b_out), pa.int64()),
                "w1": pa.array(np.concatenate(u_out), pa.int64()),
            }
        )

    occ = docs.map_batches(
        bigram_occurrences, batch_format="pyarrow"
    ).materialize()  # consumed by both count aggregates AND the attach

    bg_counts = occ.groupby("bg").count().map_batches(
        lambda b: pa.table(
            {"bg": b.column("bg"), "cb": b.column("count()").cast(pa.int64())}
        ),
        batch_format="pyarrow",
    )
    # unigram counts over w1 positions == token counts minus each doc's
    # last token; the LM conditions on w1 so this IS the right marginal
    # (c(w1) = number of bigrams starting with w1)
    w1_counts = occ.groupby("w1").count().map_batches(
        lambda b: pa.table(
            {"w1": b.column("w1"), "cu": b.column("count()").cast(pa.int64())}
        ),
        batch_format="pyarrow",
    ).materialize()
    v_distinct = w1_counts.count()

    att1 = attach_node_value(occ, bg_counts, "bg", "cb", ["doc_id", "bg", "w1"])
    att2 = attach_node_value(
        att1, w1_counts, "w1", "cu", ["doc_id", "bg", "w1", "cb"]
    )

    def term_fp(batch: pa.Table) -> pa.Table:
        cb = batch.column("cb").to_numpy(zero_copy_only=False).astype(np.float64)
        cu = batch.column("cu").to_numpy(zero_copy_only=False).astype(np.float64)
        p = (cb + 1.0) / (cu + float(v_distinct))
        fp = np.floor(np.array([math.log(x) for x in p]) * 1e9 + 0.5).astype(
            np.int64
        )
        n = batch.num_rows
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "fp": pa.array(fp, pa.int64()),
                "one": pa.array(np.ones(n, np.int64), pa.int64()),
            }
        )

    agg = (
        att2.map_batches(term_fp, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(
            ray.data.aggregate.Sum("fp", alias_name="sum_fp"),
            ray.data.aggregate.Sum("one", alias_name="n_bigrams"),
        )
    )

    def score(batch: pa.Table) -> pa.Table:
        s = batch.column("sum_fp").to_numpy(zero_copy_only=False).astype(np.int64)
        n = batch.column("n_bigrams").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "n_bigrams": pa.array(n, pa.int64()),
                "avg_logprob": pa.array(
                    s.astype(np.float64) / 1e9 / n.astype(np.float64),
                    pa.float64(),
                ),
            }
        )

    return agg.map_batches(score, batch_format="pyarrow")


SQL_BIGRAM_LOGPROB = r"""
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS t
  FROM documents
),
occ AS (
  SELECT doc_id, t[i] AS w1, t[i] || ' ' || t[i+1] AS bg
  FROM toks, LATERAL UNNEST(generate_series(1, len(t) - 1)) AS s(i)
  WHERE len(t) >= 2
),
bgc AS (SELECT bg, CAST(COUNT(*) AS BIGINT) AS cb FROM occ GROUP BY bg),
w1c AS (SELECT w1, CAST(COUNT(*) AS BIGINT) AS cu FROM occ GROUP BY w1),
vv AS (SELECT CAST(COUNT(*) AS BIGINT) AS v FROM w1c),
terms AS (
  SELECT o.doc_id,
         CAST(floor(ln((CAST(b.cb AS DOUBLE) + CAST(1.0 AS DOUBLE))
                       / (CAST(u.cu AS DOUBLE) + CAST(vv.v AS DOUBLE)))
                    * 1e9 + CAST(0.5 AS DOUBLE)) AS BIGINT) AS fp
  FROM occ o JOIN bgc b USING (bg) JOIN w1c u USING (w1) CROSS JOIN vv
),
agg AS (
  SELECT doc_id, CAST(SUM(fp) AS BIGINT) AS sum_fp,
         CAST(COUNT(*) AS BIGINT) AS n_bigrams
  FROM terms GROUP BY doc_id
)
SELECT doc_id, n_bigrams,
       CAST(sum_fp AS DOUBLE) / 1e9 / CAST(n_bigrams AS DOUBLE) AS avg_logprob
FROM agg
"""


# ---------------------------------------------------------------------------
# registration
# ---------------------------------------------------------------------------
