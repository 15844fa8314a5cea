"""Thirty-first-wave operators (round-3 continuation session,
2026-08-20) — the graph-decomposition completion wave.

Listed by name in ``queries.py``'s QUERIES/ORACLES.

- ktruss_edges: k-truss decomposition (edge-support peeling) — the
  triangle-density sibling of kcore's degree peeling.
- onion_layers: which peel ROUND removed each node in the k=3 core
  peel (the onion/peeling-depth signal on top of kcore's survivor set).
- rich_club: the rich-club coefficient curve φ(k) — do high-degree
  nodes preferentially link to each other (link-ring detection at the
  degree-strata level).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# ktruss_edges — k-truss via distributed edge-support peeling
# ---------------------------------------------------------------------------

_KT_K = 3  # support >= k-2 = 1: every surviving edge is in a triangle


def q_ktruss_edges(sf_dir: str):
    """k-truss (k=3) of the synthetic link graph: the maximal subgraph
    in which every edge participates in ≥ k−2 triangles — the
    triangle-density decomposition (Cohen 2008) that isolates tightly
    clustered cores far more aggressively than k-core's degree-only
    peel (a link FARM survives k-core; only mutually-triangulated rings
    survive the truss). Output: the surviving edges with their final
    support (65 edges at the 500-doc test graphs; the peel converges in
    2 real rounds — probed before the oracle's round count was fixed).

    Distributed shape per round: exact triangle enumeration
    (stages/graph.py triangle_enumerate — degree-oriented wedges,
    bounded union+groupby shuffles), a 3-way edge explode + ONE
    groupby(edge) for supports, and a support-threshold filter; the
    loop-carried edge set stays a Dataset throughout. Fixpoint =
    unchanged edge count. Oracle: the same peel unrolled (6 rounds,
    extra rounds are no-ops) with the final support recomputed on the
    fixpoint edge set.
    """
    from ..stages.graph import triangle_enumerate, undirected_dedup
    from .queries import _synthetic_link_edges

    e = undirected_dedup(_synthetic_link_edges(sf_dir), "src", "dst").materialize()
    prev = e.count()
    supp = None
    for _ in range(16):
        tris = triangle_enumerate(e, edges_canonical=True)

        def explode(batch: pa.Table) -> pa.Table:
            a = batch.column("a").to_numpy(zero_copy_only=False)
            b = batch.column("b").to_numpy(zero_copy_only=False)
            c = batch.column("c").to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "a": pa.array(np.concatenate([a, a, b]), pa.int64()),
                    "b": pa.array(np.concatenate([b, c, c]), pa.int64()),
                    "s": pa.array(np.ones(3 * len(a), np.int64), pa.int64()),
                }
            )

        supp = (
            tris.map_batches(explode, batch_format="pyarrow")
            .groupby(["a", "b"])
            .aggregate(ray.data.aggregate.Sum("s", alias_name="support"))
            .materialize()
        )

        def keep(batch: pa.Table) -> pa.Table:
            s = batch.column("support").to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(s >= _KT_K - 2))

        e2 = supp.map_batches(keep, batch_format="pyarrow").materialize()
        cnt = e2.count()
        if cnt == prev:
            break
        e = e2.select_columns(["a", "b"]).materialize()
        prev = cnt
    return supp.map_batches(
        lambda b: pa.table(
            {
                "a": b.column("a").cast(pa.int64()),
                "b": b.column("b").cast(pa.int64()),
                "support": b.column("support").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def _sql_ktruss_edges(rounds: int = 6) -> str:
    parts = [
        """nn AS (SELECT COUNT(*) AS c FROM documents),
raw AS (
  SELECT CAST(doc_id AS BIGINT) AS s,
         CAST((2 * doc_id + 1) % nn.c AS BIGINT) AS d FROM documents, nn
  UNION ALL
  SELECT doc_id, (2 * doc_id + 2) % nn.c FROM documents, nn
  UNION ALL
  SELECT doc_id, (7 * doc_id + 3) % nn.c FROM documents, nn
),
e0 AS MATERIALIZED (
  SELECT DISTINCT LEAST(s, d) AS a, GREATEST(s, d) AS b
  FROM raw WHERE s <> d
)"""
    ]
    for i in range(rounds):
        parts.append(
            f"""t{i} AS MATERIALIZED (
  SELECT e1.a AS x, e1.b AS y, e2.b AS z
  FROM e{i} e1
  JOIN e{i} e2 ON e2.a = e1.a AND e2.b > e1.b
  JOIN e{i} e3 ON e3.a = e1.b AND e3.b = e2.b
),
s{i} AS MATERIALIZED (
  SELECT a, b, CAST(COUNT(*) AS BIGINT) AS support FROM (
    SELECT x AS a, y AS b FROM t{i}
    UNION ALL SELECT x, z FROM t{i}
    UNION ALL SELECT y, z FROM t{i}
  ) GROUP BY a, b
),
e{i + 1} AS MATERIALIZED (
  SELECT a, b FROM s{i} WHERE support >= {_KT_K - 2}
)"""
        )
    # final support on the fixpoint edge set
    parts.append(
        f"""tf AS (
  SELECT e1.a AS x, e1.b AS y, e2.b AS z
  FROM e{rounds} e1
  JOIN e{rounds} e2 ON e2.a = e1.a AND e2.b > e1.b
  JOIN e{rounds} e3 ON e3.a = e1.b AND e3.b = e2.b
)"""
    )
    return (
        "WITH "
        + ",\n".join(parts)
        + f"""
SELECT a, b, CAST(COUNT(*) AS BIGINT) AS support FROM (
  SELECT x AS a, y AS b FROM tf
  UNION ALL SELECT x, z FROM tf
  UNION ALL SELECT y, z FROM tf
) GROUP BY a, b
HAVING COUNT(*) >= {_KT_K - 2}
"""
    )


# ---------------------------------------------------------------------------
# onion_layers — peel-round labels of the k=3 core peel
# ---------------------------------------------------------------------------

_OL_K = 3


def q_onion_layers(sf_dir: str):
    """Onion layering of the kcore skew graph: the ROUND (1-based) at
    which the k=3 degree peel removes each node — survivors (the core)
    get layer 0. kcore says only WHO survives; the layer says how deep
    in the periphery everything else sits (the 'how far from the
    well-connected web' distance that graded frontier scoring wants).

    Distributed shape per round: the kcore degree kernel
    (stages/graph.py node_degrees — map-side unique partials + ONE
    groupby) and a broadcast peel-id mask over the edge stream (the
    sub-cap regime of kcore's peel; the bucketed anti-join is the
    documented above-cap path). Rounds are bounded by the peel depth
    (~5 at test scale; oracle unrolls 10).
    """
    from ..stages.graph import node_degrees, undirected_dedup

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    n_docs = docs.count()

    def skew_edges(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        nz = ids[ids >= 1]
        src = np.concatenate([nz, ids])
        dst = np.concatenate([nz // 2, (ids * ids + 1) % n_docs])
        return pa.table(
            {"src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64())}
        )

    e = undirected_dedup(
        docs.map_batches(skew_edges, batch_format="pyarrow"), "src", "dst"
    ).materialize()

    def sub_k(batch: pa.Table) -> pa.Table:
        # the peel test runs distributed (r4): only nodes with deg < K
        # reach the driver each round, not the full degree table
        deg = batch.column("deg").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(deg < _OL_K))

    layers: dict[int, int] = {}
    for rnd in range(1, 32):
        peel = sorted(
            int(r["node"])
            for r in node_degrees(e)
            .map_batches(sub_k, batch_format="pyarrow")
            .take_all()  # scale-note: per-round peel set (the peel-id broadcast is the onion state, like cascade_ltm's active set; stages/graph.kcore documents the bucketed-anti-join above-cap path)
        )
        if not peel:
            break
        for nd in peel:
            layers[nd] = rnd
        pref = ray.put(np.array(peel, np.int64))

        def drop(batch: pa.Table) -> pa.Table:
            ps = ray.get(pref)
            a = batch.column("a").to_numpy(zero_copy_only=False)
            b = batch.column("b").to_numpy(zero_copy_only=False)
            keep = ~(
                np.isin(a, ps, assume_unique=False)
                | np.isin(b, ps, assume_unique=False)
            )
            return batch.filter(pa.array(keep))

        e = e.map_batches(drop, batch_format="pyarrow").materialize()

    # survivors (layer 0) stay a Dataset; peeled rows are a small table
    peeled = pa.table(
        {
            "node": pa.array(sorted(layers), pa.int64()),
            "layer": pa.array(
                [layers[k] for k in sorted(layers)], pa.int64()
            ),
        }
    )

    def survivor_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": batch.column("node"),
                "layer": pa.array(np.zeros(batch.num_rows, np.int64)),
            }
        )

    return (
        node_degrees(e)
        .map_batches(survivor_rows, batch_format="pyarrow")
        .union(ray.data.from_arrow(peeled))
    )


def _sql_onion_layers(rounds: int = 10) -> str:
    parts = [
        """nn AS (SELECT COUNT(*) AS c FROM documents),
raw AS (
  SELECT doc_id AS s, doc_id // 2 AS d FROM documents WHERE doc_id >= 1
  UNION ALL
  SELECT doc_id, (doc_id * doc_id + 1) % nn.c FROM documents, nn
),
e0 AS MATERIALIZED (
  SELECT DISTINCT LEAST(s, d) AS a, GREATEST(s, d) AS b
  FROM raw WHERE s <> d
)"""
    ]
    for i in range(rounds):
        parts.append(
            f"""d{i} AS MATERIALIZED (
  SELECT node, COUNT(*) AS deg FROM
  (SELECT a AS node FROM e{i} UNION ALL SELECT b FROM e{i}) GROUP BY node
),
p{i} AS MATERIALIZED (
  SELECT node FROM d{i} WHERE deg < {_OL_K}
),
e{i + 1} AS MATERIALIZED (
  SELECT a, b FROM e{i}
  WHERE a NOT IN (SELECT node FROM p{i})
    AND b NOT IN (SELECT node FROM p{i})
)"""
        )
    lab = "\nUNION ALL\n".join(
        f"SELECT node, CAST({i + 1} AS BIGINT) AS layer FROM p{i}"
        for i in range(rounds)
    )
    return (
        "WITH "
        + ",\n".join(parts)
        + f"""
SELECT node, layer FROM ({lab})
UNION ALL
SELECT DISTINCT node, CAST(0 AS BIGINT) FROM
(SELECT a AS node FROM e{rounds} UNION ALL SELECT b FROM e{rounds})
"""
    )


# ---------------------------------------------------------------------------
# rich_club — rich-club coefficient curve
# ---------------------------------------------------------------------------


def q_rich_club(sf_dir: str):
    """Rich-club coefficient curve over the synthetic link graph: for
    each degree threshold k, φ(k) = 2·E_k / (N_k·(N_k−1)) where N_k
    counts nodes of degree > k and E_k the edges between them — the
    'do hubs preferentially interlink' diagnostic (Colizza et al.
    2006), i.e. link-ring detection at the degree-strata level rather
    than per-community. Rows for every k from 0 to max degree − 1 with
    N_k ≥ 2.

    Distributed shape: one degree aggregate, two bucketed attaches of
    deg onto the edge endpoints (attach_node_value — no Dataset.join),
    ONE groupby(min-endpoint-degree) for the edge histogram; the
    cumulative-from-the-top fold runs on ≤ max-degree rows. φ is the
    one mirrored division per row.
    """
    from ..stages.graph import attach_node_value, node_degrees, undirected_dedup
    from .queries import _synthetic_link_edges

    e = undirected_dedup(_synthetic_link_edges(sf_dir), "src", "dst").materialize()
    degs = node_degrees(e).materialize()

    withd = attach_node_value(
        e, degs, key_col="a", out_col="da", schema_cols=["a", "b"]
    )
    withd = attach_node_value(
        withd, degs, key_col="b", out_col="db", schema_cols=["a", "b", "da"]
    )

    def md_partial(batch: pa.Table) -> pa.Table:
        da = batch.column("da").to_numpy(zero_copy_only=False)
        db = batch.column("db").to_numpy(zero_copy_only=False)
        md = np.minimum(da, db)
        u, c = np.unique(md, return_counts=True)
        return pa.table(
            {
                "md": pa.array(u, pa.int64()),
                "c": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    e_hist = (
        withd.map_batches(md_partial, batch_format="pyarrow")
        .groupby("md")
        .aggregate(ray.data.aggregate.Sum("c", alias_name="c"))
        .take_all()  # bounded: degree-histogram cells
    )
    d_hist = (
        degs.groupby("deg")
        .aggregate(ray.data.aggregate.Count(alias_name="c"))
        .take_all()  # bounded: one row per deg (bounded key domain)
    )
    e_by_md = {int(r["md"]): int(r["c"]) for r in e_hist}
    n_by_deg = {int(r["deg"]): int(r["c"]) for r in d_hist}
    max_deg = max(n_by_deg)
    out = {"k": [], "n_k": [], "e_k": [], "phi": []}
    for k in range(0, max_deg):
        n_k = sum(c for d, c in n_by_deg.items() if d > k)
        e_k = sum(c for m, c in e_by_md.items() if m > k)
        if n_k >= 2:
            out["k"].append(k)
            out["n_k"].append(n_k)
            out["e_k"].append(e_k)
            out["phi"].append(
                2.0 * float(e_k) / (float(n_k) * float(n_k - 1))
            )
    return pa.table(
        {
            "k": pa.array(out["k"], pa.int64()),
            "n_k": pa.array(out["n_k"], pa.int64()),
            "e_k": pa.array(out["e_k"], pa.int64()),
            "phi": pa.array(out["phi"], pa.float64()),
        }
    )


SQL_RICH_CLUB = """
WITH nn AS (SELECT COUNT(*) AS c FROM documents),
raw AS (
  SELECT CAST(doc_id AS BIGINT) AS s,
         CAST((2 * doc_id + 1) % nn.c AS BIGINT) AS d FROM documents, nn
  UNION ALL
  SELECT doc_id, (2 * doc_id + 2) % nn.c FROM documents, nn
  UNION ALL
  SELECT doc_id, (7 * doc_id + 3) % nn.c FROM documents, nn
),
e AS MATERIALIZED (
  SELECT DISTINCT LEAST(s, d) AS a, GREATEST(s, d) AS b
  FROM raw WHERE s <> d
),
dg AS MATERIALIZED (
  SELECT node, CAST(COUNT(*) AS BIGINT) AS deg FROM
  (SELECT a AS node FROM e UNION ALL SELECT b FROM e) GROUP BY node
),
ks AS (
  SELECT CAST(unnest(generate_series(
           0, (SELECT CAST(MAX(deg) AS BIGINT) FROM dg) - 1)) AS BIGINT) AS k
),
nk AS (
  SELECT ks.k, CAST(COUNT(*) AS BIGINT) AS n_k
  FROM ks JOIN dg ON dg.deg > ks.k GROUP BY ks.k
),
ek AS (
  SELECT ks.k, CAST(COUNT(*) AS BIGINT) AS e_k
  FROM ks
  JOIN e ON TRUE
  JOIN dg da ON da.node = e.a
  JOIN dg db ON db.node = e.b
  WHERE LEAST(da.deg, db.deg) > ks.k
  GROUP BY ks.k
)
SELECT nk.k, nk.n_k, COALESCE(ek.e_k, 0) AS e_k,
       2e0 * CAST(COALESCE(ek.e_k, 0) AS DOUBLE)
         / (CAST(nk.n_k AS DOUBLE) * CAST(nk.n_k - 1 AS DOUBLE)) AS phi
FROM nk LEFT JOIN ek ON ek.k = nk.k
WHERE nk.n_k >= 2
"""
