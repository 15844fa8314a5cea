"""Fifty-sixth-wave operators (round-3 continuation session,
2026-08-21) — graph robustness, robust outliers, relevance feedback.

Listed by name in ``queries.py``'s QUERIES/ORACLES.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# graph_robustness — largest component before/after hub removal
# ---------------------------------------------------------------------------

_GR_K = 10
_GR_ROUNDS = 10  # hybrid min-label + pointer-jump: covers diameter ~2^10


def _undirected_edges(sf_dir: str):
    """Distinct undirected simple edges (a < b) of the synthetic link
    graph — self-loops dropped (CC-irrelevant)."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )
    n = docs.count()

    def mk(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        src = np.concatenate([ids, ids, ids])
        dst = np.concatenate(
            [(2 * ids + 1) % n, (2 * ids + 2) % n, (7 * ids + 3) % n]
        )
        a = np.minimum(src, dst)
        b = np.maximum(src, dst)
        keep = a != b
        return pa.table(
            {
                "a": pa.array(a[keep], pa.int64()),
                "b": pa.array(b[keep], pa.int64()),
            }
        )

    return docs.map_batches(mk, batch_format="pyarrow").groupby(
        ["a", "b"]
    ).count().select_columns(["a", "b"]), n


def q_graph_robustness(sf_dir: str):
    """Targeted-attack robustness of the synthetic link graph: remove
    the K={k} highest-degree nodes (the "take out the hubs" attack)
    and compare the component structure before and after — the
    classic scale-free-network resilience audit (how much of the
    crawlable web survives losing its portals?). Output: two rows
    (before/after) with node count, component count, largest-component
    size and its quantized fraction.

    Exactness: degrees, the removal set (degree DESC, node ASC) and
    component labels (min reachable id — the connected_components
    fixpoint) are all integers. Distributed shape: one distinct-edge
    groupby, one degree aggregate, the oracle-proven CC stage twice;
    the oracle closes components with {rounds} hybrid rounds (neighbor
    min + pointer jump), reaching fixpoint for any diameter ≤ 2^{rounds}.
    """
    from ..stages.graph import connected_components

    edges, n = _undirected_edges(sf_dir)
    edges = edges.materialize()

    def deg_partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        nodes = np.concatenate(
            [
                batch.column("a").to_numpy(zero_copy_only=False),
                batch.column("b").to_numpy(zero_copy_only=False),
            ]
        )
        v, c = np.unique(nodes, return_counts=True)
        return pa.table(
            {
                "node": pa.array(v, pa.int64()),
                "d": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    # exact top-K hubs by (degree desc, node asc) via distributed
    # sort+limit (r4: the former node-sized driver fold is gone — only
    # the K attack targets reach the driver)
    removed = set(
        int(r["node"])
        for r in edges.map_batches(deg_partial, batch_format="pyarrow")
        .groupby("node")
        .aggregate(ray.data.aggregate.Sum("d", alias_name="d"))
        .sort(["d", "node"], descending=[True, False])
        .limit(_GR_K)
        .take_all()  # bounded: exactly K hub rows
    )
    rem_ref = ray.put(removed)

    def scenario(drop: bool):
        nodes = ray.data.range(n).map_batches(
            lambda b, drop=drop: pa.table(
                {
                    "node": pa.array(
                        [
                            int(i)
                            for i in b.column("id").to_pylist()
                            if not (drop and int(i) in ray.get(rem_ref))
                        ],
                        pa.int64(),
                    )
                }
            ),
            batch_format="pyarrow",
        )
        es = edges
        if drop:
            def efilt(batch: pa.Table) -> pa.Table:
                rm = np.array(sorted(ray.get(rem_ref)), np.int64)
                a = batch.column("a").to_numpy(zero_copy_only=False)
                b = batch.column("b").to_numpy(zero_copy_only=False)
                keep = ~(np.isin(a, rm) | np.isin(b, rm))
                return batch.filter(pa.array(keep))

            es = edges.map_batches(efilt, batch_format="pyarrow")
        comp = connected_components(
            nodes,
            es.map_batches(
                lambda t: pa.table(
                    {"src": t.column("a"), "dst": t.column("b")}
                ),
                batch_format="pyarrow",
            ),
        )
        sizes = (
            comp.groupby("component")
            .aggregate(ray.data.aggregate.Count(alias_name="c"))
            .materialize()
        )
        # three scalar aggregates — no component-sized collect (r4)
        n_nodes = int(sizes.sum("c"))
        largest = int(sizes.max("c"))
        n_comp = int(sizes.count())
        return n_nodes, n_comp, largest

    rows = []
    for name, drop in (("before", False), ("after", True)):
        n_nodes, n_comp, largest = scenario(drop)
        rows.append(
            (name, n_nodes, n_comp, largest, largest * 10**6 // n_nodes)
        )
    return pa.table(
        {
            "scenario": pa.array([r[0] for r in rows], pa.string()),
            "n_nodes": pa.array([r[1] for r in rows], pa.int64()),
            "n_components": pa.array([r[2] for r in rows], pa.int64()),
            "largest_cc": pa.array([r[3] for r in rows], pa.int64()),
            "largest_frac_q": pa.array([r[4] for r in rows], pa.int64()),
        }
    )


def _sql_graph_robustness() -> str:
    parts = [
        f"""
nn AS (SELECT CAST(COUNT(*) AS BIGINT) AS c FROM documents),
child AS (
  SELECT doc_id AS s, (2 * doc_id + 1) % nn.c AS t FROM documents, nn
  UNION ALL
  SELECT doc_id, (2 * doc_id + 2) % nn.c FROM documents, nn
  UNION ALL
  SELECT doc_id, (7 * doc_id + 3) % nn.c FROM documents, nn
),
ue AS (
  SELECT DISTINCT LEAST(s, t) AS a, GREATEST(s, t) AS b
  FROM child WHERE s <> t
),
deg AS (
  SELECT node, CAST(COUNT(*) AS BIGINT) AS d
  FROM (SELECT a AS node FROM ue UNION ALL SELECT b FROM ue)
  GROUP BY node
),
rem AS (SELECT node FROM deg ORDER BY d DESC, node LIMIT {_GR_K}),
eB AS MATERIALIZED (
  SELECT a AS u, b AS v FROM ue UNION ALL SELECT b, a FROM ue
),
eA AS MATERIALIZED (
  SELECT u, v FROM eB
  WHERE u NOT IN (SELECT node FROM rem)
    AND v NOT IN (SELECT node FROM rem)
),
nB AS (SELECT doc_id AS node FROM documents),
nA AS (SELECT doc_id AS node FROM documents
       WHERE doc_id NOT IN (SELECT node FROM rem)),
lB0 AS (SELECT node, node AS lbl FROM nB),
lA0 AS (SELECT node, node AS lbl FROM nA)"""
    ]
    for sc in ("B", "A"):
        for k in range(1, _GR_ROUNDS + 1):
            parts.append(
                f"""
l{sc}{k} AS MATERIALIZED (
  SELECT l.node,
         LEAST(l.lbl,
               COALESCE(nb.m, l.lbl),
               lj.lbl) AS lbl
  FROM l{sc}{k - 1} l
  LEFT JOIN (SELECT e.u AS node, MIN(l2.lbl) AS m
             FROM e{sc} e JOIN l{sc}{k - 1} l2 ON l2.node = e.v
             GROUP BY e.u) nb ON nb.node = l.node
  JOIN l{sc}{k - 1} lj ON lj.node = l.lbl
)"""
            )
    R = _GR_ROUNDS
    parts.append(
        f"""
sB AS (SELECT lbl, CAST(COUNT(*) AS BIGINT) AS c FROM lB{R} GROUP BY lbl),
sA AS (SELECT lbl, CAST(COUNT(*) AS BIGINT) AS c FROM lA{R} GROUP BY lbl)
SELECT 'before' AS scenario,
       CAST(SUM(c) AS BIGINT) AS n_nodes,
       CAST(COUNT(*) AS BIGINT) AS n_components,
       CAST(MAX(c) AS BIGINT) AS largest_cc,
       CAST(MAX(c) AS BIGINT) * 1000000 // CAST(SUM(c) AS BIGINT)
         AS largest_frac_q
FROM sB
UNION ALL
SELECT 'after', CAST(SUM(c) AS BIGINT), CAST(COUNT(*) AS BIGINT),
       CAST(MAX(c) AS BIGINT),
       CAST(MAX(c) AS BIGINT) * 1000000 // CAST(SUM(c) AS BIGINT)
FROM sA"""
    )
    return "WITH " + ",".join(parts)


# ---------------------------------------------------------------------------
# mad_outliers — median/MAD robust outlier flags on host counts
# ---------------------------------------------------------------------------

_MAD_K = 3


def q_mad_outliers(sf_dir: str):
    """Robust outlier detection on per-host page counts via the
    median/MAD rule: a host is anomalous iff |count − median| >
    {k}·MAD — unlike z-scores, one monster host cannot inflate the
    scale estimate and mask itself (50% breakdown point). Output: per
    host the count, deviation, the shared median/MAD and the flag.

    Exactness: median and MAD are exact lower-median order statistics
    ((n+1)//2-th smallest); the flag is an integer cross-
    multiplication — no division anywhere. Distributed shape: the
    pages_per_host partial count; the |hosts|-row order-statistic fold
    is driver arithmetic.
    """
    from ..functions.urls import hosts_array
    from ..stages.agg import partial_count
    from .queries import _pages_ds

    pages = _pages_ds(sf_dir, columns=["url"])

    def add_host(batch: pa.Table) -> pa.Table:
        return pa.table({"host": hosts_array(batch.column("url"))})

    counts = partial_count(
        pages.map_batches(add_host, batch_format="pyarrow"), "host"
    ).take_all()  # bounded: one row per host
    rows = sorted((r["host"], int(r["n"])) for r in counts)
    xs = sorted(n for _, n in rows)
    k = (len(xs) + 1) // 2
    med = xs[k - 1]
    devs = sorted(abs(n - med) for _, n in rows)
    mad = devs[k - 1]
    return pa.table(
        {
            "host": pa.array([h for h, _ in rows], pa.string()),
            "n": pa.array([n for _, n in rows], pa.int64()),
            "med": pa.array([med] * len(rows), pa.int64()),
            "mad": pa.array([mad] * len(rows), pa.int64()),
            "dev": pa.array([abs(n - med) for _, n in rows], pa.int64()),
            "outlier": pa.array(
                [int(abs(n - med) > _MAD_K * mad) for _, n in rows],
                pa.int64(),
            ),
        }
    )


def _sql_mad_outliers(sql_pages: str) -> str:
    return f"""
WITH {sql_pages},
c AS (SELECT host, CAST(COUNT(*) AS BIGINT) AS n FROM purl GROUP BY host),
kk AS (SELECT (CAST(COUNT(*) AS BIGINT) + 1) // 2 AS k FROM c),
medx AS (
  SELECT n AS med FROM (
    SELECT n, row_number() OVER (ORDER BY n) AS rn FROM c
  ), kk WHERE rn = kk.k
),
madx AS (
  SELECT dev AS mad FROM (
    SELECT abs(c.n - medx.med) AS dev,
           row_number() OVER (ORDER BY abs(c.n - medx.med)) AS rn
    FROM c, medx
  ), kk WHERE rn = kk.k
)
SELECT c.host, c.n, medx.med, madx.mad,
       abs(c.n - medx.med) AS dev,
       CAST(CASE WHEN abs(c.n - medx.med) > {_MAD_K} * madx.mad
                 THEN 1 ELSE 0 END AS BIGINT) AS outlier
FROM c, medx, madx
"""


# ---------------------------------------------------------------------------
# rm3_expansion — pseudo-relevance feedback over the QLD top-10
# ---------------------------------------------------------------------------

_RM3_SCALE = 10**12
_RM3_TOP_TERMS = 10


def q_rm3_expansion(sf_dir: str):
    """Pseudo-relevance-feedback query expansion (RM3 shape): take the
    QLD top-10 documents as pseudo-relevant, weight each by 1/rank,
    and score candidate expansion terms by Σ_d tf_wd·S//(dl_d·rank_d)
    — the relevance-model estimate of p(w|R) with rational rank
    weights instead of exponentiated scores, so EVERYTHING is integer
    (no exp/ln anywhere; contrast rocchio_expansion's centroid
    geometry). Original query terms are excluded. Output: the top-{t}
    expansion terms with quantized weights.

    Exactness: per-(doc, term) contributions quantize independently
    (tf·S//(dl·rank)) and sum as integers; ties → term ASC.
    Distributed shape: the QLD ranking (one tokenize map + stats
    broadcast + sort-limit) feeds a 10-doc broadcast; term scores
    close with one groupby(term).
    """
    from .queries_wave55 import q_qld_topk

    top = q_qld_topk(sf_dir).to_pylist()
    ranks = {int(r["doc_id"]): int(r["rank"]) for r in top}
    ids_ref = ray.put(ranks)
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    from .queries_wave55 import _QLD_TERMS

    def term_scores(batch: pa.Table) -> pa.Table:
        rk = ray.get(ids_ref)
        out: dict = {}
        for did, text in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            if int(did) not in rk:
                continue
            toks = (text or "").lower().split()
            dl = len(toks)
            r = rk[int(did)]
            from collections import Counter

            for w, tf in Counter(toks).items():
                if w in _QLD_TERMS:
                    continue
                out[w] = out.get(w, 0) + tf * _RM3_SCALE // (dl * r)
        items = sorted(out.items())
        return pa.table(
            {
                "term": pa.array([k for k, _ in items], pa.string()),
                "s": pa.array([v for _, v in items], pa.int64()),
            }
        )

    # exact top-K expansion terms via distributed sort+limit (r4: the
    # former vocabulary-sized collect is gone)
    ordered = (
        docs.map_batches(term_scores, batch_format="pyarrow")
        .groupby("term")
        .aggregate(ray.data.aggregate.Sum("s", alias_name="weight_q"))
        .sort(["weight_q", "term"], descending=[True, False])
        .limit(_RM3_TOP_TERMS)
        .take_all()  # bounded: exactly the K expansion terms
    )
    return pa.table(
        {
            "term": pa.array([r["term"] for r in ordered], pa.string()),
            "weight_q": pa.array(
                [int(r["weight_q"]) for r in ordered], pa.int64()
            ),
            "rank": pa.array(
                list(range(1, len(ordered) + 1)), pa.int64()
            ),
        }
    )


def _sql_rm3(qld_sql: str) -> str:
    from .queries_wave55 import _QLD_TERMS

    excl = ", ".join(f"'{t}'" for t in _QLD_TERMS)
    return f"""
WITH top10 AS (SELECT doc_id, rank FROM ({qld_sql})),
dtok AS (
  SELECT d.doc_id, top10.rank,
         regexp_extract_all(lower(d.text), '\\S+') AS toks
  FROM documents d JOIN top10 ON top10.doc_id = d.doc_id
),
tf AS (
  SELECT doc_id, rank, CAST(len(toks) AS BIGINT) AS dl,
         unnest(toks) AS term
  FROM dtok
),
agg AS (
  SELECT doc_id, rank, dl, term, CAST(COUNT(*) AS BIGINT) AS tf
  FROM tf GROUP BY doc_id, rank, dl, term
),
sc AS (
  SELECT term,
         CAST(SUM(tf * {_RM3_SCALE} // (dl * rank)) AS BIGINT)
           AS weight_q
  FROM agg WHERE term NOT IN ({excl})
  GROUP BY term
)
SELECT term, weight_q,
       CAST(row_number() OVER (ORDER BY weight_q DESC, term) AS BIGINT)
         AS rank
FROM sc
ORDER BY weight_q DESC, term
LIMIT {_RM3_TOP_TERMS}
"""
