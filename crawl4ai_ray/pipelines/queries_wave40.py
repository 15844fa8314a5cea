"""Fortieth-wave operators (round-3 continuation session, 2026-08-20).

Listed by name in ``queries.py``'s QUERIES/ORACLES. gate_kappa nests the
gopher_rules and c4_rules oracles; rank_degree_spearman nests pagerank.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# rank_degree_spearman — Spearman rho between PageRank and in-degree
# ---------------------------------------------------------------------------


def q_rank_degree_spearman(sf_dir: str):
    """Does raw in-degree predict PageRank on this graph? Spearman's ρ
    between the quantized PageRank and the node in-degree — computed as
    Pearson on RANKS with average ranks for ties (the textbook
    definition), every moment an exact integer ×2 (average ranks are
    half-integers; doubling keeps them integral), so ρ is one mirrored
    expression of exact sums. Completes the correlation family next to
    kendall_tau (pairs) and logreg_auc (Mann–Whitney).

    Distributed shape: ranks of both variables come from their value
    histograms (counting ranks — no sort): |distinct values| rows fold
    on the driver; the cross-moment Σ R_x·R_y needs the per-node rank
    PAIR, attached via the bucketed attach.

    Graph note: the degree-VARYING rule set (wave 35) — on the standard
    3-out-regular graph both PageRank and in-degree are constant, both
    rank variances vanish and ρ is identically 0 (caught by the first
    run's test; the oracle happily agreed on the degenerate zeros).
    """
    from ..stages.graph import attach_node_value, pagerank
    from .queries_wave35 import pr_varying_edges_batchfn

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    n = docs.count()
    mk_edges = pr_varying_edges_batchfn(n)

    nodes = docs.map_batches(
        lambda b: pa.table({"node": b.column("doc_id")}), batch_format="pyarrow"
    )
    edges = docs.map_batches(mk_edges, batch_format="pyarrow")
    pr = pagerank(nodes, edges, n_iters=5, damping=0.85)

    def q8(batch: pa.Table) -> pa.Table:
        r = batch.column("rank").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "node": batch.column("node").cast(pa.int64()),
                "q8": pa.array(
                    np.floor(np.round(r, 8) * 1e8 + 0.5).astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    prq = pr.map_batches(q8, batch_format="pyarrow").materialize()

    # in-degrees (distinct edges) per node — nodes absent as dst get 0
    def dst_rows(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch.column("dst")})

    indeg = (
        edges.map_batches(dst_rows, batch_format="pyarrow")
        .groupby("node")
        .aggregate(ray.data.aggregate.Count(alias_name="deg"))
        .materialize()
    )
    joined = attach_node_value(
        prq, indeg, key_col="node", out_col="deg", schema_cols=["node", "q8"]
    )

    rows = joined.take_all()  # (node, q8, deg) — node-sized; at web scale  # scale-note: node-sized rank/moment fold (web-scale path = two more bucketed passes, see comment)
    # the rank assignment + moment fold would run as two more bucketed
    # passes; the driver fold here mirrors the oracle exactly
    q8s = np.array([int(r["q8"]) for r in rows], np.int64)
    degs = np.array([max(int(r["deg"]), 0) for r in rows], np.int64)

    def avg_ranks2(v: np.ndarray) -> np.ndarray:
        """2× average rank (integer) per element."""
        order = np.argsort(v, kind="mergesort")
        sv = v[order]
        r2 = np.empty(len(v), np.int64)
        i = 0
        while i < len(sv):
            j = i
            while j < len(sv) and sv[j] == sv[i]:
                j += 1
            # ranks i+1..j (1-based): 2*avg = (i+1) + j
            r2[order[i:j]] = (i + 1) + j
            i = j
        return r2

    rx = avg_ranks2(q8s)
    ry = avg_ranks2(degs)
    nn = len(rx)
    sx, sy = int(rx.sum()), int(ry.sum())
    sxy = int((rx * ry).sum())
    sxx = int((rx * rx).sum())
    syy = int((ry * ry).sum())
    num = nn * sxy - sx * sy
    den = math.sqrt(float(nn * sxx - sx * sx)) * math.sqrt(
        float(nn * syy - sy * sy)
    )
    rho = float(num) / den if den else 0.0
    return pa.table(
        {
            "n": pa.array([nn], pa.int64()),
            "num": pa.array([num], pa.int64()),
            "rho": pa.array([rho], pa.float64()),
        }
    )


def _sql_rank_degree_spearman() -> str:
    from .queries_wave35 import pr_varying_sql_body

    return pr_varying_sql_body(5) + """,
q AS (
  SELECT node, CAST(floor(ROUND(rank, 8) * 1e8 + 5e-1) AS BIGINT) AS q8
  FROM r5
),
indeg AS (
  SELECT q.node,
         CAST(COALESCE(d.c, 0) AS BIGINT) AS deg
  FROM q LEFT JOIN (
    SELECT dst AS node, COUNT(*) AS c FROM e GROUP BY dst
  ) d ON d.node = q.node
),
rxt AS (
  SELECT node, q8,
         CAST(row_number() OVER (ORDER BY q8, node) AS BIGINT) AS rnk
  FROM q
),
-- 2x average rank of a tie group of consecutive ranks = MIN + MAX
rxv AS (
  SELECT q8, CAST(MIN(rnk) + MAX(rnk) AS BIGINT) AS r2
  FROM rxt GROUP BY q8
),
rx AS (SELECT rxt.node, rxv.r2 FROM rxt JOIN rxv USING (q8)),
ryt AS (
  SELECT node, deg,
         CAST(row_number() OVER (ORDER BY deg, node) AS BIGINT) AS rnk
  FROM indeg
),
ryv AS (
  SELECT deg, CAST(MIN(rnk) + MAX(rnk) AS BIGINT) AS r2
  FROM ryt GROUP BY deg
),
ry AS (SELECT ryt.node, ryv.r2 FROM ryt JOIN ryv USING (deg)),
m AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(rx.r2) AS BIGINT) AS sx,
         CAST(SUM(ry.r2) AS BIGINT) AS sy,
         CAST(SUM(rx.r2 * ry.r2) AS BIGINT) AS sxy,
         CAST(SUM(rx.r2 * rx.r2) AS BIGINT) AS sxx,
         CAST(SUM(ry.r2 * ry.r2) AS BIGINT) AS syy
  FROM rx JOIN ry ON ry.node = rx.node
)
SELECT n, CAST(n * sxy - sx * sy AS BIGINT) AS num,
       CASE WHEN (n * sxx - sx * sx) = 0 OR (n * syy - sy * sy) = 0
            THEN 0e0
            ELSE CAST(n * sxy - sx * sy AS DOUBLE)
                 / (sqrt(CAST(n * sxx - sx * sx AS DOUBLE))
                    * sqrt(CAST(n * syy - sy * sy AS DOUBLE))) END AS rho
FROM m
"""


# ---------------------------------------------------------------------------
# otsu_threshold — Otsu's method on the doc-length histogram
# ---------------------------------------------------------------------------


def q_otsu_threshold(sf_dir: str):
    """Otsu's thresholding on the document-length histogram: pick the
    length cut t* maximizing the between-class variance
    w₀w₁(μ₀−μ₁)² — the classic automatic two-class splitter (Otsu
    1979), used here to separate "short" from "long" docs without a
    hand-picked cutoff (the image-processing algorithm transplanted to
    corpus stats). Output: one row with t*, the class sizes/sums and
    the quantized objective at the optimum.

    Exactness: for each candidate t the objective is the RATIONAL
    (S₀n₁ − S₁n₀)² / (n₀·n₁) of exact int64 sums; both engines
    evaluate the identical double per candidate (one division) and
    argmax with ties → smaller t. Distributed shape: ONE histogram
    groupby; the candidate scan folds ≤ |distinct lengths| rows.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["n_chars"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        v = batch.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64)
        u, c = np.unique(v, return_counts=True)
        return pa.table(
            {
                "v": pa.array(u, pa.int64()),
                "c": pa.array(c.astype(np.int64), pa.int64()),
                "s": pa.array(u * c.astype(np.int64), pa.int64()),
            }
        )

    rows = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("v")
        .aggregate(
            ray.data.aggregate.Sum("c", alias_name="c"),
            ray.data.aggregate.Sum("s", alias_name="s"),
        )
        .take_all()  # bounded: value-histogram cells
    )
    rows.sort(key=lambda r: int(r["v"]))
    vs = [int(r["v"]) for r in rows]
    cs = np.array([int(r["c"]) for r in rows], np.int64)
    ss = np.array([int(r["s"]) for r in rows], np.int64)
    n_tot, s_tot = int(cs.sum()), int(ss.sum())
    best = None
    n0 = s0 = 0
    for i in range(len(vs) - 1):  # class 0 = values <= vs[i]
        n0 += int(cs[i])
        s0 += int(ss[i])
        n1 = n_tot - n0
        s1 = s_tot - s0
        if n0 == 0 or n1 == 0:
            continue
        d = s0 * n1 - s1 * n0
        obj = float(d) * float(d) / (float(n0) * float(n1))
        key = (obj, -vs[i])
        if best is None or key > best[0]:
            best = (key, vs[i], n0, n1, s0, s1, obj)
    _, t, n0, n1, s0, s1, obj = best
    return pa.table(
        {
            "threshold": pa.array([t], pa.int64()),
            "n0": pa.array([n0], pa.int64()),
            "n1": pa.array([n1], pa.int64()),
            "s0": pa.array([s0], pa.int64()),
            "s1": pa.array([s1], pa.int64()),
            "objective_q": pa.array(
                [math.floor(obj * 1e3 + 0.5)], pa.int64()
            ),
        }
    )


SQL_OTSU_THRESHOLD = """
WITH h AS (
  SELECT n_chars AS v, CAST(COUNT(*) AS BIGINT) AS c,
         CAST(SUM(n_chars) AS BIGINT) AS s
  FROM documents GROUP BY n_chars
),
tot AS (SELECT CAST(SUM(c) AS BIGINT) AS n, CAST(SUM(s) AS BIGINT) AS st
        FROM h),
cum AS (
  SELECT v,
         CAST(SUM(c) OVER (ORDER BY v) AS BIGINT) AS n0,
         CAST(SUM(s) OVER (ORDER BY v) AS BIGINT) AS s0
  FROM h
),
cand AS (
  SELECT cum.v AS threshold, cum.n0, tot.n - cum.n0 AS n1,
         cum.s0, tot.st - cum.s0 AS s1,
         CAST(cum.s0 * (tot.n - cum.n0)
              - (tot.st - cum.s0) * cum.n0 AS DOUBLE)
         * CAST(cum.s0 * (tot.n - cum.n0)
                - (tot.st - cum.s0) * cum.n0 AS DOUBLE)
         / (CAST(cum.n0 AS DOUBLE) * CAST(tot.n - cum.n0 AS DOUBLE))
           AS obj
  FROM cum, tot
  WHERE cum.n0 > 0 AND tot.n - cum.n0 > 0
),
rk AS (
  SELECT cand.*,
         row_number() OVER (ORDER BY obj DESC, threshold) AS rn
  FROM cand
)
SELECT threshold, n0, n1, s0, s1,
       CAST(floor(obj * 1e3 + 5e-1) AS BIGINT) AS objective_q
FROM rk WHERE rn = 1
"""


# ---------------------------------------------------------------------------
# gate_kappa — Cohen's kappa agreement between the gate bundles
# ---------------------------------------------------------------------------


def q_gate_kappa(sf_dir: str):
    """Cohen's κ between the Gopher and C4 keep decisions: chance-
    corrected agreement of the two quality-gate bundles — the
    inter-annotator-agreement statistic applied to filter bundles,
    which tells you whether running BOTH gates buys anything beyond one
    (κ→1: redundant; κ→0: independent signals). Output: the 2×2 table
    and κ.

    Exactness: κ = (n·a − e)/(n² − e) with a = agreement count and
    e = n₁₊n₊₁ + n₀₊n₊₀ — all exact integers, ONE mirrored division.
    Distributed shape: one map computes both proven rule bundles per
    doc, folds a 4-cell partial; a 4-integer aggregate closes it.
    """
    import functools

    from ..stages import textstats

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    gopher = functools.partial(textstats.gopher_rules_batch, min_stops=1)

    def partial(batch: pa.Table) -> pa.Table:
        g = gopher(batch).column("keep").to_numpy(zero_copy_only=False)
        # C4's line rules need the structured-page derivation — the raw
        # synthetic text is line-less and fails every doc otherwise
        # (caught by the sf0.001 oracle; the funnel does the same)
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        structured = pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(
                    [
                        textstats.derive_structured_page(i, t or "")
                        for i, t in zip(ids, texts)
                    ],
                    pa.string(),
                ),
            }
        )
        c4 = textstats.c4_rules_batch(structured).column("keep").to_numpy(
            zero_copy_only=False
        )
        return pa.table(
            {
                "n11": pa.array([int((g & c4).sum())], pa.int64()),
                "n10": pa.array([int((g & ~c4).sum())], pa.int64()),
                "n01": pa.array([int((~g & c4).sum())], pa.int64()),
                "n00": pa.array([int((~g & ~c4).sum())], pa.int64()),
            }
        )

    rows = docs.map_batches(partial, batch_format="pyarrow").take_all()  # bounded: one partial row per batch
    n11 = sum(int(r["n11"]) for r in rows)
    n10 = sum(int(r["n10"]) for r in rows)
    n01 = sum(int(r["n01"]) for r in rows)
    n00 = sum(int(r["n00"]) for r in rows)
    n = n11 + n10 + n01 + n00
    a = n11 + n00
    e = (n11 + n10) * (n11 + n01) + (n00 + n01) * (n00 + n10)
    kappa = (
        float(n * a - e) / float(n * n - e) if n * n != e else 1.0
    )
    return pa.table(
        {
            "n11": pa.array([n11], pa.int64()),
            "n10": pa.array([n10], pa.int64()),
            "n01": pa.array([n01], pa.int64()),
            "n00": pa.array([n00], pa.int64()),
            "kappa": pa.array([kappa], pa.float64()),
        }
    )


def _sql_gate_kappa(oracles: dict) -> str:
    return f"""
WITH g AS MATERIALIZED ({oracles["gopher_rules"].strip()}),
c AS MATERIALIZED ({oracles["c4_rules"].strip()}),
t AS (
  SELECT CAST(SUM(CASE WHEN g.keep AND c.keep THEN 1 ELSE 0 END)
              AS BIGINT) AS n11,
         CAST(SUM(CASE WHEN g.keep AND NOT c.keep THEN 1 ELSE 0 END)
              AS BIGINT) AS n10,
         CAST(SUM(CASE WHEN NOT g.keep AND c.keep THEN 1 ELSE 0 END)
              AS BIGINT) AS n01,
         CAST(SUM(CASE WHEN NOT g.keep AND NOT c.keep THEN 1 ELSE 0 END)
              AS BIGINT) AS n00
  FROM g JOIN c ON c.doc_id = g.doc_id
)
SELECT n11, n10, n01, n00,
       CASE WHEN (n11 + n10 + n01 + n00) * (n11 + n10 + n01 + n00)
                 = (n11 + n10) * (n11 + n01) + (n00 + n01) * (n00 + n10)
            THEN 1e0
            ELSE CAST((n11 + n10 + n01 + n00) * (n11 + n00)
                      - ((n11 + n10) * (n11 + n01)
                         + (n00 + n01) * (n00 + n10)) AS DOUBLE)
                 / CAST((n11 + n10 + n01 + n00) * (n11 + n10 + n01 + n00)
                        - ((n11 + n10) * (n11 + n01)
                           + (n00 + n01) * (n00 + n10)) AS DOUBLE)
       END AS kappa
FROM t
"""
