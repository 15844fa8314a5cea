"""Thirty-fifth-wave operators (round-3 continuation session,
2026-08-20).

Listed by name in ``queries.py``'s QUERIES/ORACLES.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# pagerank_convergence — per-iteration L1 residual of the power iteration
# ---------------------------------------------------------------------------

_PC_ITERS = 5


def q_pagerank_convergence(sf_dir: str):
    """Convergence curve of the PageRank power iteration: per iteration
    k, the L1 residual Σ|r_k − r_{k−1}| and the number of nodes whose
    rank moved — the diagnostic that justifies (or indicts) the
    n_iters=5 the engine ships. Ranks are compared at the proven
    ROUND-to-8-decimals discipline, then quantized ×1e8 to exact
    integers, so the residual is an order-free integer fold on both
    engines.

    Distributed shape: iteration k's rank table (node, q8) attaches
    iteration k−1's via the bucketed attach (no Dataset.join, no
    driver-side rank dict — the rank table is data-sized); per-batch
    |diff| partials close with one tiny fold per iteration.

    Graph note: the standard 3-rule link graph is 3-out-REGULAR, where
    the uniform vector is already the exact fixpoint and every residual
    is zero (caught by the first run: a convergence curve of zeros
    measures nothing). This query therefore uses a degree-VARYING
    variant — rules (2i+1, 7i+3) for all i plus (3i+5) for even i — so
    out-degrees mix 2 and 3 and the power iteration genuinely moves.
    """
    from ..stages.graph import attach_node_value, pagerank

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    n = docs.count()
    mk_edges = pr_varying_edges_batchfn(n)

    nodes = docs.map_batches(
        lambda b: pa.table({"node": b.column("doc_id")}), batch_format="pyarrow"
    )
    edges = docs.map_batches(mk_edges, batch_format="pyarrow")

    def q8(ds):
        def f(batch: pa.Table) -> pa.Table:
            r = batch.column("rank").to_numpy(zero_copy_only=False)
            q = np.floor(np.round(r, 8) * 1e8 + 0.5).astype(np.int64)
            return pa.table(
                {
                    "node": batch.column("node").cast(pa.int64()),
                    "q8": pa.array(q, pa.int64()),
                }
            )

        return ds.map_batches(f, batch_format="pyarrow")

    # iteration-0 ranks: uniform 1/n
    prev = q8(
        nodes.map_batches(
            lambda b: pa.table(
                {
                    "node": b.column("node").cast(pa.int64()),
                    "rank": pa.array(
                        np.full(b.num_rows, 1.0 / n), pa.float64()
                    ),
                }
            ),
            batch_format="pyarrow",
        )
    ).materialize()

    out = {"iter": [], "residual_q8": [], "n_changed": []}
    for k in range(1, _PC_ITERS + 1):
        cur = q8(pagerank(nodes, edges, n_iters=k, damping=0.85)).materialize()
        joined = attach_node_value(
            cur, prev, key_col="node", out_col="prev_q8",
            schema_cols=["node", "q8"],
        )

        def diff_partial(batch: pa.Table) -> pa.Table:
            a = batch.column("q8").to_numpy(zero_copy_only=False)
            b = batch.column("prev_q8").to_numpy(zero_copy_only=False)
            d = np.abs(a - b)
            return pa.table(
                {
                    "s": pa.array([int(d.sum())], pa.int64()),
                    "c": pa.array([int((d > 0).sum())], pa.int64()),
                }
            )

        rows = joined.map_batches(diff_partial, batch_format="pyarrow").take_all()  # bounded: one partial row per batch
        out["iter"].append(k)
        out["residual_q8"].append(sum(int(r["s"]) for r in rows))
        out["n_changed"].append(sum(int(r["c"]) for r in rows))
        prev = cur
    return pa.table(
        {
            "iter": pa.array(out["iter"], pa.int64()),
            "residual_q8": pa.array(out["residual_q8"], pa.int64()),
            "n_changed": pa.array(out["n_changed"], pa.int64()),
        }
    )


def pr_varying_edges_batchfn(n: int):
    """mk_edges over the degree-VARYING rules (2i+1, 7i+3; 3i+5 for even
    i) — shared by pagerank_convergence and rank_degree_spearman (both
    need a graph where the power iteration actually moves)."""

    def mk_edges(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        d1 = (2 * ids + 1) % n
        d2 = (7 * ids + 3) % n
        d3 = (3 * ids + 5) % n
        has3 = ids % 2 == 0
        dup2 = d2 == d1
        dup3 = has3 & ((d3 == d1) | ((d3 == d2) & ~dup2))
        keep2 = ~dup2
        keep3 = has3 & ~dup3
        outdeg = 1.0 + keep2.astype(np.float64) + keep3.astype(np.float64)
        w = 1.0 / outdeg
        return pa.table(
            {
                "src": pa.array(
                    np.concatenate([ids, ids[keep2], ids[keep3]]), pa.int64()
                ),
                "dst": pa.array(
                    np.concatenate([d1, d2[keep2], d3[keep3]]), pa.int64()
                ),
                "w": pa.array(
                    np.concatenate([w, w[keep2], w[keep3]]), pa.float64()
                ),
            }
        )

    return mk_edges


def pr_varying_sql_body(n_iters: int) -> str:
    """WITH-body (head + r1..r{n_iters} CTEs) of the degree-varying
    PageRank oracle — shared by pagerank_convergence and
    rank_degree_spearman."""
    head = """WITH nn AS (SELECT COUNT(*) AS c FROM documents),
child AS (
  SELECT doc_id AS src_id, (2 * doc_id + 1) % nn.c AS dst_id FROM documents, nn
  UNION ALL SELECT doc_id, (7 * doc_id + 3) % nn.c FROM documents, nn
  UNION ALL SELECT doc_id, (3 * doc_id + 5) % nn.c
  FROM documents, nn WHERE doc_id % 2 = 0
),
e AS (SELECT DISTINCT src_id AS src, dst_id AS dst FROM child),
deg AS (SELECT src, COUNT(*) AS outdeg FROM e GROUP BY src),
r0 AS (
  SELECT doc_id AS node, CAST(1.0 AS DOUBLE) / (SELECT c FROM nn) AS rank
  FROM documents
)"""
    parts = [head]
    prev = "r0"
    for k in range(1, n_iters + 1):
        parts.append(
            f""",
r{k} AS (
  SELECT d2.doc_id AS node,
         (CAST(1.0 AS DOUBLE) - CAST(0.85 AS DOUBLE)) / (SELECT c FROM nn)
         + CAST(0.85 AS DOUBLE)
           * COALESCE(SUM(p.rank * (CAST(1.0 AS DOUBLE) / deg.outdeg)), 0) AS rank
  FROM documents d2
  LEFT JOIN e ON e.dst = d2.doc_id
  LEFT JOIN deg ON deg.src = e.src
  LEFT JOIN {prev} p ON p.node = e.src
  GROUP BY d2.doc_id
)"""
        )
        prev = f"r{k}"
    return "".join(parts)


def _sql_pagerank_convergence() -> str:
    body = pr_varying_sql_body(_PC_ITERS)
    sels = []
    for k in range(1, _PC_ITERS + 1):
        prev = f"r{k - 1}"
        sels.append(
            f"""SELECT CAST({k} AS BIGINT) AS iter,
       CAST(SUM(CAST(floor(ABS(ROUND(a.rank, 8) - ROUND(b.rank, 8)) * 1e8
                           + 5e-1) AS BIGINT)) AS BIGINT) AS residual_q8,
       CAST(SUM(CASE WHEN ROUND(a.rank, 8) <> ROUND(b.rank, 8)
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_changed
FROM r{k} a JOIN {prev} b ON b.node = a.node"""
        )
    return body + "\n" + "\nUNION ALL\n".join(sels)


# ---------------------------------------------------------------------------
# neg_sampling_dist — word2vec unigram^0.75 negative-sampling audit
# ---------------------------------------------------------------------------

_NS_POWER = 0.75
_NS_DRAWS = 2000
# sampler support cap — far above any test-scale vocabulary (output is
# exact vs the SQL oracle below it); the web-scale driver bound
_NS_VOCAB_K = 1 << 18


def q_neg_sampling_dist(sf_dir: str):
    """The word2vec negative-sampling distribution, built and audited:
    token weights ∝ count^0.75 (Mikolov et al. 2013 — the power that
    upweights the tail just enough), a deterministic inverse-CDF
    sampler over md5-slice uniforms, and per token the expected vs
    actual draw counts over 2000 draws — the audit that catches a
    mis-built alias/CDF table before it silently skews an embedding
    run.

    Exactness: weights are quantized once (libm pow mirrored); the CDF
    is an exact integer cumulative over tokens in lexical order; each
    draw is an integer mod + range lookup — both engines draw the
    IDENTICAL tokens. expected = B·w/W is the one mirrored division.

    Distributed shape: ONE token-count groupby; vocab selection is the
    exact distributed sort+limit of ``stages.lmscore._select_vocab``
    (driver holds ≤ _NS_VOCAB_K rows — at web scale the sampler runs
    over the top-K support, the standard word2vec vocabulary cap); the
    CDF (≤ K rows) broadcasts; draws partial-count map-side and close
    with one tiny groupby.
    """
    from ..stages.lmscore import _select_vocab

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
                "tok": pa.array(ks, pa.string()),
                "c": pa.array([cnt[k] for k in ks], pa.int64()),
            }
        )

    cnts = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("tok")
        .aggregate(ray.data.aggregate.Sum("c", alias_name="c"))
        .rename_columns({"tok": "w"})
    )
    # distributed capped selection: driver holds ≤ _NS_VOCAB_K rows
    kept, _n_total, _v = _select_vocab(cnts, _NS_VOCAB_K)
    kept.sort()  # CDF support in lexical order, as before
    toks = [w for w, _ in kept]
    counts = np.array([c for _, c in kept], np.int64)
    wq = np.array(
        [
            math.floor(math.pow(float(c), _NS_POWER) * 1e6 + 0.5)
            for c in counts
        ],
        np.int64,
    )
    cum = np.cumsum(wq)
    W = int(cum[-1])
    cref = ray.put((cum, len(toks)))

    draws = ray.data.range(_NS_DRAWS)

    def draw_partial(batch: pa.Table) -> pa.Table:
        cm, nt = ray.get(cref)
        hits = np.zeros(nt, np.int64)
        for b in batch.column("id").to_pylist():
            u = (
                int(hashlib.md5(f"ns|{b}".encode()).hexdigest()[:12], 16)
                % W
            )
            hits[np.searchsorted(cm, u, side="right")] += 1
        idx = np.nonzero(hits)[0]
        return pa.table(
            {
                "ti": pa.array(idx, pa.int64()),
                "n": pa.array(hits[idx], pa.int64()),
            }
        )

    drawn = (
        draws.map_batches(draw_partial, batch_format="pyarrow")
        .groupby("ti")
        .aggregate(ray.data.aggregate.Sum("n", alias_name="n"))
        .take_all()  # bounded: one row per topic index
    )
    actual = np.zeros(len(toks), np.int64)
    for r in drawn:
        actual[int(r["ti"])] = int(r["n"])
    return pa.table(
        {
            "tok": pa.array(toks, pa.string()),
            "c": pa.array(counts, pa.int64()),
            "wq": pa.array(wq, pa.int64()),
            "expected": pa.array(
                [float(_NS_DRAWS) * float(w) / float(W) for w in wq],
                pa.float64(),
            ),
            "actual": pa.array(actual, pa.int64()),
        }
    )


SQL_NEG_SAMPLING_DIST = rf"""
WITH tk AS (
  SELECT unnest(list_filter(regexp_split_to_array(text, '\s+'),
                            x -> x <> '')) AS tok
  FROM documents
),
cnt AS (SELECT tok, CAST(COUNT(*) AS BIGINT) AS c FROM tk GROUP BY tok),
w AS (
  SELECT tok, c,
         CAST(floor(POW(CAST(c AS DOUBLE), {_NS_POWER!r}) * 1e6 + 5e-1)
              AS BIGINT) AS wq
  FROM cnt
),
cdf AS (
  SELECT tok, c, wq,
         SUM(wq) OVER (ORDER BY tok) AS cum,
         SUM(wq) OVER (ORDER BY tok)
           - wq AS cum0
  FROM w
),
tot AS (SELECT CAST(SUM(wq) AS BIGINT) AS W FROM w),
d AS (
  SELECT CAST(('0x' || substr(md5('ns|' || CAST(b.b AS VARCHAR)), 1, 12))
              AS BIGINT) % tot.W AS u
  FROM range({_NS_DRAWS}) b(b), tot
),
hit AS (
  SELECT cdf.tok, CAST(COUNT(*) AS BIGINT) AS actual
  FROM d JOIN cdf ON d.u >= cdf.cum0 AND d.u < cdf.cum
  GROUP BY cdf.tok
)
SELECT cdf.tok, cdf.c, cdf.wq,
       CAST({_NS_DRAWS} AS DOUBLE) * CAST(cdf.wq AS DOUBLE)
         / CAST(tot.W AS DOUBLE) AS expected,
       COALESCE(hit.actual, 0) AS actual
FROM cdf LEFT JOIN hit USING (tok) CROSS JOIN tot
"""


# ---------------------------------------------------------------------------
# benford_audit — first-digit distribution vs Benford's law
# ---------------------------------------------------------------------------


def q_benford_audit(sf_dir: str):
    """Benford's-law audit of the l_orderkey column: observed
    first-digit frequencies beside the Benford expectation
    log10(1 + 1/d) — the data-forensics screen for fabricated or
    truncated numeric columns (a synthetic uniform key, as here,
    FAILS Benford loudly — which is exactly what the audit should
    report). Output: one row per leading digit with counts, observed
    rate, and the quantized Benford probability.

    Distributed shape: per-batch digit partials (first digit via
    integer decimation, no string round-trip) → ONE 9-group groupby;
    the rate is the one mirrored division.
    """
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        v = batch.column("l_orderkey").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        v = v[v > 0]
        while (v >= 10).any():
            v = np.where(v >= 10, v // 10, v)
        u, c = np.unique(v, return_counts=True)
        return pa.table(
            {
                "digit": pa.array(u, pa.int64()),
                "n": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("digit")
        .aggregate(ray.data.aggregate.Sum("n", alias_name="n"))
        .take_all()  # bounded: one row per leading digit (9)
    )
    agg.sort(key=lambda r: int(r["digit"]))
    total = sum(int(r["n"]) for r in agg)
    return pa.table(
        {
            "digit": pa.array([int(r["digit"]) for r in agg], pa.int64()),
            "n": pa.array([int(r["n"]) for r in agg], pa.int64()),
            "obs_rate": pa.array(
                [float(r["n"]) / float(total) for r in agg], pa.float64()
            ),
            "benford_q": pa.array(
                [
                    math.floor(
                        math.log10(1.0 + 1.0 / float(r["digit"])) * 1e12
                        + 0.5
                    )
                    for r in agg
                ],
                pa.int64(),
            ),
        }
    )


SQL_BENFORD_AUDIT = """
WITH digits AS (
  SELECT CAST(substr(CAST(l_orderkey AS VARCHAR), 1, 1) AS BIGINT) AS digit
  FROM lineitem WHERE l_orderkey > 0
),
agg AS (
  SELECT digit, CAST(COUNT(*) AS BIGINT) AS n FROM digits GROUP BY digit
),
tot AS (SELECT CAST(SUM(n) AS BIGINT) AS t FROM agg)
SELECT agg.digit, agg.n,
       CAST(agg.n AS DOUBLE) / CAST(tot.t AS DOUBLE) AS obs_rate,
       CAST(floor(log10(1e0 + 1e0 / CAST(agg.digit AS DOUBLE)) * 1e12
                  + 5e-1) AS BIGINT) AS benford_q
FROM agg, tot
"""
