"""Sixty-fourth-wave operators (round-3 continuation session,
2026-08-21) — bounded weighted shortest paths, IV estimation, ERR.

Listed by name in ``queries.py``'s QUERIES/ORACLES.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# khop_shortest_paths — bounded-round weighted single-source distances
# ---------------------------------------------------------------------------

_KSP_ROUNDS = 12
_KSP_INF = 1 << 40


def _ksp_weight(a: int, b: int) -> int:
    return 1 + int(
        hashlib.md5(f"w|{min(a, b)}|{max(a, b)}".encode()).hexdigest()[:8],
        16,
    ) % 9


def q_khop_shortest_paths(sf_dir: str):
    """Weighted single-source shortest paths from node 0 under a
    {r}-round relaxation horizon: edge weights are md5 latencies 1..9
    on the undirected synthetic graph, and both engines run EXACTLY
    {r} synchronous Bellman–Ford rounds — the result is the cheapest
    ≤{r}-hop route (the bounded-latency reachability question: "what
    can the crawler reach within k redirect hops at what cost?"), and
    equals the true shortest path wherever the optimal route uses ≤{r}
    edges. Output: per node the distance (−1 if unreached).

    Exactness: weights, relaxations and the fixed round count are pure
    integers — the unrolled SQL chain mirrors round for round.
    Routed through ``stages.graph.bounded_sssp`` — the distributed
    per-round union+bucketed-groupby-MIN relaxation (the
    multi_source_bfs plan with weights; weights hashed edge-local
    inside map_batches, nothing unbounded on the driver) with the
    test-locked small-graph broadcast fast path at test scale
    (bit-equal: all-integer relaxation).
    """
    from ..stages.graph import bounded_sssp
    from .queries_wave56 import _undirected_edges

    edges_ds, n = _undirected_edges(sf_dir)

    def weight_both_ways(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch.column("b").to_numpy(zero_copy_only=False).astype(np.int64)
        w = np.array(
            [_ksp_weight(int(x), int(y)) for x, y in zip(a, b)], np.int64
        )
        return pa.table(
            {
                "src": pa.array(np.concatenate([a, b]), pa.int64()),
                "dst": pa.array(np.concatenate([b, a]), pa.int64()),
                "w": pa.array(np.concatenate([w, w]), pa.int64()),
            }
        )

    edges = edges_ds.map_batches(weight_both_ways, batch_format="pyarrow")
    nodes = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    ).map_batches(
        lambda bt: pa.table({"node": bt.column("doc_id")}),
        batch_format="pyarrow",
    )
    return bounded_sssp(
        nodes, edges, source=0, rounds=_KSP_ROUNDS, inf=_KSP_INF
    )


def _sql_ksp() -> str:
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
we AS MATERIALIZED (
  SELECT a, b,
         1 + CAST(('0x' || substr(md5('w|' || a || '|' || b), 1, 8))
                  AS BIGINT) % 9 AS w
  FROM ue
),
eB AS MATERIALIZED (
  SELECT a AS u, b AS v, w FROM we UNION ALL SELECT b, a, w FROM we
),
d0 AS (
  SELECT doc_id AS node,
         CAST(CASE WHEN doc_id = 0 THEN 0 ELSE {_KSP_INF} END
              AS BIGINT) AS d
  FROM documents
)"""
    ]
    prev = "d0"
    for r in range(1, _KSP_ROUNDS + 1):
        parts.append(
            f"""
d{r} AS MATERIALIZED (
  SELECT p.node,
         LEAST(p.d, COALESCE(rx.md, p.d)) AS d
  FROM {prev} p
  LEFT JOIN (
    SELECT e.v AS node, MIN(du.d + e.w) AS md
    FROM eB e JOIN {prev} du ON du.node = e.u
    WHERE du.d < {_KSP_INF}
    GROUP BY e.v
  ) rx ON rx.node = p.node
)"""
        )
        prev = f"d{r}"
    parts.append(
        f"""
fin AS (SELECT * FROM {prev})
SELECT node,
       CAST(CASE WHEN d >= {_KSP_INF} THEN -1 ELSE d END AS BIGINT)
         AS dist
FROM fin"""
    )
    return "WITH " + ",".join(parts)


# ---------------------------------------------------------------------------
# iv_wald — instrumental-variable (Wald) estimator with planted effect
# ---------------------------------------------------------------------------

_IV_EFFECT = 700  # planted cents-per-exposure-unit effect
_IV_PUSH = 50  # instrument strength: Z=1 adds 50 exposure units
_IV_Q = 10**6


def q_iv_wald(sf_dir: str):
    """Instrumental-variable (Wald) estimation on a simulated
    encouragement design: instrument Z = md5(user)%2 nudges exposure
    X = event_count + {push}·Z, and the outcome Y = spend_cents//100 +
    {eff}·X + md5 noise carries the planted effect (the scaled spend
    confounds X through activity; the instrument is strong enough to
    dominate small-sample imbalance even at 15 users) — the estimator
    (Ȳ₁−Ȳ₀)/(X̄₁−X̄₀) recovers {eff} even though naive Y~X regression
    is confounded by activity. Completes the causal family
    (diff_in_diff, CUPED, QTE, log-rank). Output: one row with both
    arms' exact sums and the quantized Wald ratio.

    Exactness: the mean-difference ratio reduces to
    (Sy₁·n₀−Sy₀·n₁)/(Sx₁·n₀−Sx₀·n₁) — the n₁n₀ denominators cancel —
    evaluated with a both-operand sign-split division. Distributed
    shape: one groupby(user) aggregate + a 6-integer fold.
    """
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "value"]
    )

    def tag(batch: pa.Table) -> pa.Table:
        val = batch.column("value").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "user_id": batch.column("user_id").cast(pa.int64()),
                "cents": pa.array(
                    np.floor(val * 100.0 + 0.5).astype(np.int64),
                    pa.int64(),
                ),
                "one": pa.array(
                    np.ones(batch.num_rows, np.int64), pa.int64()
                ),
            }
        )

    def per_user_arm(batch: pa.Table) -> pa.Table:
        # z/x/y assignment stays WITH the per-user rows (distributed);
        # only (z, n, Sx, Sy) partials leave this map — the r4 fix for
        # the former user-sized driver fold
        zs, xs, ys = [], [], []
        for u, cents, cnt in zip(
            batch.column("user_id").to_pylist(),
            batch.column("cents").to_pylist(),
            batch.column("cnt").to_pylist(),
        ):
            u = int(u)
            z = int(hashlib.md5(f"iv|{u}".encode()).hexdigest()[:8], 16) % 2
            x = int(cnt) + _IV_PUSH * z
            noise = int(
                hashlib.md5(f"ivn|{u}".encode()).hexdigest()[:8], 16
            ) % 1000
            zs.append(z)
            xs.append(x)
            ys.append(int(cents) // 100 + _IV_EFFECT * x + noise)
        return pa.table(
            {
                "z": pa.array(zs, pa.int64()),
                "x": pa.array(xs, pa.int64()),
                "y": pa.array(ys, pa.int64()),
                "one": pa.array([1] * len(zs), pa.int64()),
            }
        )

    arms = (
        ev.map_batches(tag, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(
            ray.data.aggregate.Sum("cents", alias_name="cents"),
            ray.data.aggregate.Sum("one", alias_name="cnt"),
        )
        .map_batches(per_user_arm, batch_format="pyarrow")
        .groupby("z")
        .aggregate(
            ray.data.aggregate.Sum("one", alias_name="n"),
            ray.data.aggregate.Sum("x", alias_name="sx"),
            ray.data.aggregate.Sum("y", alias_name="sy"),
        )
        .take_all()  # bounded: exactly 2 arm rows
    )
    byz = {int(r["z"]): (int(r["n"]), int(r["sx"]), int(r["sy"])) for r in arms}
    n0, sx0, sy0 = byz.get(0, (0, 0, 0))
    n1, sx1, sy1 = byz.get(1, (0, 0, 0))
    num = sy1 * n0 - sy0 * n1
    den = sx1 * n0 - sx0 * n1
    mag = abs(num) * _IV_Q // max(abs(den), 1)
    wald_q = -mag if (num < 0) != (den < 0) else mag
    return pa.table(
        {
            "n0": pa.array([n0], pa.int64()),
            "n1": pa.array([n1], pa.int64()),
            "sx0": pa.array([sx0], pa.int64()),
            "sx1": pa.array([sx1], pa.int64()),
            "sy0": pa.array([sy0], pa.int64()),
            "sy1": pa.array([sy1], pa.int64()),
            "wald_q": pa.array([wald_q], pa.int64()),
        }
    )


SQL_IV_WALD = f"""
WITH u AS (
  SELECT user_id,
         CAST(SUM(CAST(floor(value * 100e0 + 5e-1) AS BIGINT))
              AS BIGINT) AS cents,
         CAST(COUNT(*) AS BIGINT) AS cnt
  FROM events GROUP BY user_id
),
iv AS (
  SELECT CAST(('0x' || substr(md5('iv|' || user_id), 1, 8))
              AS BIGINT) % 2 AS z,
         cnt + {_IV_PUSH}
           * (CAST(('0x' || substr(md5('iv|' || user_id), 1, 8))
                   AS BIGINT) % 2) AS x,
         cents // 100 + {_IV_EFFECT}
           * (cnt + {_IV_PUSH}
              * (CAST(('0x' || substr(md5('iv|' || user_id), 1, 8))
                      AS BIGINT) % 2))
           + CAST(('0x' || substr(md5('ivn|' || user_id), 1, 8))
                  AS BIGINT) % 1000 AS y
  FROM u
),
agg AS (
  SELECT CAST(SUM(CASE WHEN z = 0 THEN 1 ELSE 0 END) AS BIGINT) AS n0,
         CAST(SUM(CASE WHEN z = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n1,
         CAST(SUM(CASE WHEN z = 0 THEN x ELSE 0 END) AS BIGINT) AS sx0,
         CAST(SUM(CASE WHEN z = 1 THEN x ELSE 0 END) AS BIGINT) AS sx1,
         CAST(SUM(CASE WHEN z = 0 THEN y ELSE 0 END) AS BIGINT) AS sy0,
         CAST(SUM(CASE WHEN z = 1 THEN y ELSE 0 END) AS BIGINT) AS sy1
  FROM iv
),
d AS (
  SELECT agg.*,
         CAST(sy1 AS HUGEINT) * n0 - CAST(sy0 AS HUGEINT) * n1 AS num,
         CAST(sx1 AS HUGEINT) * n0 - CAST(sx0 AS HUGEINT) * n1 AS den
  FROM agg
)
SELECT n0, n1, sx0, sx1, sy0, sy1,
       CAST(CASE WHEN (num < 0) <> (den < 0)
                 THEN -(abs(num) * {_IV_Q} // GREATEST(abs(den), 1))
                 ELSE abs(num) * {_IV_Q} // GREATEST(abs(den), 1) END
            AS BIGINT) AS wald_q
FROM d
"""


# ---------------------------------------------------------------------------
# err_metric — Expected Reciprocal Rank of the BM25 vs QLD rankings
# ---------------------------------------------------------------------------

_ERR_K = 10
_ERR_Q = 10**12
# tier relevances as fourths: tier0 -> 1/4, tier1 -> 3/4
_ERR_RNUM = {0: 1, 1: 3}


def _err_from_tiers(tiers: list[int]) -> int:
    """Exact ERR numerator-quantized: Σ_r R_r/r · Π_{i<r}(1−R_i), with
    R in fourths — every term is an exact rational over 4^r·r."""
    err_q = 0
    snum = 1  # Π (4 - Rnum_i), denominator 4^(r-1)
    for r, t in enumerate(tiers, start=1):
        rn = _ERR_RNUM[t]
        err_q += rn * snum * _ERR_Q // (4**r * r)
        snum *= 4 - rn
    return err_q


def q_err_metric(sf_dir: str):
    """Expected Reciprocal Rank of the BM25 and QLD top-{k} rankings
    under the cascade user model (relevance = the PBM tier grades ¼ /
    ¾): ERR = Σ_r (1/r)·R_r·Π_{i<r}(1−R_i) — the cascade-aware IR
    metric beside the repo's nDCG/RBO/MRR that punishes placing a
    satisfying document late. Output: one row per ranker with its ERR.

    Exactness: with relevances in fourths, every cascade term is an
    exact rational over 4^r·r and quantizes independently (no float
    product chain); the survive numerator Π(4−R) stays ≤ 3¹⁰.
    Distributed shape: both rankings reuse their distributed plans;
    the {k}-term fold is driver arithmetic (SQL: builder-unrolled
    pivot terms).
    """
    from .queries import _bm25_scored
    from .queries_wave55 import q_qld_topk

    bm = (
        _bm25_scored(sf_dir)
        .sort(["score", "doc_id"], descending=[True, False])
        .limit(_ERR_K)
        .take_all()  # bounded: ≤ _ERR_K rows (sort+limit)
    )
    qld = q_qld_topk(sf_dir).to_pylist()

    def tier(d: int) -> int:
        return (
            int(hashlib.md5(f"tier|{d}".encode()).hexdigest()[:13], 16)
            % 2
        )

    out_r, out_e = [], []
    for name, rows in (("bm25", bm), ("qld", qld)):
        tiers = [tier(int(r["doc_id"])) for r in rows]
        out_r.append(name)
        out_e.append(_err_from_tiers(tiers))
    return pa.table(
        {
            "ranker": pa.array(out_r, pa.string()),
            "err_q": pa.array(out_e, pa.int64()),
        }
    )


def _sql_err(bm25_top_sql: str, qld_sql: str) -> str:
    # builder-unrolled exact cascade terms over the tier pivot
    def terms(prefix: str) -> str:
        cols = []
        for r in range(1, _ERR_K + 1):
            surv = " * ".join(
                f"(4 - {prefix}.t{i})" for i in range(1, r)
            )
            surv = surv if surv else "1"
            cols.append(
                f"{prefix}.t{r} * ({surv}) * {_ERR_Q}"
                f" // ({4 ** r} * {r})"
            )
        return " + ".join(cols)

    def pivot(src: str) -> str:
        casts = ", ".join(
            f"MAX(CASE WHEN rank = {r} THEN tn END) AS t{r}"
            for r in range(1, _ERR_K + 1)
        )
        return f"""
  SELECT {casts} FROM (
    SELECT rank,
           CASE WHEN CAST(('0x' || substr(md5('tier|' || doc_id), 1, 13))
                          AS BIGINT) % 2 = 1 THEN 3 ELSE 1 END AS tn
    FROM ({src})
  )"""

    bm_ranked = f"""
SELECT doc_id, row_number() OVER (ORDER BY score DESC, doc_id) AS rank
FROM ({bm25_top_sql})"""
    qld_ranked = f"SELECT doc_id, rank FROM ({qld_sql})"
    return f"""
WITH bmp AS ({pivot(bm_ranked)}),
qlp AS ({pivot(qld_ranked)})
SELECT 'bm25' AS ranker,
       CAST({terms('bmp')} AS BIGINT) AS err_q
FROM bmp
UNION ALL
SELECT 'qld', CAST({terms('qlp')} AS BIGINT) FROM qlp
"""
