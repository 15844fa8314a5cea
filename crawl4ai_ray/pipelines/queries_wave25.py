"""Twenty-fifth-wave operators (round-3 continuation session,
2026-08-20).

Listed by name in ``queries.py``'s QUERIES/ORACLES.

- harmonic_centrality: per-seed BFS distances via the DISJOINT-UNION
  layering trick (the bowtie_components pattern) — one label
  propagation computes all seeds' distance fields at once.
- ucb_crawl_sched: UCB1 bandit host scheduling, T-round trajectory
  pinned exactly (libm ln/sqrt mirrored operand-for-operand).
- source_percent_rank: windowed PERCENT_RANK partitioned by source,
  built on the stages/rank.py global ranker (no per-group scheduling).
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# harmonic_centrality — sampled harmonic centrality over the link graph
# ---------------------------------------------------------------------------

_HC_SEEDS = [0, 3, 7, 11]
_HC_BFS_ITERS = 16  # >= seed eccentricity at every test sf


def q_harmonic_centrality(sf_dir: str):
    """Sampled harmonic centrality over the synthetic link graph:
    ĥ(v) = Σ_seeds 1/d(s, v) over a fixed seed set — the standard
    unbiased-sample estimator for closeness-family centralities at
    graph scale (exact closeness needs all-pairs distances; the sample
    needs |seeds| BFS fields).

    ALL per-seed distance fields come from ONE label propagation via
    the disjoint-union layering trick (the bowtie_components pattern):
    node' = node·S + layer, edges replicated per layer, seed of layer s
    placed only in layer s — layers are disconnected, so the nearest-
    seed distance within layer s IS d(seed_s, node).

    Exactness: 1/d is quantized as the INTEGER 1e9 // d, so the
    harmonic sum is exact on both engines; the float column is the one
    mirrored division by 1e9.
    """
    from ..stages.graph import multi_source_bfs
    from .queries import _synthetic_link_edges

    S = len(_HC_SEEDS)
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def layer_nodes(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        node = (ids[:, None] * S + np.arange(S)[None, :]).ravel()
        return pa.table({"node": pa.array(node, pa.int64())})

    def layer_edges(batch: pa.Table) -> pa.Table:
        src = batch.column("src").to_numpy(zero_copy_only=False).astype(np.int64)
        dst = batch.column("dst").to_numpy(zero_copy_only=False).astype(np.int64)
        s2 = (src[:, None] * S + np.arange(S)[None, :]).ravel()
        d2 = (dst[:, None] * S + np.arange(S)[None, :]).ravel()
        return pa.table(
            {"src": pa.array(s2, pa.int64()), "dst": pa.array(d2, pa.int64())}
        )

    nodes = docs.map_batches(layer_nodes, batch_format="pyarrow")
    edges = _synthetic_link_edges(sf_dir).map_batches(
        layer_edges, batch_format="pyarrow"
    )
    seeds = [seed * S + i for i, seed in enumerate(_HC_SEEDS)]
    bfs = multi_source_bfs(nodes, edges, seeds=seeds)

    def contrib(batch: pa.Table) -> pa.Table:
        node2 = batch.column("node").to_numpy(zero_copy_only=False).astype(np.int64)
        dist = batch.column("dist").to_numpy(zero_copy_only=False).astype(np.int64)
        keep = dist >= 1  # the seed itself (d=0) contributes nothing
        node = node2[keep] // S
        q = 1_000_000_000 // dist[keep]
        return pa.table(
            {
                "node": pa.array(node, pa.int64()),
                "hq": pa.array(q, pa.int64()),
                "n_seeds": pa.array(np.ones(len(node), np.int64), pa.int64()),
            }
        )

    agg = (
        bfs.map_batches(contrib, batch_format="pyarrow")
        .groupby("node")
        .aggregate(
            ray.data.aggregate.Sum("hq", alias_name="harmonic_q"),
            ray.data.aggregate.Sum("n_seeds", alias_name="n_seeds"),
        )
    )

    def finish(batch: pa.Table) -> pa.Table:
        hq = batch.column("harmonic_q").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "node": batch.column("node").cast(pa.int64()),
                "n_seeds": batch.column("n_seeds").cast(pa.int64()),
                "harmonic_q": pa.array(hq, pa.int64()),
                "harmonic": pa.array(hq.astype(np.float64) / 1e9, pa.float64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def _sql_harmonic_centrality() -> str:
    S = len(_HC_SEEDS)
    sent = 1 << 62
    hop = 1 << 32
    seeds2 = [seed * S + i for i, seed in enumerate(_HC_SEEDS)]
    seed_list = ", ".join(str(s) for s in seeds2)
    parts = [
        f"""e AS MATERIALIZED (
  SELECT base.src * {S} + l.l AS src, base.dst * {S} + l.l AS dst
  FROM (
    SELECT CAST(doc_id AS BIGINT) AS src,
           CAST((2 * doc_id + 1) % nn.c AS BIGINT) AS dst FROM documents, nn
    UNION ALL
    SELECT doc_id, (2 * doc_id + 2) % nn.c FROM documents, nn
    UNION ALL
    SELECT doc_id, (7 * doc_id + 3) % nn.c FROM documents, nn
  ) base, range({S}) l(l)
),
l0 AS MATERIALIZED (
  SELECT CAST(doc_id * {S} + l.l AS BIGINT) AS node,
         CAST(CASE WHEN doc_id * {S} + l.l IN ({seed_list})
                   THEN doc_id * {S} + l.l
                   ELSE {sent} END AS BIGINT) AS lbl
  FROM documents, range({S}) l(l)
)"""
    ]
    for i in range(1, _HC_BFS_ITERS + 1):
        parts.append(
            f"""l{i} AS MATERIALIZED (
  SELECT node, MIN(lbl) AS lbl FROM (
    SELECT node, lbl FROM l{i - 1}
    UNION ALL
    SELECT e.dst AS node, l{i - 1}.lbl + {hop} AS lbl
    FROM l{i - 1} JOIN e ON e.src = l{i - 1}.node
    WHERE l{i - 1}.lbl < {sent}
  ) GROUP BY node
)"""
        )
    return (
        "WITH nn AS (SELECT COUNT(*) AS c FROM documents),\n"
        + ",\n".join(parts)
        + f""",
d AS (
  SELECT node // {S} AS node, lbl // {hop} AS dist
  FROM l{_HC_BFS_ITERS} WHERE lbl < {sent} AND lbl // {hop} >= 1
)
SELECT CAST(node AS BIGINT) AS node,
       CAST(COUNT(*) AS BIGINT) AS n_seeds,
       CAST(SUM(1000000000 // dist) AS BIGINT) AS harmonic_q,
       CAST(SUM(1000000000 // dist) AS DOUBLE) / 1e9 AS harmonic
FROM d GROUP BY node
"""
    )


# ---------------------------------------------------------------------------
# ucb_crawl_sched — UCB1 bandit scheduling of crawl budget across sources
# ---------------------------------------------------------------------------

_UCB_ROUNDS = 24


def _ucb_reward(source: str, t: int, q: int) -> int:
    u48 = int(hashlib.md5(f"{source}|{t}".encode()).hexdigest()[:12], 16)
    return 1 if (u48 % 100) < q else 0


def q_ucb_crawl_sched(sf_dir: str):
    """UCB1 bandit allocation of crawl slots across sources: each source
    is an arm whose (hidden) yield rate q/100 derives from the data
    (q = Σ n_chars per source mod 89 + 5); rewards are deterministic
    md5-slice Bernoulli draws. Rounds 0..K-1 pull each arm once
    (lexicographic order); every later round pulls
    argmax(mean + sqrt(2·ln t / n)) with ties to the smaller source —
    the classic explore/exploit scheduler for "which hosts keep
    yielding new documents".

    Output: the exact T-round trajectory (t, source, reward) — pinning
    the trajectory pins every intermediate mean/bonus comparison.

    Distributed shape: the per-arm yield stats come from the ONE
    distributed aggregate; the T-round fold is O(T·K) driver scalar
    math (bounded by config, not data — the crawl_budget_alloc
    precedent). Float discipline: scalar libm log/sqrt, operand order
    mirrored in the oracle's unrolled round CTEs.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "n_chars"]
    )
    agg = (
        docs.groupby("source")
        .aggregate(ray.data.aggregate.Sum("n_chars", alias_name="s"))
        .take_all()  # bounded: one row per source (bounded key domain)
    )
    qs = {r["source"]: int(r["s"]) % 89 + 5 for r in agg}
    arms = sorted(qs)
    K = len(arms)

    n = {a: 0 for a in arms}
    s = {a: 0 for a in arms}
    out_t, out_src, out_r = [], [], []
    for t in range(_UCB_ROUNDS):
        if t < K:
            pick = arms[t]
        else:
            best, best_score = None, None
            for a in arms:  # arms is sorted: first max wins ties
                score = float(s[a]) / float(n[a]) + math.sqrt(
                    2.0 * math.log(float(t)) / float(n[a])
                )
                if best_score is None or score > best_score:
                    best, best_score = a, score
            pick = best
        r = _ucb_reward(pick, t, qs[pick])
        n[pick] += 1
        s[pick] += r
        out_t.append(t)
        out_src.append(pick)
        out_r.append(r)
    return pa.table(
        {
            "t": pa.array(out_t, pa.int64()),
            "source": pa.array(out_src, pa.string()),
            "reward": pa.array(out_r, pa.int64()),
        }
    )


def _sql_ucb_crawl_sched() -> str:
    # reward(source, t) as a SQL expression template
    def rw(src_expr: str, t: int) -> str:
        return (
            f"CASE WHEN CAST(('0x' || substr(md5({src_expr} || '|{t}'), 1, 12)) "
            f"AS BIGINT) % 100 < q.q THEN 1 ELSE 0 END"
        )

    parts = [
        """arms AS MATERIALIZED (
  SELECT source, CAST(SUM(n_chars) AS BIGINT) % 89 + 5 AS q,
         row_number() OVER (ORDER BY source) - 1 AS idx
  FROM documents GROUP BY source
),
kk AS (SELECT CAST(COUNT(*) AS BIGINT) AS k FROM arms)"""
    ]
    # state{t}: per-arm (n, s) AFTER round t; pick{t}: the round-t row
    for t in range(_UCB_ROUNDS):
        prev = f"state{t - 1}"
        if t == 0:
            parts.append(
                f"""pick0 AS MATERIALIZED (
  SELECT a.source, {rw('a.source', 0)} AS r
  FROM arms a, arms q WHERE a.idx = 0 AND q.source = a.source
)"""
            )
            parts.append(
                """state0 AS MATERIALIZED (
  SELECT a.source,
         CASE WHEN p.source IS NULL THEN 0 ELSE 1 END AS n,
         COALESCE(p.r, 0) AS s
  FROM arms a LEFT JOIN pick0 p ON p.source = a.source
)"""
            )
            continue
        parts.append(
            f"""pick{t} AS MATERIALIZED (
  SELECT c.source, {rw('c.source', t)} AS r
  FROM (
    SELECT a.source FROM arms a, kk
    WHERE ({t} < kk.k AND a.idx = {t})
       OR ({t} >= kk.k AND a.source = (
         SELECT st.source FROM {prev} st
         ORDER BY CAST(st.s AS DOUBLE) / CAST(st.n AS DOUBLE)
                  + sqrt(2e0 * ln(CAST({t} AS DOUBLE))
                         / CAST(st.n AS DOUBLE)) DESC,
                  st.source
         LIMIT 1))
  ) c, arms q WHERE q.source = c.source
)"""
        )
        parts.append(
            f"""state{t} AS MATERIALIZED (
  SELECT st.source,
         st.n + CASE WHEN p.source IS NULL THEN 0 ELSE 1 END AS n,
         st.s + COALESCE(p.r, 0) AS s
  FROM {prev} st LEFT JOIN pick{t} p ON p.source = st.source
)"""
        )
    sel = "\nUNION ALL\n".join(
        f"SELECT CAST({t} AS BIGINT) AS t, source, CAST(r AS BIGINT) AS reward FROM pick{t}"
        for t in range(_UCB_ROUNDS)
    )
    return "WITH " + ",\n".join(parts) + "\n" + sel


# ---------------------------------------------------------------------------
# source_percent_rank — windowed PERCENT_RANK partitioned by source
# ---------------------------------------------------------------------------


def q_source_percent_rank(sf_dir: str):
    """Per-document percentile position within its source — the
    PARTITION BY window-rank operator (PERCENT_RANK() OVER (PARTITION
    BY source ORDER BY n_chars, doc_id)), the curation primitive for
    "keep each source's top X% by length/quality" with per-source
    rather than global thresholds.

    Distributed shape: NO per-source scheduling unit (a web-scale
    source can hold 1e9 docs) — the global ranker (stages/rank.py) runs
    ONCE over the composite key source|n_chars|doc_id (fixed-width
    zero-padded, so lexicographic == numeric order); within-source rank
    is then global_rank − source_base, with the per-source (base, cnt)
    from one tiny aggregate broadcast map-side.
    """
    from ..stages.rank import ranked_by_key

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "n_chars"]
    )

    def keyed(batch: pa.Table) -> pa.Table:
        srcs = batch.column("source").to_pylist()
        ncs = batch.column("n_chars").to_pylist()
        ids = batch.column("doc_id").to_pylist()
        return pa.table(
            {
                "id": pa.array(ids, pa.int64()),
                "source": pa.array(srcs, pa.string()),
                "key": pa.array(
                    [
                        f"{s}|{c:012d}|{i:012d}"
                        for s, c, i in zip(srcs, ncs, ids)
                    ],
                    pa.string(),
                ),
            }
        )

    # materialized: consumed by the per-source base aggregate AND the
    # finish map. The source base offset is MIN(rank) per source, read
    # off the ranked data itself — deriving it from a separately-sorted
    # source list is a trap: the composite key's separator byte need not
    # sort the same way as the bare source strings ('src1|' > 'src10|'
    # because '|' > '0' — caught by the sf0.001 oracle on the first cut).
    ranked = ranked_by_key(
        docs.map_batches(keyed, batch_format="pyarrow"), "key", "id",
        num_buckets=8,
    ).materialize()

    counts = (
        ranked.groupby("source")
        .aggregate(
            ray.data.aggregate.Min("rank", alias_name="base"),
            ray.data.aggregate.Count(alias_name="cnt"),
        )
        .take_all()  # bounded: one row per source (bounded key domain)
    )
    bases: dict[str, tuple[int, int]] = {
        r["source"]: (int(r["base"]), int(r["cnt"])) for r in counts
    }
    bases_ref = ray.put(bases)

    def finish(batch: pa.Table) -> pa.Table:
        bm = ray.get(bases_ref)
        srcs = batch.column("source").to_pylist()
        rank = batch.column("rank").to_numpy(zero_copy_only=False).astype(np.int64)
        base = np.fromiter((bm[s][0] for s in srcs), np.int64, count=len(srcs))
        cnt = np.fromiter((bm[s][1] for s in srcs), np.int64, count=len(srcs))
        rn = rank - base  # 0-based within-source row number
        pr = np.where(
            cnt > 1, rn.astype(np.float64) / (cnt - 1).astype(np.float64), 0.0
        )
        return pa.table(
            {
                "doc_id": batch.column("id").cast(pa.int64()),
                "source": pa.array(srcs, pa.string()),
                "pr": pa.array(pr, pa.float64()),
            }
        )

    return ranked.map_batches(finish, batch_format="pyarrow")


SQL_SOURCE_PERCENT_RANK = """
WITH r AS (
  SELECT doc_id, source,
         row_number() OVER (PARTITION BY source ORDER BY n_chars, doc_id)
           - 1 AS rn,
         COUNT(*) OVER (PARTITION BY source) AS cnt
  FROM documents
)
SELECT doc_id, source,
       CASE WHEN cnt > 1
            THEN CAST(rn AS DOUBLE) / CAST(cnt - 1 AS DOUBLE)
            ELSE 0e0 END AS pr
FROM r
"""
