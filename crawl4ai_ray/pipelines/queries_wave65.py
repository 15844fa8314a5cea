"""Sixty-fifth-wave operators (round-3 continuation session,
2026-08-21) — source OT matrix, percolation curve, Erlang B.

Listed by name in ``queries.py``'s QUERIES/ORACLES.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

import ray

_W65_Q = 10**6


# ---------------------------------------------------------------------------
# w1_source_matrix — pairwise Wasserstein distances + medoid source
# ---------------------------------------------------------------------------


def q_w1_source_matrix(sf_dir: str):
    """Pairwise 1-D Wasserstein distances between ALL source length
    distributions, plus the medoid source (minimum total distance to
    the others) — the distribution-space map of the corpus mix: which
    sources are interchangeable, which is the most "central" reference
    (wasserstein_1d generalized from one pair to the full matrix).
    Output: one row per unordered source pair with the quantized W₁
    and the shared medoid name.

    Exactness: per pair, W₁·n_a·n_b = Σ|cumA·n_b − cumB·n_a|·Δv over
    the merged support — integers with one final division; the medoid
    argmin compares exact quantized sums (tie → source ASC).
    Distributed shape: ONE (source, value) histogram aggregate; the
    |S|²·support fold is driver arithmetic.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "n_chars"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        df = (
            pd.DataFrame(
                {
                    "source": batch.column("source").to_pylist(),
                    "v": batch.column("n_chars")
                    .to_numpy(zero_copy_only=False)
                    .astype(np.int64),
                }
            )
            .groupby(["source", "v"], sort=True)
            .size()
            .reset_index(name="c")
        )
        return pa.table(
            {
                "source": pa.array(df["source"], pa.string()),
                "v": pa.array(df["v"].to_numpy(np.int64), pa.int64()),
                "c": pa.array(df["c"].to_numpy(np.int64), pa.int64()),
            }
        )

    parts = docs.map_batches(partial, batch_format="pyarrow").take_all()  # bounded: value-histogram cells
    hist: dict = {}
    for r in parts:
        k = (r["source"], int(r["v"]))
        hist[k] = hist.get(k, 0) + int(r["c"])
    srcs = sorted({s for s, _ in hist})

    def w1(a: str, b: str) -> int:
        vals = sorted(
            {v for (s, v) in hist if s == a}
            | {v for (s, v) in hist if s == b}
        )
        na = sum(c for (s, _), c in hist.items() if s == a)
        nb = sum(c for (s, _), c in hist.items() if s == b)
        s = cuma = cumb = 0
        for i, v in enumerate(vals[:-1]):
            cuma += hist.get((a, v), 0)
            cumb += hist.get((b, v), 0)
            s += abs(cuma * nb - cumb * na) * (vals[i + 1] - v)
        return s * _W65_Q // (na * nb)

    dist = {}
    for i, a in enumerate(srcs):
        for b in srcs[i + 1 :]:
            dist[(a, b)] = w1(a, b)
    totals = {
        s: sum(
            dist[(min(s, t), max(s, t))] for t in srcs if t != s
        )
        for s in srcs
    }
    medoid = min(srcs, key=lambda s: (totals[s], s))
    keys = sorted(dist)
    return pa.table(
        {
            "a": pa.array([k[0] for k in keys], pa.string()),
            "b": pa.array([k[1] for k in keys], pa.string()),
            "w1_q": pa.array([dist[k] for k in keys], pa.int64()),
            "medoid": pa.array([medoid] * len(keys), pa.string()),
        }
    )


SQL_W1_SOURCE_MATRIX = f"""
WITH h AS (
  SELECT source, CAST(n_chars AS BIGINT) AS v,
         CAST(COUNT(*) AS BIGINT) AS c
  FROM documents GROUP BY source, n_chars
),
ns AS (SELECT source, CAST(SUM(c) AS BIGINT) AS n FROM h GROUP BY source),
pairs AS (
  SELECT s1.source AS a, s2.source AS b
  FROM ns s1, ns s2 WHERE s1.source < s2.source
),
sup AS (
  SELECT DISTINCT p.a, p.b, h.v
  FROM pairs p JOIN h ON h.source = p.a OR h.source = p.b
),
cum AS (
  SELECT sup.a, sup.b, sup.v,
         CAST(CAST(SUM(COALESCE(ha.c, 0))
                   OVER (PARTITION BY sup.a, sup.b ORDER BY sup.v)
                   AS HUGEINT) AS BIGINT) AS cuma,
         CAST(CAST(SUM(COALESCE(hb.c, 0))
                   OVER (PARTITION BY sup.a, sup.b ORDER BY sup.v)
                   AS HUGEINT) AS BIGINT) AS cumb,
         lead(sup.v) OVER (PARTITION BY sup.a, sup.b ORDER BY sup.v)
           AS nv
  FROM sup
  LEFT JOIN h ha ON ha.source = sup.a AND ha.v = sup.v
  LEFT JOIN h hb ON hb.source = sup.b AND hb.v = sup.v
),
d AS (
  SELECT cum.a, cum.b,
         CAST(CAST(SUM(abs(cum.cuma * nb.n - cum.cumb * na.n)
                       * (cum.nv - cum.v)) AS HUGEINT) * {_W65_Q}
              // (CAST(na.n AS HUGEINT) * nb.n) AS BIGINT) AS w1_q
  FROM cum
  JOIN ns na ON na.source = cum.a
  JOIN ns nb ON nb.source = cum.b
  WHERE cum.nv IS NOT NULL
  GROUP BY cum.a, cum.b, na.n, nb.n
),
tot AS (
  SELECT source, CAST(SUM(w1_q) AS BIGINT) AS t FROM (
    SELECT a AS source, w1_q FROM d
    UNION ALL SELECT b, w1_q FROM d
  ) GROUP BY source
),
med AS (SELECT source FROM tot ORDER BY t, source LIMIT 1)
SELECT d.a, d.b, d.w1_q, med.source AS medoid
FROM d, med
"""


# ---------------------------------------------------------------------------
# percolation_curve — random edge-failure robustness
# ---------------------------------------------------------------------------

_PERC_KEEPS = (80, 50, 20)
_PERC_ROUNDS = 16


def q_percolation_curve(sf_dir: str):
    """Random-failure percolation curve of the synthetic link graph:
    keep each edge with md5 probability {keeps}% and measure the
    component structure at each level — the random-failure companion
    to graph_robustness's targeted hub attack (scale-free graphs
    shrug off random failure but crumble under targeted removal; the
    two queries together show both regimes). Output: one row per keep
    level with edge/component counts and the largest-CC fraction.

    Exactness: edge survival is an md5 threshold; component labels
    are the connected_components fixpoint (oracle: the hybrid
    min-label + pointer-jump rounds, fixpoint for diameter ≤ 2^{r}).
    Distributed shape: one distinct-edge groupby + a map-side filter
    and the CC stage per level.
    """
    from ..stages.graph import connected_components
    from .queries_wave56 import _undirected_edges

    edges, n = _undirected_edges(sf_dir)
    edges = edges.materialize()
    rows = []
    for keep in _PERC_KEEPS:

        def efilt(batch: pa.Table, keep=keep) -> pa.Table:
            a = batch.column("a").to_pylist()
            b = batch.column("b").to_pylist()
            mask = [
                int(
                    hashlib.md5(f"pc|{x}|{y}".encode()).hexdigest()[:8],
                    16,
                )
                % 100
                < keep
                for x, y in zip(a, b)
            ]
            return batch.filter(pa.array(mask, pa.bool_()))

        es = edges.map_batches(efilt, batch_format="pyarrow").materialize()
        n_edges = es.count()
        nodes = ray.data.range(n).map_batches(
            lambda b: pa.table(
                {"node": b.column("id").cast(pa.int64())}
            ),
            batch_format="pyarrow",
        )
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
        # two scalar aggregates — no component-sized collect (r4)
        largest = int(sizes.max("c"))
        rows.append((keep, n_edges, int(sizes.count()), largest))
    return pa.table(
        {
            "keep_pct": pa.array([r[0] for r in rows], pa.int64()),
            "n_edges": pa.array([r[1] for r in rows], pa.int64()),
            "n_components": pa.array([r[2] for r in rows], pa.int64()),
            "largest_cc": pa.array([r[3] for r in rows], pa.int64()),
            "largest_frac_q": pa.array(
                [r[3] * _W65_Q // n for r in rows], pa.int64()
            ),
        }
    )


def _sql_percolation() -> str:
    parts = [
        """
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
)"""
    ]
    selects = []
    for keep in _PERC_KEEPS:
        kp = f"k{keep}"
        parts.append(
            f"""
ue{kp} AS MATERIALIZED (
  SELECT a, b FROM ue
  WHERE CAST(('0x' || substr(md5('pc|' || a || '|' || b), 1, 8))
             AS BIGINT) % 100 < {keep}
),
e{kp} AS MATERIALIZED (
  SELECT a AS u, b AS v FROM ue{kp} UNION ALL SELECT b, a FROM ue{kp}
),
l{kp}0 AS (SELECT doc_id AS node, doc_id AS lbl FROM documents)"""
        )
        prev = f"l{kp}0"
        for k in range(1, _PERC_ROUNDS + 1):
            parts.append(
                f"""
l{kp}{k} AS MATERIALIZED (
  SELECT l.node,
         LEAST(l.lbl, COALESCE(nb.m, l.lbl), lj.lbl) AS lbl
  FROM {prev} l
  LEFT JOIN (SELECT e.u AS node, MIN(l2.lbl) AS m
             FROM e{kp} e JOIN {prev} l2 ON l2.node = e.v
             GROUP BY e.u) nb ON nb.node = l.node
  JOIN {prev} lj ON lj.node = l.lbl
)"""
            )
            prev = f"l{kp}{k}"
        selects.append(
            f"""
SELECT CAST({keep} AS BIGINT) AS keep_pct,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM ue{kp}) AS n_edges,
       CAST(COUNT(DISTINCT lbl) AS BIGINT) AS n_components,
       CAST(MAX(cnt) AS BIGINT) AS largest_cc,
       CAST(MAX(cnt) AS BIGINT) * {_W65_Q}
         // (SELECT c FROM nn) AS largest_frac_q
FROM (SELECT lbl, COUNT(*) AS cnt FROM {prev} GROUP BY lbl)"""
        )
    return "WITH " + ",".join(parts) + " " + " UNION ALL ".join(selects)


# ---------------------------------------------------------------------------
# erlang_b — blocking probability per host under the politeness budget
# ---------------------------------------------------------------------------

_EB_CHANNELS = 3
_EB_CAP = 1_296_000  # fetch slots per 30 days (one per 2 s)


def q_erlang_b(sf_dir: str):
    """Erlang-B blocking probability per host: offered load a = n_h /
    {cap} (the M/M/1 utilization) against C={c} parallel fetch
    channels; B(k,a) = a·B(k−1,a)/(k + a·B(k−1,a)) gives the fraction
    of arrivals lost when all channels are busy — the loss-system
    companion to mm1_politeness's delay-system read. Output: per host
    the count, offered load and B after each recursion step.

    Exactness: the Erlang recursion is the identical 3-step mirrored
    double expression chain (one division per step, no folds).
    Distributed shape: the pages_per_host partial count + an
    O(hosts) map.
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
    out = {"host": [], "n": [], "a": [], "b1": [], "b2": [], "b3": []}
    for h, n in rows:
        a = float(n) / float(_EB_CAP)
        b = 1.0
        bs = []
        for k in range(1, _EB_CHANNELS + 1):
            b = a * b / (float(k) + a * b)
            bs.append(b)
        out["host"].append(h)
        out["n"].append(n)
        out["a"].append(a)
        out["b1"].append(bs[0])
        out["b2"].append(bs[1])
        out["b3"].append(bs[2])
    return pa.table(
        {
            "host": pa.array(out["host"], pa.string()),
            "n": pa.array(out["n"], pa.int64()),
            "a": pa.array(out["a"], pa.float64()),
            "b1": pa.array(out["b1"], pa.float64()),
            "b2": pa.array(out["b2"], pa.float64()),
            "b3": pa.array(out["b3"], pa.float64()),
        }
    )


def _sql_erlang_b(sql_pages: str) -> str:
    return f"""
WITH {sql_pages},
c AS (SELECT host, CAST(COUNT(*) AS BIGINT) AS n FROM purl GROUP BY host),
e0 AS (
  SELECT host, n, CAST(n AS DOUBLE) / {float(_EB_CAP)!r} AS a FROM c
),
e1 AS (SELECT *, a * 1.0 / (1.0 + a * 1.0) AS b1 FROM e0),
e2 AS (SELECT *, a * b1 / (2.0 + a * b1) AS b2 FROM e1),
e3 AS (SELECT *, a * b2 / (3.0 + a * b2) AS b3 FROM e2)
SELECT host, n, a, b1, b2, b3 FROM e3
"""
