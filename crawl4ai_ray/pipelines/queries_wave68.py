"""Sixty-eighth-wave operators (round-3 continuation session,
2026-08-21) — SALSA, Markov stationary distribution, Hoover index.

Listed by name in ``queries.py``'s QUERIES/ORACLES.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

_W68_Q = 10**12


# ---------------------------------------------------------------------------
# salsa_scores — stochastic HITS (SALSA) in exact integer arithmetic
# ---------------------------------------------------------------------------

_SALSA_ROUNDS = 4


def q_salsa_scores(sf_dir: str):
    """SALSA (Lempel–Moran) authority/hub scores over the synthetic
    link graph: the stochastic variant of HITS where each push divides
    by the sender's degree — a(v) = Σ_{{u→v}} h(u)/outdeg(u), h(u) =
    Σ_{{u→v}} a(v)/indeg(v) — so scores are random-walk probabilities
    immune to the tightly-knit-community effect that inflates HITS.
    Here the walk runs in PURE integer fixed point: every per-edge
    contribution is h_q//outdeg (a floor both engines take
    identically), so unlike the ROUND(8)-absorbed hits oracle this one
    is bit-exact with NO float anywhere. Output: per node the
    authority and hub mass after {r} rounds.

    Routed through ``stages.graph.salsa`` — the distributed
    union+bucketed-groupby integer-push plan (two bounded all-to-alls
    per half-step, in-bucket degree counting, nothing unbounded on the
    driver) with the test-locked small-graph broadcast fast path at
    test scale (bit-equal: all-integer arithmetic).
    """
    from ..stages.graph import salsa

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )
    n = docs.count()
    nodes = docs.map_batches(
        lambda b: pa.table({"node": b.column("doc_id")}),
        batch_format="pyarrow",
    )

    def mk_edges(batch: pa.Table) -> pa.Table:
        # SKEWED tree+quadratic graph (the kcore lesson): the standard
        # 3-rule graph is indegree-regular, making SALSA's fixpoint
        # uniform — this one has hub-heavy indegrees worth ranking
        ids = batch.column("doc_id").to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        keep1 = ids >= 1
        src = np.concatenate([ids[keep1], ids])
        dst = np.concatenate([ids[keep1] // 2, (ids * ids + 1) % n])
        return pa.table(
            {
                "src": pa.array(src, pa.int64()),
                "dst": pa.array(dst, pa.int64()),
            }
        )

    # distinct edges via ONE bucketed groupby (multi-edges would
    # double-count a push) — no driver-side set
    edges = (
        docs.map_batches(mk_edges, batch_format="pyarrow")
        .groupby(["src", "dst"])
        .count()
        .select_columns(["src", "dst"])
    )
    return salsa(nodes, edges, n_iters=_SALSA_ROUNDS, q=_W68_Q)


def _sql_salsa() -> str:
    parts = [
        f"""
nn AS (SELECT CAST(COUNT(*) AS BIGINT) AS c FROM documents),
raw AS (
  SELECT doc_id AS s, doc_id // 2 AS t FROM documents, nn
  WHERE doc_id >= 1
  UNION ALL
  SELECT doc_id, (doc_id * doc_id + 1) % nn.c FROM documents, nn
),
e AS MATERIALIZED (
  SELECT DISTINCT s AS src, t AS dst FROM raw
),
od AS (SELECT src, CAST(COUNT(*) AS BIGINT) AS d FROM e GROUP BY src),
idg AS (SELECT dst, CAST(COUNT(*) AS BIGINT) AS d FROM e GROUP BY dst),
h0 AS (
  SELECT doc_id AS node, CAST({_W68_Q} AS BIGINT) AS q FROM documents
)"""
    ]
    prev_h = "h0"
    for r in range(1, _SALSA_ROUNDS + 1):
        parts.append(
            f"""
a{r} AS MATERIALIZED (
  SELECT d.doc_id AS node,
         COALESCE(CAST(push.s AS BIGINT), 0) AS q
  FROM documents d
  LEFT JOIN (
    SELECT e.dst AS node, SUM(hh.q // od.d) AS s
    FROM e
    JOIN {prev_h} hh ON hh.node = e.src
    JOIN od ON od.src = e.src
    GROUP BY e.dst
  ) push ON push.node = d.doc_id
),
h{r} AS MATERIALIZED (
  SELECT d.doc_id AS node,
         COALESCE(CAST(push.s AS BIGINT), 0) AS q
  FROM documents d
  LEFT JOIN (
    SELECT e.src AS node, SUM(aa.q // idg.d) AS s
    FROM e
    JOIN a{r} aa ON aa.node = e.dst
    JOIN idg ON idg.dst = e.dst
    GROUP BY e.src
  ) push ON push.node = d.doc_id
)"""
        )
        prev_h = f"h{r}"
    R = _SALSA_ROUNDS
    parts.append(
        f"""
fin AS (
  SELECT a{R}.node, a{R}.q AS auth_q, h{R}.q AS hub_q
  FROM a{R} JOIN h{R} ON h{R}.node = a{R}.node
)
SELECT node, auth_q, hub_q FROM fin"""
    )
    return "WITH " + ",".join(parts)


# ---------------------------------------------------------------------------
# markov_stationary — stationary distribution of the event-type chain
# ---------------------------------------------------------------------------

_MS_ROUNDS = 12
_MS_Q = 10**12


def q_markov_stationary(sf_dir: str):
    """Stationary distribution of the per-user event-type Markov chain
    (transitions = consecutive events within a user, the
    markov_next_eval chain): π is the long-run fraction of time the
    stream spends in each event type, found by {r} quantized power-
    iteration rounds π′(j) = Σ_i π(i)·cnt(i,j)//row(i) with an
    integer renormalization each round (the Bradley–Terry fixed-point
    discipline) — bit-exact in both engines. Output: per event type
    the empirical frequency and the stationary mass.

    Distributed shape: transition counts are one (user-bucketed)
    sessionize-plan pass + a groupby; the K² iteration is driver
    arithmetic.
    """
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "user_id", "event_type"]
    )

    def tag(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array(uid % 16, pa.int64()),
                "user_id": pa.array(uid, pa.int64()),
                "us": batch.column("ts").cast(pa.int64()),
                "et": batch.column("event_type"),
            }
        )

    def per_bucket(g: pa.Table) -> pa.Table:
        # arrow-native (r5): ONE stable lexsort (user, us) + vectorized
        # lag; tie order matches the pandas stable per-user sort
        uid = g.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        us = g.column("us").to_numpy(zero_copy_only=False).astype(np.int64)
        et = np.asarray(g.column("et").to_pylist(), dtype=object)
        o = np.lexsort((us, uid))
        uid, et = uid[o], et[o]
        same = uid[1:] == uid[:-1]
        a = et[:-1][same]
        b = et[1:][same]
        if len(a) == 0:
            z = pa.array([], pa.string())
            return pa.table({"a": z, "b": z, "c": pa.array([], pa.int64())})
        o2 = np.lexsort((b, a))
        a, b = a[o2], b[o2]
        newrun = np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])]
        run_id = np.cumsum(newrun) - 1
        c = np.bincount(run_id).astype(np.int64)
        return pa.table(
            {
                "a": pa.array(a[newrun].tolist(), pa.string()),
                "b": pa.array(b[newrun].tolist(), pa.string()),
                "c": pa.array(c, pa.int64()),
            }
        )

    rows = (
        ev.map_batches(tag, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(ray.data.aggregate.Sum("c", alias_name="c"))
        .take_all()  # bounded: (event_type × event_type) transition cells
    )
    cnt = {(r["a"], r["b"]): int(r["c"]) for r in rows}
    types = sorted({a for a, _ in cnt} | {b for _, b in cnt})
    K = len(types)
    row_tot = {
        a: sum(cnt.get((a, b), 0) for b in types) for a in types
    }
    pi = {t: _MS_Q for t in types}
    for _ in range(_MS_ROUNDS):
        nxt = {
            j: sum(
                pi[i] * cnt.get((i, j), 0) // max(row_tot[i], 1)
                for i in types
            )
            for j in types
        }
        tot = sum(nxt.values())
        pi = {
            j: nxt[j] * (K * _MS_Q) // max(tot, 1) // K for j in types
        }
    total_trans = sum(cnt.values())
    freq = {
        j: sum(cnt.get((i, j), 0) for i in types) for j in types
    }
    return pa.table(
        {
            "event_type": pa.array(types, pa.string()),
            "incoming": pa.array([freq[t] for t in types], pa.int64()),
            "total_transitions": pa.array(
                [total_trans] * K, pa.int64()
            ),
            "pi_q": pa.array([pi[t] for t in types], pa.int64()),
        }
    )


def _sql_markov_stationary() -> str:
    parts = [
        f"""
seq AS (
  SELECT user_id, event_type,
         lead(event_type) OVER (PARTITION BY user_id
                                ORDER BY epoch_us(ts)) AS nxt
  FROM events
),
tc AS MATERIALIZED (
  SELECT event_type AS a, nxt AS b, CAST(COUNT(*) AS BIGINT) AS c
  FROM seq WHERE nxt IS NOT NULL GROUP BY a, b
),
ty AS (
  SELECT DISTINCT t AS event_type FROM (
    SELECT a AS t FROM tc UNION SELECT b FROM tc
  )
),
kk AS (SELECT CAST(COUNT(*) AS BIGINT) AS k FROM ty),
rt AS (SELECT a, CAST(SUM(c) AS BIGINT) AS n FROM tc GROUP BY a),
p0 AS (
  SELECT event_type AS t, CAST({_MS_Q} AS BIGINT) AS q FROM ty
)"""
    ]
    prev = "p0"
    for r in range(1, _MS_ROUNDS + 1):
        parts.append(
            f"""
n{r} AS MATERIALIZED (
  SELECT ty.event_type AS t,
         COALESCE(CAST(px.s AS BIGINT), 0) AS q
  FROM ty
  LEFT JOIN (
    SELECT tc.b AS t,
           SUM(pp.q * tc.c // GREATEST(rt.n, 1)) AS s
    FROM tc
    JOIN {prev} pp ON pp.t = tc.a
    JOIN rt ON rt.a = tc.a
    GROUP BY tc.b
  ) px ON px.t = ty.event_type
),
p{r} AS MATERIALIZED (
  SELECT n{r}.t,
         CAST(CAST(n{r}.q AS HUGEINT) * (kk.k * {_MS_Q})
              // GREATEST((SELECT CAST(SUM(q) AS BIGINT) FROM n{r}), 1)
              // kk.k AS BIGINT) AS q
  FROM n{r}, kk
)"""
        )
        prev = f"p{r}"
    parts.append(
        f"""
freq AS (
  SELECT b AS event_type, CAST(SUM(c) AS BIGINT) AS incoming FROM tc
  GROUP BY b
),
tt AS (SELECT CAST(SUM(c) AS BIGINT) AS total FROM tc)
SELECT ty.event_type,
       COALESCE(freq.incoming, 0) AS incoming,
       tt.total AS total_transitions,
       {prev}.q AS pi_q
FROM ty
LEFT JOIN freq ON freq.event_type = ty.event_type
JOIN {prev} ON {prev}.t = ty.event_type, tt"""
    )
    return "WITH " + ",".join(parts)


# ---------------------------------------------------------------------------
# hoover_index — Robin Hood concentration of host load
# ---------------------------------------------------------------------------


def q_hoover_index(sf_dir: str):
    """Hoover (Robin Hood) index of host load: H = ½·Σ|share_h − 1/m|
    — the fraction of pages that would have to MOVE to equalize hosts,
    the most operational of the inequality metrics (host_gini gives
    the curve; Hoover gives the rebalancing bill). Output: one row
    with the exact integer numerator Σ|c_h·m − N| and the quantized
    index = numerator·10⁶ // (2·N·m).

    Exactness: pure integer cross-multiplication, one final division.
    Distributed shape: the pages_per_host partial count + a fold.
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
    m = len(counts)
    N = sum(int(r["n"]) for r in counts)
    num = sum(abs(int(r["n"]) * m - N) for r in counts)
    return pa.table(
        {
            "n_hosts": pa.array([m], pa.int64()),
            "n_pages": pa.array([N], pa.int64()),
            "abs_num": pa.array([num], pa.int64()),
            "hoover_q": pa.array(
                [num * 10**6 // (2 * N * m)], pa.int64()
            ),
        }
    )


def _sql_hoover(sql_pages: str) -> str:
    return f"""
WITH {sql_pages},
c AS (SELECT host, CAST(COUNT(*) AS BIGINT) AS n FROM purl GROUP BY host),
t AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS m, CAST(SUM(n) AS BIGINT) AS nn
  FROM c
),
s AS (
  SELECT CAST(SUM(abs(c.n * t.m - t.nn)) AS BIGINT) AS num
  FROM c, t
)
SELECT t.m AS n_hosts, t.nn AS n_pages, s.num AS abs_num,
       CAST(CAST(s.num AS HUGEINT) * 1000000
            // (2 * CAST(t.nn AS HUGEINT) * t.m) AS BIGINT)
         AS hoover_q
FROM t, s
"""
