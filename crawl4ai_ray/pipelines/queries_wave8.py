"""Eighth-wave operators (round-3 continuation session, 2026-08-19).

Listed by name in ``queries.py``'s QUERIES/ORACLES.

Every query here follows the house rules: Arrow batches end to end,
map-side partials before any groupby, broadcast small sides via
``ray.put``, and an operand-for-operand DuckDB oracle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from ..functions.urls import hosts_array
from ..sources.pages import read_pages
from ..stages import cms as cms_mod


# ---------------------------------------------------------------------------
# host_counts_cms — Count-Min sketch vs exact host frequencies
# ---------------------------------------------------------------------------

def q_host_counts_cms(sf_dir: str):
    """Per-host page counts estimated by a distributed Count-Min sketch
    (stages/cms.py: map-side (d,bucket) partials → one <=256-group merge →
    broadcast dense sketch) next to the exact groupby counts. Output is one
    row per host with the exact count, the sketch estimate and the
    overcount — the CMS guarantee est >= exact is oracle-checked row by
    row because the md5-slice bucket hash is recomputed identically in
    SQL. Width 64 is deliberately small so collisions (overcount > 0)
    actually occur at test scale."""
    pages = read_pages(sf_dir, columns=["url"])

    def add_host(batch: pa.Table) -> pa.Table:
        return pa.table({"host": hosts_array(batch.column("url"))})

    hosts = pages.map_batches(add_host, batch_format="pyarrow")
    sketch = cms_mod.build_cms(hosts, "host")
    sketch_ref = ray.put(sketch)

    exact = hosts.groupby("host").count()

    def estimate(batch: pa.Table) -> pa.Table:
        sk = ray.get(sketch_ref)
        hs = batch.column("host").to_pylist()
        est = cms_mod.cms_estimate(sk, hs)
        n_exact = batch.column("count()").cast(pa.int64())
        return pa.table(
            {
                "host": batch.column("host"),
                "n_exact": n_exact,
                "n_est": pa.array(est, pa.int64()),
                "overcount": pa.array(
                    est - n_exact.to_numpy(zero_copy_only=False), pa.int64()
                ),
            }
        )

    return exact.map_batches(estimate, batch_format="pyarrow")


SQL_HOST_COUNTS_CMS = """
WITH {pages},
h AS (SELECT host FROM purl),
hb AS (
  SELECT host, d,
         CAST(('0x' || substr(md5(host), 1 + 8 * d, 8)) AS BIGINT) % 64 AS bucket
  FROM h CROSS JOIN (SELECT UNNEST([0, 1, 2, 3]) AS d)
),
cms AS (
  SELECT d, bucket, CAST(COUNT(*) AS BIGINT) AS c FROM hb GROUP BY d, bucket
),
ex AS (SELECT host, CAST(COUNT(*) AS BIGINT) AS n_exact FROM h GROUP BY host),
hd AS (SELECT DISTINCT host, d, bucket FROM hb),
est AS (
  SELECT hd.host, MIN(cms.c) AS n_est
  FROM hd JOIN cms USING (d, bucket) GROUP BY hd.host
)
SELECT ex.host, ex.n_exact, CAST(est.n_est AS BIGINT) AS n_est,
       CAST(est.n_est - ex.n_exact AS BIGINT) AS overcount
FROM ex JOIN est ON est.host = ex.host
"""


# ---------------------------------------------------------------------------
# cdc_chunks — content-defined chunking dedup (global chunk store)
# ---------------------------------------------------------------------------

def _docs_with_shifted_copies(sf_dir: str):
    """documents ∪ planted PREFIX-SHIFTED copies of every 11th doc
    (doc_id + 1_000_000). The prefix moves every byte of the copy — the
    case fixed-size chunking fails on and CDC re-synchronises after."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def shifted(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        keep = ids % 11 == 0
        texts = [
            "PREFIX-SHIFT " + t
            for t, k in zip(batch.column("text").to_pylist(), keep)
            if k
        ]
        return pa.table(
            {
                "doc_id": pa.array(ids[keep] + 1_000_000, pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )

    return docs.union(docs.map_batches(shifted, batch_format="pyarrow"))


def q_cdc_chunks(sf_dir: str):
    """Content-defined chunking dedup (stages/cdc.py): rolling-hash cut
    points → per-(doc, chunk) map-side partials → ONE groupby(chunk_hash)
    = the global chunk store (hash, n_occurrences, n_docs, chars). Run
    over documents plus planted prefix-shifted copies: the shifted copy
    shares almost all chunks with its original (n_docs = 2 rows), which
    is exactly the dedup win fixed-size chunking cannot deliver."""
    from ..stages.cdc import chunk_store

    return chunk_store(_docs_with_shifted_copies(sf_dir))


# DuckDB mirror of stages/cdc.py's frozen spec: W=8, B=1000003, M=2^31-1,
# D=64; powers B^(7-j) mod M inlined as literals (same values as
# cdc._POWERS). substr/length are code-point based in DuckDB, matching
# Python string indexing.
SQL_CDC_CHUNKS = """
WITH alldocs AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 1000000 AS doc_id, 'PREFIX-SHIFT ' || text AS text
  FROM documents WHERE doc_id % 11 = 0
),
doc AS (SELECT doc_id, text, length(text) AS n FROM alldocs WHERE length(text) > 0),
pos AS (
  SELECT doc_id, text, n, CAST(i AS BIGINT) AS i
  FROM doc, UNNEST(range(1, greatest(n - 8 + 1, 0) + 1)) AS u(i)
),
hh AS (
  SELECT doc_id, i + 7 AS cut,
         (  CAST(unicode(substr(text, CAST(i + 0 AS INT), 1)) AS BIGINT) % 2147483647 * 57298384
          + CAST(unicode(substr(text, CAST(i + 1 AS INT), 1)) AS BIGINT) % 2147483647 * 2061642598
          + CAST(unicode(substr(text, CAST(i + 2 AS INT), 1)) AS BIGINT) % 2147483647 * 1953433226
          + CAST(unicode(substr(text, CAST(i + 3 AS INT), 1)) AS BIGINT) % 2147483647 * 1604566856
          + CAST(unicode(substr(text, CAST(i + 4 AS INT), 1)) AS BIGINT) % 2147483647 * 1049561761
          + CAST(unicode(substr(text, CAST(i + 5 AS INT), 1)) AS BIGINT) % 2147483647 * 1426104154
          + CAST(unicode(substr(text, CAST(i + 6 AS INT), 1)) AS BIGINT) % 2147483647 * 1000003
          + CAST(unicode(substr(text, CAST(i + 7 AS INT), 1)) AS BIGINT) % 2147483647 * 1
         ) % 2147483647 AS h
  FROM pos
),
cuts AS (
  SELECT DISTINCT doc_id, cut FROM hh WHERE h % 64 = 0
  UNION
  SELECT doc_id, CAST(n AS BIGINT) AS cut FROM doc
),
bounds AS (
  SELECT doc_id, cut,
         lag(cut, 1, CAST(0 AS BIGINT)) OVER (
           PARTITION BY doc_id ORDER BY cut
         ) AS prev
  FROM cuts
),
chunks AS (
  SELECT b.doc_id,
         md5(substr(d.text, CAST(b.prev + 1 AS INT),
                    CAST(b.cut - b.prev AS INT))) AS chunk_hash,
         b.cut - b.prev AS chunk_chars
  FROM bounds b JOIN doc d USING (doc_id)
  WHERE b.cut > b.prev
),
perdoc AS (
  SELECT doc_id, chunk_hash, chunk_chars, CAST(COUNT(*) AS BIGINT) AS c
  FROM chunks GROUP BY ALL
)
SELECT chunk_hash,
       CAST(SUM(c) AS BIGINT) AS n_occurrences,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(MAX(chunk_chars) AS BIGINT) AS chunk_chars
FROM perdoc GROUP BY chunk_hash
"""


# ---------------------------------------------------------------------------
# snapshot observation log (recrawl_pipeline in wave 10 reads it)
# ---------------------------------------------------------------------------

_CR_SNAPS = 6


def _snapshot_history(sf_dir: str):
    """Deterministic 6-snapshot observation log over documents:
    - doc observed at snapshot k unless (doc_id + k) % 13 == 0 (fetch
      gaps, so some changes are MASKED — the case the bias-corrected
      estimator exists for);
    - the underlying page changes at snapshot k >= 1 whenever
      (doc_id*3 + k*k) % 7 == 0 (whether observed or not; quadratic in k so per-doc change counts vary 0..2 instead of sweeping every residue);
    - content_hash = md5(text || '#v' || version-so-far)."""
    import hashlib

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def emit(batch: pa.Table) -> pa.Table:
        ids_out, ks_out, hs_out = [], [], []
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            v = 0
            for k in range(_CR_SNAPS):
                if k >= 1 and (doc_id * 3 + k * k) % 7 == 0:
                    v += 1
                if (doc_id + k) % 13 == 0:
                    continue
                ids_out.append(doc_id)
                ks_out.append(k)
                hs_out.append(
                    hashlib.md5(f"{text}#v{v}".encode("utf-8")).hexdigest()
                )
        return pa.table(
            {
                "doc_id": pa.array(ids_out, pa.int64()),
                "snap": pa.array(ks_out, pa.int64()),
                "content_hash": pa.array(hs_out, pa.string()),
            }
        )

    return docs.map_batches(emit, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# redirect_resolve — 301-chain resolution by pointer doubling
# ---------------------------------------------------------------------------

def _redirect_table(sf_dir: str):
    """Deterministic redirect log over documents (rule ORDER matters and
    is mirrored by the oracle's CASE):
      1. doc_id > 0 and doc_id % 97 == 0  → doc_id + 1   (cycle half A)
      2. doc_id > 1 and doc_id % 97 == 1  → doc_id - 1   (cycle half B)
      3. doc_id % 5 in {1,2,3}            → doc_id - 1   (chains len 1-3,
         and some — e.g. 196 → 195 — DRAIN INTO a cycle)
      else terminal (NULL target)."""
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def redir(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        tgt = np.full(ids.size, -1, dtype=np.int64)
        r1 = (ids > 0) & (ids % 97 == 0)
        r2 = ~r1 & (ids > 1) & (ids % 97 == 1)
        r3 = ~r1 & ~r2 & np.isin(ids % 5, (1, 2, 3))
        tgt[r1] = ids[r1] + 1
        tgt[r2] = ids[r2] - 1
        tgt[r3] = ids[r3] - 1
        has = r1 | r2 | r3
        return pa.table(
            {
                "node": pa.array(ids, pa.int64()),
                "target": pa.array(
                    [int(t) if h else None for t, h in zip(tgt, has)], pa.int64()
                ),
            }
        )

    return docs.map_batches(redir, batch_format="pyarrow")


def q_redirect_resolve(sf_dir: str):
    """Redirect-chain resolution (stages/redirects.py): every URL's final
    canonical target, hop count, and loop flag via distributed pointer
    doubling — O(log chain) bucketed shuffles, no driver-side walking.
    Oracle = bounded recursive CTE picking each start's deepest row."""
    from ..stages.redirects import resolve_redirects

    return resolve_redirects(_redirect_table(sf_dir))


SQL_REDIRECT_RESOLVE = """
WITH RECURSIVE redir AS (
  SELECT doc_id AS src,
         CASE WHEN doc_id > 0 AND doc_id % 97 = 0 THEN doc_id + 1
              WHEN doc_id > 1 AND doc_id % 97 = 1 THEN doc_id - 1
              WHEN doc_id % 5 IN (1, 2, 3) THEN doc_id - 1
         END AS dst
  FROM documents
),
walk AS (
  SELECT src AS start, src AS cur, CAST(0 AS BIGINT) AS hops FROM redir
  UNION ALL
  SELECT w.start, r.dst, w.hops + 1
  FROM walk w JOIN redir r ON r.src = w.cur
  WHERE r.dst IS NOT NULL AND w.hops < 40
),
last AS (
  SELECT start, cur, hops,
         row_number() OVER (PARTITION BY start ORDER BY hops DESC) AS rn
  FROM walk
)
SELECT l.start AS node,
       CASE WHEN r.dst IS NULL THEN l.cur END AS final_id,
       CASE WHEN r.dst IS NULL THEN l.hops END AS hops,
       (r.dst IS NOT NULL) AS is_cycle
FROM last l JOIN redir r ON r.src = l.cur
WHERE l.rn = 1
"""


# ---------------------------------------------------------------------------
# kcore — k-core decomposition by distributed peeling
# ---------------------------------------------------------------------------

def q_kcore(sf_dir: str):
    """k-core (k=3) of a skewed synthetic doc graph via the distributed
    peeling loop in stages/graph.py:kcore — per-round degree groupby +
    broadcast (or bucketed anti-join) edge drop. The edge set here is
    deliberately skewed (binary-tree parent links + a quadratic scatter)
    so peeling takes ~5 real rounds at test scale, unlike the
    near-regular pagerank graph where every node survives round 0.
    Oracle = the same peel unrolled 10 rounds (>= the 5 needed at both
    test sfs; extra rounds are fixpoint no-ops) with AS MATERIALIZED
    chaining (NOTES_r3: unmaterialized iterative CTE chains inline
    exponentially in DuckDB)."""
    from ..stages.graph import kcore

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

    edges = docs.map_batches(skew_edges, batch_format="pyarrow")
    return kcore(edges, k=3)


def _kcore_sql(k: int = 3, rounds: int = 10) -> str:
    """Unrolled peeling oracle: e{i+1} = e{i} restricted to endpoints
    whose degree in e{i} is >= k; answer = degrees over the final edge
    set. Built programmatically so the round count is one constant."""
    parts = [
        "WITH nn AS (SELECT COUNT(*) AS c FROM documents),",
        "raw AS (",
        "  SELECT doc_id AS s, doc_id // 2 AS d FROM documents WHERE doc_id >= 1",
        "  UNION ALL",
        "  SELECT doc_id, (doc_id * doc_id + 1) % nn.c FROM documents, nn",
        "),",
        "e0 AS MATERIALIZED (",
        "  SELECT DISTINCT LEAST(s, d) AS a, GREATEST(s, d) AS b FROM raw WHERE s <> d",
        "),",
    ]
    for i in range(rounds):
        parts += [
            f"d{i} AS MATERIALIZED (",
            f"  SELECT node, COUNT(*) AS deg FROM",
            f"  (SELECT a AS node FROM e{i} UNION ALL SELECT b FROM e{i}) GROUP BY node",
            f"),",
            f"e{i + 1} AS MATERIALIZED (",
            f"  SELECT a, b FROM e{i}",
            f"  WHERE a IN (SELECT node FROM d{i} WHERE deg >= {k})",
            f"    AND b IN (SELECT node FROM d{i} WHERE deg >= {k})",
            f"),",
        ]
    parts += [
        f"dfin AS (",
        f"  SELECT node, COUNT(*) AS deg FROM",
        f"  (SELECT a AS node FROM e{rounds} UNION ALL SELECT b FROM e{rounds})",
        f"  GROUP BY node",
        f")",
        f"SELECT CAST(node AS BIGINT) AS node, CAST(deg AS BIGINT) AS deg FROM dfin",
    ]
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# weighted_sample — Efraimidis–Spirakis weighted sampling w/o replacement
# ---------------------------------------------------------------------------

def q_weighted_sample(sf_dir: str):
    """Deterministic weighted sample (k=50, weight = byte length of the
    doc text + 1) via stages/sampling.py:weighted_sample_es — per-batch
    local top-k prune, then ONE global sort+limit over <= k rows per
    block. The md5-slice uniform and the -ln(u)/w key are recomputed
    operand-for-operand in the oracle."""
    from ..stages.sampling import weighted_sample_es

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def add_w(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "w": pc.add(
                    pc.binary_length(batch.column("text")).cast(pa.int64()), 1
                ),
            }
        )

    return weighted_sample_es(
        docs.map_batches(add_w, batch_format="pyarrow"), k=50
    )


SQL_WEIGHTED_SAMPLE = """
WITH w AS (
  SELECT doc_id,
         CAST(strlen(text) + 1 AS BIGINT) AS w,
         CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS BIGINT) AS h
  FROM documents
),
keyed AS (
  SELECT doc_id, w,
         -ln((CAST(h AS DOUBLE) + CAST(1.0 AS DOUBLE)) / CAST(4294967296.0 AS DOUBLE))
           / CAST(w AS DOUBLE) AS es_key
  FROM w
)
SELECT CAST(doc_id AS BIGINT) AS doc_id, w, es_key
FROM keyed ORDER BY es_key, doc_id LIMIT 50
"""


# ---------------------------------------------------------------------------
# crawl_budget_alloc — Hamilton apportionment of fetch slots across hosts
# ---------------------------------------------------------------------------

def q_crawl_budget_alloc(sf_dir: str):
    """Per-wave fetch-slot allocation: a budget of 2/5 of the frontier is
    split across hosts proportionally to their pending-page counts by
    largest-remainder apportionment (stages/agg.py:budget_allocate —
    two tiny aggregates + a two-level remainder rank; the demand table
    never lands on the driver). Integer-exact, so the oracle mirrors the
    // and % arithmetic directly and ROW_NUMBER reproduces the remainder
    rank."""
    from ..stages.agg import budget_allocate

    pages = read_pages(sf_dir, columns=["url"])

    def add_host(batch: pa.Table) -> pa.Table:
        return pa.table({"host": hosts_array(batch.column("url"))})

    demands = (
        pages.map_batches(add_host, batch_format="pyarrow")
        .groupby("host")
        .count()
        .map_batches(
            lambda b: pa.table(
                {
                    "host": b.column("host"),
                    "demand": b.column("count()").cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )
    return budget_allocate(demands, lambda t: (2 * t) // 5)


SQL_CRAWL_BUDGET_ALLOC = """
WITH {pages},
c AS (SELECT host, CAST(COUNT(*) AS BIGINT) AS demand FROM purl GROUP BY host),
t AS (SELECT CAST(SUM(demand) AS BIGINT) AS total FROM c),
b AS (SELECT (2 * total) // 5 AS bud FROM t),
br AS (
  SELECT host, demand,
         (b.bud * demand) // t.total AS base,
         (b.bud * demand) % t.total AS rem
  FROM c, t, b
),
lo AS (SELECT CAST((SELECT bud FROM b) - SUM(base) AS BIGINT) AS leftover FROM br),
rk AS (
  SELECT host, demand, base, rem,
         ROW_NUMBER() OVER (ORDER BY rem DESC, host ASC) - 1 AS rnk
  FROM br
)
SELECT rk.host, rk.demand,
       CAST(rk.base + CASE WHEN rk.rnk < lo.leftover THEN 1 ELSE 0 END AS BIGINT) AS alloc
FROM rk, lo
"""


# ---------------------------------------------------------------------------
# link_prediction — common-neighbor / Jaccard candidates for missing links
# ---------------------------------------------------------------------------

def q_link_prediction(sf_dir: str):
    """Related-page candidates on the synthetic doc link graph: every
    non-adjacent pair with >= 1 common neighbor, scored by
    common-neighbor count and neighborhood Jaccard
    (stages/graph.py:common_neighbor_scores — per-pivot wedge groupby
    with a hot-node cap, in-bucket existing-edge drop, two bucketed
    degree attaches). Integer counts + ONE division → bit-identical
    doubles in both engines."""
    from ..stages.graph import common_neighbor_scores
    from .queries import _synthetic_link_edges

    return common_neighbor_scores(_synthetic_link_edges(sf_dir))


SQL_LINK_PREDICTION = """
WITH nn AS (SELECT COUNT(*) AS c FROM documents),
child AS (
  SELECT doc_id AS s, (2*doc_id+1) % nn.c AS d FROM documents, nn
  UNION ALL SELECT doc_id, (2*doc_id+2) % nn.c FROM documents, nn
  UNION ALL SELECT doc_id, (7*doc_id+3) % nn.c FROM documents, nn
),
e AS (SELECT DISTINCT LEAST(s, d) AS a, GREATEST(s, d) AS b FROM child WHERE s <> d),
adj AS (SELECT a AS z, b AS n FROM e UNION ALL SELECT b, a FROM e),
deg AS (SELECT z AS node, CAST(COUNT(*) AS BIGINT) AS deg FROM adj GROUP BY z),
w AS (
  SELECT a1.n AS u, a2.n AS v
  FROM adj a1 JOIN adj a2 ON a1.z = a2.z AND a1.n < a2.n
),
cn AS (SELECT u, v, CAST(COUNT(*) AS BIGINT) AS cn FROM w GROUP BY u, v),
ne AS (
  SELECT cn.u, cn.v, cn.cn
  FROM cn LEFT JOIN e ON e.a = cn.u AND e.b = cn.v
  WHERE e.a IS NULL
)
SELECT CAST(ne.u AS BIGINT) AS u, CAST(ne.v AS BIGINT) AS v, ne.cn,
       CAST(ne.cn AS DOUBLE) / CAST(du.deg + dv.deg - ne.cn AS DOUBLE) AS jaccard
FROM ne
JOIN deg du ON du.node = ne.u
JOIN deg dv ON dv.node = ne.v
"""


# ---------------------------------------------------------------------------
# lexical_diversity — type-token / hapax ratios (quality features)
# ---------------------------------------------------------------------------

def q_lexical_diversity(sf_dir: str):
    """Per-doc lexical diversity (stages/textstats.py:
    lexical_diversity_batch): n_tokens, n_distinct, n_hapax + the two
    ratios. Pure map — no shuffle; integers + single divisions."""
    from ..stages import textstats

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return docs.map_batches(
        textstats.lexical_diversity_batch, batch_format="pyarrow"
    )


SQL_LEXICAL_DIVERSITY = r"""
WITH toks AS (
  SELECT doc_id, UNNEST(regexp_extract_all(text, '\S+')) AS tok FROM documents
),
per AS (
  SELECT doc_id, tok, COUNT(*) AS c FROM toks GROUP BY doc_id, tok
),
agg AS (
  SELECT doc_id,
         CAST(SUM(c) AS BIGINT) AS n_tokens,
         CAST(COUNT(*) AS BIGINT) AS n_distinct,
         CAST(COUNT(*) FILTER (c = 1) AS BIGINT) AS n_hapax
  FROM per GROUP BY doc_id
)
SELECT doc_id, n_tokens, n_distinct, n_hapax,
       CAST(n_distinct AS DOUBLE) / CAST(n_tokens AS DOUBLE) AS ttr,
       CAST(n_hapax AS DOUBLE) / CAST(n_tokens AS DOUBLE) AS hapax_ratio
FROM agg WHERE n_tokens > 0
"""


# ---------------------------------------------------------------------------
# degree_assortativity — Newman's degree-mixing coefficient
# ---------------------------------------------------------------------------

def q_degree_assortativity(sf_dir: str):
    """Degree assortativity of the synthetic doc link graph
    (stages/graph.py:degree_assortativity) — integer moments over both
    orientations of every edge, so the sqrt in Pearson's r cancels and
    the single division is bit-exact. One output row with the moments
    and r."""
    from ..stages.graph import degree_assortativity
    from .queries import _synthetic_link_edges

    return degree_assortativity(_synthetic_link_edges(sf_dir))


SQL_DEGREE_ASSORTATIVITY = """
WITH nn AS (SELECT COUNT(*) AS c FROM documents),
child AS (
  SELECT doc_id AS s, (2*doc_id+1) % nn.c AS d FROM documents, nn
  UNION ALL SELECT doc_id, (2*doc_id+2) % nn.c FROM documents, nn
  UNION ALL SELECT doc_id, (7*doc_id+3) % nn.c FROM documents, nn
),
e AS (SELECT DISTINCT LEAST(s, d) AS a, GREATEST(s, d) AS b FROM child WHERE s <> d),
adj AS (SELECT a AS z, b AS n FROM e UNION ALL SELECT b, a FROM e),
deg AS (SELECT z AS node, CAST(COUNT(*) AS BIGINT) AS deg FROM adj GROUP BY z),
pairs AS (
  SELECT du.deg AS x, dv.deg AS y
  FROM e JOIN deg du ON du.node = e.a JOIN deg dv ON dv.node = e.b
),
bothdir AS (SELECT x, y FROM pairs UNION ALL SELECT y, x FROM pairs),
s AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS m2,
         CAST(SUM(x) AS BIGINT) AS sx,
         CAST(SUM(x * x) AS BIGINT) AS sxx,
         CAST(SUM(x * y) AS BIGINT) AS sxy
  FROM bothdir
)
SELECT m2, sx, sxx, sxy,
       CAST(m2 * sxy - sx * sx AS DOUBLE)
         / CAST(m2 * sxx - sx * sx AS DOUBLE) AS assortativity
FROM s
"""


# ---------------------------------------------------------------------------
# fuzzy_url_pairs — one-edit URL pairs within a host (typo/mirror URLs)
# ---------------------------------------------------------------------------

def q_fuzzy_url_pairs(sf_dir: str):
    """Near-identical URL pairs (Levenshtein distance exactly 1) within
    each host — the URL-level typo / parameter-variant detector that
    feeds canonical-URL grouping. Blocking = host (the natural crawl
    partition) + a length band (|Δlen| <= 1, lossless since lev >= Δlen);
    the in-block check is a specialized two-pointer one-edit test —
    exact for d <= 1, O(len) per pair, no DP matrix. At web scale the
    in-block pair loop needs a second key (path prefix / positional
    q-gram) for mega-hosts — same caveat class as the simhash hot-bucket
    cap. Oracle = DuckDB levenshtein() over the same blocked pairs."""
    import pandas as pd

    pages = read_pages(sf_dir, columns=["url"])

    def add_host(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"host": hosts_array(batch.column("url")), "url": batch.column("url")}
        )

    ds = pages.map_batches(add_host, batch_format="pyarrow")

    def one_sub(a: str, b: str) -> bool:
        mism = 0
        for x, y in zip(a, b):
            if x != y:
                mism += 1
                if mism > 1:
                    return False
        return mism == 1

    def one_del(a: str, b: str) -> bool:
        # len(b) == len(a) + 1: dist 1 iff deleting one char of b gives a
        i = j = 0
        skipped = False
        while i < len(a) and j < len(b):
            if a[i] == b[j]:
                i += 1
                j += 1
            elif skipped:
                return False
            else:
                skipped = True
                j += 1
        return True

    def pairs(g: pa.Table) -> pa.Table:
        # arrow-in (r5): the edit-distance probe loops are the kernel
        from collections import defaultdict

        host = g.column("host")[0].as_py()
        bylen = defaultdict(list)
        for u in sorted(g.column("url").to_pylist()):
            bylen[len(u)].append(u)
        u1s, u2s = [], []
        for length, us in bylen.items():
            for i in range(len(us)):
                for j in range(i + 1, len(us)):
                    if one_sub(us[i], us[j]):
                        u1s.append(us[i])
                        u2s.append(us[j])
            for b in bylen.get(length + 1, []):
                for a in us:
                    if one_del(a, b):
                        lo, hi = (a, b) if a < b else (b, a)
                        u1s.append(lo)
                        u2s.append(hi)
        return pa.table(
            {
                "host": pa.array([host] * len(u1s), pa.string()),
                "u1": pa.array(u1s, pa.string()),
                "u2": pa.array(u2s, pa.string()),
                "dist": pa.array(np.ones(len(u1s), np.int64), pa.int64()),
            }
        )

    return ds.groupby("host").map_groups(pairs, batch_format="pyarrow")


SQL_FUZZY_URL_PAIRS = """
WITH {pages},
u AS (SELECT host, url FROM purl),
cand AS (
  SELECT a.host AS host, a.url AS u1, b.url AS u2
  FROM u a JOIN u b ON a.host = b.host AND a.url < b.url
  WHERE abs(length(a.url) - length(b.url)) <= 1
)
SELECT host, u1, u2, CAST(1 AS BIGINT) AS dist
FROM cand WHERE levenshtein(u1, u2) = 1
"""


# ---------------------------------------------------------------------------
# opic_order — On-line Page Importance (OPIC) crawl ordering
# ---------------------------------------------------------------------------

_OPIC_WAVES = 4
_OPIC_BUDGET = 8
_OPIC_CASH = 1_000_000


def q_opic_order(sf_dir: str):
    """OPIC crawl ordering (Abiteboul-Preda-Cobena 2003), crawl-once
    variant with INTEGER cash so every step is exact: seeds start with
    10^6 cash; each wave admits the top-8 pending nodes by
    (cash DESC, id ASC), every admitted node pays cash // outdeg to
    each distinct non-self child, contributions to already-crawled
    nodes are discarded, pending nodes accumulate across waves
    (the // remainder is burned — documented divergence from the
    fractional original, which cannot be order-independent in floats).

    Completes the ordering family (BFS / DFS / best-first / aging /
    politeness): OPIC is the classic importance-driven scheduler the
    reference lacks. The pending set stays a Dataset (sort+limit pop,
    mask-out admitted, union contributions, ONE groupby-sum per wave —
    the frontier_store pattern); only the <= budget admitted slice ever
    lands on the driver. Oracle = the wave loop unrolled with AS
    MATERIALIZED CTEs, operand-for-operand integer arithmetic."""
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    n = docs.count()

    seeds = [0, 1, 2]
    pending = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(seeds, pa.int64()),
                "cash": pa.array([_OPIC_CASH] * len(seeds), pa.int64()),
            }
        )
    )
    crawled: set[int] = set()
    out_id, out_wave, out_cash = [], [], []

    for wave in range(_OPIC_WAVES):
        admitted = pending.sort(
            ["cash", "doc_id"], descending=[True, False]
        ).limit(_OPIC_BUDGET).take_all()  # bounded: ≤ _OPIC_BUDGET rows (sort+limit)
        if not admitted:
            break
        adm_ids = np.array([r["doc_id"] for r in admitted], dtype=np.int64)
        adm_cash = np.array([r["cash"] for r in admitted], dtype=np.int64)
        out_id.extend(adm_ids.tolist())
        out_wave.extend([wave] * len(adm_ids))
        out_cash.extend(adm_cash.tolist())
        crawled.update(adm_ids.tolist())

        # children by the shared corpus edge rule; distinct, non-self
        contrib_ids, contrib_cash = [], []
        for s, c in zip(adm_ids.tolist(), adm_cash.tolist()):
            kids = {(2 * s + 1) % n, (2 * s + 2) % n, (7 * s + 3) % n} - {s}
            if not kids:
                continue
            share = c // len(kids)
            for k in sorted(kids):
                if k not in crawled:
                    contrib_ids.append(k)
                    contrib_cash.append(share)

        adm_ref = ray.put(set(adm_ids.tolist()))

        def drop_admitted(batch: pa.Table) -> pa.Table:
            dead = ray.get(adm_ref)
            ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
            keep = np.fromiter(
                (int(i) not in dead for i in ids), dtype=bool, count=len(ids)
            )
            return batch.filter(pa.array(keep))

        rest = pending.map_batches(drop_admitted, batch_format="pyarrow")
        contribs = ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(contrib_ids, pa.int64()),
                    "cash": pa.array(contrib_cash, pa.int64()),
                }
            )
        )
        pending = (
            rest.union(contribs)
            .groupby("doc_id")
            .sum("cash")
            .map_batches(
                lambda b: pa.table(
                    {
                        "doc_id": b.column("doc_id"),
                        "cash": b.column("sum(cash)").cast(pa.int64()),
                    }
                ),
                batch_format="pyarrow",
            )
            .materialize()
        )

    return pa.table(
        {
            "doc_id": pa.array(out_id, pa.int64()),
            "wave": pa.array(out_wave, pa.int64()),
            "cash": pa.array(out_cash, pa.int64()),
        }
    )


def _opic_sql(waves: int = _OPIC_WAVES, budget: int = _OPIC_BUDGET) -> str:
    """Wave loop unrolled: pK = pending before wave K; aK = admitted."""
    parts = [
        "WITH nn AS (SELECT COUNT(*) AS c FROM documents),",
        f"p0 AS (SELECT UNNEST([0, 1, 2]) AS doc_id, {_OPIC_CASH} AS cash),",
        "crawled0 AS (SELECT doc_id FROM p0 WHERE 1 = 0),",
    ]
    for k in range(waves):
        parts += [
            f"a{k} AS MATERIALIZED (",
            f"  SELECT doc_id, cash, {k} AS wave FROM p{k}",
            f"  ORDER BY cash DESC, doc_id ASC LIMIT {budget}",
            f"),",
            f"crawled{k + 1} AS (SELECT doc_id FROM crawled{k}",
            f"  UNION SELECT doc_id FROM a{k}),",
            f"kids{k} AS MATERIALIZED (",
            f"  SELECT s, d FROM (",
            f"    SELECT a.doc_id AS s, (2 * a.doc_id + 1) % nn.c AS d FROM a{k} a, nn",
            f"    UNION",
            f"    SELECT a.doc_id, (2 * a.doc_id + 2) % nn.c FROM a{k} a, nn",
            f"    UNION",
            f"    SELECT a.doc_id, (7 * a.doc_id + 3) % nn.c FROM a{k} a, nn",
            f"  ) WHERE s <> d",
            f"),",
            f"contrib{k} AS MATERIALIZED (",
            f"  SELECT kids{k}.d AS doc_id,",
            f"         a.cash // (SELECT COUNT(*) FROM kids{k} k2 WHERE k2.s = kids{k}.s) AS cash",
            f"  FROM kids{k} JOIN a{k} a ON a.doc_id = kids{k}.s",
            f"  WHERE kids{k}.d NOT IN (SELECT doc_id FROM crawled{k + 1})",
            f"),",
            f"p{k + 1} AS MATERIALIZED (",
            f"  SELECT doc_id, CAST(SUM(cash) AS BIGINT) AS cash FROM (",
            f"    SELECT doc_id, cash FROM p{k}",
            f"    WHERE doc_id NOT IN (SELECT doc_id FROM a{k})",
            f"    UNION ALL SELECT doc_id, cash FROM contrib{k}",
            f"  ) GROUP BY doc_id",
            f"),",
        ]
    parts[-1] = parts[-1].rstrip(",")  # last CTE: no trailing comma
    sel = " UNION ALL ".join(
        f"SELECT doc_id, wave, cash FROM a{k}" for k in range(waves)
    )
    parts.append(sel)
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# events_moving_avg — trailing frame-window mean per user stream
# ---------------------------------------------------------------------------

def q_events_moving_avg(sf_dir: str):
    """Trailing 3-row moving average of event value per user (ordered
    by ts, event_id) — the frame-window member of the windowing family
    (tumbling/hopping/session/as-of already covered). Values go through
    integer cents (ROUND(value*100); the inputs are 2-decimal doubles,
    so every rounding mode agrees) → window sums are int64-exact and
    the mean is ONE division. Plan: hash(user) % 32 bucket shuffle,
    one vectorized pass per bucket (global-cumsum difference with
    per-user window clamp — no per-user groups, the sessionize
    pattern)."""
    import pandas as pd

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "value"],
    )

    def bucketize(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        cents = np.round(
            batch.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array(u % 32, pa.int64()),
                "event_id": batch.column("event_id"),
                "ts": batch.column("ts"),
                "user_id": batch.column("user_id"),
                "cents": pa.array(cents, pa.int64()),
            }
        )

    def window(g: pa.Table) -> pa.Table:
        # arrow-native (r5)
        g = g.sort_by(
            [("user_id", "ascending"), ("ts", "ascending"),
             ("event_id", "ascending")]
        )
        u = g.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        cents = g.column("cents").to_numpy(zero_copy_only=False).astype(np.int64)
        n = g.num_rows
        idx = np.arange(n, dtype=np.int64)
        new_user = np.r_[True, u[1:] != u[:-1]]
        starts = idx[new_user]
        start_of = starts[np.cumsum(new_user) - 1]
        pos = idx - start_of
        k = np.minimum(pos + 1, 3)
        cs = np.cumsum(cents)
        prev = idx - k
        base = np.where(prev >= 0, cs[np.maximum(prev, 0)], 0)
        win_sum = cs - base
        ma = win_sum.astype(np.float64) / (k * 100).astype(np.float64)
        return pa.table(
            {
                "event_id": g.column("event_id").cast(pa.int64()),
                "user_id": pa.array(u, pa.int64()),
                "sum_cents": pa.array(win_sum, pa.int64()),
                "n_win": pa.array(k, pa.int64()),
                "ma": pa.array(ma, pa.float64()),
            }
        )

    return (
        ev.map_batches(bucketize, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(window, batch_format="pyarrow")
    )


SQL_EVENTS_MOVING_AVG = """
WITH c AS (
  SELECT event_id, user_id, ts,
         CAST(ROUND(value * 100) AS BIGINT) AS cents
  FROM events
),
w AS (
  SELECT event_id, user_id,
         SUM(cents) OVER (PARTITION BY user_id ORDER BY ts, event_id
                          ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS s,
         COUNT(*) OVER (PARTITION BY user_id ORDER BY ts, event_id
                        ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS k
  FROM c
)
SELECT event_id, user_id,
       CAST(s AS BIGINT) AS sum_cents,
       CAST(k AS BIGINT) AS n_win,
       CAST(s AS DOUBLE) / CAST(k * 100 AS DOUBLE) AS ma
FROM w
"""


# ---------------------------------------------------------------------------
# quality_correlations — pairwise Pearson between quality counters
# ---------------------------------------------------------------------------

_QC_FEATURES = ("n_tokens", "n_distinct", "n_hapax", "n_chars", "n_stop")


def q_quality_correlations(sf_dir: str):
    """Feature-redundancy readout for the quality-filter family: Pearson
    r between every pair of five integer text features with real
    variance on this corpus (token / distinct / hapax counts from the
    lexical-diversity kernel, byte length, stopword hits — the
    uppercase/digit/punct counters are constant-zero on the synthetic
    text and would contribute nothing). All moments are int64 sums
    collected map-side (ONE tiny aggregate; the doc table never
    shuffles); r = (n·Sxy − Sx·Sy) / (sqrt(n·Sxx − Sx²)·sqrt(n·Syy −
    Sy²)) evaluated with the identical operand tree in both engines —
    sqrt is IEEE-correctly-rounded, so doubles are bit-equal. Pairs
    with zero variance on either side are omitted; zero-token docs are
    excluded (the lexical kernel's contract, mirrored in the join)."""
    import math

    import polars as pl

    from ..stages import textstats

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def feats_batch(batch: pa.Table) -> pa.Table:
        lex = textstats.lexical_diversity_batch(batch)
        extra = (
            pl.from_arrow(batch.select(["doc_id", "text"]))
            .select(
                pl.col("doc_id"),
                pl.col("text").str.len_bytes().cast(pl.Int64).alias("n_chars"),
                pl.col("text")
                .str.to_lowercase()
                .str.count_matches(textstats.STOPWORD_RE)
                .cast(pl.Int64)
                .alias("n_stop"),
            )
            .to_arrow()
        )
        lexp = pl.from_arrow(
            lex.select(["doc_id", "n_tokens", "n_distinct", "n_hapax"])
        )
        return (
            lexp.join(pl.from_arrow(extra), on="doc_id", how="inner")
            .to_arrow()
            .cast(
                pa.schema(
                    [
                        ("doc_id", pa.int64()),
                        ("n_tokens", pa.int64()),
                        ("n_distinct", pa.int64()),
                        ("n_hapax", pa.int64()),
                        ("n_chars", pa.int64()),
                        ("n_stop", pa.int64()),
                    ]
                )
            )
        )

    counts = docs.map_batches(feats_batch, batch_format="pyarrow")

    feats = _QC_FEATURES

    def partials(batch: pa.Table) -> pa.Table:
        arrs = {
            f: batch.column(f).to_numpy(zero_copy_only=False).astype(np.int64)
            for f in feats
        }
        cols = {"n": pa.array([batch.num_rows], pa.int64())}
        for i, f in enumerate(feats):
            cols[f"s_{f}"] = pa.array([int(arrs[f].sum())], pa.int64())
            for g in feats[i:]:
                cols[f"s_{f}_{g}"] = pa.array(
                    [int((arrs[f] * arrs[g]).sum())], pa.int64()
                )
        return pa.table(cols)

    part_ds = counts.map_batches(partials, batch_format="pyarrow")
    agg_keys = ["n"]
    for i, f in enumerate(feats):
        agg_keys.append(f"s_{f}")
        for g in feats[i:]:
            agg_keys.append(f"s_{f}_{g}")
    agg = part_ds.aggregate(
        *[ray.data.aggregate.Sum(k, alias_name=k) for k in agg_keys]
    )
    n = int(agg["n"])
    s = {k: int(agg[k]) for k in agg_keys}

    fx_out, fy_out, r_out = [], [], []
    for i, f in enumerate(feats):
        for g in feats[i + 1 :]:
            sxy = s[f"s_{f}_{g}"]
            vx = n * s[f"s_{f}_{f}"] - s[f"s_{f}"] * s[f"s_{f}"]
            vy = n * s[f"s_{g}_{g}"] - s[f"s_{g}"] * s[f"s_{g}"]
            if vx <= 0 or vy <= 0:
                continue
            num = n * sxy - s[f"s_{f}"] * s[f"s_{g}"]
            r = float(num) / (math.sqrt(float(vx)) * math.sqrt(float(vy)))
            fx_out.append(f)
            fy_out.append(g)
            r_out.append(r)
    return pa.table(
        {
            "fx": pa.array(fx_out, pa.string()),
            "fy": pa.array(fy_out, pa.string()),
            "r": pa.array(r_out, pa.float64()),
        }
    )


def _quality_correlations_sql(stop_re: str) -> str:
    feats = _QC_FEATURES
    lex = r"""toksq AS (
  SELECT doc_id, UNNEST(regexp_extract_all(text, '\S+')) AS tok FROM documents
),
perq AS (
  SELECT doc_id, tok, COUNT(*) AS c FROM toksq GROUP BY doc_id, tok
),
lexq AS (
  SELECT doc_id,
         CAST(SUM(c) AS BIGINT) AS n_tokens,
         CAST(COUNT(*) AS BIGINT) AS n_distinct,
         CAST(COUNT(*) FILTER (c = 1) AS BIGINT) AS n_hapax
  FROM perq GROUP BY doc_id
),
baseq AS (
  SELECT doc_id,
         CAST(strlen(text) AS BIGINT) AS n_chars,
         CAST(length(regexp_extract_all(lower(text), '""" + stop_re + r"""')) AS BIGINT) AS n_stop
  FROM documents
),
q AS (
  SELECT lexq.n_tokens, lexq.n_distinct, lexq.n_hapax,
         baseq.n_chars, baseq.n_stop
  FROM lexq JOIN baseq USING (doc_id)
  WHERE lexq.n_tokens > 0
)"""
    aggs = ["CAST(COUNT(*) AS BIGINT) AS n"]
    for i, f in enumerate(feats):
        aggs.append(f"CAST(SUM({f}) AS BIGINT) AS s_{f}")
        for g in feats[i:]:
            aggs.append(f"CAST(SUM({f} * {g}) AS BIGINT) AS s_{f}_{g}")
    branches = []
    for i, f in enumerate(feats):
        for g in feats[i + 1 :]:
            branches.append(
                f"SELECT '{f}' AS fx, '{g}' AS fy,\n"
                f"  CAST(n * s_{f}_{g} - s_{f} * s_{g} AS DOUBLE)\n"
                f"  / (sqrt(CAST(n * s_{f}_{f} - s_{f} * s_{f} AS DOUBLE))\n"
                f"     * sqrt(CAST(n * s_{g}_{g} - s_{g} * s_{g} AS DOUBLE))) AS r\n"
                f"FROM m WHERE n * s_{f}_{f} - s_{f} * s_{f} > 0\n"
                f"  AND n * s_{g}_{g} - s_{g} * s_{g} > 0"
            )
    return (
        "WITH " + lex + ",\n"
        "m AS MATERIALIZED (\n  SELECT " + ",\n         ".join(aggs) + "\n  FROM q\n)\n"
        + "\nUNION ALL\n".join(branches)
    )


# ---------------------------------------------------------------------------
# registration
# ---------------------------------------------------------------------------
