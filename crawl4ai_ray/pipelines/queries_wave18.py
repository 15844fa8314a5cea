"""Eighteenth-wave operators (round-3 continuation session, 2026-08-20).

Listed by name in ``queries.py``'s QUERIES/ORACLES.

House rules throughout: Arrow batches end to end, map-side partials
before any groupby, and an operand-for-operand DuckDB oracle for every
query (integer accumulation, IEEE sqrt parity for the one cosine,
mirrored divisions).
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# text_tiling_segments — topic segmentation by inter-block cosine valleys
# ---------------------------------------------------------------------------

_TT_BLOCK = 10  # tokens per block
_TT_THRESH = 0.25  # boundary where adjacent-block cosine < this


def q_text_tiling_segments(sf_dir: str):
    """TextTiling-style topic segmentation (Hearst 1997, simplified to
    its deterministic core): split each doc into fixed 10-token blocks,
    compute the cosine between ADJACENT blocks' term-count vectors, and
    declare a segment boundary wherever cos < 0.25. Output per doc:
    n_blocks, n_boundaries, n_segments (= boundaries + 1) — the
    pre-chunking signal a semantic chunker keys on (vs the fixed-width
    SlidingWindowChunking of chunk_counts).

    Distributed shape: pure map — per doc, block term Counters and the
    ≤ n_blocks−1 adjacent cosines are row-local; no shuffle at any
    scale. Float discipline: cosine = dot/(√na·√nb) over exact integer
    counts, IEEE sqrt parity (the quality_correlations discipline), and
    the 0.25 threshold is an exactly-representable double on both
    engines.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def tile(batch: pa.Table) -> pa.Table:
        from collections import Counter

        nb_l, bd_l = [], []
        for t in batch.column("text").to_pylist():
            toks = (t or "").split()
            blocks = [
                Counter(toks[i : i + _TT_BLOCK])
                for i in range(0, len(toks), _TT_BLOCK)
            ]
            nb_l.append(len(blocks))
            bd = 0
            for x, y in zip(blocks, blocks[1:]):
                dot = sum(v * y.get(k, 0) for k, v in x.items())
                na = sum(v * v for v in x.values())
                nbm = sum(v * v for v in y.values())
                cos = float(dot) / (
                    math.sqrt(float(na)) * math.sqrt(float(nbm))
                )
                if cos < _TT_THRESH:
                    bd += 1
            bd_l.append(bd)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_blocks": pa.array(nb_l, pa.int64()),
                "n_boundaries": pa.array(bd_l, pa.int64()),
                "n_segments": pa.array(
                    [b + 1 for b in bd_l], pa.int64()
                ),
            }
        )

    return docs.map_batches(tile, batch_format="pyarrow")


SQL_TEXT_TILING_SEGMENTS = rf"""
WITH toks AS (
  SELECT doc_id, t[i] AS tok, CAST((i - 1) // {_TT_BLOCK} AS BIGINT) AS blk
  FROM (
    SELECT doc_id,
           list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS t
    FROM documents
  ), LATERAL UNNEST(range(1, len(t) + 1)) AS r(i)
),
tf AS (
  SELECT doc_id, blk, tok, CAST(COUNT(*) AS BIGINT) AS c
  FROM toks GROUP BY doc_id, blk, tok
),
norms AS (
  SELECT doc_id, blk, CAST(SUM(c * c) AS BIGINT) AS nsq
  FROM tf GROUP BY doc_id, blk
),
dots AS (
  SELECT a.doc_id, a.blk,
         CAST(SUM(a.c * b.c) AS BIGINT) AS dot
  FROM tf a JOIN tf b
    ON b.doc_id = a.doc_id AND b.blk = a.blk + 1 AND b.tok = a.tok
  GROUP BY a.doc_id, a.blk
),
adj AS (
  SELECT na.doc_id, na.blk,
         COALESCE(d.dot, 0) AS dot, na.nsq AS nsq_a, nb.nsq AS nsq_b
  FROM norms na
  JOIN norms nb ON nb.doc_id = na.doc_id AND nb.blk = na.blk + 1
  LEFT JOIN dots d ON d.doc_id = na.doc_id AND d.blk = na.blk
),
bounds AS (
  SELECT doc_id,
         CAST(SUM(CASE WHEN CAST(dot AS DOUBLE)
                            / (sqrt(CAST(nsq_a AS DOUBLE)) * sqrt(CAST(nsq_b AS DOUBLE)))
                            < CAST({_TT_THRESH} AS DOUBLE)
                       THEN 1 ELSE 0 END) AS BIGINT) AS n_boundaries
  FROM adj GROUP BY doc_id
),
nblocks AS (
  SELECT doc_id, CAST(COUNT(DISTINCT blk) AS BIGINT) AS n_blocks
  FROM toks GROUP BY doc_id
)
SELECT d.doc_id,
       COALESCE(nb.n_blocks, 0) AS n_blocks,
       COALESCE(b.n_boundaries, 0) AS n_boundaries,
       COALESCE(b.n_boundaries, 0) + 1 AS n_segments
FROM documents d
LEFT JOIN nblocks nb ON nb.doc_id = d.doc_id
LEFT JOIN bounds b ON b.doc_id = d.doc_id
"""


# ---------------------------------------------------------------------------
# audience_overlap — pairwise event-type user-set Jaccard via type bitmasks
# ---------------------------------------------------------------------------


def q_audience_overlap(sf_dir: str):
    """Audience overlap between event types: for every pair of event
    types, |users(A) ∩ users(B)|, the union, and the Jaccard — the
    product-analytics readout behind funnel design ("do purchasers also
    error?"). Exact, and shuffle-lean at any scale: each user collapses
    to ONE bitmask of the event types they triggered (|types| is small
    by construction), the mask HISTOGRAM (≤ 2^|types| rows) is the only
    thing collected, and every pairwise intersection/union folds from
    the histogram on the driver.

    Distributed shape: per-batch (user, partial mask) OR-partials, ONE
    groupby(user) max... (bitwise OR folded as Sum of distinct-bit
    partials — see below), ONE groupby(mask) count. Integer everywhere;
    one division per pair.
    """
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    types = sorted(
        r["event_type"]
        for r in ev.groupby("event_type").count().select_columns(["event_type"]).take_all()  # bounded: one row per event_type (bounded key domain)
    )
    bit = {t: 1 << i for i, t in enumerate(types)}
    bit_ref = ray.put(bit)

    def partial(batch: pa.Table) -> pa.Table:
        bm = ray.get(bit_ref)
        uid = batch.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        et = batch.column("event_type").to_pylist()
        mask = np.fromiter((bm[t] for t in et), np.int64, len(et))
        # each row is a single bit → OR over a user's DISTINCT bits is a
        # plain vectorized groupby-sum (no per-user python)
        # distinct (u, bit) pairs via lexsorted run mask, then per-user
        # sum of distinct single bits == OR (arrow-native, r5)
        o = np.lexsort((mask, uid))
        us, ms = uid[o], mask[o]
        keep = np.r_[True, (us[1:] != us[:-1]) | (ms[1:] != ms[:-1])] if len(us) else np.zeros(0, bool)
        us, ms = us[keep], ms[keep]
        uu, inv = np.unique(us, return_inverse=True)
        summed = np.bincount(inv, weights=ms).astype(np.int64)
        return pa.table(
            {
                "user_id": pa.array(uu, pa.int64()),
                "mask": pa.array(summed, pa.int64()),
            }
        )

    # OR-fold across batches: bucket by user, OR in-bucket (bitwise OR
    # has no built-in Ray aggregate; one hash(user)%P pass, P units)
    def key(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy(zero_copy_only=False)
        return batch.append_column(
            "kb", pa.array((u % 32).astype(np.int64), pa.int64())
        )

    n_types = len(types)

    def or_fold(g: pa.Table) -> pa.Table:
        # vectorized per-bit OR: max of each bit over the user's rows
        # (n_types passes, never per-user python) — arrow-in, r5
        u = g.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        m = g.column("mask").to_numpy(zero_copy_only=False).astype(np.int64)
        uu, inv = np.unique(u, return_inverse=True)
        out = np.zeros(len(uu), np.int64)
        for b in range(n_types):
            has = np.zeros(len(uu), np.int64)
            np.maximum.at(has, inv, (m >> b) & 1)
            out |= has << b
        return pa.table({"mask": pa.array(out, pa.int64())})

    hist = (
        ev.map_batches(partial, batch_format="pyarrow")
        .map_batches(key, batch_format="pyarrow")
        .groupby("kb")
        .map_groups(or_fold, batch_format="pyarrow")
        .groupby("mask")
        .aggregate(ray.data.aggregate.Count(alias_name="n"))
        .take_all()  # ≤ 2^|types| — tiny
    )
    counts = {int(r["mask"]): int(r["n"]) for r in hist}
    rows = []
    for i, a in enumerate(types):
        for b in types[i + 1 :]:
            ba, bb = bit[a], bit[b]
            inter = sum(n for m, n in counts.items() if (m & ba) and (m & bb))
            only = sum(
                n for m, n in counts.items() if (m & ba) or (m & bb)
            )
            rows.append(
                (a, b, inter, only, float(inter) / float(only) if only else None)
            )
    return pa.table(
        {
            "type_a": pa.array([r[0] for r in rows], pa.string()),
            "type_b": pa.array([r[1] for r in rows], pa.string()),
            "n_both": pa.array([r[2] for r in rows], pa.int64()),
            "n_either": pa.array([r[3] for r in rows], pa.int64()),
            "jaccard": pa.array([r[4] for r in rows], pa.float64()),
        }
    )


SQL_AUDIENCE_OVERLAP = """
WITH tu AS (
  SELECT DISTINCT event_type, user_id FROM events
),
t AS (SELECT DISTINCT event_type FROM events),
pairs AS (
  SELECT a.event_type AS type_a, b.event_type AS type_b
  FROM t a JOIN t b ON a.event_type < b.event_type
),
stats AS (
  SELECT p.type_a, p.type_b,
         CAST((SELECT COUNT(*) FROM tu x JOIN tu y
               ON x.user_id = y.user_id
               WHERE x.event_type = p.type_a AND y.event_type = p.type_b)
              AS BIGINT) AS n_both,
         CAST((SELECT COUNT(DISTINCT user_id) FROM tu
               WHERE event_type IN (p.type_a, p.type_b)) AS BIGINT) AS n_either
  FROM pairs p
)
SELECT type_a, type_b, n_both, n_either,
       CASE WHEN n_either = 0 THEN NULL
            ELSE CAST(n_both AS DOUBLE) / CAST(n_either AS DOUBLE) END AS jaccard
FROM stats
"""


# ---------------------------------------------------------------------------
# dup_rate_by_source — exact-duplicate rate per source
# ---------------------------------------------------------------------------


def q_dup_rate_by_source(sf_dir: str):
    """Curation readout: per source, how much of the slice is exact
    duplicate text (docs − distinct md5 texts) — the first number a
    data card reports per subset. Per-batch (source, md5) partials
    dedup map-side, ONE groupby((source, hash)), one tiny
    groupby(source); the division is mirrored."""
    import hashlib

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "text"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        seen = set()
        srcs, hs = [], []
        n_by_src: dict[str, int] = {}
        for s, t in zip(
            batch.column("source").to_pylist(), batch.column("text").to_pylist()
        ):
            n_by_src[s] = n_by_src.get(s, 0) + 1
            h = hashlib.md5((t or "").encode()).hexdigest()
            if (s, h) not in seen:
                seen.add((s, h))
                srcs.append(s)
                hs.append(h)
        ks = sorted(n_by_src)
        return pa.table(
            {
                "source": pa.array(srcs + ks, pa.string()),
                "h": pa.array(hs + [""] * len(ks), pa.string()),
                "n_docs": pa.array(
                    [0] * len(srcs) + [n_by_src[k] for k in ks], pa.int64()
                ),
            }
        )

    parts = docs.map_batches(partial, batch_format="pyarrow").materialize()

    def only_hashes(batch: pa.Table) -> pa.Table:
        return batch.filter(pa.compute.not_equal(batch.column("h"), ""))

    uniq = (
        parts.map_batches(only_hashes, batch_format="pyarrow")
        .groupby(["source", "h"])
        .count()
        .groupby("source")
        .aggregate(ray.data.aggregate.Count(alias_name="n_unique"))
    )
    totals = (
        parts.groupby("source")
        .aggregate(ray.data.aggregate.Sum("n_docs", alias_name="n_docs"))
        .take_all()  # bounded: one row per source (bounded key domain)
    )
    tot = {r["source"]: int(r["n_docs"]) for r in totals}

    def finish(batch: pa.Table) -> pa.Table:
        srcs = batch.column("source").to_pylist()
        nu = batch.column("n_unique").to_numpy(zero_copy_only=False).astype(np.int64)
        nd = np.fromiter((tot[s] for s in srcs), np.int64, len(srcs))
        return pa.table(
            {
                "source": pa.array(srcs, pa.string()),
                "n_docs": pa.array(nd, pa.int64()),
                "n_unique": pa.array(nu, pa.int64()),
                "n_dups": pa.array(nd - nu, pa.int64()),
                "dup_rate": pa.array(
                    (nd - nu).astype(np.float64) / nd.astype(np.float64),
                    pa.float64(),
                ),
            }
        )

    return uniq.map_batches(finish, batch_format="pyarrow")


SQL_DUP_RATE_BY_SOURCE = """
WITH u AS (
  SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
         CAST(COUNT(DISTINCT md5(text)) AS BIGINT) AS n_unique
  FROM documents GROUP BY source
)
SELECT source, n_docs, n_unique, n_docs - n_unique AS n_dups,
       CAST(n_docs - n_unique AS DOUBLE) / CAST(n_docs AS DOUBLE) AS dup_rate
FROM u
"""


# ---------------------------------------------------------------------------
# shard_skew_stats — hash-partition balance audit
# ---------------------------------------------------------------------------

_SSK_P = 64


def q_shard_skew_stats(sf_dir: str):
    """Partitioner audit: distribute doc ids over P = 64 shards by an
    md5-derived hash (the dsir md5-slice derivation, SQL-recomputable)
    and report the balance statistics every sharded write cares about:
    max/min/mean shard size, the max/mean imbalance ratio, and the
    exact chi-square statistic against uniform — scaled integer-exact
    as chi2_scaled = Σ (P·c − n)² (divide by P·n for the classical
    value; both reported, the division mirrored).

    Distributed shape: per-batch shard-count partials (≤ P rows per
    batch), ONE groupby(shard); the moment fold runs on the P-row
    histogram.
    """
    import hashlib

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        sh = np.fromiter(
            (
                int(hashlib.md5(str(i).encode()).hexdigest()[:15], 16) % _SSK_P
                for i in ids
            ),
            np.int64,
            len(ids),
        )
        s, c = np.unique(sh, return_counts=True)
        return pa.table(
            {
                "shard": pa.array(s, pa.int64()),
                "c": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    hist = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("shard")
        .aggregate(ray.data.aggregate.Sum("c", alias_name="c"))
        .take_all()  # ≤ P rows
    )
    counts = np.zeros(_SSK_P, np.int64)
    for r in hist:
        counts[int(r["shard"])] = int(r["c"])
    n = int(counts.sum())
    chi2_scaled = int(((np.int64(_SSK_P) * counts - n) ** 2).sum())
    return pa.table(
        {
            "n_shards": pa.array([_SSK_P], pa.int64()),
            "n_rows": pa.array([n], pa.int64()),
            "max_shard": pa.array([int(counts.max())], pa.int64()),
            "min_shard": pa.array([int(counts.min())], pa.int64()),
            "chi2_scaled": pa.array([chi2_scaled], pa.int64()),
            "max_imbalance": pa.array(
                [float(int(counts.max()) * _SSK_P) / float(n)], pa.float64()
            ),
            "chi2": pa.array(
                [float(chi2_scaled) / (float(_SSK_P) * float(n))], pa.float64()
            ),
        }
    )


SQL_SHARD_SKEW_STATS = f"""
WITH s AS (
  SELECT CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 15)) AS BIGINT)
           % {_SSK_P} AS shard
  FROM documents
),
h AS (
  SELECT shard, CAST(COUNT(*) AS BIGINT) AS c FROM s GROUP BY shard
),
full_h AS (
  SELECT r.i AS shard, COALESCE(h.c, 0) AS c
  FROM range({_SSK_P}) r(i) LEFT JOIN h ON h.shard = r.i
),
tot AS (SELECT CAST(SUM(c) AS BIGINT) AS n FROM full_h)
SELECT CAST({_SSK_P} AS BIGINT) AS n_shards, n AS n_rows, max_shard, min_shard,
       chi2_scaled,
       CAST(max_shard * {_SSK_P} AS DOUBLE) / CAST(n AS DOUBLE) AS max_imbalance,
       CAST(chi2_scaled AS DOUBLE) / (CAST({_SSK_P} AS DOUBLE) * CAST(n AS DOUBLE)) AS chi2
FROM (
  SELECT tot.n,
         CAST(MAX(c) AS BIGINT) AS max_shard,
         CAST(MIN(c) AS BIGINT) AS min_shard,
         CAST(SUM(CAST({_SSK_P} * c - tot.n AS HUGEINT)
                  * CAST({_SSK_P} * c - tot.n AS HUGEINT)) AS BIGINT)
           AS chi2_scaled
  FROM full_h, tot GROUP BY tot.n
)
"""
