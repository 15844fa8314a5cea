"""Twelfth-wave operators (round-3 continuation session, 2026-08-20).

Listed by name in ``queries.py``'s QUERIES/ORACLES.

House rules throughout: Arrow batches end to end, map-side partials
before any groupby, broadcast small sides via ``ray.put``, bucketed
union+groupby instead of ``Dataset.join``, and an operand-for-operand
DuckDB oracle for every query (integer accumulation, ln mirrored
operand-for-operand, float divisions mirrored operand-for-operand).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# softdedup_weights — frequency-based soft deduplication (reweight, not drop)
# ---------------------------------------------------------------------------


def q_softdedup_weights(sf_dir: str):
    """Soft deduplication: instead of DROPPING near-duplicates, assign
    each document a sampling weight from the corpus-wide commonness of
    its n-grams (SoftDeDup, He et al. 2024: reweighting recovers the
    training-efficiency win of hard dedup without discarding the tail
    of partially-novel text). The statistic here is the document's mean
    3-gram document frequency; the emitted ``rarity`` is
    ``ln(N * n_grams / sum_df)`` — ln of the inverse mean DF, 0 for a
    document whose every gram is unique, negative as grams become
    boilerplate.

    Distributed shape (the same two-bounded-shuffle pattern as
    ``stages/dedup.ngram_doc_freq_histogram``, whose postings stage is
    reused verbatim): (1) ``ngram_postings`` emits one 32-byte row per
    (distinct gram, doc) keyed by ``bucket = gram % P`` — documents
    never shuffle; (2) each gram bucket holds complete postings lists by
    construction, so the per-gram DF attaches IN PLACE (one vectorized
    transform per bucket, no join); (3) the (doc_id, df) int rows reduce
    through one built-in sort-shuffle groupby to per-doc (n_grams,
    sum_df). N is a parquet-metadata count broadcast as a closure
    constant. Everything that moves is fixed-width ints; the only float
    op is the final ln of an integer ratio, mirrored operand-for-operand
    in the oracle.

    Reference anchor: crawl4ai has no corpus-level dedup (per-page
    content filtering only, content_filter_strategy.py); this is part
    of the beyond-reference training-data family next to
    minhash/simhash/fingerprint dedup in ``stages/dedup.py``.
    """
    from ..stages.dedup import ngram_postings

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    n_docs = docs.count()

    posted = ngram_postings(docs, shingle=3, num_buckets=64)

    def attach_df(g: pa.Table) -> pa.Table:
        # bucket = gram % P co-locates every posting of a gram: DF is a
        # per-bucket groupby-transform, never a cross-bucket join
        # (arrow-native, r5: factorize + bincount broadcast-back)
        grams = np.asarray(g.column("gram").to_pylist(), dtype=object)
        _, inv = np.unique(grams, return_inverse=True)
        df = np.bincount(inv)[inv].astype(np.int64)
        return pa.table(
            {
                "doc_id": g.column("id").cast(pa.int64()),
                "df": pa.array(df, pa.int64()),
            }
        )

    per_doc = (
        posted.groupby("bucket")
        .map_groups(attach_df, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(
            ray.data.aggregate.Count(alias_name="n_grams"),
            ray.data.aggregate.Sum("df", alias_name="sum_df"),
        )
    )

    def finish(batch: pa.Table) -> pa.Table:
        import math

        n = batch.column("n_grams").to_numpy(zero_copy_only=False).astype(np.int64)
        s = batch.column("sum_df").to_numpy(zero_copy_only=False).astype(np.int64)
        # scalar libm log for bit-parity with DuckDB's ln (numpy's SIMD
        # log can differ in the last bit — sampling.py:466 precedent)
        rarity = np.fromiter(
            (
                math.log(float(n_docs) * float(ni) / float(si))
                for ni, si in zip(n, s)
            ),
            dtype=np.float64,
            count=len(n),
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_grams": pa.array(n, pa.int64()),
                "sum_df": pa.array(s, pa.int64()),
                "rarity": pa.array(rarity, pa.float64()),
            }
        )

    return per_doc.map_batches(finish, batch_format="pyarrow")


SQL_SOFTDEDUP_WEIGHTS = r"""
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS t
  FROM documents
),
grams AS (
  SELECT DISTINCT doc_id, g
  FROM (
    SELECT doc_id,
      CASE WHEN len(t) < 3 THEN [array_to_string(t, ' ')]
           ELSE [t[i] || ' ' || t[i+1] || ' ' || t[i+2]
                 FOR i IN generate_series(1, len(t) - 2)]
      END AS gl
    FROM toks WHERE len(t) > 0
  ), UNNEST(gl) AS u(g)
),
df AS (SELECT g, CAST(COUNT(*) AS BIGINT) AS c FROM grams GROUP BY g),
nn AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM documents),
per AS (
  SELECT doc_id,
         CAST(COUNT(*) AS BIGINT) AS n_grams,
         CAST(SUM(c) AS BIGINT) AS sum_df
  FROM grams JOIN df USING (g) GROUP BY doc_id
)
SELECT doc_id, n_grams, sum_df,
       ln(CAST(nn.n AS DOUBLE) * CAST(n_grams AS DOUBLE)
          / CAST(sum_df AS DOUBLE)) AS rarity
FROM per, nn
"""


# ---------------------------------------------------------------------------
# host_quality_shrunk — empirical-Bayes host-level quality prior
# ---------------------------------------------------------------------------

_HQS_PRIOR = 20  # pseudo-count pulled toward the corpus mean


def q_host_quality_shrunk(sf_dir: str):
    """Host-level quality prior with empirical-Bayes shrinkage: the
    per-host mean token count pulled toward the corpus mean by a
    pseudo-count of ``_HQS_PRIOR`` documents —
    ``shrunk = (sum + k·global_mean) / (n + k)``. A host seen 3 times
    stays near the prior; a host seen 10k times speaks for itself. This
    is the host-score shape DCLM-style curation uses to admit/demote
    whole domains without letting tiny hosts whipsaw the filter
    (James–Stein shrinkage of group means).

    Distributed shape: ONE map-side partial per batch (np.add.at into a
    50-slot (n, sum) accumulator — hosts are a bounded keyspace by
    construction) → a groupby over ≤50·P partial rows → the global
    moments fold from the same 50 final rows on the driver. Documents
    never shuffle; the shuffle payload is O(hosts), not O(docs). Float
    discipline: all sums integer; ``global_mean``, ``raw_mean`` and
    ``shrunk_mean`` are the only float expressions, mirrored
    operand-for-operand in the oracle (same operand order, same single
    rounding per op — IEEE doubles agree bit-exactly).

    Reference anchor: crawl4ai scores page-by-page
    (content_filter_strategy.py PruningContentFilter); host-level
    pooling is the beyond-reference curation operator next to
    ``host_gini``.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        did = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        host = np.where(did % 7 == 0, 0, did % 50)
        ntok = np.fromiter(
            (len((t or "").split()) for t in batch.column("text").to_pylist()),
            dtype=np.int64,
            count=len(did),
        )
        n = np.zeros(50, np.int64)
        s = np.zeros(50, np.int64)
        np.add.at(n, host, 1)
        np.add.at(s, host, ntok)
        keep = n > 0
        return pa.table(
            {
                "host_id": pa.array(np.nonzero(keep)[0].astype(np.int64)),
                "n": pa.array(n[keep], pa.int64()),
                "s": pa.array(s[keep], pa.int64()),
            }
        )

    agg = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("host_id")
        .aggregate(
            ray.data.aggregate.Sum("n", alias_name="n_docs"),
            ray.data.aggregate.Sum("s", alias_name="sum_tokens"),
        )
        .take_all()
    )  # ≤ 50 rows: the bounded-keyspace final fold belongs on the driver
    N = sum(int(r["n_docs"]) for r in agg)
    S = sum(int(r["sum_tokens"]) for r in agg)
    gmean = float(S) / float(N)
    k = _HQS_PRIOR
    rows = sorted(agg, key=lambda r: r["host_id"])
    host = [int(r["host_id"]) for r in rows]
    n = [int(r["n_docs"]) for r in rows]
    s = [int(r["sum_tokens"]) for r in rows]
    return pa.table(
        {
            "host_id": pa.array(host, pa.int64()),
            "n_docs": pa.array(n, pa.int64()),
            "sum_tokens": pa.array(s, pa.int64()),
            "raw_mean": pa.array(
                [float(si) / float(ni) for si, ni in zip(s, n)], pa.float64()
            ),
            "shrunk_mean": pa.array(
                [
                    (float(si) + float(k) * gmean) / float(ni + k)
                    for si, ni in zip(s, n)
                ],
                pa.float64(),
            ),
        }
    )


SQL_HOST_QUALITY_SHRUNK = r"""
WITH toks AS (
  SELECT doc_id,
         CASE WHEN doc_id % 7 = 0 THEN 0 ELSE doc_id % 50 END AS host_id,
         CAST(len(list_filter(regexp_split_to_array(text, '\s+'),
                              x -> x <> '')) AS BIGINT) AS n_tok
  FROM documents
),
per AS (
  SELECT host_id,
         CAST(COUNT(*) AS BIGINT) AS n_docs,
         CAST(SUM(n_tok) AS BIGINT) AS sum_tokens
  FROM toks GROUP BY host_id
),
g AS (
  SELECT CAST(SUM(n_docs) AS BIGINT) AS nn,
         CAST(SUM(sum_tokens) AS BIGINT) AS ss
  FROM per
)
SELECT host_id, n_docs, sum_tokens,
       CAST(sum_tokens AS DOUBLE) / CAST(n_docs AS DOUBLE) AS raw_mean,
       (CAST(sum_tokens AS DOUBLE)
        + CAST({k} AS DOUBLE) * (CAST(g.ss AS DOUBLE) / CAST(g.nn AS DOUBLE)))
       / CAST(n_docs + {k} AS DOUBLE) AS shrunk_mean
FROM per, g
"""


# ---------------------------------------------------------------------------
# parallel_url_pairs — bitext mining by URL structure (ParaCrawl-style)
# ---------------------------------------------------------------------------

_PUP_BUCKETS = 16


def q_parallel_url_pairs(sf_dir: str):
    """Parallel-document candidate mining by URL structure: pages of the
    SAME host and SAME article slug in DIFFERENT languages are bitext
    candidates (the URL-matching stage of ParaCrawl, Bañón et al. 2020
    — /en/article/42 vs /fr/article/42). One canonical representative
    per (host, article, lang) — the MIN doc_id, i.e. the earliest crawl
    of that language version — then all cross-language representative
    pairs, ``lang_a < lang_b``.

    Synthetic URL model (mirrored in SQL): host per the corpus-wide
    pages convention (doc_id % 7 == 0 → host 0, the planted heavy
    hitter, else doc_id % 50); article slug = (doc_id // 50) % 3.

    Distributed shape: ONE ``hash(host, article) % P`` shuffle of
    12-byte-plus-lang rows; each bucket holds complete (host, article)
    groups by construction, so representative selection AND the
    cross-language pairing are two vectorized pandas passes per bucket
    (groupby-min, then a self-merge on the group key) — no
    ``Dataset.join``, no per-group scheduling unit (groups-per-unit =
    P, the asof_join / sessionize contract). Pair fan-out per group is
    ≤ |langs|² — bounded by the language inventory, not the group size,
    because only representatives pair.

    Reference anchor: crawl4ai exposes per-page ``lang`` metadata and
    URL normalization (utils.py normalize_url) but no cross-document
    alignment; this is a beyond-reference web-corpus operator.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )

    def keyed(batch: pa.Table) -> pa.Table:
        did = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        host = np.where(did % 7 == 0, 0, did % 50)
        art = (did // 50) % 3
        return pa.table(
            {
                "bucket": pa.array((host * 31 + art) % _PUP_BUCKETS, pa.int64()),
                "host_id": pa.array(host, pa.int64()),
                "article": pa.array(art, pa.int64()),
                "lang": batch.column("lang"),
                "doc_id": batch.column("doc_id"),
            }
        )

    def pair_bucket(g: pa.Table) -> pa.Table:
        # arrow-native (r5): lexsorted rep selection + per-(host,article)
        # run cross products with lang_a < lang_b
        host = g.column("host_id").to_numpy(zero_copy_only=False).astype(np.int64)
        art = g.column("article").to_numpy(zero_copy_only=False).astype(np.int64)
        lang = np.asarray(g.column("lang").to_pylist(), dtype=object)
        did = g.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        # representative per (host, article, lang) = min doc_id
        o = np.lexsort((did, lang, art, host))
        host, art, lang, did = host[o], art[o], lang[o], did[o]
        first = np.r_[
            True,
            (host[1:] != host[:-1]) | (art[1:] != art[:-1])
            | (lang[1:] != lang[:-1]),
        ] if len(host) else np.zeros(0, bool)
        host, art, lang, did = host[first], art[first], lang[first], did[first]
        # per (host, article) run: ordered lang pairs a < b
        starts = np.flatnonzero(
            np.r_[True, (host[1:] != host[:-1]) | (art[1:] != art[:-1])]
        ) if len(host) else np.zeros(0, np.int64)
        ends = np.r_[starts[1:], len(host)] if len(host) else np.zeros(0, np.int64)
        H, A, LA, LB, DA, DB = [], [], [], [], [], []
        for s, t in zip(starts, ends):
            m = t - s
            if m < 2:
                continue
            ia, ib = np.triu_indices(m, k=1)  # langs sorted asc in run
            H.append(np.full(len(ia), host[s], np.int64))
            A.append(np.full(len(ia), art[s], np.int64))
            LA.append(lang[s:t][ia])
            LB.append(lang[s:t][ib])
            DA.append(did[s:t][ia])
            DB.append(did[s:t][ib])
        if not H:
            z = pa.array([], pa.int64())
            return pa.table(
                {"host_id": z, "article": z,
                 "lang_a": pa.array([], pa.string()),
                 "lang_b": pa.array([], pa.string()),
                 "doc_a": z, "doc_b": z}
            )
        return pa.table(
            {
                "host_id": pa.array(np.concatenate(H), pa.int64()),
                "article": pa.array(np.concatenate(A), pa.int64()),
                "lang_a": pa.array(np.concatenate(LA).tolist(), pa.string()),
                "lang_b": pa.array(np.concatenate(LB).tolist(), pa.string()),
                "doc_a": pa.array(np.concatenate(DA), pa.int64()),
                "doc_b": pa.array(np.concatenate(DB), pa.int64()),
            }
        )

    return (
        docs.map_batches(keyed, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(pair_bucket, batch_format="pyarrow")
    )


SQL_PARALLEL_URL_PAIRS = r"""
WITH base AS (
  SELECT doc_id,
         CASE WHEN doc_id % 7 = 0 THEN 0 ELSE doc_id % 50 END AS host_id,
         (doc_id // 50) % 3 AS article,
         lang
  FROM documents
),
reps AS (
  SELECT host_id, article, lang, MIN(doc_id) AS d
  FROM base GROUP BY host_id, article, lang
)
SELECT a.host_id, a.article,
       a.lang AS lang_a, b.lang AS lang_b,
       a.d AS doc_a, b.d AS doc_b
FROM reps a
JOIN reps b
  ON b.host_id = a.host_id AND b.article = a.article AND a.lang < b.lang
"""
