"""Thirteenth-wave operators (round-3 continuation session, 2026-08-20).

Listed by name in ``queries.py``'s QUERIES/ORACLES.

House rules throughout: Arrow batches end to end, map-side partials
before any groupby, broadcast small sides via ``ray.put``, bucketed
union+groupby instead of ``Dataset.join``, and an operand-for-operand
DuckDB oracle for every query (integer accumulation, float divisions
mirrored operand-for-operand, scalar libm for transcendentals).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# stopword_induction — per-language stopword discovery by document frequency
# ---------------------------------------------------------------------------


def q_stopword_induction(sf_dir: str):
    """Corpus-driven stopword induction: the top-20 terms per language by
    document frequency — the first step of building a language-specific
    stopword list from a raw crawl (used by quality scoring, BM25 and the
    lang-id profiles instead of a shipped static list).

    Distributed shape: one map over documents emits per-batch partial
    (lang, term, df) counts from per-doc DISTINCT tokens (a Counter
    combine inside the batch — the shuffle carries one row per distinct
    (lang, term) per batch, not per token occurrence), one built-in
    groupby-sum, then the shared two-level ``grouped_topk`` (map-side
    head-k prune + ONE hash(lang)%P bucket groupby — P scheduling units,
    not |langs|). Ties break on term ASC for determinism, mirroring
    ``row_number() OVER (PARTITION BY lang ORDER BY df DESC, term)``.

    Reference anchor: crawl4ai ships no corpus statistics; its BM25
    content filter uses a fixed English stopword set
    (content_filter_strategy.py) — this derives one from the corpus.
    """
    from collections import Counter

    from ..stages.agg import grouped_topk

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "text"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for lang, t in zip(
            batch.column("lang").to_pylist(), batch.column("text").to_pylist()
        ):
            for term in set((t or "").split()):
                c[(lang, term)] += 1
        keys = sorted(c)
        return pa.table(
            {
                "lang": pa.array([k[0] for k in keys], pa.string()),
                "term": pa.array([k[1] for k in keys], pa.string()),
                "df": pa.array([c[k] for k in keys], pa.int64()),
            }
        )

    df = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "term"])
        .aggregate(ray.data.aggregate.Sum("df", alias_name="df"))
    )
    return grouped_topk(
        df, key="lang", value="df", k=20, extra_cols=("term",), tie_col="term"
    )


SQL_STOPWORD_INDUCTION = r"""
WITH toks AS (
  SELECT lang, unnest(list_distinct(
           list_filter(regexp_split_to_array(text, '\s+'), x -> x <> ''))) AS term
  FROM documents
),
df AS (
  SELECT lang, term, CAST(COUNT(*) AS BIGINT) AS df
  FROM toks GROUP BY lang, term
),
r AS (
  SELECT lang, term, df,
         row_number() OVER (PARTITION BY lang ORDER BY df DESC, term) AS rank
  FROM df
)
SELECT lang, term, df, CAST(rank AS BIGINT) AS rank FROM r WHERE rank <= 20
"""


# ---------------------------------------------------------------------------
# events_sliding_distinct — distinct users per 1h window sliding by 15min
# ---------------------------------------------------------------------------

_ESD_HOP_US = 900_000_000  # 15 min in microseconds
_ESD_STEPS = 4  # 1h window = 4 hops


def q_events_sliding_distinct(sf_dir: str):
    """Distinct active users per sliding window (1 h window, 15 min hop) —
    the overlapping-window companion to ``events_hopping``'s aligned
    windows, with a COUNT(DISTINCT) body instead of a sum. Each event
    lands in exactly 4 windows: window_start = floor15(ts) − i·15min,
    i ∈ 0..3.

    Distributed shape: one map explodes each event to its 4
    (window_start, user) rows with a per-batch drop-duplicates (bounded
    blowup: ≤ 4× rows, deduped before the shuffle), one groupby on the
    PAIR (window, user) collapses to global distinct pairs, then a second
    groupby on window counts them. Both shuffles carry fixed-width ints
    only. At 100 TB the pair-groupby dominates; it is the unavoidable
    exact-distinct exchange (the sketched alternative is
    ``distinct_users_hll``).
    """
    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "user_id"])

    def explode(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        uid = batch.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        w0 = (us // _ESD_HOP_US) * _ESD_HOP_US
        ws = np.concatenate([w0 - i * _ESD_HOP_US for i in range(_ESD_STEPS)])
        uu = np.tile(uid, _ESD_STEPS)
        # batch-local (ws, user) dedup via a lexsorted run mask (r5)
        o = np.lexsort((uu, ws))
        ws_s, uu_s = ws[o], uu[o]
        keep = np.r_[True, (ws_s[1:] != ws_s[:-1]) | (uu_s[1:] != uu_s[:-1])] if len(ws_s) else np.zeros(0, bool)
        return pa.table(
            {
                "ws": pa.array(ws_s[keep], pa.int64()),
                "user_id": pa.array(uu_s[keep], pa.int64()),
            }
        )

    pairs = (
        ev.map_batches(explode, batch_format="pyarrow")
        .groupby(["ws", "user_id"])
        .aggregate(ray.data.aggregate.Count(alias_name="c"))
    )

    def drop_c(batch: pa.Table) -> pa.Table:
        return batch.select(["ws"])

    counted = (
        pairs.map_batches(drop_c, batch_format="pyarrow")
        .groupby("ws")
        .aggregate(ray.data.aggregate.Count(alias_name="n_users"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "window_start": batch.column("ws").cast(pa.timestamp("us")),
                "n_users": batch.column("n_users").cast(pa.int64()),
            }
        )

    return counted.map_batches(finish, batch_format="pyarrow")


SQL_EVENTS_SLIDING_DISTINCT = f"""
WITH e AS (
  SELECT epoch_us(ts) AS us, user_id FROM events
),
pairs AS (
  SELECT DISTINCT
         (us // {_ESD_HOP_US}) * {_ESD_HOP_US}
           - CAST(i.i AS BIGINT) * {_ESD_HOP_US} AS ws,
         user_id
  FROM e, LATERAL UNNEST([0, 1, 2, 3]) AS i(i)
)
SELECT make_timestamp(ws) AS window_start,
       CAST(COUNT(*) AS BIGINT) AS n_users
FROM pairs GROUP BY ws
"""


# ---------------------------------------------------------------------------
# borda_quality — rank-aggregated quality ensemble (Borda count)
# ---------------------------------------------------------------------------


def q_borda_quality(sf_dir: str):
    """Quality ensembling by rank aggregation: three per-doc signals
    (n_chars, token count, distinct-token count) are each ranked
    corpus-wide (RANK semantics: 1 + #docs strictly greater, ties share
    the min rank) and summed into a Borda score; output the top-50 docs
    by (borda ASC, doc_id ASC). Rank aggregation is the standard way to
    combine incommensurable quality signals without tuning weights
    (cf. ensemble filtering in DataComp-LM-style pipelines).

    Distributed shape — NO global sort for the ranks: one map computes
    the signals, a per-signal VALUE HISTOGRAM (groupby(signal, value)
    count — small because the value domains are bounded: chars/tokens
    per doc) is collected once and broadcast via ``ray.put``; a second
    map attaches all three ranks via np.searchsorted against the
    cumulative histogram (rank_desc(v) = 1 + total − #{≤ v}). The only
    sort is the final top-50 sort+limit on (borda, doc_id). At 100 TB the
    histogram stays small while docs never shuffle; for unbounded-domain
    signals the value-range-bucketed rank of ``host_gini`` substitutes.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars", "text"]
    )

    def signals(batch: pa.Table) -> pa.Table:
        toks = [(t or "").split() for t in batch.column("text").to_pylist()]
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "n_chars": batch.column("n_chars").cast(pa.int64()),
                "n_tok": pa.array([len(t) for t in toks], pa.int64()),
                "n_distinct": pa.array([len(set(t)) for t in toks], pa.int64()),
            }
        )

    sig = docs.map_batches(signals, batch_format="pyarrow").materialize()

    def hist_partial(batch: pa.Table) -> pa.Table:
        outs = []
        for i, col in enumerate(("n_chars", "n_tok", "n_distinct")):
            v, c = np.unique(
                batch.column(col).to_numpy(zero_copy_only=False), return_counts=True
            )
            outs.append(
                pa.table(
                    {
                        "sig": pa.array(np.full(len(v), i, np.int64), pa.int64()),
                        "val": pa.array(v.astype(np.int64), pa.int64()),
                        "cnt": pa.array(c.astype(np.int64), pa.int64()),
                    }
                )
            )
        return pa.concat_tables(outs)

    hist = (
        sig.map_batches(hist_partial, batch_format="pyarrow")
        .groupby(["sig", "val"])
        .aggregate(ray.data.aggregate.Sum("cnt", alias_name="cnt"))
        .to_pandas()  # bounded: (sig position × quantized value) histogram cells
    )
    lut = {}
    for i in range(3):
        h = hist[hist["sig"] == i].sort_values("val")
        vals = h["val"].to_numpy(np.int64)
        cum = np.cumsum(h["cnt"].to_numpy(np.int64))  # #{<= vals[j]}
        total = int(cum[-1]) if len(cum) else 0
        lut[i] = (vals, cum, total)
    ref = ray.put(lut)

    def attach_ranks(batch: pa.Table, _ref=ref) -> pa.Table:
        t = ray.get(_ref)
        cols = {"doc_id": batch.column("doc_id")}
        ranks = []
        for i, col in enumerate(("n_chars", "n_tok", "n_distinct")):
            vals, cum, total = t[i]
            v = batch.column(col).to_numpy(zero_copy_only=False)
            idx = np.searchsorted(vals, v, side="right") - 1
            le = cum[idx]  # vals always present: histogram covers every value
            ranks.append(1 + total - le)
        for name, r in zip(("r_chars", "r_tok", "r_distinct"), ranks):
            cols[name] = pa.array(r.astype(np.int64), pa.int64())
        cols["borda"] = pa.array(
            (ranks[0] + ranks[1] + ranks[2]).astype(np.int64), pa.int64()
        )
        return pa.table(cols)

    return (
        sig.map_batches(attach_ranks, batch_format="pyarrow")
        .sort(["borda", "doc_id"])
        .limit(50)
    )


SQL_BORDA_QUALITY = r"""
WITH sig AS (
  SELECT doc_id, n_chars,
         len(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> ''))
           AS n_tok,
         len(list_distinct(
           list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '')))
           AS n_distinct
  FROM documents
),
r AS (
  SELECT doc_id,
         CAST(RANK() OVER (ORDER BY n_chars DESC) AS BIGINT) AS r_chars,
         CAST(RANK() OVER (ORDER BY n_tok DESC) AS BIGINT) AS r_tok,
         CAST(RANK() OVER (ORDER BY n_distinct DESC) AS BIGINT) AS r_distinct
  FROM sig
)
SELECT doc_id, r_chars, r_tok, r_distinct,
       r_chars + r_tok + r_distinct AS borda
FROM r
ORDER BY borda, doc_id
LIMIT 50
"""


# ---------------------------------------------------------------------------
# postings_delta_size — inverted-index size estimate via delta+varint coding
# ---------------------------------------------------------------------------

_PDS_BUCKETS = 32


def q_postings_delta_size(sf_dir: str):
    """Index-compaction planning readout: the exact on-disk byte size of
    each term's postings list under the classic delta + LEB128-varint
    coding (first doc_id raw varint, then gap varints) — the number an
    index compactor (cf. ``merge_term_indexes``) uses to pick segment
    sizes and to spot bloat terms whose postings should be bitmap- or
    skip-encoded instead.

    Distributed shape: one map emits per-doc DISTINCT (term, doc_id)
    postings keyed by hash(term)%P (documents never shuffle; one
    fixed-width row per posting), then ONE bucket groupby where each
    bucket holds complete postings lists by construction — sort by
    (term, doc_id), vectorized per-term deltas via shift-compare, varint
    byte counts via threshold sums, and a per-term reduce, all inside the
    bucket. Integer-only end to end.
    """
    from ..functions.hashing import hash64

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def postings(batch: pa.Table) -> pa.Table:
        terms: list[str] = []
        ids: list[int] = []
        for did, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            toks = set((t or "").split())
            terms.extend(toks)
            ids.extend([did] * len(toks))
        if terms:
            bucket = (
                hash64(np.array(terms, dtype=object)).astype(np.uint64)
                % np.uint64(_PDS_BUCKETS)
            ).astype(np.int64)
        else:
            bucket = np.array([], np.int64)
        return pa.table(
            {
                "bucket": pa.array(bucket, pa.int64()),
                "term": pa.array(terms, pa.string()),
                "doc_id": pa.array(np.asarray(ids, np.int64), pa.int64()),
            }
        )

    def per_bucket(g: pa.Table) -> pa.Table:
        # arrow-native (r5)
        g = g.sort_by([("term", "ascending"), ("doc_id", "ascending")])
        terms = np.asarray(g.column("term").to_pylist(), dtype=object)
        ids = g.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        first = np.ones(len(ids), bool)
        first[1:] = terms[1:] != terms[:-1]
        prev = np.empty_like(ids)
        prev[1:] = ids[:-1]
        prev[0] = 0
        delta = np.where(first, ids, ids - prev)
        vb = (
            1
            + (delta >= 128).astype(np.int64)
            + (delta >= 16384).astype(np.int64)
            + (delta >= 2097152).astype(np.int64)
            + (delta >= 268435456).astype(np.int64)
        )
        # fold per sorted term run: df = run length, bytes = run sum
        run_id = np.cumsum(first) - 1
        df = np.bincount(run_id).astype(np.int64)
        ib = np.bincount(run_id, weights=vb).astype(np.int64)
        return pa.table(
            {
                "term": pa.array(terms[first].tolist(), pa.string()),
                "df": pa.array(df, pa.int64()),
                "index_bytes": pa.array(ib, pa.int64()),
            }
        )

    return (
        docs.map_batches(postings, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
    )


SQL_POSTINGS_DELTA_SIZE = r"""
WITH toks AS (
  SELECT doc_id,
         unnest(list_distinct(
           list_filter(regexp_split_to_array(text, '\s+'), x -> x <> ''))) AS term
  FROM documents
),
d AS (
  SELECT term, doc_id,
         COALESCE(doc_id - lag(doc_id)
                    OVER (PARTITION BY term ORDER BY doc_id),
                  doc_id) AS delta
  FROM toks
)
SELECT term, CAST(COUNT(*) AS BIGINT) AS df,
       CAST(SUM(1 + CAST(delta >= 128 AS BIGINT)
                  + CAST(delta >= 16384 AS BIGINT)
                  + CAST(delta >= 2097152 AS BIGINT)
                  + CAST(delta >= 268435456 AS BIGINT)) AS BIGINT) AS index_bytes
FROM d GROUP BY term
"""
