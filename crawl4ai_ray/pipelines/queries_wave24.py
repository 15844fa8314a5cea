"""Twenty-fourth-wave operators (round-3 continuation session,
2026-08-20).

Listed by name in ``queries.py``'s QUERIES/ORACLES.

New machinery this wave: ``stages/rank.py`` — distributed global ranking
(TeraSort sample-boundary composition) + sorted-neighborhood windowed
pairs, reused by ``snm_pairs``.

House rules: md5-slice integers wherever a hash must be recomputable in
SQL; integer accumulation with one mirrored division; map-side partials
before the one groupby.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# snm_pairs — sorted-neighborhood-method dedup candidates
# ---------------------------------------------------------------------------

_SNM_WINDOW = 4


def q_snm_pairs(sf_dir: str):
    """Sorted-Neighborhood Method (SNM) dedup candidates — the classic
    entity-resolution alternative to LSH blocking (Hernández & Stolfo,
    SIGMOD'95): sort all records by a blocking key, then compare only
    records within a fixed window of the sort order. Corpus = every doc
    plus a planted near-copy (text minus its first token, id + n); key =
    the doc's sorted distinct-token set — near-copies whose dropped
    token recurs later keep an IDENTICAL key and become sort-adjacent.

    Output: every (a, b) pair within rank window 4 under
    (key ASC, id ASC), with the rank distance and a same_key flag (the
    SNM hit signal).

    Distributed shape (stages/rank.py): deterministic boundary sample →
    range buckets → two-level count scan → per-bucket local sort gives
    every row its exact global rank WITHOUT any driver-side sort of the
    data; window pairs are emitted per rank-chunk with boundary rows
    replicated to at most one neighboring chunk (no self-join).
    """
    from ..stages.rank import ranked_by_key, windowed_pairs

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    n_docs = docs.count()

    def keyed(batch: pa.Table) -> pa.Table:
        ids_out, keys = [], []
        for did, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            toks = (t or "").split()
            ids_out.append(did)
            keys.append(" ".join(sorted(set(toks))))
            ids_out.append(did + n_docs)
            keys.append(" ".join(sorted(set(toks[1:]))))
        return pa.table(
            {
                "id": pa.array(ids_out, pa.int64()),
                "key": pa.array(keys, pa.string()),
            }
        )

    dup = docs.map_batches(keyed, batch_format="pyarrow")
    ranked = ranked_by_key(dup, key_col="key", id_col="id", num_buckets=8)
    pairs = windowed_pairs(ranked, window=_SNM_WINDOW, id_col="id", carry_cols=["key"])

    def finish(batch: pa.Table) -> pa.Table:
        ka = batch.column("key_a").to_pylist()
        kb = batch.column("key_b").to_pylist()
        return pa.table(
            {
                "a": batch.column("a").cast(pa.int64()),
                "b": batch.column("b").cast(pa.int64()),
                "rank_dist": batch.column("rank_dist").cast(pa.int64()),
                "same_key": pa.array(
                    [int(x == y) for x, y in zip(ka, kb)], pa.int64()
                ),
            }
        )

    return pairs.map_batches(finish, batch_format="pyarrow")


SQL_SNM_PAIRS = rf"""
WITH nn AS (SELECT CAST(COUNT(*) AS BIGINT) AS c FROM documents),
toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS t
  FROM documents
),
dup AS (
  SELECT doc_id AS id, t FROM toks
  UNION ALL
  SELECT doc_id + nn.c, t[2:] FROM toks, nn
),
keyed AS (
  SELECT id, array_to_string(list_sort(list_distinct(t)), ' ') AS k
  FROM dup
),
r AS (
  SELECT id, k, row_number() OVER (ORDER BY k, id) - 1 AS rank
  FROM keyed
)
SELECT a.id AS a, b.id AS b,
       CAST(b.rank - a.rank AS BIGINT) AS rank_dist,
       CASE WHEN a.k = b.k THEN 1 ELSE 0 END AS same_key
FROM r a JOIN r b ON b.rank - a.rank BETWEEN 1 AND {_SNM_WINDOW}
"""


# ---------------------------------------------------------------------------
# events_watermark — streaming late-event accounting under a watermark
# ---------------------------------------------------------------------------

_WM_JITTER_MOD = 1000003
# arrival delay = (id·M mod 1000003) · 600 µs → 0..600 s. NOTE the scale
# comes from the MULTIPLIER, not a second mod: (id·M mod 1000003) is
# always < 1e6 µs, so "% 120e6" would never bind and no event could ever
# be late (caught by the hand test on the first cut).
_WM_JITTER_SCALE = 600
_WM_LATENESS_US = 60_000_000  # allowed lateness 60 s
_WM_WINDOW_US = 600_000_000  # 10-min tumbling event-time windows
_WM_BUCKET_US = 14_400_000_000  # 4 h arrival-order scan buckets


def q_events_watermark(sf_dir: str):
    """Streaming watermark semantics over the events table: events
    arrive out of order (arrival = event time + a deterministic 0–120 s
    per-event jitter); the watermark is the running max event-time seen
    over STRICTLY earlier arrivals minus a 60 s allowed lateness, and an
    event whose event-time is already below the watermark when it
    arrives is late (a real streaming engine would drop or side-output
    it). Output: per 10-minute event-time tumbling window, total events
    and how many arrived late — the number that sizes the lateness
    allowance for any windowed aggregate over this stream.

    Distributed shape: the arrival-order running max is a sequential
    recurrence; it distributes as the two-level scan (the
    stages/packing.py pattern) keyed by ORDERED arrival-time range
    buckets: per-bucket max → tiny driver prefix fold → one vectorized
    per-bucket pass (sort, shifted cummax, rebase on the bucket's
    exclusive prefix), then ONE window groupby.
    """
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts"]
    )

    def tag(batch: pa.Table) -> pa.Table:
        eid = batch.column("event_id").to_numpy(zero_copy_only=False).astype(np.int64)
        ts_us = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        jit = ((eid * 2654435761) % _WM_JITTER_MOD) * _WM_JITTER_SCALE
        arr = ts_us + jit
        return pa.table(
            {
                "bucket": pa.array(arr // _WM_BUCKET_US, pa.int64()),
                "arr": pa.array(arr, pa.int64()),
                "event_id": pa.array(eid, pa.int64()),
                "ts_us": pa.array(ts_us, pa.int64()),
            }
        )

    tagged = ev.map_batches(tag, batch_format="pyarrow")

    totals = (
        tagged.groupby("bucket")
        .aggregate(ray.data.aggregate.Max("ts_us", alias_name="mx"))
        .take_all()  # bounded: one row per bucket (bounded key domain)
    )
    totals.sort(key=lambda r: r["bucket"])
    prefix: dict[int, int] = {}
    acc = np.iinfo(np.int64).min
    for row in totals:
        prefix[int(row["bucket"])] = acc
        acc = max(acc, int(row["mx"]))
    prefix_ref = ray.put(prefix)

    def per_bucket(g: pa.Table) -> pa.Table:
        # arrow-native (r5)
        base = ray.get(prefix_ref)[int(g.column("bucket")[0].as_py())]
        g = g.sort_by([("arr", "ascending"), ("event_id", "ascending")])
        ts = g.column("ts_us").to_numpy(zero_copy_only=False)
        cm = np.maximum.accumulate(ts)
        wm = np.empty(len(ts), np.int64)
        wm[0] = base
        if len(ts) > 1:
            wm[1:] = np.maximum(cm[:-1], base)
        # base is the int64-min sentinel for the first bucket: wm - L
        # would underflow, so guard on the sentinel explicitly
        late = (wm != np.iinfo(np.int64).min) & (ts < wm - _WM_LATENESS_US)
        return pa.table(
            {
                "win_id": pa.array(ts // _WM_WINDOW_US, pa.int64()),
                "late": pa.array(late.astype(np.int64), pa.int64()),
            }
        )

    return (
        tagged.groupby("bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
        .groupby("win_id")
        .aggregate(
            ray.data.aggregate.Count(alias_name="n_total"),
            ray.data.aggregate.Sum("late", alias_name="n_late"),
        )
    )


SQL_EVENTS_WATERMARK = f"""
WITH e AS (
  SELECT event_id, epoch_us(ts) AS ts_us,
         epoch_us(ts) + ((event_id * 2654435761) % {_WM_JITTER_MOD})
                        * {_WM_JITTER_SCALE} AS arr
  FROM events
),
w AS (
  SELECT ts_us,
         MAX(ts_us) OVER (
           ORDER BY arr, event_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
         ) AS wm
  FROM e
)
SELECT CAST(ts_us // {_WM_WINDOW_US} AS BIGINT) AS win_id,
       CAST(COUNT(*) AS BIGINT) AS n_total,
       CAST(SUM(CASE WHEN wm IS NOT NULL
                      AND ts_us < wm - {_WM_LATENESS_US}
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_late
FROM w GROUP BY 1
"""


# ---------------------------------------------------------------------------
# bootstrap_mean_ci — distributed Poisson bootstrap confidence interval
# ---------------------------------------------------------------------------

_BT_B = 64  # resamples
_BT_KMAX = 9  # Poisson(1) inverse-CDF support 0..9 (tail mass ~1e-7 lumped)

# integer thresholds T_k = floor(P(Poisson(1) <= k) * 2^48): weight(u48) =
# #{k : T_k <= u48}. Frozen as integers so BOTH engines compare integers —
# no transcendental parity risk survives into the query.
_BT_THRESH: list[int] = []
_cdf = 0.0
for _k in range(_BT_KMAX):
    _cdf += math.exp(-1.0) / math.factorial(_k)
    _BT_THRESH.append(math.floor(_cdf * (1 << 48)))


def _bt_u48(doc_id: int, b: int) -> int:
    return int(
        hashlib.md5(f"{doc_id}|{b}".encode()).hexdigest()[:12], 16
    )


def q_bootstrap_mean_ci(sf_dir: str):
    """Distributed Poisson bootstrap (the resampling scheme that works
    on a stream: each row draws an independent Poisson(1) replication
    count per resample, so no resample ever needs the dataset length up
    front): a 95% CI for the mean document length from B=64 resamples.
    The per-(doc, resample) weight is the Poisson(1) inverse CDF at a
    48-bit md5-slice uniform — both engines compare the SAME integers
    against the SAME frozen thresholds, so every resample's (Σw, Σw·x)
    is exact; the resample mean is the one mirrored division and the CI
    endpoints are order statistics 2 and 63 of the 64 means.

    Distributed shape: per-batch (resample, Σw, Σw·x) partials — B
    accumulator rows per batch regardless of batch size — ONE
    groupby(resample) over 64 keys, then a driver fold over 64 rows.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    thresh = np.array(_BT_THRESH, dtype=np.int64)

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        xs = batch.column("n_chars").to_pylist()
        sw = np.zeros(_BT_B, np.int64)
        swx = np.zeros(_BT_B, np.int64)
        n = np.int64(0)
        sx = np.int64(0)
        for did, x in zip(ids, xs):
            n += 1
            sx += x
            u = np.array(
                [_bt_u48(did, b) for b in range(_BT_B)], dtype=np.int64
            )
            w = (thresh[None, :] <= u[:, None]).sum(axis=1)
            sw += w
            swx += w * np.int64(x)
        return pa.table(
            {
                "b": pa.array(np.arange(_BT_B), pa.int64()),
                "sw": pa.array(sw, pa.int64()),
                "swx": pa.array(swx, pa.int64()),
                "n": pa.array(np.full(_BT_B, n), pa.int64()),
                "sx": pa.array(np.full(_BT_B, sx), pa.int64()),
            }
        )

    rows = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("b")
        .aggregate(
            ray.data.aggregate.Sum("sw", alias_name="sw"),
            ray.data.aggregate.Sum("swx", alias_name="swx"),
            ray.data.aggregate.Sum("n", alias_name="n"),
            ray.data.aggregate.Sum("sx", alias_name="sx"),
        )
        .take_all()  # exactly B rows
    )
    means = sorted(
        (float(r["swx"]) / float(r["sw"]), int(r["b"]))
        for r in rows
        if int(r["sw"]) > 0
    )
    n_total = int(rows[0]["n"])
    sum_x = int(rows[0]["sx"])
    return pa.table(
        {
            "n_resamples": pa.array([len(means)], pa.int64()),
            "ci_lo": pa.array([means[1][0]], pa.float64()),
            "ci_hi": pa.array([means[_BT_B - 2][0]], pa.float64()),
            "mean_all": pa.array(
                [float(sum_x) / float(n_total)], pa.float64()
            ),
        }
    )


def _sql_bootstrap_mean_ci() -> str:
    th_rows = ", ".join(f"({t})" for t in _BT_THRESH)
    return f"""
WITH th(t) AS (VALUES {th_rows}),
rs AS (SELECT CAST(b AS BIGINT) AS b FROM range({_BT_B}) t(b)),
u AS (
  SELECT d.n_chars, rs.b,
         CAST(('0x' || substr(md5(CAST(d.doc_id AS VARCHAR) || '|'
                                  || CAST(rs.b AS VARCHAR)), 1, 12))
              AS BIGINT) AS u48
  FROM documents d, rs
),
w AS (
  SELECT b, n_chars,
         (SELECT COUNT(*) FROM th WHERE th.t <= u.u48) AS wt
  FROM u
),
m AS (
  SELECT b, CAST(SUM(wt) AS BIGINT) AS sw,
         CAST(SUM(wt * n_chars) AS BIGINT) AS swx
  FROM w GROUP BY b
),
means AS (
  SELECT b, CAST(swx AS DOUBLE) / CAST(sw AS DOUBLE) AS mean,
         row_number() OVER (
           ORDER BY CAST(swx AS DOUBLE) / CAST(sw AS DOUBLE), b
         ) AS rn
  FROM m WHERE sw > 0
)
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM means) AS n_resamples,
       (SELECT mean FROM means WHERE rn = 2) AS ci_lo,
       (SELECT mean FROM means WHERE rn = {_BT_B - 1}) AS ci_hi,
       (SELECT CAST(SUM(n_chars) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE)
        FROM documents) AS mean_all
"""


# ---------------------------------------------------------------------------
# simhash_radius_eval — hamming-radius operating curve vs exact Jaccard
# ---------------------------------------------------------------------------

_SRE_BITS = 48


def q_simhash_radius_eval(sf_dir: str):
    """The simhash operating curve — for the planted near-copy pair
    family (doc vs doc minus its first token), the distribution of
    48-bit simhash hamming distances and the mean exact token-set
    Jaccard at each distance. This is the measurement a hamming-radius
    threshold (simhash_pairs' ``max_hamming``) is chosen from: it shows
    what similarity a given radius actually admits on THIS corpus
    (the simhash sibling of minhash_lsh_eval / lsh_band_curve).

    The signature derivation is md5-slice token hashes (48 bits) with
    multiplicity-weighted bit votes — recomputable in SQL — NOT the
    engine's production fnv-1a simhash (stages/dedup.py), whose hash is
    deliberately not SQL-expressible; the operating-curve shape is a
    property of the vote construction, not the hash family.

    Float discipline: per-pair Jaccard is fixed-point-quantized; each
    hamming bin folds exact integer (n, Σjq); mean_j is the mirrored
    division. Distributed shape: pair-local map partials, ONE
    groupby(hamming).
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    ks = np.arange(_SRE_BITS, dtype=np.int64)

    def sig_of(toks: list, cache: dict) -> np.ndarray:
        hv = np.empty(len(toks), np.int64)
        for i, t in enumerate(toks):
            v = cache.get(t)
            if v is None:
                v = int(hashlib.md5(t.encode()).hexdigest()[:12], 16)
                cache[t] = v
            hv[i] = v
        bits = (hv[:, None] >> ks[None, :]) & 1
        votes = (2 * bits - 1).sum(axis=0)
        return votes > 0

    def partial(batch: pa.Table) -> pa.Table:
        cache: dict = {}
        acc: dict[int, list] = {}
        for t in batch.column("text").to_pylist():
            toks = (t or "").split()
            if len(toks) < 2:
                continue
            sa = sig_of(toks, cache)
            sb = sig_of(toks[1:], cache)
            d = int((sa != sb).sum())
            xa, xb = set(toks), set(toks[1:])
            j = float(len(xa & xb)) / float(len(xa | xb))
            jq = math.floor(j * 1e9 + 0.5)
            slot = acc.setdefault(d, [0, 0])
            slot[0] += 1
            slot[1] += jq
        hs = sorted(acc)
        return pa.table(
            {
                "hamming": pa.array(hs, pa.int64()),
                "n_pairs": pa.array([acc[h][0] for h in hs], pa.int64()),
                "sum_jq": pa.array([acc[h][1] for h in hs], pa.int64()),
            }
        )

    agg = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("hamming")
        .aggregate(
            ray.data.aggregate.Sum("n_pairs", alias_name="n_pairs"),
            ray.data.aggregate.Sum("sum_jq", alias_name="sum_jq"),
        )
    )

    def finish(batch: pa.Table) -> pa.Table:
        sj = batch.column("sum_jq").to_numpy(zero_copy_only=False).astype(np.float64)
        np_ = batch.column("n_pairs").to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "hamming": batch.column("hamming").cast(pa.int64()),
                "n_pairs": batch.column("n_pairs").cast(pa.int64()),
                "sum_jq": batch.column("sum_jq").cast(pa.int64()),
                "mean_j": pa.array(sj / 1e9 / np_, pa.float64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


SQL_SIMHASH_RADIUS_EVAL = rf"""
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS t
  FROM documents
),
pairdocs AS (
  SELECT doc_id, 0 AS side, t FROM toks WHERE len(t) >= 2
  UNION ALL
  SELECT doc_id, 1, t[2:] FROM toks WHERE len(t) >= 2
),
tk AS (SELECT doc_id, side, unnest(t) AS tok FROM pairdocs),
h AS (
  SELECT doc_id, side, tok,
         CAST(('0x' || substr(md5(tok), 1, 12)) AS BIGINT) AS hv
  FROM tk
),
bits AS MATERIALIZED (
  SELECT doc_id, side, k.k,
         SUM(CASE WHEN (hv >> CAST(k.k AS INTEGER)) & 1 = 1
                  THEN 1 ELSE -1 END) AS votes
  FROM h, range({_SRE_BITS}) k(k) GROUP BY 1, 2, 3
),
sig AS (
  SELECT doc_id, side, k,
         CASE WHEN votes > 0 THEN 1 ELSE 0 END AS bit
  FROM bits
),
ham AS (
  SELECT a.doc_id,
         CAST(SUM(CASE WHEN a.bit <> b.bit THEN 1 ELSE 0 END) AS BIGINT) AS d
  FROM sig a JOIN sig b ON b.doc_id = a.doc_id AND b.k = a.k AND b.side = 1
  WHERE a.side = 0 GROUP BY a.doc_id
),
ab AS (
  SELECT doc_id, tok,
         MAX(CASE WHEN side = 0 THEN 1 ELSE 0 END) AS ia,
         MAX(CASE WHEN side = 1 THEN 1 ELSE 0 END) AS ib
  FROM tk GROUP BY doc_id, tok
),
j AS (
  SELECT doc_id,
         CAST(floor(CAST(SUM(ia * ib) AS DOUBLE)
                    / CAST(COUNT(*) AS DOUBLE) * 1e9 + 5e-1)
              AS BIGINT) AS jq
  FROM ab GROUP BY doc_id
)
SELECT ham.d AS hamming, CAST(COUNT(*) AS BIGINT) AS n_pairs,
       CAST(SUM(j.jq) AS BIGINT) AS sum_jq,
       CAST(SUM(j.jq) AS DOUBLE) / 1e9 / CAST(COUNT(*) AS DOUBLE) AS mean_j
FROM ham JOIN j ON j.doc_id = ham.doc_id
GROUP BY ham.d
"""
