"""Fourteenth-wave operators (round-3 continuation session, 2026-08-20).

Listed by name in ``queries.py``'s QUERIES/ORACLES.

House rules throughout: Arrow batches end to end, map-side partials
before any groupby, broadcast small sides via ``ray.put``, bucketed
union+groupby instead of ``Dataset.join``, and an operand-for-operand
DuckDB oracle for every query (integer accumulation, float divisions
mirrored operand-for-operand, scalar libm for transcendentals).
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# link_farm_hhi — per-host outlink concentration (Herfindahl index)
# ---------------------------------------------------------------------------


def q_link_farm_hhi(sf_dir: str):
    """Link-farm / spam signal: for every source host, the Herfindahl–
    Hirschman index of its outlink distribution over TARGET hosts.
    A host whose pages all link into one or two sibling hosts (HHI → 1)
    is the classic link-farm shape; an organically linking host spreads
    its outlinks (HHI → 1/n_targets). The standard first-pass host-level
    spam feature in web-graph curation (cf. host-level features in
    spam-detection literature; the reference's URLScorer family scores
    single URLs — crawl4ai has no host-graph analytics at all).

    Semantics: edges are the synthetic doc link graph (the pagerank /
    triangles arithmetic: src → (2s+1, 2s+2, 7s+3) mod N, deduped at the
    (src, dst) pair level), mapped to hosts by the shared pages rule
    (doc % 7 == 0 → host 0 else doc % 50). Output per source host:
    total outlinks, distinct target hosts, Σc², and
    hhi = Σc² / (Σc)² — all-integer until the ONE final division, so
    both engines evaluate the identical double expression.

    Distributed shape: each doc's 3 candidate edges are generated in one
    batch row, so the (src, dst) dedup is BATCH-LOCAL (np.unique on a
    packed src·N+dst key — no shuffle); host-pair counts fold per batch
    into ≤ 50×50 partial rows; ONE groupby sums them; the per-src-host
    moments are a second groupby over ≤ 2500 rows. Nothing proportional
    to |docs| ever shuffles.
    """
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    n_docs = docs.count()

    def host_pair_partials(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.concatenate([ids, ids, ids])
        dst = np.concatenate(
            [(2 * ids + 1) % n_docs, (2 * ids + 2) % n_docs, (7 * ids + 3) % n_docs]
        )
        # (src, dst) dedup — local because every src's edges are born here
        pair_key = np.unique(src * np.int64(n_docs) + dst)
        s, d = pair_key // n_docs, pair_key % n_docs
        sh = np.where(s % 7 == 0, 0, s % 50)
        dh = np.where(d % 7 == 0, 0, d % 50)
        hk, c = np.unique(sh * 50 + dh, return_counts=True)
        return pa.table(
            {
                "src_host": pa.array(hk // 50, pa.int64()),
                "dst_host": pa.array(hk % 50, pa.int64()),
                "c": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    pair_counts = (
        docs.map_batches(host_pair_partials, batch_format="pyarrow")
        .groupby(["src_host", "dst_host"])
        .aggregate(ray.data.aggregate.Sum("c", alias_name="c"))
    )

    def moments(batch: pa.Table) -> pa.Table:
        c = batch.column("c").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "src_host": batch.column("src_host"),
                "c": pa.array(c, pa.int64()),
                "c2": pa.array(c * c, pa.int64()),
            }
        )

    agg = (
        pair_counts.map_batches(moments, batch_format="pyarrow")
        .groupby("src_host")
        .aggregate(
            ray.data.aggregate.Sum("c", alias_name="total_links"),
            ray.data.aggregate.Count(alias_name="n_target_hosts"),
            ray.data.aggregate.Sum("c2", alias_name="sum_sq"),
        )
    )

    def finish(batch: pa.Table) -> pa.Table:
        tot = batch.column("total_links").to_numpy(zero_copy_only=False).astype(np.int64)
        ssq = batch.column("sum_sq").to_numpy(zero_copy_only=False).astype(np.int64)
        hhi = ssq.astype(np.float64) / (tot.astype(np.float64) * tot.astype(np.float64))
        return pa.table(
            {
                "src_host": batch.column("src_host").cast(pa.int64()),
                "total_links": pa.array(tot, pa.int64()),
                "n_target_hosts": batch.column("n_target_hosts").cast(pa.int64()),
                "sum_sq": pa.array(ssq, pa.int64()),
                "hhi": pa.array(hhi, pa.float64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


SQL_LINK_FARM_HHI = """
WITH nn AS (SELECT COUNT(*) AS c FROM documents),
child AS (
  SELECT DISTINCT src_id, dst_id FROM (
    SELECT doc_id AS src_id, (2 * doc_id + 1) % nn.c AS dst_id FROM documents, nn
    UNION ALL
    SELECT doc_id, (2 * doc_id + 2) % nn.c FROM documents, nn
    UNION ALL
    SELECT doc_id, (7 * doc_id + 3) % nn.c FROM documents, nn
  )
),
hosts AS (
  SELECT CASE WHEN src_id % 7 = 0 THEN 0 ELSE src_id % 50 END AS src_host,
         CASE WHEN dst_id % 7 = 0 THEN 0 ELSE dst_id % 50 END AS dst_host
  FROM child
),
pc AS (
  SELECT src_host, dst_host, CAST(COUNT(*) AS BIGINT) AS c
  FROM hosts GROUP BY src_host, dst_host
)
SELECT src_host,
       CAST(SUM(c) AS BIGINT) AS total_links,
       CAST(COUNT(*) AS BIGINT) AS n_target_hosts,
       CAST(SUM(c * c) AS BIGINT) AS sum_sq,
       CAST(SUM(c * c) AS DOUBLE)
         / (CAST(SUM(c) AS DOUBLE) * CAST(SUM(c) AS DOUBLE)) AS hhi
FROM pc GROUP BY src_host
"""


# ---------------------------------------------------------------------------
# shingle_cosine_pairs — exact cosine all-pairs similarity over rare shingles
# ---------------------------------------------------------------------------

_SCP_DF_CAP = 10  # shingles seen in more docs than this are boilerplate
_SCP_THRESH = 0.35
_SCP_N = 3  # shingle width (tokens)


def q_shingle_cosine_pairs(sf_dir: str):
    """Exact all-pairs cosine similarity (APSS) over 3-gram shingle tf
    vectors restricted to DISCRIMINATIVE shingles (document frequency ≤
    10): pairs with cos ≥ 0.35. The tf-vector sibling of
    ``ngram_jaccard_pairs`` — cosine weighs repeated shingles, Jaccard
    doesn't — and the classic exact near-dup verifier next to the
    minhash/simhash sketches. The df cap is the textbook APSS scaling
    mechanism (high-df terms are where the O(df²) pair blowup lives, and
    at web scale they are boilerplate by definition); with it, per-
    shingle pair work is ≤ cap²/2.

    Distributed shape: per-doc shingle Counters fold map-side (one row
    per distinct (shingle, doc) leaves the batch); ONE groupby on
    hash(shingle) % P co-locates each shingle's postings WITHOUT a
    per-shingle scheduling unit; inside a bucket, df-capped shingles
    emit their ≤ k(k−1)/2 pair partial products (vectorized by grouping
    equal-df runs and indexing precomputed triu pairs) and per-doc norm
    partials; pair dots and norms each collapse with one integer-only
    groupby; norms attach onto pairs with the shared bucketed
    ``attach_node_value`` (never a Dataset.join). The ONE float step —
    dot / (√na · √nb) — is mirrored operand-for-operand (IEEE sqrt is
    correctly rounded, the quality_correlations discipline).
    """
    from ..functions.hashing import hash64

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    P = 32

    def postings(batch: pa.Table) -> pa.Table:
        from collections import Counter

        out_b, out_g, out_d, out_tf = [], [], [], []
        for did, text in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            toks = (text or "").lower().split()
            c: Counter = Counter(
                " ".join(toks[i : i + _SCP_N])
                for i in range(len(toks) - _SCP_N + 1)
            )
            for g, tf in c.items():
                out_g.append(g)
                out_d.append(did)
                out_tf.append(tf)
        bucket = (
            hash64(np.array(out_g, dtype=object)).astype(np.uint64) % np.uint64(P)
        ).astype(np.int64) if out_g else np.array([], np.int64)
        return pa.table(
            {
                "bucket": pa.array(bucket, pa.int64()),
                "g": pa.array(out_g, pa.string()),
                "doc_id": pa.array(out_d, pa.int64()),
                "tf": pa.array(out_tf, pa.int64()),
            }
        )

    # precomputed upper-triangle index pairs per group size 2..cap
    _TRIU = {s: np.triu_indices(s, k=1) for s in range(2, _SCP_DF_CAP + 1)}

    def per_bucket(grp: pa.Table) -> pa.Table:
        # arrow-native (r5)
        grp = grp.sort_by([("g", "ascending"), ("doc_id", "ascending")])
        gvals = np.asarray(grp.column("g").to_pylist(), dtype=object)
        doc = grp.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        tf = grp.column("tf").to_numpy(zero_copy_only=False).astype(np.int64)
        # run boundaries per shingle
        _, starts, counts = np.unique(gvals, return_index=True, return_counts=True)
        keep = counts <= _SCP_DF_CAP
        pa_a, pa_b, pa_v = [], [], []
        # norms over KEPT shingles only
        kept_rows = np.zeros(grp.num_rows, bool)
        for s in range(2, _SCP_DF_CAP + 1):
            sel = starts[keep & (counts == s)]
            if not len(sel):
                continue
            rows = sel[:, None] + np.arange(s)[None, :]  # (m, s) row indices
            kept_rows[rows.ravel()] = True
            iu0, iu1 = _TRIU[s]
            ra, rb = rows[:, iu0].ravel(), rows[:, iu1].ravel()
            pa_a.append(doc[ra])
            pa_b.append(doc[rb])
            pa_v.append(tf[ra] * tf[rb])
        sel1 = starts[keep & (counts == 1)]
        kept_rows[sel1] = True
        a = np.concatenate(pa_a) if pa_a else np.array([], np.int64)
        b = np.concatenate(pa_b) if pa_b else np.array([], np.int64)
        v = np.concatenate(pa_v) if pa_v else np.array([], np.int64)
        # per-doc norm partials within the bucket
        nd, ninv = np.unique(doc[kept_rows], return_inverse=True)
        nsq = np.zeros(len(nd), np.int64)
        np.add.at(nsq, ninv, tf[kept_rows] * tf[kept_rows])
        return pa.table(
            {
                "is_pair": pa.array(
                    np.concatenate([np.ones(len(a), np.int64), np.zeros(len(nd), np.int64)]),
                    pa.int64(),
                ),
                "a": pa.array(np.concatenate([a, nd]), pa.int64()),
                "b": pa.array(np.concatenate([b, np.zeros(len(nd), np.int64)]), pa.int64()),
                "v": pa.array(np.concatenate([v, nsq]), pa.int64()),
            }
        )

    parts = (
        docs.map_batches(postings, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
        .materialize()  # consumed twice (pass 2 + pass 3) — one shuffle
    )

    # The naive plan (dots groupby(a,b) + norms groupby(doc) + two
    # bucketed attaches) is 5 sequential all-to-alls of ~4 s fixed cost
    # each (r3 profiling: remote compute ~2 s, wall 49 s at 200k docs).
    # Fold instead: ALL partial dots of a pair (a, b) are co-located by
    # hash(a) — so ONE bucket pass keyed by a sums the dot AND attaches
    # na (norm partials re-summed in-bucket); a second keyed by b
    # attaches nb and finishes. 3 all-to-alls total including pass 1.

    def key_by_a(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "kb": pa.array((a % 32).astype(np.int64), pa.int64()),
                "kind": batch.column("is_pair"),  # 1 = pair, 0 = norm
                "a": batch.column("a"),
                "b": batch.column("b"),
                "v": batch.column("v"),
                "na": pa.array(np.zeros(batch.num_rows, np.int64), pa.int64()),
            }
        )

    def sum_and_na(g: pa.Table) -> pa.Table:
        # arrow-native (r5): unique/bincount folds + sorted lookup
        kind = g.column("kind").to_numpy(zero_copy_only=False)
        a_all = g.column("a").to_numpy(zero_copy_only=False).astype(np.int64)
        b_all = g.column("b").to_numpy(zero_copy_only=False).astype(np.int64)
        v_all = g.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
        is_pr = kind == 1
        if not is_pr.any():
            z = pa.array([], pa.int64())
            return pa.table(
                {"kb": z, "kind": z, "a": z, "b": z, "v": z, "na": z}
            )
        # per-doc norm sums over the norm rows
        n_a, n_inv = np.unique(a_all[~is_pr], return_inverse=True)
        nsq = np.bincount(n_inv, weights=v_all[~is_pr]).astype(np.int64)
        # pair dot sums per (a, b) via lexsorted runs
        pa_, pb_, pv_ = a_all[is_pr], b_all[is_pr], v_all[is_pr]
        o = np.lexsort((pb_, pa_))
        pa_, pb_, pv_ = pa_[o], pb_[o], pv_[o]
        newrun = np.r_[True, (pa_[1:] != pa_[:-1]) | (pb_[1:] != pb_[:-1])]
        run_id = np.cumsum(newrun) - 1
        dv = np.bincount(run_id, weights=pv_).astype(np.int64)
        da, db = pa_[newrun], pb_[newrun]
        loc = np.searchsorted(n_a, da)
        safe = np.minimum(loc, max(len(n_a) - 1, 0))
        hit = (n_a[safe] == da) if len(n_a) else np.zeros(len(da), bool)
        na = np.where(hit, nsq[safe] if len(n_a) else 0, 0).astype(np.int64)
        return pa.table(
            {
                "kb": pa.array((db % 32).astype(np.int64), pa.int64()),
                "kind": pa.array(np.ones(len(da), np.int64), pa.int64()),
                "a": pa.array(da, pa.int64()),
                "b": pa.array(db, pa.int64()),
                "v": pa.array(dv, pa.int64()),
                "na": pa.array(na, pa.int64()),
            }
        )

    def norms_by_doc(batch: pa.Table) -> pa.Table:
        m = pa.compute.equal(batch.column("is_pair"), 0)
        t = batch.filter(m)
        doc = t.column("a").to_numpy(zero_copy_only=False)
        z = np.zeros(t.num_rows, np.int64)
        return pa.table(
            {
                "kb": pa.array((doc % 32).astype(np.int64), pa.int64()),
                "kind": pa.array(z, pa.int64()),
                "a": t.column("a"),
                "b": pa.array(z, pa.int64()),
                "v": t.column("v"),
                "na": pa.array(z, pa.int64()),
            }
        )

    with_na = (
        parts.map_batches(key_by_a, batch_format="pyarrow")
        .groupby("kb")
        .map_groups(sum_and_na, batch_format="pyarrow")
    )

    def finish_bucket(g: pa.Table) -> pa.Table:
        # arrow-native (r5)
        kind = g.column("kind").to_numpy(zero_copy_only=False)
        a_all = g.column("a").to_numpy(zero_copy_only=False).astype(np.int64)
        b_all = g.column("b").to_numpy(zero_copy_only=False).astype(np.int64)
        v_all = g.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
        is_pr = kind == 1
        if not is_pr.any():
            return pa.table(
                {
                    "doc_a": pa.array([], pa.int64()),
                    "doc_b": pa.array([], pa.int64()),
                    "dot": pa.array([], pa.int64()),
                    "cos": pa.array([], pa.float64()),
                }
            )
        n_a, n_inv = np.unique(a_all[~is_pr], return_inverse=True)
        nsq = np.bincount(n_inv, weights=v_all[~is_pr]).astype(np.float64)
        pb_ = b_all[is_pr]
        loc = np.searchsorted(n_a, pb_)
        safe = np.minimum(loc, max(len(n_a) - 1, 0))
        hit = (n_a[safe] == pb_) if len(n_a) else np.zeros(len(pb_), bool)
        nb = np.where(hit, nsq[safe] if len(n_a) else np.nan, np.nan)
        dot = v_all[is_pr]
        na = g.column("na").to_numpy(zero_copy_only=False)[is_pr].astype(
            np.float64
        )
        cos = dot.astype(np.float64) / (np.sqrt(na) * np.sqrt(nb))
        m = cos >= _SCP_THRESH
        return pa.table(
            {
                "doc_a": pa.array(a_all[is_pr][m], pa.int64()),
                "doc_b": pa.array(pb_[m], pa.int64()),
                "dot": pa.array(dot[m], pa.int64()),
                "cos": pa.array(cos[m], pa.float64()),
            }
        )

    return (
        with_na.union(parts.map_batches(norms_by_doc, batch_format="pyarrow"))
        .groupby("kb")
        .map_groups(finish_bucket, batch_format="pyarrow")
    )


SQL_SHINGLE_COSINE_PAIRS = rf"""
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '\s+'), x -> x <> '') AS t
  FROM documents
),
sh AS (
  SELECT doc_id, t[i] || ' ' || t[i + 1] || ' ' || t[i + 2] AS g
  FROM toks, LATERAL UNNEST(range(1, len(t) - 1)) AS r(i)
),
tf AS (
  SELECT doc_id, g, CAST(COUNT(*) AS BIGINT) AS tf FROM sh GROUP BY doc_id, g
),
kept AS (
  SELECT tf.* FROM tf
  JOIN (SELECT g FROM tf GROUP BY g HAVING COUNT(*) <= {_SCP_DF_CAP}) d USING (g)
),
norms AS (
  SELECT doc_id, CAST(SUM(tf * tf) AS BIGINT) AS nsq FROM kept GROUP BY doc_id
),
dots AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
         CAST(SUM(a.tf * b.tf) AS BIGINT) AS dot
  FROM kept a JOIN kept b USING (g)
  WHERE a.doc_id < b.doc_id
  GROUP BY a.doc_id, b.doc_id
)
SELECT doc_a, doc_b, dot,
       CAST(dot AS DOUBLE) / (sqrt(CAST(na.nsq AS DOUBLE)) * sqrt(CAST(nb.nsq AS DOUBLE))) AS cos
FROM dots
JOIN norms na ON na.doc_id = doc_a
JOIN norms nb ON nb.doc_id = doc_b
WHERE CAST(dot AS DOUBLE) / (sqrt(CAST(na.nsq AS DOUBLE)) * sqrt(CAST(nb.nsq AS DOUBLE)))
      >= CAST({_SCP_THRESH} AS DOUBLE)
"""


# ---------------------------------------------------------------------------
# ndcg_bm25 — ranking-quality evaluation (NDCG@10) of the BM25 ranking
# ---------------------------------------------------------------------------

_NDCG_K = 10


def q_ndcg_bm25(sf_dir: str):
    """NDCG@10 of the oracle-proven BM25 ranking against graded
    relevance labels — the evaluation leg of the search stack
    (bm25_topk ranks, this scores the ranking). rel(doc) =
    min(3, #occurrences of the query terms), gain = 2^rel − 1, position
    discount = log2(pos + 1); NDCG = DCG / IDCG where IDCG ranks the
    corpus by rel itself. Output: one row per rank position
    (pos, doc_id, rel, gain) plus the dcg/idcg/ndcg constants.

    Float discipline: every gain is ROUND(_, 8)-ed, and DCG/IDCG are
    LEFT-ASSOCIATIVE sums of those rounded doubles in position order —
    in SQL as an explicit unrolled `g1 + g2 + … + g10` over scalar
    subqueries (never an aggregate SUM, whose accumulation order is
    unspecified), in Ray as a plain python fold over the 10 rows. The
    discount is ln(pos+1)/ln(2) with scalar libm ln on both sides.

    Distributed shape: the ranking is the shared ``_bm25_scored`` plan
    (collection stats broadcast, per-batch scoring); rel is one map over
    documents; both top-10s are distributed sort+limit. The only
    driver-resident data is the two 10-row lists.
    """
    from .queries import _bm25_scored

    terms = ("table", "scan", "merge")
    top = (
        _bm25_scored(sf_dir)
        .sort(["score", "doc_id"], descending=[True, False])
        .limit(_NDCG_K)
        .take_all()  # bounded: ≤ _NDCG_K rows (sort+limit)
    )

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def rel_rows(batch: pa.Table) -> pa.Table:
        rels = []
        for t in batch.column("text").to_pylist():
            toks = (t or "").lower().split()
            rels.append(min(3, sum(toks.count(q) for q in terms)))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "rel": pa.array(rels, pa.int64()),
            }
        )

    rel_ds = docs.map_batches(rel_rows, batch_format="pyarrow").materialize()
    ideal = (
        rel_ds.sort(["rel", "doc_id"], descending=[True, False])
        .limit(_NDCG_K)
        .take_all()  # bounded: ≤ _NDCG_K rows (sort+limit)
    )
    top_ids = pa.array([int(r["doc_id"]) for r in top], pa.int64())

    def pick_top(batch: pa.Table) -> pa.Table:
        return batch.filter(pa.compute.is_in(batch.column("doc_id"), top_ids))

    rel_map = {
        int(r["doc_id"]): int(r["rel"])
        for r in rel_ds.map_batches(pick_top, batch_format="pyarrow").take_all()  # bounded: ≤ K top-ranked rows (broadcast id set)
    }

    ln2 = math.log(2.0)
    rows_pos, rows_doc, rows_rel, rows_gain = [], [], [], []
    dcg = 0.0
    for i, r in enumerate(top, start=1):
        rel = rel_map[int(r["doc_id"])]
        g = round((2**rel - 1) / (math.log(i + 1.0) / ln2), 8)
        dcg = dcg + g
        rows_pos.append(i)
        rows_doc.append(int(r["doc_id"]))
        rows_rel.append(rel)
        rows_gain.append(g)
    idcg = 0.0
    for i, r in enumerate(ideal, start=1):
        idcg = idcg + round(
            (2 ** int(r["rel"]) - 1) / (math.log(i + 1.0) / ln2), 8
        )
    # degenerate corpus (no relevant doc anywhere): define NDCG as 0
    ndcg = dcg / idcg if idcg != 0.0 else 0.0
    n = len(rows_pos)
    return pa.table(
        {
            "pos": pa.array(rows_pos, pa.int64()),
            "doc_id": pa.array(rows_doc, pa.int64()),
            "rel": pa.array(rows_rel, pa.int64()),
            "gain": pa.array(rows_gain, pa.float64()),
            "dcg": pa.array([dcg] * n, pa.float64()),
            "idcg": pa.array([idcg] * n, pa.float64()),
            "ndcg": pa.array([ndcg] * n, pa.float64()),
        }
    )


def _sql_ndcg_bm25() -> str:
    # unrolled left-associative sums over scalar subqueries: g1 + g2 + …
    # COALESCE each term: positions past the corpus size are absent (a
    # <10-doc corpus) and must contribute 0 like the Ray-side fold, not
    # NULL-poison the whole sum (review finding)
    dcg_terms = " + ".join(
        f"COALESCE((SELECT gain FROM ranked_g WHERE pos = {i}), 0e0)"
        for i in range(1, _NDCG_K + 1)
    )
    idcg_terms = " + ".join(
        f"COALESCE((SELECT gain FROM ideal_g WHERE pos = {i}), 0e0)"
        for i in range(1, _NDCG_K + 1)
    )
    return rf"""
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '\s+'), x -> x <> '') AS t
  FROM documents
),
tf AS (
  SELECT doc_id, len(t) AS dl,
         len(list_filter(t, x -> x = 'table')) AS tf0,
         len(list_filter(t, x -> x = 'scan'))  AS tf1,
         len(list_filter(t, x -> x = 'merge')) AS tf2
  FROM toks
),
st AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n_docs,
         CAST(SUM(dl) AS BIGINT) AS sum_dl,
         CAST(COUNT(*) FILTER (tf0 > 0) AS BIGINT) AS df0,
         CAST(COUNT(*) FILTER (tf1 > 0) AS BIGINT) AS df1,
         CAST(COUNT(*) FILTER (tf2 > 0) AS BIGINT) AS df2
  FROM tf
),
scored AS (
  SELECT tf.doc_id,
    ROUND(
      ln((st.n_docs - st.df0 + CAST(0.5 AS DOUBLE)) / (st.df0 + CAST(0.5 AS DOUBLE)) + CAST(1.0 AS DOUBLE))
        * (tf.tf0 * (CAST(1.2 AS DOUBLE) + CAST(1.0 AS DOUBLE)))
        / (tf.tf0 + CAST(1.2 AS DOUBLE) * (CAST(1.0 AS DOUBLE) - CAST(0.75 AS DOUBLE)
            + CAST(0.75 AS DOUBLE) * tf.dl / (CAST(st.sum_dl AS DOUBLE) / CAST(st.n_docs AS DOUBLE))))
    + ln((st.n_docs - st.df1 + CAST(0.5 AS DOUBLE)) / (st.df1 + CAST(0.5 AS DOUBLE)) + CAST(1.0 AS DOUBLE))
        * (tf.tf1 * (CAST(1.2 AS DOUBLE) + CAST(1.0 AS DOUBLE)))
        / (tf.tf1 + CAST(1.2 AS DOUBLE) * (CAST(1.0 AS DOUBLE) - CAST(0.75 AS DOUBLE)
            + CAST(0.75 AS DOUBLE) * tf.dl / (CAST(st.sum_dl AS DOUBLE) / CAST(st.n_docs AS DOUBLE))))
    + ln((st.n_docs - st.df2 + CAST(0.5 AS DOUBLE)) / (st.df2 + CAST(0.5 AS DOUBLE)) + CAST(1.0 AS DOUBLE))
        * (tf.tf2 * (CAST(1.2 AS DOUBLE) + CAST(1.0 AS DOUBLE)))
        / (tf.tf2 + CAST(1.2 AS DOUBLE) * (CAST(1.0 AS DOUBLE) - CAST(0.75 AS DOUBLE)
            + CAST(0.75 AS DOUBLE) * tf.dl / (CAST(st.sum_dl AS DOUBLE) / CAST(st.n_docs AS DOUBLE))))
    , 8) AS score
  FROM tf, st
),
rel AS (
  SELECT doc_id, least(3, tf0 + tf1 + tf2) AS rel FROM tf
),
ranked AS (
  SELECT s.doc_id, r.rel,
         row_number() OVER (ORDER BY s.score DESC, s.doc_id) AS pos
  FROM scored s JOIN rel r USING (doc_id)
  ORDER BY s.score DESC, s.doc_id LIMIT {_NDCG_K}
),
ranked_g AS (
  SELECT pos, doc_id, rel,
         ROUND((POW(CAST(2 AS DOUBLE), rel) - CAST(1 AS DOUBLE))
               / (ln(CAST(pos + 1 AS DOUBLE)) / ln(CAST(2 AS DOUBLE))), 8) AS gain
  FROM ranked
),
ideal AS (
  SELECT rel, row_number() OVER (ORDER BY rel DESC, doc_id) AS pos
  FROM rel ORDER BY rel DESC, doc_id LIMIT {_NDCG_K}
),
ideal_g AS (
  SELECT pos,
         ROUND((POW(CAST(2 AS DOUBLE), rel) - CAST(1 AS DOUBLE))
               / (ln(CAST(pos + 1 AS DOUBLE)) / ln(CAST(2 AS DOUBLE))), 8) AS gain
  FROM ideal
),
tot AS (
  SELECT ({dcg_terms}) AS dcg, ({idcg_terms}) AS idcg
)
SELECT g.pos, g.doc_id, g.rel, g.gain,
       tot.dcg, tot.idcg,
       CASE WHEN tot.idcg = CAST(0 AS DOUBLE) THEN CAST(0 AS DOUBLE)
            ELSE tot.dcg / tot.idcg END AS ndcg
FROM ranked_g g, tot
"""


# ---------------------------------------------------------------------------
# host_balanced_order — domain-balanced interleave selection
# ---------------------------------------------------------------------------

_HBO_K = 2


def q_host_balanced_order(sf_dir: str):
    """Domain-balanced document selection for training mixes: the top-2
    docs per host by (n_chars DESC, doc_id ASC), INTERLEAVED round-robin
    across hosts — every host's best doc before any host's second doc —
    with a global mix position. This is the domain-diversity sampling
    order used when a pipeline must cap per-domain contribution instead
    of letting one giant host dominate the head of the training stream
    (the per-host rank is the shared two-level ``grouped_topk``; the
    interleave is ORDER BY (rank, host)).

    Distributed shape: grouped_topk = map-side per-host head-k prune +
    ONE hash(host) % P bucket groupby; the interleaved position is
    assigned on the ≤ k·|hosts| result (driver-side enumerate on a
    provably tiny table — |hosts| is 50 here; at web scale this final
    ordering is itself a sort+limit over k·|hosts| rows, not |docs|).
    """
    from ..stages.agg import grouped_topk

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )

    def host_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        host = np.where(ids % 7 == 0, 0, ids % 50)
        return pa.table(
            {
                "host_id": pa.array(host, pa.int64()),
                # value with tiebreak folded in: grouped_topk ranks by
                # ONE value column; (n_chars DESC, doc_id ASC) becomes
                # key = n_chars * 2^32 - doc_id (doc_id < 2^32)
                "ordkey": pa.array(
                    batch.column("n_chars")
                    .to_numpy(zero_copy_only=False)
                    .astype(np.int64)
                    * (np.int64(1) << 32)
                    - ids,
                    pa.int64(),
                ),
                "doc_id": pa.array(ids, pa.int64()),
                "n_chars": batch.column("n_chars").cast(pa.int64()),
            }
        )

    ranked = grouped_topk(
        docs.map_batches(host_rows, batch_format="pyarrow"),
        key="host_id",
        value="ordkey",
        k=_HBO_K,
        extra_cols=("doc_id", "n_chars"),
        tie_col="doc_id",
    )
    rows = ranked.take_all()  # ≤ k·|hosts| — tiny by construction
    rows.sort(key=lambda r: (int(r["rank"]), int(r["host_id"])))
    return pa.table(
        {
            "pos": pa.array(range(1, len(rows) + 1), pa.int64()),
            "host_id": pa.array([int(r["host_id"]) for r in rows], pa.int64()),
            "doc_id": pa.array([int(r["doc_id"]) for r in rows], pa.int64()),
            "n_chars": pa.array([int(r["n_chars"]) for r in rows], pa.int64()),
            "rank": pa.array([int(r["rank"]) for r in rows], pa.int64()),
        }
    )


SQL_HOST_BALANCED_ORDER = f"""
WITH hosts AS (
  SELECT doc_id, n_chars,
         CASE WHEN doc_id % 7 = 0 THEN 0 ELSE doc_id % 50 END AS host_id
  FROM documents
),
r AS (
  SELECT host_id, doc_id, n_chars,
         row_number() OVER (PARTITION BY host_id
                            ORDER BY n_chars DESC, doc_id) AS rank
  FROM hosts
),
topk AS (SELECT * FROM r WHERE rank <= {_HBO_K})
SELECT row_number() OVER (ORDER BY rank, host_id) AS pos,
       host_id, doc_id, n_chars, CAST(rank AS BIGINT) AS rank
FROM topk
"""
