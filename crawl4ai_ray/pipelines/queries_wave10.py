"""Tenth-wave operators (round-3 continuation session, 2026-08-19).

Listed by name in ``queries.py``'s QUERIES/ORACLES.

House rules throughout: Arrow batches end to end, map-side partials
before any groupby, broadcast small sides via ``ray.put``, bucketed
union+groupby instead of ``Dataset.join``, and an operand-for-operand
DuckDB oracle for every query (md5-slice uniforms, integer
fixed-point accumulation, at most one float division per output
column mirrored operand-for-operand).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray


# ---------------------------------------------------------------------------
# kmv_overlap — KMV (k-minimum-values) sketch overlap of two crawl snapshots
# ---------------------------------------------------------------------------

_KMV_K = 64


def q_kmv_overlap(sf_dir: str):
    """Sketch-based snapshot overlap: estimate |A|, |B|, |A∪B| and the
    Jaccard/intersection of two crawl snapshots' URL-id sets from
    k-minimum-values sketches (Bar-Yossef et al. / the DataSketches theta
    family) instead of an exact all-to-all like crawl_delta. Snapshots
    reuse crawl_delta's membership rules (A drops id%7==3, B drops
    id%10==6). Each element's uniform hash is the first 60 bits of
    md5(str(id)) — the repo's md5-slice discipline, recomputed
    identically in SQL. The scale path: per-batch top-k prune (np.
    partition) so each of the three distributed sort+limit(k) exchanges
    sees ≤ 3k rows per block; the driver folds exactly 3k scalars.

    Estimators (mirrored operand-for-operand): with R_k = (h_k + 1) /
    2^60 the k-th smallest normalized hash, D̂ = (k−1)/R_k (exact count
    when the set is smaller than k); Ĵ = |K(A∪B) ∩ K(A) ∩ K(B)| / k;
    intersection = Ĵ · D̂_union. Exact counts ride along for the error
    readout."""
    k = _KMV_K
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def hash_flags(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        in_a = ids % 7 != 3
        in_b = ids % 10 != 6
        keep = in_a | in_b
        ids, in_a, in_b = ids[keep], in_a[keep], in_b[keep]
        h = np.fromiter(
            (int(hashlib.md5(str(i).encode()).hexdigest()[:15], 16) for i in ids),
            np.int64,
            len(ids),
        )
        # per-batch prune: only rows that can reach a k-smallest slot in
        # SOME sketch (A, B, or union) survive to the sort
        order = np.argsort(h, kind="stable")
        h, in_a, in_b = h[order], in_a[order], in_b[order]
        cand = (
            (np.cumsum(np.ones(len(h))) <= k)
            | (np.cumsum(in_a) <= k) & in_a
            | (np.cumsum(in_b) <= k) & in_b
        )
        return pa.table(
            {
                "h": pa.array(h[cand], pa.int64()),
                "in_a": pa.array(in_a[cand], pa.bool_()),
                "in_b": pa.array(in_b[cand], pa.bool_()),
            }
        )

    pruned = docs.map_batches(hash_flags, batch_format="pyarrow")
    # exact counts ride a separate cheap aggregate scan (the pruned
    # stream carries only what the sketches need: h + membership flags)
    exact = docs.map_batches(
        lambda b: pa.table(
            {
                "ea": pa.array(
                    [
                        int(
                            (
                                (
                                    b.column("doc_id")
                                    .to_numpy(zero_copy_only=False)
                                    .astype(np.int64)
                                    % 7
                                )
                                != 3
                            ).sum()
                        )
                    ],
                    pa.int64(),
                ),
                "eb": pa.array(
                    [
                        int(
                            (
                                (
                                    b.column("doc_id")
                                    .to_numpy(zero_copy_only=False)
                                    .astype(np.int64)
                                    % 10
                                )
                                != 6
                            ).sum()
                        )
                    ],
                    pa.int64(),
                ),
                "eab": pa.array(
                    [
                        int(
                            (
                                (
                                    (
                                        b.column("doc_id")
                                        .to_numpy(zero_copy_only=False)
                                        .astype(np.int64)
                                        % 7
                                    )
                                    != 3
                                )
                                & (
                                    (
                                        b.column("doc_id")
                                        .to_numpy(zero_copy_only=False)
                                        .astype(np.int64)
                                        % 10
                                    )
                                    != 6
                                )
                            ).sum()
                        )
                    ],
                    pa.int64(),
                ),
            }
        ),
        batch_format="pyarrow",
    ).aggregate(
        ray.data.aggregate.Sum("ea", alias_name="ea"),
        ray.data.aggregate.Sum("eb", alias_name="eb"),
        ray.data.aggregate.Sum("eab", alias_name="eab"),
    )

    # the pruned stream is bounded at 3k rows per input block, so a full
    # take on the sorted stream is O(k · blocks) — no limit(3k) here: the
    # k-th smallest A-hash may rank beyond 3k overall when B-only rows
    # dominate the low hashes
    rows = pruned.sort("h").take_all()
    hs = [r["h"] for r in rows]
    a_hs = [r["h"] for r in rows if r["in_a"]][:k]
    b_hs = [r["h"] for r in rows if r["in_b"]][:k]
    u_hs = hs[:k]

    def est(sketch: list[int]) -> float:
        n = len(sketch)
        if n < k:
            return float(n)
        return (
            (float(k) - 1.0)
            * 1152921504606846976.0
            / (float(sketch[-1]) + 1.0)
        )

    sa, sb = set(a_hs), set(b_hs)
    m = sum(1 for h in u_hs if h in sa and h in sb)
    est_u = est(u_hs)
    jac = float(m) / float(min(k, len(u_hs)))
    return pa.table(
        {
            "k": pa.array([k], pa.int64()),
            "est_a": pa.array([est(a_hs)], pa.float64()),
            "est_b": pa.array([est(b_hs)], pa.float64()),
            "est_union": pa.array([est_u], pa.float64()),
            "jaccard_est": pa.array([jac], pa.float64()),
            "est_intersection": pa.array([jac * est_u], pa.float64()),
            "exact_a": pa.array([int(exact["ea"])], pa.int64()),
            "exact_b": pa.array([int(exact["eb"])], pa.int64()),
            "exact_intersection": pa.array([int(exact["eab"])], pa.int64()),
        }
    )


SQL_KMV_OVERLAP = f"""
WITH elems AS (
  SELECT doc_id,
         (doc_id % 7 <> 3) AS in_a,
         (doc_id % 10 <> 6) AS in_b,
         CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 15)) AS BIGINT) AS h
  FROM documents
  WHERE doc_id % 7 <> 3 OR doc_id % 10 <> 6
),
ka AS MATERIALIZED (SELECT h FROM elems WHERE in_a ORDER BY h LIMIT {_KMV_K}),
kb AS MATERIALIZED (SELECT h FROM elems WHERE in_b ORDER BY h LIMIT {_KMV_K}),
ku AS MATERIALIZED (
  SELECT h, in_a, in_b FROM elems ORDER BY h LIMIT {_KMV_K}
),
sa AS (SELECT CAST(COUNT(*) AS BIGINT) AS n, MAX(h) AS hk FROM ka),
sb AS (SELECT CAST(COUNT(*) AS BIGINT) AS n, MAX(h) AS hk FROM kb),
su AS (SELECT CAST(COUNT(*) AS BIGINT) AS n, MAX(h) AS hk FROM ku),
mm AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS m FROM ku
  WHERE h IN (SELECT h FROM ka) AND h IN (SELECT h FROM kb)
),
ests AS (
  SELECT
    CASE WHEN sa.n < {_KMV_K} THEN CAST(sa.n AS DOUBLE)
         ELSE (CAST({_KMV_K} AS DOUBLE) - CAST(1.0 AS DOUBLE))
              * CAST(1152921504606846976 AS DOUBLE)
              / (CAST(sa.hk AS DOUBLE) + CAST(1.0 AS DOUBLE)) END AS est_a,
    CASE WHEN sb.n < {_KMV_K} THEN CAST(sb.n AS DOUBLE)
         ELSE (CAST({_KMV_K} AS DOUBLE) - CAST(1.0 AS DOUBLE))
              * CAST(1152921504606846976 AS DOUBLE)
              / (CAST(sb.hk AS DOUBLE) + CAST(1.0 AS DOUBLE)) END AS est_b,
    CASE WHEN su.n < {_KMV_K} THEN CAST(su.n AS DOUBLE)
         ELSE (CAST({_KMV_K} AS DOUBLE) - CAST(1.0 AS DOUBLE))
              * CAST(1152921504606846976 AS DOUBLE)
              / (CAST(su.hk AS DOUBLE) + CAST(1.0 AS DOUBLE)) END AS est_union,
    CAST(mm.m AS DOUBLE)
      / CAST(CASE WHEN su.n < {_KMV_K} THEN su.n ELSE {_KMV_K} END AS DOUBLE)
      AS jaccard_est
  FROM sa, sb, su, mm
)
SELECT CAST({_KMV_K} AS BIGINT) AS k,
       est_a, est_b, est_union, jaccard_est,
       jaccard_est * est_union AS est_intersection,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM documents WHERE doc_id % 7 <> 3)
         AS exact_a,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM documents WHERE doc_id % 10 <> 6)
         AS exact_b,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM documents
        WHERE doc_id % 7 <> 3 AND doc_id % 10 <> 6) AS exact_intersection
FROM ests
"""


# ---------------------------------------------------------------------------
# seed_cover — greedy k-seed 1-hop coverage maximization
# ---------------------------------------------------------------------------

_COVER_ROUNDS = 4


def q_seed_cover(sf_dir: str):
    """Crawl-planning operator: pick K seeds greedily so each round's
    seed maximizes the number of NOT-yet-covered out-neighbors (the
    classic greedy set-cover / influence-maximization step; ties break
    to the smallest node id). Coverage after a pick = covered ∪ {seed}
    ∪ N_out(seed). Edges are the shared synthetic link graph, deduped
    and self-loop-free.

    Distribution: the edge table is materialized once; each round is a
    map-side mask against the BROADCAST covered set (bounded by
    K·(1+max_degree)) followed by one groupby(src).count() and a
    sort+limit(1) — per-round shuffle volume is |uncovered edges|, never
    the node count, and the driver holds only the covered set."""
    from .queries import _synthetic_link_edges

    def dedupe(batch: pa.Table) -> pa.Table:
        src = batch.column("src").to_numpy(zero_copy_only=False)
        dst = batch.column("dst").to_numpy(zero_copy_only=False)
        keep = src != dst
        return pa.table(
            {
                "src": pa.array(src[keep], pa.int64()),
                "dst": pa.array(dst[keep], pa.int64()),
            }
        )

    edges = (
        _synthetic_link_edges(sf_dir)
        .map_batches(dedupe, batch_format="pyarrow")
        .groupby(["src", "dst"])
        .count()
        .select_columns(["src", "dst"])
        .materialize()
    )

    covered: set[int] = set()
    picked: set[int] = set()
    out_rounds, out_seeds, out_gains, out_cov = [], [], [], []
    for rnd in range(1, _COVER_ROUNDS + 1):
        cov_ref = ray.put(
            (
                np.fromiter(covered, np.int64, len(covered)),
                np.fromiter(picked, np.int64, len(picked)),
            )
        )

        def mask(batch: pa.Table, _ref=cov_ref) -> pa.Table:
            cov, pk = ray.get(_ref)
            src = batch.column("src").to_numpy(zero_copy_only=False)
            dst = batch.column("dst").to_numpy(zero_copy_only=False)
            keep = ~np.isin(src, pk) & ~np.isin(dst, cov)
            return pa.table(
                {
                    "src": pa.array(src[keep], pa.int64()),
                    "dst": pa.array(dst[keep], pa.int64()),
                }
            )

        gains = edges.map_batches(mask, batch_format="pyarrow").groupby("src").count()
        top = gains.sort(
            ["count()", "src"], descending=[True, False]
        ).limit(1).take_all()  # bounded: ≤ 1 rows (sort+limit)
        if not top:
            break
        seed, gain = int(top[0]["src"]), int(top[0]["count()"])
        # second map-only O(|E|) pass per round to list the winner's
        # out-neighbors — shuffle-free and embarrassingly parallel; the
        # groupby above dominates the round regardless
        neigh = [
            int(r["dst"])
            for r in edges.map_batches(
                lambda b, _s=seed: b.filter(pc.equal(b.column("src"), _s)),
                batch_format="pyarrow",
            ).take_all()  # bounded: one node's out-neighborhood (≤ max outdeg)
        ]
        covered.add(seed)
        covered.update(neigh)
        picked.add(seed)
        out_rounds.append(rnd)
        out_seeds.append(seed)
        out_gains.append(gain)
        out_cov.append(len(covered))
    return pa.table(
        {
            "round": pa.array(out_rounds, pa.int64()),
            "seed": pa.array(out_seeds, pa.int64()),
            "gain": pa.array(out_gains, pa.int64()),
            "covered_after": pa.array(out_cov, pa.int64()),
        }
    )


SQL_SEED_COVER = """
WITH nn AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM documents),
edges AS MATERIALIZED (
  SELECT DISTINCT src, dst FROM (
    SELECT doc_id AS src, (2 * doc_id + 1) % nn.n AS dst FROM documents, nn
    UNION ALL
    SELECT doc_id, (2 * doc_id + 2) % nn.n FROM documents, nn
    UNION ALL
    SELECT doc_id, (7 * doc_id + 3) % nn.n FROM documents, nn
  ) WHERE src <> dst
),
c1 AS MATERIALIZED (
  SELECT src, CAST(COUNT(*) AS BIGINT) AS g FROM edges GROUP BY src
),
p1 AS MATERIALIZED (SELECT src, g FROM c1 ORDER BY g DESC, src LIMIT 1),
cov1 AS MATERIALIZED (
  SELECT dst AS node FROM edges WHERE src = (SELECT src FROM p1)
  UNION SELECT src FROM p1
),
c2 AS MATERIALIZED (
  SELECT src, CAST(COUNT(*) AS BIGINT) AS g FROM edges
  WHERE dst NOT IN (SELECT node FROM cov1)
    AND src NOT IN (SELECT src FROM p1)
  GROUP BY src
),
p2 AS MATERIALIZED (SELECT src, g FROM c2 ORDER BY g DESC, src LIMIT 1),
cov2 AS MATERIALIZED (
  SELECT node FROM cov1
  UNION SELECT dst FROM edges WHERE src = (SELECT src FROM p2)
  UNION SELECT src FROM p2
),
c3 AS MATERIALIZED (
  SELECT src, CAST(COUNT(*) AS BIGINT) AS g FROM edges
  WHERE dst NOT IN (SELECT node FROM cov2)
    AND src NOT IN (SELECT src FROM p1 UNION SELECT src FROM p2)
  GROUP BY src
),
p3 AS MATERIALIZED (SELECT src, g FROM c3 ORDER BY g DESC, src LIMIT 1),
cov3 AS MATERIALIZED (
  SELECT node FROM cov2
  UNION SELECT dst FROM edges WHERE src = (SELECT src FROM p3)
  UNION SELECT src FROM p3
),
c4 AS MATERIALIZED (
  SELECT src, CAST(COUNT(*) AS BIGINT) AS g FROM edges
  WHERE dst NOT IN (SELECT node FROM cov3)
    AND src NOT IN (
      SELECT src FROM p1 UNION SELECT src FROM p2 UNION SELECT src FROM p3
    )
  GROUP BY src
),
p4 AS MATERIALIZED (SELECT src, g FROM c4 ORDER BY g DESC, src LIMIT 1),
cov4 AS MATERIALIZED (
  SELECT node FROM cov3
  UNION SELECT dst FROM edges WHERE src = (SELECT src FROM p4)
  UNION SELECT src FROM p4
)
SELECT CAST(1 AS BIGINT) AS round, CAST(src AS BIGINT) AS seed, g AS gain,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM cov1) AS covered_after FROM p1
UNION ALL
SELECT CAST(2 AS BIGINT), CAST(src AS BIGINT), g,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM cov2) FROM p2
UNION ALL
SELECT CAST(3 AS BIGINT), CAST(src AS BIGINT), g,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM cov3) FROM p3
UNION ALL
SELECT CAST(4 AS BIGINT), CAST(src AS BIGINT), g,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM cov4) FROM p4
"""


# ---------------------------------------------------------------------------
# rake_keywords — RAKE keyword extraction over the corpus
# ---------------------------------------------------------------------------

_RAKE_STOPWORDS = ("the", "data", "value", "small")
_RAKE_TOPN = 20


def q_rake_keywords(sf_dir: str):
    """RAKE (Rose et al. 2010) keyword extraction, corpus-level:
    candidate phrases are maximal stopword-free token runs; for each
    content word, freq(w) = occurrence count and deg(w) = Σ over its
    occurrences of the containing phrase's length; word score =
    deg/freq quantized to fixed point via INTEGER floor division
    (deg·10⁹ // freq — exact in both engines, no float until the end);
    a phrase's score is the int64 sum of its words' scores (with
    multiplicity). Output: top-20 distinct phrases by score (ties →
    lexicographic).

    Two passes over the docs: pass 1 computes word stats with a
    map-side Counter partial + one vocabulary-sized groupby; the
    word-score map (vocabulary-sized — bounded for natural language) is
    broadcast via ray.put; pass 2 re-derives phrases per batch and
    emits (phrase, score) occurrence rows into one distinct-phrase
    groupby + top-N sort. Doc text never shuffles."""
    stop = set(_RAKE_STOPWORDS)
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def doc_phrases(text: str):
        """Maximal stopword-free runs, as (words_tuple) phrases."""
        cur: list[str] = []
        for tok in (text or "").split():
            if tok in stop:
                if cur:
                    yield cur
                    cur = []
            else:
                cur.append(tok)
        if cur:
            yield cur

    def word_partials(batch: pa.Table) -> pa.Table:
        freq: dict[str, int] = {}
        deg: dict[str, int] = {}
        for text in batch.column("text").to_pylist():
            for phrase in doc_phrases(text):
                plen = len(phrase)
                for w in phrase:
                    freq[w] = freq.get(w, 0) + 1
                    deg[w] = deg.get(w, 0) + plen
        words = sorted(freq)
        return pa.table(
            {
                "w": pa.array(words, pa.string()),
                "freq": pa.array([freq[w] for w in words], pa.int64()),
                "deg": pa.array([deg[w] for w in words], pa.int64()),
            }
        )

    # fully distributed (r4: the former vocabulary-sized word-score
    # broadcast is gone): word stats stay a Dataset; phrase scores come
    # from a phrase-word ⋈ word-stats bucketed lookup join
    # (stages/agg.bucketed_lookup_join — the union+groupby join shape)
    from ..stages.agg import bucketed_lookup_join

    def word_score(batch: pa.Table) -> pa.Table:
        freq = batch.column("freq").to_numpy(zero_copy_only=False)
        deg = batch.column("deg").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "w": batch.column("w"),
                "wscore": pa.array(
                    deg * 1_000_000_000 // freq, pa.int64()
                ),
            }
        )

    wscores = (
        docs.map_batches(word_partials, batch_format="pyarrow")
        .groupby("w")
        .aggregate(
            ray.data.aggregate.Sum("freq", alias_name="freq"),
            ray.data.aggregate.Sum("deg", alias_name="deg"),
        )
        .map_batches(word_score, batch_format="pyarrow")
    )

    def phrase_occurrences(batch: pa.Table) -> pa.Table:
        p_out = []
        for text in batch.column("text").to_pylist():
            for phrase in doc_phrases(text):
                p_out.append(" ".join(phrase))
        return pa.table({"phrase": pa.array(p_out, pa.string())})

    n_occ = (
        docs.map_batches(phrase_occurrences, batch_format="pyarrow")
        .groupby("phrase")
        .aggregate(ray.data.aggregate.Count(alias_name="n_occ"))
        .materialize()
    )

    def phrase_words(batch: pa.Table) -> pa.Table:
        # each DISTINCT phrase explodes into its words with multiplicity
        # (the phrase string IS the word list)
        ws, ps = [], []
        for ph in batch.column("phrase").to_pylist():
            for w in ph.split():
                ws.append(w)
                ps.append(ph)
        return pa.table(
            {"w": pa.array(ws, pa.string()), "phrase": pa.array(ps, pa.string())}
        )

    scored = (
        bucketed_lookup_join(
            n_occ.select_columns(["phrase"]).map_batches(
                phrase_words, batch_format="pyarrow"
            ),
            wscores,
            key="w",
            value_col="wscore",
        )
        .groupby("phrase")
        .aggregate(ray.data.aggregate.Sum("wscore", alias_name="score"))
    )
    agg = bucketed_lookup_join(
        scored, n_occ, key="phrase", value_col="n_occ"
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "phrase": batch.column("phrase"),
                "n_occ": batch.column("n_occ").cast(pa.int64()),
                "score": batch.column("score").cast(pa.int64()),
            }
        )

    return (
        agg.map_batches(finish, batch_format="pyarrow")
        .sort(["score", "phrase"], descending=[True, False])
        .limit(_RAKE_TOPN)
    )


SQL_RAKE_KEYWORDS = r"""
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS t
  FROM documents
),
pos AS (
  SELECT doc_id, i, t[i] AS w
  FROM toks, LATERAL UNNEST(generate_series(1, len(t))) AS s(i)
),
marked AS (
  SELECT doc_id, i, w,
         CASE WHEN w IN ({stops}) THEN 1 ELSE 0 END AS st,
         SUM(CASE WHEN w IN ({stops}) THEN 1 ELSE 0 END)
           OVER (PARTITION BY doc_id ORDER BY i) AS pid
  FROM pos
),
words AS (SELECT doc_id, pid, i, w FROM marked WHERE st = 0),
plens AS MATERIALIZED (
  SELECT doc_id, pid, CAST(COUNT(*) AS BIGINT) AS plen,
         STRING_AGG(w, ' ' ORDER BY i) AS phrase
  FROM words GROUP BY doc_id, pid
),
wocc AS (
  SELECT wd.w, pl.plen
  FROM words wd JOIN plens pl ON wd.doc_id = pl.doc_id AND wd.pid = pl.pid
),
wscore AS MATERIALIZED (
  SELECT w,
         (CAST(SUM(plen) AS BIGINT) * 1000000000)
           // CAST(COUNT(*) AS BIGINT) AS sfp
  FROM wocc GROUP BY w
),
pscore AS (
  SELECT pl.doc_id, pl.pid, pl.phrase, CAST(SUM(ws.sfp) AS BIGINT) AS score
  FROM words wd
  JOIN wscore ws ON wd.w = ws.w
  JOIN plens pl ON wd.doc_id = pl.doc_id AND wd.pid = pl.pid
  GROUP BY pl.doc_id, pl.pid, pl.phrase
)
SELECT phrase, CAST(COUNT(*) AS BIGINT) AS n_occ,
       CAST(MIN(score) AS BIGINT) AS score
FROM pscore GROUP BY phrase
ORDER BY score DESC, phrase LIMIT {topn}
""".format(
    stops=", ".join(f"'{w}'" for w in _RAKE_STOPWORDS), topn=_RAKE_TOPN
)


# ---------------------------------------------------------------------------
# host_gini — Gini coefficient of the per-host page distribution
# ---------------------------------------------------------------------------

def q_host_gini(sf_dir: str):
    """Crawl-skew report: the Gini coefficient of pages-per-host — THE
    number that says whether the corpus (and therefore every
    host-partitioned shuffle downstream) is dominated by heavy hitters.
    Gini = 2·Σᵢ i·cᵢ / (n·Σc) − (n+1)/n over the counts sorted
    ascending (the SQL ROW_NUMBER tiebreaks ties by host, but Σ rank·c
    is permutation-invariant within a tie group, so ranks here come in
    closed form per count-value bucket).

    Ranks are computed WITHOUT a global sort-and-collect: the host-count
    table is range-bucketed BY COUNT VALUE (bucket order = global order
    — crawl_budget_alloc's remainder-rank trick); per-bucket offsets are
    a driver fold over the tiny distinct-count histogram; each bucket
    then ranks its own rows and emits three int64 partials. Only
    (host, count) rows ever shuffle."""
    from ..functions.urls import hosts_array
    from ..stages.agg import partial_count
    from .queries import _pages_ds

    pages = _pages_ds(sf_dir, columns=["url"])
    hosts = pages.map_batches(
        lambda b: pa.table({"host": hosts_array(b.column("url"))}),
        batch_format="pyarrow",
    )
    hc = partial_count(hosts, "host", out_col="c")

    sizes = hc.groupby("c").count().take_all()  # bounded: one row per c (bounded key domain)
    sizes.sort(key=lambda r: r["c"])
    offs: dict[int, int] = {}
    acc = 0
    for r in sizes:
        offs[int(r["c"])] = acc
        acc += int(r["count()"])
    offs_ref = ray.put(offs)

    def per_bucket(g: pa.Table) -> pa.Table:
        # every row in a groupby("c") bucket shares the count value, so
        # Σ rank·c is rank-permutation-invariant: c · Σ(base+1..base+m)
        # in closed form — no within-bucket sort needed (arrow-in, r5)
        om = ray.get(offs_ref)
        c = int(g.column("c")[0].as_py())
        m = g.num_rows
        base = om[c]
        s1 = c * (m * base + m * (m + 1) // 2)
        return pa.table(
            {
                "s1": pa.array([s1], pa.int64()),
                "s0": pa.array([c * m], pa.int64()),
                "n": pa.array([m], pa.int64()),
            }
        )

    agg = hc.groupby("c").map_groups(per_bucket, batch_format="pyarrow").aggregate(
        ray.data.aggregate.Sum("s1", alias_name="s1"),
        ray.data.aggregate.Sum("s0", alias_name="s0"),
        ray.data.aggregate.Sum("n", alias_name="n"),
    )
    s1, s0, n = int(agg["s1"]), int(agg["s0"]), int(agg["n"])
    gini = float(2 * s1) / float(n * s0) - (float(n) + 1.0) / float(n)
    return pa.table(
        {
            "n_hosts": pa.array([n], pa.int64()),
            "total_pages": pa.array([s0], pa.int64()),
            "gini": pa.array([gini], pa.float64()),
        }
    )


SQL_HOST_GINI = """
WITH {pages},
hc AS (SELECT host, CAST(COUNT(*) AS BIGINT) AS c FROM purl GROUP BY host),
rk AS (
  SELECT c, CAST(ROW_NUMBER() OVER (ORDER BY c, host) AS BIGINT) AS r FROM hc
),
s AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(c) AS BIGINT) AS s0,
         CAST(SUM(r * c) AS BIGINT) AS s1
  FROM rk
)
SELECT n AS n_hosts, s0 AS total_pages,
       CAST(2 * s1 AS DOUBLE) / CAST(n * s0 AS DOUBLE)
         - (CAST(n AS DOUBLE) + CAST(1.0 AS DOUBLE)) / CAST(n AS DOUBLE)
         AS gini
FROM s
"""


# ---------------------------------------------------------------------------
# compression_ratio — zlib compressibility as a quality signal
# ---------------------------------------------------------------------------

def q_compression_ratio(sf_dir: str):
    """Per-doc zlib compressibility (RefinedWeb / MassiveText use the
    compression ratio as a boilerplate-and-repetition signal: highly
    compressible text is templated or repetitive). ratio =
    len(zlib.compress(utf8, level=6)) / len(utf8) — ONE float division
    per row; everything else is exact ints. Pure map stage: bodies
    never shuffle, no state, CPU-bound per batch.

    zlib has no SQL analogue, so the oracle is a pinned sf0.01 golden
    (VALUES table from scripts/gen_golden_oracles.py, with a scalar
    driver-side recompute asserted before pinning)."""
    import zlib

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def comp(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        raw = [(t or "").encode("utf-8") for t in texts]
        rl = np.fromiter((len(b) for b in raw), np.int64, len(raw))
        cl = np.fromiter(
            (len(zlib.compress(b, 6)) for b in raw), np.int64, len(raw)
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "raw_len": pa.array(rl, pa.int64()),
                "comp_len": pa.array(cl, pa.int64()),
                "ratio": pa.array(
                    cl.astype(np.float64) / np.maximum(rl, 1).astype(np.float64),
                    pa.float64(),
                ),
            }
        )

    return docs.map_batches(comp, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# rendezvous_assign — HRW (rendezvous) hashing of hosts onto workers
# ---------------------------------------------------------------------------

_HRW_WORKERS = 8


def q_rendezvous_assign(sf_dir: str):
    """Highest-random-weight (rendezvous) hashing — the shard-assignment
    discipline behind the crawl engine's host partitioning, as a query:
    each host goes to argmax over workers w of md5(host || '#' || w)
    (first 60 bits), so adding/removing a worker only moves 1/W of the
    hosts (the property mod-W hashing lacks). Output: per-worker host
    and page counts — the balance report for a W-worker fetch fleet.

    The hash runs on the HOST-AGGREGATE side (|hosts| rows, never the
    page table); W scores per host are computed map-side and reduced
    with one tiny groupby(worker)."""
    from ..functions.urls import hosts_array
    from ..stages.agg import partial_count
    from .queries import _pages_ds

    W = _HRW_WORKERS
    pages = _pages_ds(sf_dir, columns=["url"])
    hosts = pages.map_batches(
        lambda b: pa.table({"host": hosts_array(b.column("url"))}),
        batch_format="pyarrow",
    )
    hc = partial_count(hosts, "host", out_col="n_pages")

    def assign(batch: pa.Table) -> pa.Table:
        hs = batch.column("host").to_pylist()
        n = batch.column("n_pages").to_numpy(zero_copy_only=False).astype(np.int64)
        workers = np.empty(len(hs), np.int64)
        for i, h in enumerate(hs):
            best_w, best_s = 0, -1
            for w in range(W):
                s = int(
                    hashlib.md5(f"{h}#{w}".encode()).hexdigest()[:15], 16
                )
                if s > best_s:
                    best_w, best_s = w, s
            workers[i] = best_w
        return pa.table(
            {
                "worker": pa.array(workers, pa.int64()),
                "n_hosts": pa.array(np.ones(len(hs), np.int64), pa.int64()),
                "n_pages": pa.array(n, pa.int64()),
            }
        )

    return (
        hc.map_batches(assign, batch_format="pyarrow")
        .groupby("worker")
        .aggregate(
            ray.data.aggregate.Sum("n_hosts", alias_name="n_hosts"),
            ray.data.aggregate.Sum("n_pages", alias_name="n_pages"),
        )
    )


SQL_RENDEZVOUS_ASSIGN = (
    """
WITH {pages},
hc AS (
  SELECT host, CAST(COUNT(*) AS BIGINT) AS n_pages FROM purl GROUP BY host
),
scored AS (
  SELECT host, n_pages, w.w,
         CAST(('0x' || substr(md5(host || '#' || CAST(w.w AS VARCHAR)), 1, 15))
              AS BIGINT) AS s
  FROM hc, (SELECT UNNEST(generate_series(0, %d)) AS w) w
),
best AS (
  SELECT host, n_pages, w,
         ROW_NUMBER() OVER (PARTITION BY host ORDER BY s DESC, w) AS rk
  FROM scored
)
SELECT CAST(w AS BIGINT) AS worker,
       CAST(COUNT(*) AS BIGINT) AS n_hosts,
       CAST(SUM(n_pages) AS BIGINT) AS n_pages
FROM best WHERE rk = 1 GROUP BY w
"""
    % (_HRW_WORKERS - 1)
)


# ---------------------------------------------------------------------------
# fair_share_alloc — max-min (water-filling) fetch-slot allocation
# ---------------------------------------------------------------------------

def _water_level(hist: list[tuple[int, int]], budget: int) -> int:
    """Max integer L with Σ min(dᵢ, L) ≤ budget, from the tiny distinct-
    demand histogram [(value, count)] sorted ascending. Piecewise-linear
    segment walk — shared verbatim between the query and its test."""
    n = sum(c for _, c in hist)
    best = 0
    s_below = 0  # Σ d over demands ≤ previous value
    n_below = 0
    prev = 0
    for v, c in hist:
        a = n - n_below  # demands > prev, i.e. still unfilled in (prev, v]
        if a > 0:
            cand = min(v, (budget - s_below) // a)
            if cand >= prev + 1:
                best = max(best, cand)
        s_below += v * c
        n_below += c
        prev = v
    return best


def q_fair_share_alloc(sf_dir: str):
    """Max-min fair (water-filling) fetch-slot allocation — the
    fairness-first alternative to crawl_budget_alloc's proportional
    split: every host gets min(demand, L) where the water level L is
    the largest integer keeping the total within budget (total//3
    here), and the leftover slots go one each to the highest-demand
    uncapped hosts (ties → host asc). Heavy hitters are clipped to L
    instead of dominating the wave.

    Scale shape: the water level comes from a driver fold over the
    DISTINCT-DEMAND histogram (tiny); the leftover bonus rank reuses
    the descending range-bucket two-level rank (bucket order = global
    order), so no per-host row ever lands on the driver."""
    from ..functions.urls import hosts_array
    from ..stages.agg import partial_count
    from .queries import _pages_ds

    pages = _pages_ds(sf_dir, columns=["url"])
    hosts = pages.map_batches(
        lambda b: pa.table({"host": hosts_array(b.column("url"))}),
        batch_format="pyarrow",
    )
    demands = partial_count(hosts, "host", out_col="demand").materialize()

    hist_rows = demands.groupby("demand").count().take_all()  # bounded: one row per demand (bounded key domain)
    hist = sorted((int(r["demand"]), int(r["count()"])) for r in hist_rows)
    total = sum(v * c for v, c in hist)
    budget = total // 3
    lev = _water_level(hist, budget)
    base_sum = sum(min(v, lev) * c for v, c in hist)
    leftover = budget - base_sum

    # two-level rank of uncapped hosts by (demand DESC, host ASC):
    # per-demand-value offsets from the histogram, descending
    offs: dict[int, int] = {}
    acc = 0
    for v, c in sorted(hist, reverse=True):
        if v >= lev + 1:
            offs[v] = acc
            acc += c
    offs_ref = ray.put((offs, lev, leftover))

    def alloc(g: pa.Table) -> pa.Table:
        # arrow-native (r5)
        om, L, R = ray.get(offs_ref)
        g = g.sort_by("host")
        d = g.column("demand").to_numpy(zero_copy_only=False).astype(np.int64)
        base = np.minimum(d, L)
        v = int(d[0])
        if v >= L + 1:
            ranks = om[v] + np.arange(1, len(d) + 1, dtype=np.int64)
            base = base + (ranks <= R).astype(np.int64)
        return pa.table(
            {
                "host": g.column("host"),
                "demand": pa.array(d, pa.int64()),
                "alloc": pa.array(base, pa.int64()),
            }
        )

    return demands.groupby("demand").map_groups(alloc, batch_format="pyarrow")


SQL_FAIR_SHARE_ALLOC = """
WITH {pages},
c AS (SELECT host, CAST(COUNT(*) AS BIGINT) AS demand FROM purl GROUP BY host),
t AS (SELECT CAST(SUM(demand) AS BIGINT) AS total,
             CAST(COUNT(*) AS BIGINT) AS n FROM c),
b AS (SELECT total // 3 AS bud FROM t),
dv AS (SELECT demand AS v, CAST(COUNT(*) AS BIGINT) AS cnt FROM c GROUP BY demand),
seg AS (
  SELECT v,
         CAST(COALESCE(SUM(v * cnt) OVER (ORDER BY v
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT)
           AS s_below,
         CAST(COALESCE(SUM(cnt) OVER (ORDER BY v
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT)
           AS n_below,
         CAST(COALESCE(LAG(v) OVER (ORDER BY v), 0) AS BIGINT) AS prev
  FROM dv
),
cands AS (
  SELECT LEAST(v, (b.bud - s_below) // (t.n - n_below)) AS cand, prev
  FROM seg, b, t
  WHERE t.n - n_below > 0
),
lvl AS (
  SELECT CAST(COALESCE(MAX(cand), 0) AS BIGINT) AS lev
  FROM cands WHERE cand >= prev + 1
),
based AS (
  SELECT host, demand, LEAST(demand, lvl.lev) AS base,
         demand >= lvl.lev + 1 AS unc
  FROM c, lvl
),
lo AS (
  SELECT CAST((SELECT bud FROM b) - SUM(base) AS BIGINT) AS leftover FROM based
),
rk AS (
  SELECT host, demand, base, unc,
         CAST(ROW_NUMBER() OVER (ORDER BY demand DESC, host) AS BIGINT) AS r
  FROM based
)
SELECT host, demand,
       base + CASE WHEN unc AND r <= (SELECT leftover FROM lo)
                   THEN 1 ELSE 0 END AS alloc
FROM rk
"""


# ---------------------------------------------------------------------------
# zipf_fit — power-law slope of the token rank-frequency curve
# ---------------------------------------------------------------------------

_ZIPF_K = 30


def q_zipf_fit(sf_dir: str):
    """Corpus-health statistic: OLS fit of ln(freq) against ln(rank)
    over the top-K token ranks — natural text follows Zipf (slope ≈ −1);
    a collapsed or templated corpus doesn't. Token frequencies come from
    a map-side Counter partial + one groupby; the rank curve is a
    distributed sort+limit(K); the fit runs on K scalars.

    Float discipline: each (ln rank, ln freq) is fixed-point-quantized
    (floor(ln·1e9 + 0.5), scalar libm log); the five moment sums are
    EXACT integers (HUGEINT products in SQL — qx·qy overflows int64),
    and slope/intercept are the only float operations, mirrored
    operand-for-operand."""
    import math

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])

    def counts(batch: pa.Table) -> pa.Table:
        freq: dict[str, int] = {}
        for text in batch.column("text").to_pylist():
            for tok in (text or "").split():
                freq[tok] = freq.get(tok, 0) + 1
        words = sorted(freq)
        return pa.table(
            {
                "w": pa.array(words, pa.string()),
                "c": pa.array([freq[w] for w in words], pa.int64()),
            }
        )

    top = (
        docs.map_batches(counts, batch_format="pyarrow")
        .groupby("w")
        .aggregate(ray.data.aggregate.Sum("c", alias_name="c"))
        .sort(["c", "w"], descending=[True, False])
        .limit(_ZIPF_K)
        .take_all()  # bounded: ≤ _ZIPF_K rows (sort+limit)
    )
    n = len(top)
    sx = sy = sxy = sxx = 0
    for r, row in enumerate(top, start=1):
        qx = math.floor(math.log(float(r)) * 1e9 + 0.5)
        qy = math.floor(math.log(float(int(row["c"]))) * 1e9 + 0.5)
        sx += qx
        sy += qy
        sxy += qx * qy
        sxx += qx * qx
    num = n * sxy - sx * sy
    den = n * sxx - sx * sx
    slope = float(num) / float(den)
    intercept = (float(sy) - slope * float(sx)) / float(n) / 1e9
    return pa.table(
        {
            "n_points": pa.array([n], pa.int64()),
            "slope": pa.array([slope], pa.float64()),
            "intercept": pa.array([intercept], pa.float64()),
        }
    )


SQL_ZIPF_FIT = r"""
WITH toks AS (
  SELECT list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS t
  FROM documents
),
occ AS (SELECT t[i] AS w FROM toks, LATERAL UNNEST(generate_series(1, len(t))) AS s(i)),
freq AS (SELECT w, CAST(COUNT(*) AS BIGINT) AS c FROM occ GROUP BY w),
ranked AS (
  SELECT c, CAST(ROW_NUMBER() OVER (ORDER BY c DESC, w) AS BIGINT) AS r FROM freq
),
pts AS (
  SELECT CAST(floor(ln(CAST(r AS DOUBLE)) * 1e9 + CAST(0.5 AS DOUBLE)) AS BIGINT) AS qx,
         CAST(floor(ln(CAST(c AS DOUBLE)) * 1e9 + CAST(0.5 AS DOUBLE)) AS BIGINT) AS qy
  FROM ranked WHERE r <= {k}
),
sums AS (
  SELECT CAST(COUNT(*) AS HUGEINT) AS n,
         CAST(SUM(qx) AS HUGEINT) AS sx,
         CAST(SUM(qy) AS HUGEINT) AS sy,
         SUM(CAST(qx AS HUGEINT) * CAST(qy AS HUGEINT)) AS sxy,
         SUM(CAST(qx AS HUGEINT) * CAST(qx AS HUGEINT)) AS sxx
  FROM pts
),
fit AS (
  SELECT CAST(n AS BIGINT) AS n_points,
         CAST(n * sxy - sx * sy AS DOUBLE)
           / CAST(n * sxx - sx * sx AS DOUBLE) AS slope,
         sx, sy, n
  FROM sums
)
SELECT n_points, slope,
       (CAST(sy AS DOUBLE) - slope * CAST(sx AS DOUBLE))
         / CAST(n AS DOUBLE) / 1e9 AS intercept
FROM fit
""".format(k=_ZIPF_K)


# ---------------------------------------------------------------------------
# recrawl_pipeline — change-rate → priority → fair-share budget → admission
# ---------------------------------------------------------------------------

def q_recrawl_pipeline(sf_dir: str):
    """The composed snapshot-refresh pipeline a production crawler runs
    per cycle, end to end over Datasets:

      1. Cho–Garcia-Molina change rates from the 6-snapshot observation
         log (stages/freshness.change_rate);
      2. priority = the estimated rate, fixed-point-quantized so
         ranking is integer-exact; universe = stale docs (≥1 observed
         change); host = the planted heavy-hitter layout
         (doc_id%7==0 → host 0, else doc_id%20);
      3. per-host fetch budget by max-min water-filling over stale
         demand (fair_share_alloc's level + leftover-bonus machinery),
         budget = total_stale // 3;
      4. admission: within each host keep the top-alloc docs by
         (priority desc, doc_id asc) — per-host ranks computed
         VECTORIZED inside hash(host)%P buckets (the sessionize
         discipline, never one group per host), alloc map broadcast.

    Output: the admitted fetch list (host_id, doc_id, pr_fp, rk)."""
    from ..stages.freshness import change_rate
    from .queries_wave8 import _snapshot_history

    return recrawl_admission(change_rate(_snapshot_history(sf_dir)))


def recrawl_admission(rates: "ray.data.Dataset") -> "ray.data.Dataset":
    """Stages 2–4 of the recrawl pipeline over a change-rate Dataset
    (doc_id, n_obs, n_changes, change_ratio, est_rate) — factored out so
    the scale demo can feed a synthetic observation log of any size."""
    import math

    def enrich(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        nch = batch.column("n_changes").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        er = batch.column("est_rate").to_pylist()
        keep = nch >= 1
        pr = np.fromiter(
            (math.floor(e * 1e9 + 0.5) for e, k in zip(er, keep) if k),
            np.int64,
            int(keep.sum()),
        )
        ids = ids[keep]
        host = np.where(ids % 7 == 0, 0, ids % 20).astype(np.int64)
        return pa.table(
            {
                "host_id": pa.array(host, pa.int64()),
                "doc_id": pa.array(ids, pa.int64()),
                "pr_fp": pa.array(pr, pa.int64()),
            }
        )

    stale = rates.map_batches(enrich, batch_format="pyarrow").materialize()

    demands = {
        int(r["host_id"]): int(r["count()"])
        for r in stale.groupby("host_id").count().take_all()  # bounded: one row per host_id (bounded key domain)
    }
    total = sum(demands.values())
    budget = total // 3
    from collections import Counter

    hist = sorted(Counter(demands.values()).items())
    lev = _water_level(hist, budget)
    leftover = budget - sum(min(d, lev) for d in demands.values())
    alloc: dict[int, int] = {h: min(d, lev) for h, d in demands.items()}
    for h, _d in sorted(
        ((h, d) for h, d in demands.items() if d >= lev + 1),
        key=lambda x: (-x[1], x[0]),
    )[:leftover]:
        alloc[h] += 1
    alloc_ref = ray.put(alloc)

    P = 32

    def tag(batch: pa.Table) -> pa.Table:
        h = batch.column("host_id").to_numpy(zero_copy_only=False)
        return batch.append_column("bucket", pa.array(h % P, pa.int64()))

    def admit(g: pa.Table) -> pa.Table:
        # arrow-native (r5)
        am = ray.get(alloc_ref)
        g = g.sort_by(
            [("host_id", "ascending"), ("pr_fp", "descending"),
             ("doc_id", "ascending")]
        )
        h = g.column("host_id").to_numpy(zero_copy_only=False).astype(np.int64)
        first = np.r_[True, h[1:] != h[:-1]]
        idx = np.arange(len(h), dtype=np.int64)
        rank = idx - np.repeat(idx[first], np.diff(np.r_[idx[first], len(h)])) + 1
        cap = np.fromiter((am.get(int(x), 0) for x in h), np.int64, len(h))
        keep = rank <= cap
        return pa.table(
            {
                "host_id": pa.array(h[keep], pa.int64()),
                "doc_id": pa.array(
                    g.column("doc_id").to_numpy(zero_copy_only=False)
                    .astype(np.int64)[keep], pa.int64()),
                "pr_fp": pa.array(
                    g.column("pr_fp").to_numpy(zero_copy_only=False)
                    .astype(np.int64)[keep], pa.int64()),
                "rk": pa.array(rank[keep], pa.int64()),
            }
        )

    return (
        stale.map_batches(tag, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(admit, batch_format="pyarrow")
    )


SQL_RECRAWL_PIPELINE = """
WITH ks AS (SELECT UNNEST(range(6)) AS k),
vers AS (
  SELECT doc_id, text, k,
         SUM(CASE WHEN k >= 1 AND (doc_id * 3 + k * k) % 7 = 0
                  THEN 1 ELSE 0 END)
           OVER (PARTITION BY doc_id ORDER BY k) AS v
  FROM documents CROSS JOIN ks
),
obs AS (
  SELECT doc_id, k,
         md5(text || '#v' || CAST(v AS VARCHAR)) AS content_hash
  FROM vers WHERE (doc_id + k) % 13 <> 0
),
pairs AS (
  SELECT doc_id, content_hash,
         LAG(content_hash) OVER (PARTITION BY doc_id ORDER BY k) AS prev
  FROM obs
),
agg AS (
  SELECT doc_id,
         CAST(COUNT(*) AS BIGINT) AS n_obs,
         CAST(SUM(CASE WHEN prev IS NOT NULL AND prev <> content_hash
                       THEN 1 ELSE 0 END) AS BIGINT) AS n_changes
  FROM pairs GROUP BY doc_id
),
stale AS (
  SELECT CASE WHEN doc_id % 7 = 0 THEN 0 ELSE doc_id % 20 END AS host_id,
         doc_id,
         CAST(floor(-ln((CAST(n_obs - 1 - n_changes AS DOUBLE)
                         + CAST(0.5 AS DOUBLE))
                        / (CAST(n_obs - 1 AS DOUBLE) + CAST(0.5 AS DOUBLE)))
                    * 1e9 + CAST(0.5 AS DOUBLE)) AS BIGINT) AS pr_fp
  FROM agg WHERE n_changes >= 1
),
c AS (SELECT host_id, CAST(COUNT(*) AS BIGINT) AS demand FROM stale GROUP BY host_id),
t AS (SELECT CAST(SUM(demand) AS BIGINT) AS total,
             CAST(COUNT(*) AS BIGINT) AS n FROM c),
b AS (SELECT total // 3 AS bud FROM t),
dv AS (SELECT demand AS v, CAST(COUNT(*) AS BIGINT) AS cnt FROM c GROUP BY demand),
seg AS (
  SELECT v,
         CAST(COALESCE(SUM(v * cnt) OVER (ORDER BY v
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT)
           AS s_below,
         CAST(COALESCE(SUM(cnt) OVER (ORDER BY v
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT)
           AS n_below,
         CAST(COALESCE(LAG(v) OVER (ORDER BY v), 0) AS BIGINT) AS prev
  FROM dv
),
cands AS (
  SELECT LEAST(v, (b.bud - s_below) // (t.n - n_below)) AS cand, prev
  FROM seg, b, t
  WHERE t.n - n_below > 0
),
lvl AS (
  SELECT CAST(COALESCE(MAX(cand), 0) AS BIGINT) AS lev
  FROM cands WHERE cand >= prev + 1
),
based AS (
  SELECT host_id, demand, LEAST(demand, lvl.lev) AS base,
         demand >= lvl.lev + 1 AS unc
  FROM c, lvl
),
lo AS (
  SELECT CAST((SELECT bud FROM b) - SUM(base) AS BIGINT) AS leftover FROM based
),
rkb AS (
  SELECT host_id, base, unc,
         CAST(ROW_NUMBER() OVER (ORDER BY demand DESC, host_id) AS BIGINT) AS r
  FROM based
),
alloc AS (
  SELECT host_id,
         base + CASE WHEN unc AND r <= (SELECT leftover FROM lo)
                     THEN 1 ELSE 0 END AS alloc
  FROM rkb
),
adm AS (
  SELECT host_id, doc_id, pr_fp,
         CAST(ROW_NUMBER() OVER (PARTITION BY host_id
              ORDER BY pr_fp DESC, doc_id) AS BIGINT) AS rk
  FROM stale
)
SELECT a.host_id, a.doc_id, a.pr_fp, a.rk
FROM adm a JOIN alloc al ON a.host_id = al.host_id
WHERE a.rk <= al.alloc
"""


# ---------------------------------------------------------------------------
# kmeans_silhouette — simplified (centroid) silhouette per cluster
# ---------------------------------------------------------------------------

def q_kmeans_silhouette(sf_dir: str):
    """Clustering quality readout for the k-means chain (the eval that
    closes the clustering loop the way logreg_auc closes the
    classifier's): the SIMPLIFIED silhouette — per point, a = distance
    to its own centroid, b = distance to the nearest OTHER centroid,
    s = (√b − √a)/√max(a,b) — averaged per cluster. O(n·k) against
    broadcast centroids instead of the O(n²) full silhouette, the
    standard large-scale variant.

    Float discipline: a and b are exact int64 fixed-point squared
    distances; each s is quantized (floor(s·1e9 + 0.5), sqrt IEEE-parity
    both engines) so the per-cluster mean is an exact-int sum + ONE
    division. Oracle = the shared unrolled k-means CTE chain + one extra
    distance block against the final centroids."""
    from ..stages.cluster import _dist_matrix, kmeans_fp, quantize_embeddings

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    _, cents = kmeans_fp(emb, k=8, iters=4)
    cents_ref = ray.put(cents)

    def sil(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            z = np.zeros(0, np.int64)
            return pa.table(
                {"cluster": pa.array(z), "s_fp": pa.array(z), "one": pa.array(z)}
            )
        c = ray.get(cents_ref).astype(np.int64)
        e = quantize_embeddings(batch, "embedding").astype(np.int64)
        d2 = _dist_matrix(e, c)  # the _assign kernel: einsum, no (n,k,d) temp
        assigned = np.argmin(d2, axis=1)  # ties → lowest cluster id
        srt = np.sort(d2, axis=1)
        da, db = srt[:, 0], srt[:, 1]
        mx = np.maximum(da, db).astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            s = np.where(
                mx > 0,
                (np.sqrt(db.astype(np.float64)) - np.sqrt(da.astype(np.float64)))
                / np.sqrt(mx),
                0.0,
            )
        sfp = np.floor(s * 1e9 + 0.5).astype(np.int64)
        return pa.table(
            {
                "cluster": pa.array(assigned.astype(np.int64), pa.int64()),
                "s_fp": pa.array(sfp, pa.int64()),
                "one": pa.array(np.ones(len(sfp), np.int64), pa.int64()),
            }
        )

    agg = (
        emb.map_batches(sil, batch_format="pyarrow")
        .groupby("cluster")
        .aggregate(
            ray.data.aggregate.Sum("s_fp", alias_name="sum_s_fp"),
            ray.data.aggregate.Sum("one", alias_name="n"),
        )
    )

    def finish(batch: pa.Table) -> pa.Table:
        ss = batch.column("sum_s_fp").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        n = batch.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "cluster": batch.column("cluster").cast(pa.int64()),
                "n": pa.array(n, pa.int64()),
                "mean_silhouette": pa.array(
                    ss.astype(np.float64) / 1e9 / n.astype(np.float64),
                    pa.float64(),
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


# queries.py builds this oracle with its kmeans CTE chain (queries.py
# imports THIS module, so the chain is passed in)
def _silhouette_sql(kmeans_chain: str) -> str:
    return f"""
WITH {kmeans_chain},
d5 AS (
  SELECT f.vec_id, c.cluster, CAST(SUM((f.e - c.c) * (f.e - c.c)) AS BIGINT) AS d
  FROM efp f JOIN c4 c USING (dim) GROUP BY f.vec_id, c.cluster
),
rk AS (
  SELECT vec_id, cluster, d,
         row_number() OVER (PARTITION BY vec_id ORDER BY d, cluster) AS rn
  FROM d5
),
ab AS (
  SELECT a.vec_id, a.cluster, a.d AS da, b.d AS db
  FROM (SELECT vec_id, cluster, d FROM rk WHERE rn = 1) a
  JOIN (SELECT vec_id, d FROM rk WHERE rn = 2) b USING (vec_id)
),
s AS (
  SELECT cluster,
         CAST(floor(
           (CASE WHEN GREATEST(da, db) = 0 THEN CAST(0.0 AS DOUBLE)
                 ELSE (sqrt(CAST(db AS DOUBLE)) - sqrt(CAST(da AS DOUBLE)))
                      / sqrt(CAST(GREATEST(da, db) AS DOUBLE)) END)
           * 1e9 + CAST(0.5 AS DOUBLE)) AS BIGINT) AS sfp
  FROM ab
)
SELECT CAST(cluster AS BIGINT) AS cluster,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(sfp) AS DOUBLE) / 1e9 / CAST(COUNT(*) AS DOUBLE)
         AS mean_silhouette
FROM s GROUP BY cluster
"""


# ---------------------------------------------------------------------------
# snapshot_novelty — per-doc n-gram novelty of a recrawl vs the prior snap
# ---------------------------------------------------------------------------

def q_snapshot_novelty(sf_dir: str):
    """Incremental-corpus quality signal: for every doc in the CURRENT
    snapshot, the fraction of its distinct token 5-grams that appear
    NOWHERE in the previous snapshot — near 0 for re-fetched unchanged
    pages, small for edited pages (only the edit's grams are new),
    ~1 for genuinely new content. Snapshots reuse crawl_delta's
    membership/mutation rules (prev drops id%7==3; curr drops id%10==6
    and appends 'v2' to every 5th doc's text).

    Scale shape: both sides reduce to 64-bit rolling gram hashes
    (per-doc distinct map-side), the membership test is ONE bucketed
    attach (attach_node_value: only int rows shuffle, missing keys →
    sentinel = novel), and the per-doc tally is one groupby. The oracle
    joins on the literal gram STRING — same equality relation as the
    hash modulo 64-bit collisions (the bigram_logprob discipline)."""
    from ..functions.hashing import hash64
    from ..stages.graph import attach_node_value

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    K = np.uint64(1_000_003)

    def gram_hashes(text: str) -> np.ndarray:
        toks = (text or "").split()
        if len(toks) < 5:
            return np.zeros(0, np.uint64)
        th = hash64(toks)
        g = th[:-4].copy()
        with np.errstate(over="ignore"):
            for off in range(1, 5):
                g = g * K + th[off : len(th) - 4 + off]
        return np.unique(g)

    def curr_grams(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        d_out, g_out = [], []
        for did, text in zip(ids, batch.column("text").to_pylist()):
            if did % 10 == 6:
                continue
            if did % 5 == 0:
                text = (text or "") + "v2"
            g = gram_hashes(text)
            d_out.append(np.full(len(g), did, np.int64))
            g_out.append(g.view(np.int64))
        if not d_out:
            z = np.zeros(0, np.int64)
            return pa.table({"doc_id": pa.array(z), "g": pa.array(z)})
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate(d_out), pa.int64()),
                "g": pa.array(np.concatenate(g_out), pa.int64()),
            }
        )

    def prev_grams(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        g_out = []
        for did, text in zip(ids, batch.column("text").to_pylist()):
            if did % 7 == 3:
                continue
            g_out.append(gram_hashes(text).view(np.int64))
        g = np.concatenate(g_out) if g_out else np.zeros(0, np.int64)
        n = len(g)
        return pa.table(
            {
                "g": pa.array(g, pa.int64()),
                "one": pa.array(np.ones(n, np.int64), pa.int64()),
            }
        )

    curr = docs.map_batches(curr_grams, batch_format="pyarrow")
    prev = docs.map_batches(prev_grams, batch_format="pyarrow")

    att = attach_node_value(curr, prev, "g", "seen", ["doc_id", "g"])

    def tally(batch: pa.Table) -> pa.Table:
        seen = batch.column("seen").to_numpy(zero_copy_only=False).astype(np.int64)
        n = batch.num_rows
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "one": pa.array(np.ones(n, np.int64), pa.int64()),
                "novel": pa.array((seen < 0).astype(np.int64), pa.int64()),
            }
        )

    agg = (
        att.map_batches(tally, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(
            ray.data.aggregate.Sum("one", alias_name="n_grams"),
            ray.data.aggregate.Sum("novel", alias_name="n_novel"),
        )
    )

    def finish(batch: pa.Table) -> pa.Table:
        ng = batch.column("n_grams").to_numpy(zero_copy_only=False).astype(np.int64)
        nv = batch.column("n_novel").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "n_grams": pa.array(ng, pa.int64()),
                "n_novel": pa.array(nv, pa.int64()),
                "novelty": pa.array(
                    nv.astype(np.float64) / ng.astype(np.float64), pa.float64()
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


SQL_SNAPSHOT_NOVELTY = r"""
WITH curr AS (
  SELECT doc_id,
         CASE WHEN doc_id % 5 = 0 THEN text || 'v2' ELSE text END AS text
  FROM documents WHERE doc_id % 10 <> 6
),
prevs AS (SELECT text FROM documents WHERE doc_id % 7 <> 3),
ct AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS t
  FROM curr
),
cg AS (
  SELECT DISTINCT doc_id,
         t[i] || ' ' || t[i+1] || ' ' || t[i+2] || ' ' || t[i+3] || ' '
              || t[i+4] AS g
  FROM ct, LATERAL UNNEST(generate_series(1, len(t) - 4)) AS s(i)
  WHERE len(t) >= 5
),
pt AS (
  SELECT list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS t
  FROM prevs
),
pg AS (
  SELECT DISTINCT t[i] || ' ' || t[i+1] || ' ' || t[i+2] || ' ' || t[i+3]
              || ' ' || t[i+4] AS g
  FROM pt, LATERAL UNNEST(generate_series(1, len(t) - 4)) AS s(i)
  WHERE len(t) >= 5
),
scored AS (
  SELECT c.doc_id,
         CAST(COUNT(*) AS BIGINT) AS n_grams,
         CAST(SUM(CASE WHEN p.g IS NULL THEN 1 ELSE 0 END) AS BIGINT)
           AS n_novel
  FROM cg c LEFT JOIN pg p USING (g) GROUP BY c.doc_id
)
SELECT doc_id, n_grams, n_novel,
       CAST(n_novel AS DOUBLE) / CAST(n_grams AS DOUBLE) AS novelty
FROM scored
"""


# ---------------------------------------------------------------------------
# lang_mixing — windowed language-ID votes (code-switch detection)
# ---------------------------------------------------------------------------

_MIX_WINDOW = 20


def q_lang_mixing(sf_dir: str):
    """Code-switching / boilerplate-contamination detector: lang_id's
    stopword profiles voted per 20-token WINDOW instead of per doc.
    A window is confident when ≥1 profile word matches; its vote is the
    (count desc, lang asc) argmax. Per doc: window counts, distinct
    confident votes (n_langs > 1 = mixed-language doc), the majority
    vote, and how many confident windows disagree with it.

    Entirely map-side — every doc's windows live in its own row, so the
    operator is ONE map_batches with zero shuffles; the oracle rebuilds
    the same votes from a (lang, word) VALUES table generated from the
    SAME profile dict (no drift). The per-doc voter is the shared
    textstats.lang_mix_doc kernel (also behind the webtext lang gate)."""
    from ..stages.textstats import lang_mix_doc

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def mix(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        out = {
            "doc_id": [], "n_windows": [], "n_confident": [],
            "n_langs": [], "majority_lang": [], "n_disagree": [],
        }
        for did, text in zip(ids, batch.column("text").to_pylist()):
            nw, n_conf, n_langs, majority, n_dis = lang_mix_doc(
                text, _MIX_WINDOW
            )
            if nw == 0:
                continue
            out["doc_id"].append(int(did))
            out["n_windows"].append(nw)
            out["n_confident"].append(n_conf)
            out["n_langs"].append(n_langs)
            out["majority_lang"].append(majority)
            out["n_disagree"].append(n_dis)
        return pa.table(
            {
                "doc_id": pa.array(out["doc_id"], pa.int64()),
                "n_windows": pa.array(out["n_windows"], pa.int64()),
                "n_confident": pa.array(out["n_confident"], pa.int64()),
                "n_langs": pa.array(out["n_langs"], pa.int64()),
                "majority_lang": pa.array(out["majority_lang"], pa.string()),
                "n_disagree": pa.array(out["n_disagree"], pa.int64()),
            }
        )

    return docs.map_batches(mix, batch_format="pyarrow")


def _lang_mixing_sql() -> str:
    from ..stages.textstats import _LANG_PROFILES

    vals = ", ".join(
        f"('{lang}', '{w}')"
        for lang in sorted(_LANG_PROFILES)
        for w in _LANG_PROFILES[lang]
    )
    return r"""
WITH lt AS (SELECT * FROM (VALUES {vals}) AS t(lang, word)),
toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '\s+'), x -> x <> '')
           AS t
  FROM documents
),
nw AS (
  SELECT doc_id, CAST((len(t) + {W} - 1) // {W} AS BIGINT) AS n_windows
  FROM toks WHERE len(t) > 0
),
pos AS (
  SELECT doc_id, CAST((i - 1) // {W} AS BIGINT) AS wd, t[i] AS w
  FROM toks, LATERAL UNNEST(generate_series(1, len(t))) AS s(i)
),
lc AS (
  SELECT doc_id, wd, lang, CAST(COUNT(*) AS BIGINT) AS c
  FROM pos JOIN lt ON w = word GROUP BY doc_id, wd, lang
),
conf AS (
  SELECT doc_id, wd, lang FROM (
    SELECT doc_id, wd, lang,
           ROW_NUMBER() OVER (PARTITION BY doc_id, wd ORDER BY c DESC, lang)
             AS rn
    FROM lc
  ) WHERE rn = 1
),
vc AS (
  SELECT doc_id, lang, CAST(COUNT(*) AS BIGINT) AS nvote
  FROM conf GROUP BY doc_id, lang
),
m1 AS (
  SELECT doc_id, lang AS majority_lang FROM (
    SELECT doc_id, lang,
           ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY nvote DESC, lang)
             AS rn
    FROM vc
  ) WHERE rn = 1
),
stats AS (
  SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_confident,
         CAST(COUNT(DISTINCT lang) AS BIGINT) AS n_langs
  FROM conf GROUP BY doc_id
),
dis AS (
  SELECT c.doc_id,
         CAST(SUM(CASE WHEN c.lang <> m.majority_lang THEN 1 ELSE 0 END)
              AS BIGINT) AS n_disagree
  FROM conf c JOIN m1 m USING (doc_id) GROUP BY c.doc_id
)
SELECT nw.doc_id, nw.n_windows,
       COALESCE(stats.n_confident, 0) AS n_confident,
       COALESCE(stats.n_langs, 0) AS n_langs,
       COALESCE(m1.majority_lang, 'unknown') AS majority_lang,
       COALESCE(dis.n_disagree, 0) AS n_disagree
FROM nw
LEFT JOIN stats USING (doc_id)
LEFT JOIN m1 USING (doc_id)
LEFT JOIN dis USING (doc_id)
""".replace("{vals}", vals).replace("{W}", str(_MIX_WINDOW))


# ---------------------------------------------------------------------------
# scene_cuts — shot-boundary detection over decoded video frame grids
# ---------------------------------------------------------------------------

_SCENE_FRAMES = 12
_SCENE_CUT_DIST = 16


def q_scene_cuts(sf_dir: str):
    """Video shot-boundary detection on the multimodal seam: each
    video's payload is a sequence of 12 decoded 8×9 grayscale frame
    grids (the raw_gray_payload interchange — a real build puts
    ffmpeg's decode in front, the perceptual math after the seam is
    REAL); consecutive frames are dHashed (shared dhash_grids kernel)
    and a cut fires where the hamming distance ≥ 16. Synthetic videos:
    frame grids depend on (video, shot) with shot boundaries at
    (id + 17·f) % 5 == 0 — within a shot frames are identical
    (distance 0), across shots decorrelated (squared-congruence
    mixing, the image_dhash_dups discipline).

    One actor-pool map stage, fat payloads in / 11 small rows per video
    out; the oracle rebuilds grids, bits, two-half packed hashes and
    bit_count distances entirely in SQL."""
    from ..stages.multimodal import GRID_COLS, GRID_ROWS, dhash_grids

    F = _SCENE_FRAMES
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def synth(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        f = np.arange(F, dtype=np.int64)[None, :]
        change = (f >= 1) & ((ids[:, None] + 17 * f) % 5 == 0)
        shot = np.cumsum(change, axis=1).astype(np.int64)  # (n, F)
        r = np.arange(GRID_ROWS, dtype=np.int64)[None, None, :, None]
        c = np.arange(GRID_COLS, dtype=np.int64)[None, None, None, :]
        x = (
            ids[:, None, None, None] * 2654435761
            + shot[:, :, None, None] * 97911
            + r * 40503
            + c * 69427
        ) % 1000003
        grids = (((x * x) % 1000003) % 251).astype(np.uint8)  # (n, F, 8, 9)
        return pa.table(
            {
                "media_id": pa.array(ids, pa.int64()),
                "payload": pa.array([g.tobytes() for g in grids], pa.binary()),
            }
        )

    class SceneCuts:
        """Actor-pool stage (codec handles load once per actor in a
        real build); here the fixed-length payload decodes in one
        frombuffer per batch."""

        def __call__(self, batch: pa.Table) -> pa.Table:
            payloads = batch.column("payload").to_pylist()
            ids = batch.column("media_id").to_numpy(zero_copy_only=False)
            if not payloads:
                z = np.zeros(0, np.int64)
                return pa.table(
                    {
                        "media_id": pa.array(z),
                        "frame_idx": pa.array(z),
                        "dist": pa.array(z),
                        "is_cut": pa.array(np.zeros(0, bool), pa.bool_()),
                    }
                )
            grids = np.frombuffer(b"".join(payloads), dtype=np.uint8).reshape(
                len(payloads), F, GRID_ROWS, GRID_COLS
            )
            h = dhash_grids(grids)  # (n, F) uint64
            x = np.bitwise_xor(h[:, :-1], h[:, 1:])  # (n, F-1)
            dist = (
                np.unpackbits(x.view(np.uint8).reshape(len(payloads), F - 1, 8), axis=2)
                .sum(axis=2)
                .astype(np.int64)
            )
            n = len(payloads)
            return pa.table(
                {
                    "media_id": pa.array(
                        np.repeat(ids.astype(np.int64), F - 1), pa.int64()
                    ),
                    "frame_idx": pa.array(
                        np.tile(np.arange(1, F, dtype=np.int64), n), pa.int64()
                    ),
                    "dist": pa.array(dist.reshape(-1), pa.int64()),
                    "is_cut": pa.array(
                        (dist.reshape(-1) >= _SCENE_CUT_DIST), pa.bool_()
                    ),
                }
            )

    media = docs.map_batches(synth, batch_format="pyarrow")
    return media.map_batches(
        SceneCuts, batch_format="pyarrow", batch_size=64, concurrency=(1, 8)
    )


SQL_SCENE_CUTS = """
WITH frames AS (
  SELECT d.doc_id, t_f.f,
         SUM(CASE WHEN t_f.f >= 1 AND (d.doc_id + 17 * t_f.f) % 5 = 0
                  THEN 1 ELSE 0 END)
           OVER (PARTITION BY d.doc_id ORDER BY t_f.f) AS shot
  FROM documents d, range({F}) t_f(f)
),
g AS MATERIALIZED (
  SELECT doc_id, f, r, c,
         ((x * x) % 1000003) % 251 AS v
  FROM (
    SELECT fr.doc_id, fr.f, t_r.r, t_c.c,
           (fr.doc_id * 2654435761 + fr.shot * 97911
            + t_r.r * 40503 + t_c.c * 69427) % 1000003 AS x
    FROM frames fr, range(8) t_r(r), range(9) t_c(c)
  )
),
bits AS MATERIALIZED (
  SELECT a.doc_id, a.f, CAST(a.r * 8 + a.c AS INTEGER) AS k,
         CASE WHEN a.v < b.v THEN 1 ELSE 0 END AS bit
  FROM g a JOIN g b ON b.doc_id = a.doc_id AND b.f = a.f
                   AND b.r = a.r AND b.c = a.c + 1
  WHERE a.c < 8
),
h AS MATERIALIZED (
  SELECT doc_id, f,
         bit_or(CASE WHEN k < 32 THEN CAST(bit AS BIGINT) << k
                     ELSE CAST(0 AS BIGINT) END) AS lo,
         bit_or(CASE WHEN k >= 32 THEN CAST(bit AS BIGINT) << (k - 32)
                     ELSE CAST(0 AS BIGINT) END) AS hi
  FROM bits GROUP BY doc_id, f
)
SELECT a.doc_id AS media_id, CAST(b.f AS BIGINT) AS frame_idx,
       CAST(bit_count(xor(a.lo, b.lo)) + bit_count(xor(a.hi, b.hi))
            AS BIGINT) AS dist,
       (bit_count(xor(a.lo, b.lo)) + bit_count(xor(a.hi, b.hi))) >= {CUT}
         AS is_cut
FROM h a JOIN h b ON b.doc_id = a.doc_id AND b.f = a.f + 1
""".format(F=_SCENE_FRAMES, CUT=_SCENE_CUT_DIST)


# ---------------------------------------------------------------------------
# mime_sniff — magic-byte content-type detection vs declared headers
# ---------------------------------------------------------------------------

_MAGIC = (
    (b"%PDF-", "application/pdf"),
    (b"\xff\xd8\xff", "image/jpeg"),
    (b"\x89PNG\r\n\x1a\n", "image/png"),
    (b"GIF8", "image/gif"),
    (b"\x1f\x8b", "application/gzip"),
)
_MIME_BY_KIND = (
    "text/html",
    "application/pdf",
    "image/jpeg",
    "image/png",
    "image/gif",
    "application/gzip",
)


def sniff_mime(payload: bytes) -> str:
    """Magic-byte content-type sniffing (the crawl-side reality check on
    Content-Type headers; WHATWG-sniffing-shaped, binary signatures
    first, then an HTML tag probe over the first 64 bytes)."""
    for magic, mime in _MAGIC:
        if payload.startswith(magic):
            return mime
    head = payload[:64].lstrip().lower()
    if head.startswith((b"<!doctype html", b"<html")):
        return "text/html"
    return "application/octet-stream"


def q_mime_sniff(sf_dir: str):
    """Content-type verification over fetched payloads: sniff the real
    magic bytes of every payload and compare against the DECLARED
    header — mislabeled responses (every 17th doc here declares
    text/html regardless of its true type) are how image bytes end up
    in a text corpus. Synthetic payloads carry genuine signatures
    (%PDF-, JPEG FFD8FF, PNG, GIF8, gzip 1F8B, or an <html> probe) by
    doc_id % 6; the sniffer sees only bytes. Pure map stage; the oracle
    states the planted ground truth from the generation rule (the
    extract_docs oracle style), so any sniffing regression mismatches."""
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def synth_and_sniff(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        declared, sniffed = [], []
        for did in ids:
            kind = int(did) % 6
            if kind == 0:
                payload = b"<!DOCTYPE html><html><body>" + bytes(
                    f"doc {did}", "ascii"
                )
            elif kind == 1:
                payload = b"%PDF-1.7\n% " + bytes(f"doc {did}", "ascii")
            elif kind == 2:
                payload = b"\xff\xd8\xff\xe0" + bytes(f"doc {did}", "ascii")
            elif kind == 3:
                payload = b"\x89PNG\r\n\x1a\n" + bytes(f"doc {did}", "ascii")
            elif kind == 4:
                payload = b"GIF89a" + bytes(f"doc {did}", "ascii")
            else:
                payload = b"\x1f\x8b\x08" + bytes(f"doc {did}", "ascii")
            declared.append(
                "text/html" if did % 17 == 0 else _MIME_BY_KIND[kind]
            )
            sniffed.append(sniff_mime(payload))
        mism = [d != s for d, s in zip(declared, sniffed)]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "declared": pa.array(declared, pa.string()),
                "sniffed": pa.array(sniffed, pa.string()),
                "mismatch": pa.array(mism, pa.bool_()),
            }
        )

    return docs.map_batches(synth_and_sniff, batch_format="pyarrow")


SQL_MIME_SNIFF = """
WITH kinds AS (
  SELECT doc_id, doc_id % 6 AS kind,
         CASE doc_id % 6
           WHEN 0 THEN 'text/html'
           WHEN 1 THEN 'application/pdf'
           WHEN 2 THEN 'image/jpeg'
           WHEN 3 THEN 'image/png'
           WHEN 4 THEN 'image/gif'
           ELSE 'application/gzip' END AS true_mime
  FROM documents
)
SELECT doc_id,
       CASE WHEN doc_id % 17 = 0 THEN 'text/html' ELSE true_mime END
         AS declared,
       true_mime AS sniffed,
       (CASE WHEN doc_id % 17 = 0 THEN 'text/html' ELSE true_mime END)
         <> true_mime AS mismatch
FROM kinds
"""


# ---------------------------------------------------------------------------
# minhash_estimator — signature Jaccard estimate vs exact, per planted pair
# ---------------------------------------------------------------------------

_MH_EST_PERMS = 16
_MH_P = (1 << 61) - 1


def mh_est_coeffs(n_perm: int = _MH_EST_PERMS):
    """The Carter-Wegman permutation family of the estimator pair
    queries (minhash_estimator / minhash_bbit / minhash_lsh_eval /
    lsh_band_curve): md5-slice coefficients, ONE definition — the
    oracles recompute the identical derivation in HUGEINT SQL, so any
    drift here breaks them all at once (review finding: 4 copies)."""
    import hashlib

    a = np.array(
        [
            int(hashlib.md5(f"a|{i}".encode()).hexdigest()[:15], 16)
            % (_MH_P - 1)
            + 1
            for i in range(n_perm)
        ],
        np.uint64,
    )
    b = np.array(
        [
            int(hashlib.md5(f"b|{i}".encode()).hexdigest()[:15], 16) % _MH_P
            for i in range(n_perm)
        ],
        np.uint64,
    )
    return a, b


def mh_shingle_hashes(toks: list) -> np.ndarray:
    """Distinct 3-gram shingle hashes (md5-slice ints) — the shared
    shingling of the estimator pair family."""
    import hashlib

    if len(toks) < 3:
        return np.zeros(0, np.uint64)
    hs = {
        int(
            hashlib.md5(
                f"{toks[i]} {toks[i+1]} {toks[i+2]}".encode()
            ).hexdigest()[:15],
            16,
        )
        for i in range(len(toks) - 2)
    }
    return np.fromiter(hs, np.uint64, len(hs))


def mh_sig(x: np.ndarray, coeffs_a: np.ndarray, coeffs_b: np.ndarray) -> np.ndarray:
    """Minhash signature: per permutation, min of (a·x + b) mod p over
    the shingle hashes — the audited _mulmod_p limb kernel."""
    from ..stages.dedup import _mod_p, _mulmod_p

    return np.array(
        [
            _mod_p(_mulmod_p(np.full(len(x), a, np.uint64), x) + b).min()
            for a, b in zip(coeffs_a, coeffs_b)
        ],
        np.uint64,
    )


# Shared SQL prefix of the estimator pair family: the planted near-copy
# pairs, shingle hashes, permutation coefficients and signatures — keep
# {P}/{K} placeholders; consumers .replace() them (one SQL definition
# for every oracle built on this derivation).
MH_PAIR_SQL_PREFIX = r"""
WITH nn AS (SELECT CAST(COUNT(*) AS BIGINT) AS c FROM documents),
toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS t
  FROM documents
),
dup AS (
  SELECT doc_id AS id, t, 1 AS start FROM toks
  UNION ALL
  SELECT doc_id + nn.c, t, 2 FROM toks, nn
),
shh AS (
  SELECT DISTINCT id,
         CAST(('0x' || substr(md5(t[i] || ' ' || t[i+1] || ' ' || t[i+2]),
                              1, 15)) AS BIGINT) AS x
  FROM dup, LATERAL UNNEST(generate_series(start, len(t) - 2)) AS s(i)
  WHERE len(t) - start >= 2
),
perms AS (
  SELECT i,
         CAST(('0x' || substr(md5('a|' || CAST(i AS VARCHAR)), 1, 15))
              AS BIGINT) % ({P} - 1) + 1 AS a,
         CAST(('0x' || substr(md5('b|' || CAST(i AS VARCHAR)), 1, 15))
              AS BIGINT) % {P} AS b
  FROM range({K}) t(i)
),
sigs AS MATERIALIZED (
  SELECT id, i,
         MIN((CAST(a AS HUGEINT) * CAST(x AS HUGEINT) + b) % {P}) AS m
  FROM shh, perms GROUP BY id, i
),
pairs AS (
  SELECT o.doc_id AS a_id, o.doc_id + nn.c AS b_id
  FROM documents o, nn
  WHERE EXISTS (SELECT 1 FROM shh WHERE id = o.doc_id)
    AND EXISTS (SELECT 1 FROM shh WHERE id = o.doc_id + nn.c)
)"""


def q_minhash_estimator(sf_dir: str):
    """Estimator-quality readout for the minhash family (the trilogy
    companion of ann_recall_ivfpq and kmv_overlap): every doc is paired
    with a planted near-copy (its text minus the first token), both are
    minhashed with a 16-permutation Carter-Wegman family whose
    coefficients come from md5 slices — so the ENTIRE signature
    derivation is recomputable in SQL via HUGEINT mod-(2^61−1)
    arithmetic — and the per-pair signature-agreement estimate
    n_match/16 sits beside the exact shingle Jaccard. Shingle hashes
    are md5-slice ints on both sides; the mod-p multiply reuses the
    audited _mulmod_p limb kernel."""
    n_perm = _MH_EST_PERMS
    coeffs_a, coeffs_b = mh_est_coeffs()
    shingle_hashes = mh_shingle_hashes

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    n_docs = docs.count()

    def pair_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        out = {"a_id": [], "b_id": [], "n_match": [], "jaccard_est": [],
               "jaccard_exact": []}
        for did, text in zip(ids, batch.column("text").to_pylist()):
            toks = (text or "").split()
            xa = shingle_hashes(toks)
            xb = shingle_hashes(toks[1:])
            if len(xa) == 0 or len(xb) == 0:
                continue
            nm = int(
                (mh_sig(xa, coeffs_a, coeffs_b)
                 == mh_sig(xb, coeffs_a, coeffs_b)).sum()
            )
            sa, sb = set(xa.tolist()), set(xb.tolist())
            inter = len(sa & sb)
            un = len(sa | sb)
            out["a_id"].append(int(did))
            out["b_id"].append(int(did) + n_docs)
            out["n_match"].append(nm)
            out["jaccard_est"].append(float(nm) / float(n_perm))
            out["jaccard_exact"].append(float(inter) / float(un))
        return pa.table(
            {
                "a_id": pa.array(out["a_id"], pa.int64()),
                "b_id": pa.array(out["b_id"], pa.int64()),
                "n_match": pa.array(out["n_match"], pa.int64()),
                "jaccard_est": pa.array(out["jaccard_est"], pa.float64()),
                "jaccard_exact": pa.array(out["jaccard_exact"], pa.float64()),
            }
        )

    return docs.map_batches(pair_rows, batch_format="pyarrow")


SQL_MINHASH_ESTIMATOR = r"""
WITH nn AS (SELECT CAST(COUNT(*) AS BIGINT) AS c FROM documents),
toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS t
  FROM documents
),
dup AS (
  SELECT doc_id AS id, t, 1 AS start FROM toks
  UNION ALL
  SELECT doc_id + nn.c, t, 2 FROM toks, nn
),
shh AS (
  SELECT DISTINCT id,
         CAST(('0x' || substr(md5(t[i] || ' ' || t[i+1] || ' ' || t[i+2]),
                              1, 15)) AS BIGINT) AS x
  FROM dup, LATERAL UNNEST(generate_series(start, len(t) - 2)) AS s(i)
  WHERE len(t) - start >= 2
),
perms AS (
  SELECT i,
         CAST(('0x' || substr(md5('a|' || CAST(i AS VARCHAR)), 1, 15))
              AS BIGINT) % ({P} - 1) + 1 AS a,
         CAST(('0x' || substr(md5('b|' || CAST(i AS VARCHAR)), 1, 15))
              AS BIGINT) % {P} AS b
  FROM range({K}) t(i)
),
sigs AS MATERIALIZED (
  SELECT id, i,
         MIN((CAST(a AS HUGEINT) * CAST(x AS HUGEINT) + b) % {P}) AS m
  FROM shh, perms GROUP BY id, i
),
pairs AS (
  SELECT o.doc_id AS a_id, o.doc_id + nn.c AS b_id
  FROM documents o, nn
  WHERE EXISTS (SELECT 1 FROM shh WHERE id = o.doc_id)
    AND EXISTS (SELECT 1 FROM shh WHERE id = o.doc_id + nn.c)
),
matches AS (
  SELECT p.a_id, p.b_id,
         CAST(SUM(CASE WHEN sa.m = sb.m THEN 1 ELSE 0 END) AS BIGINT)
           AS n_match
  FROM pairs p
  JOIN sigs sa ON sa.id = p.a_id
  JOIN sigs sb ON sb.id = p.b_id AND sb.i = sa.i
  GROUP BY p.a_id, p.b_id
),
ab AS (
  SELECT p.a_id, p.b_id, s.x,
         MAX(CASE WHEN s.id = p.a_id THEN 1 ELSE 0 END) AS ia,
         MAX(CASE WHEN s.id = p.b_id THEN 1 ELSE 0 END) AS ib
  FROM pairs p JOIN shh s ON s.id IN (p.a_id, p.b_id)
  GROUP BY p.a_id, p.b_id, s.x
),
exact AS (
  SELECT a_id, b_id,
         CAST(SUM(ia * ib) AS BIGINT) AS inter,
         CAST(COUNT(*) AS BIGINT) AS un
  FROM ab GROUP BY a_id, b_id
)
SELECT m.a_id, m.b_id, m.n_match,
       CAST(m.n_match AS DOUBLE) / CAST({K} AS DOUBLE) AS jaccard_est,
       CAST(e.inter AS DOUBLE) / CAST(e.un AS DOUBLE) AS jaccard_exact
FROM matches m JOIN exact e ON e.a_id = m.a_id AND e.b_id = m.b_id
""".replace("{P}", str(_MH_P)).replace("{K}", str(_MH_EST_PERMS))


# ---------------------------------------------------------------------------
# minhash_bbit — b-bit minhash (Li & König 2010) estimate vs exact
# ---------------------------------------------------------------------------

_BBIT_B = 4


def q_minhash_bbit(sf_dir: str):
    """b-bit minhash (Li & König, WWW 2010): store only the low b=4 bits
    of each of the 16 signature components — 64 bits of sketch per doc
    instead of 1024 — and recover Jaccard from the collision rate with
    the bias correction Ĵ = (m/k − 2⁻ᵇ)/(1 − 2⁻ᵇ) (the random-collision
    floor subtracted, then rescaled). Same planted near-copy pairs,
    md5-derived Carter-Wegman chain, and HUGEINT SQL mirror as
    minhash_estimator; reports the truncated-bit match count, the
    corrected estimate, and the exact Jaccard side by side."""
    n_perm = _MH_EST_PERMS
    b = _BBIT_B
    mask = np.uint64((1 << b) - 1)
    coeffs_a, coeffs_b = mh_est_coeffs()
    shingle_hashes = mh_shingle_hashes

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    n_docs = docs.count()

    floor = 1.0 / float(1 << b)

    def pair_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        out = {"a_id": [], "b_id": [], "n_match_b": [], "jaccard_bbit": [],
               "jaccard_exact": []}
        for did, text in zip(ids, batch.column("text").to_pylist()):
            toks = (text or "").split()
            xa = shingle_hashes(toks)
            xb = shingle_hashes(toks[1:])
            if len(xa) == 0 or len(xb) == 0:
                continue

            nm = int(
                ((mh_sig(xa, coeffs_a, coeffs_b) & mask)
                 == (mh_sig(xb, coeffs_a, coeffs_b) & mask)).sum()
            )
            sa, sb = set(xa.tolist()), set(xb.tolist())
            est = (float(nm) / float(n_perm) - floor) / (1.0 - floor)
            out["a_id"].append(int(did))
            out["b_id"].append(int(did) + n_docs)
            out["n_match_b"].append(nm)
            out["jaccard_bbit"].append(est)
            out["jaccard_exact"].append(
                float(len(sa & sb)) / float(len(sa | sb))
            )
        return pa.table(
            {
                "a_id": pa.array(out["a_id"], pa.int64()),
                "b_id": pa.array(out["b_id"], pa.int64()),
                "n_match_b": pa.array(out["n_match_b"], pa.int64()),
                "jaccard_bbit": pa.array(out["jaccard_bbit"], pa.float64()),
                "jaccard_exact": pa.array(out["jaccard_exact"], pa.float64()),
            }
        )

    return docs.map_batches(pair_rows, batch_format="pyarrow")


SQL_MINHASH_BBIT = (
    SQL_MINHASH_ESTIMATOR.replace(
        "MIN((CAST(a AS HUGEINT) * CAST(x AS HUGEINT) + b) % {P}) AS m".replace(
            "{P}", str(_MH_P)
        ),
        "CAST(MIN((CAST(a AS HUGEINT) * CAST(x AS HUGEINT) + b) % {P}) AS BIGINT)"
        " & {MASK} AS m".replace("{P}", str(_MH_P)).replace(
            "{MASK}", str((1 << _BBIT_B) - 1)
        ),
    )
    .replace(
        """SELECT m.a_id, m.b_id, m.n_match,
       CAST(m.n_match AS DOUBLE) / CAST({K} AS DOUBLE) AS jaccard_est,
       CAST(e.inter AS DOUBLE) / CAST(e.un AS DOUBLE) AS jaccard_exact
FROM matches m JOIN exact e ON e.a_id = m.a_id AND e.b_id = m.b_id""".replace(
            "{K}", str(_MH_EST_PERMS)
        ),
        """SELECT m.a_id, m.b_id, m.n_match AS n_match_b,
       (CAST(m.n_match AS DOUBLE) / CAST({K} AS DOUBLE)
        - CAST({FLOOR} AS DOUBLE))
         / (CAST(1.0 AS DOUBLE) - CAST({FLOOR} AS DOUBLE)) AS jaccard_bbit,
       CAST(e.inter AS DOUBLE) / CAST(e.un AS DOUBLE) AS jaccard_exact
FROM matches m JOIN exact e ON e.a_id = m.a_id AND e.b_id = m.b_id""".replace(
            "{K}", str(_MH_EST_PERMS)
        ).replace("{FLOOR}", repr(1.0 / float(1 << _BBIT_B))),
    )
)


# ---------------------------------------------------------------------------
# registration
# ---------------------------------------------------------------------------
