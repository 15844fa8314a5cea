"""Eleventh-wave operators (round-3 continuation session, 2026-08-19).

Listed by name in ``queries.py``'s QUERIES/ORACLES.

House rules throughout: Arrow batches end to end, map-side partials
before any groupby, broadcast small sides via ``ray.put``, bucketed
union+groupby instead of ``Dataset.join``, and an operand-for-operand
DuckDB oracle for every query (integer fixed-point accumulation, ln
mirrored operand-for-operand, at most one float division per output
column).
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray


# ---------------------------------------------------------------------------
# host_boilerplate — host-scoped segment document-frequency / boiler fraction
# ---------------------------------------------------------------------------

_HB_WIDTH = 2  # tokens per segment window (production: newline lines)
_HB_MIN_DF = 3  # segment is host-boilerplate when >= this many docs share it


def q_host_boilerplate(sf_dir: str):
    """Per-HOST boilerplate detection: the fraction of each page's text
    segments that recur across ≥ ``_HB_MIN_DF`` distinct pages of the
    SAME host — navigation chrome, footers, cookie banners are
    host-scoped, not corpus-global, so this is the statistic a content
    extractor actually wants (jusText/trafilatura-style site templates).

    Distinct from ``stages/linededup.line_dedup`` (corpus-global DF with
    a broadcast boilerplate set): here the decision statistic is scoped
    to the host, so the whole computation lives inside ONE
    ``hash(host) % P`` shuffle — each bucket holds complete hosts and
    computes both the per-(host, segment) document frequency and every
    member doc's boiler occurrence count in place. Nothing is broadcast;
    only (bucket, host, seg-hash, doc) int rows move. Assumes one host's
    segment rows fit in a worker (salt hot hosts otherwise — same
    contract as asof_join / sessionize).

    Segment model (mirrored in SQL): non-overlapping ``_HB_WIDTH``-token
    windows, trailing partial window kept. Segment keys are hash64 of
    the window text — collisions would need to collide within one host
    to perturb a count. Output: one row per doc with ≥1 segment:
    (doc_id, host_id, n_seg, n_boiler, boiler_frac), boiler_frac the
    single float division.

    Reference anchor: crawl4ai's PruningContentFilter removes per-page
    boilerplate heuristically (content_filter_strategy.py); the
    host-frequency formulation follows the published RefinedWeb /
    CCNet line-dedup design, group-scoped.
    """
    from ..functions.hashing import hash64

    P = 16
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def seg_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        segs, dids = [], []
        for did, text in zip(ids, batch.column("text").to_pylist()):
            toks = (text or "").split()
            for i in range(0, len(toks), _HB_WIDTH):
                segs.append(" ".join(toks[i : i + _HB_WIDTH]))
                dids.append(did)
        did_arr = np.asarray(dids, np.int64)
        host = np.where(did_arr % 7 == 0, 0, did_arr % 50)
        sh = hash64(segs).view(np.int64) if segs else np.zeros(0, np.int64)
        return pa.table(
            {
                "bucket": pa.array(host % P, pa.int64()),
                "host_id": pa.array(host, pa.int64()),
                "seg_h": pa.array(sh, pa.int64()),
                "doc_id": pa.array(did_arr, pa.int64()),
            }
        )

    rows = docs.map_batches(seg_rows, batch_format="pyarrow")

    def per_bucket(g: pa.Table) -> pa.Table:
        # host-scoped DF over DISTINCT (host, seg, doc); boiler flag
        # broadcast back onto occurrence rows — arrow-native (r5):
        # pair ids via lexsort runs, distinct-doc DF via bincount
        h = g.column("host_id").to_numpy(zero_copy_only=False).astype(np.int64)
        s = g.column("seg_h").to_numpy(zero_copy_only=False).astype(np.int64)
        d = g.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(h)
        o2 = np.lexsort((s, h))
        hh, ss = h[o2], s[o2]
        newp = np.r_[True, (hh[1:] != hh[:-1]) | (ss[1:] != ss[:-1])]
        pair_sorted = np.cumsum(newp) - 1
        pair_id = np.empty(n, np.int64)
        pair_id[o2] = pair_sorted
        npairs = int(pair_sorted[-1]) + 1 if n else 0
        o3 = np.lexsort((d, pair_id))
        pp, dd2 = pair_id[o3], d[o3]
        dedup = np.r_[True, (pp[1:] != pp[:-1]) | (dd2[1:] != dd2[:-1])]
        df = np.bincount(pp[dedup], minlength=npairs)
        is_b = (df[pair_id] >= _HB_MIN_DF).astype(np.int64)
        o4 = np.lexsort((h, d))
        dd4, hh4, bb4 = d[o4], h[o4], is_b[o4]
        newdh = np.r_[True, (dd4[1:] != dd4[:-1]) | (hh4[1:] != hh4[:-1])]
        run_id = np.cumsum(newdh) - 1
        n_seg = np.bincount(run_id).astype(np.int64)
        n_boiler = np.bincount(run_id, weights=bb4).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(dd4[newdh], pa.int64()),
                "host_id": pa.array(hh4[newdh], pa.int64()),
                "n_seg": pa.array(n_seg, pa.int64()),
                "n_boiler": pa.array(n_boiler, pa.int64()),
            }
        )

    per_doc = rows.groupby("bucket").map_groups(per_bucket, batch_format="pyarrow")

    def frac(batch: pa.Table) -> pa.Table:
        ns = batch.column("n_seg").to_numpy(zero_copy_only=False).astype(np.float64)
        nb = batch.column("n_boiler").to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        out = np.divide(nb, ns, out=np.zeros_like(nb), where=ns > 0)
        return batch.append_column("boiler_frac", pa.array(out, pa.float64()))

    return per_doc.map_batches(frac, batch_format="pyarrow")


SQL_HOST_BOILERPLATE = r"""
WITH {pages},
toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS t
  FROM documents
),
idxd AS (
  SELECT doc_id, t,
         unnest(range(CAST(ceil(len(t) / {w}.0) AS BIGINT))) AS seg_idx
  FROM toks WHERE len(t) > 0
),
segs AS (
  SELECT s.doc_id, p.host_id, s.seg_idx,
         array_to_string(
           list_slice(s.t, s.seg_idx * {w} + 1, s.seg_idx * {w} + {w}), ' '
         ) AS seg
  FROM idxd s JOIN pages p USING (doc_id)
),
dfq AS (
  SELECT host_id, seg, CAST(COUNT(*) AS BIGINT) AS df
  FROM (SELECT DISTINCT host_id, seg, doc_id FROM segs)
  GROUP BY host_id, seg
),
flagged AS (
  SELECT s.doc_id, s.host_id,
         CASE WHEN d.df >= {mindf} THEN 1 ELSE 0 END AS is_b
  FROM segs s JOIN dfq d ON s.host_id = d.host_id AND s.seg = d.seg
),
agg AS (
  SELECT doc_id, host_id,
         CAST(COUNT(*) AS BIGINT) AS n_seg,
         CAST(SUM(is_b) AS BIGINT) AS n_boiler
  FROM flagged GROUP BY doc_id, host_id
)
SELECT doc_id, host_id, n_seg, n_boiler,
       CASE WHEN n_seg = 0 THEN CAST(0 AS DOUBLE)
            ELSE CAST(n_boiler AS DOUBLE) / CAST(n_seg AS DOUBLE) END
         AS boiler_frac
FROM agg
"""


# ---------------------------------------------------------------------------
# pareto_docs — distributed 2-D skyline (maximize diversity, minimize length)
# ---------------------------------------------------------------------------


def _skyline_prune(nd: np.ndarray, nt: np.ndarray) -> np.ndarray:
    """Boolean keep-mask of the 2-D skyline: maximize ``nd``, minimize
    ``nt``; non-strict dominance (a dominates b iff nd_a >= nd_b and
    nt_a <= nt_b with one strict). Duplicate (nd, nt) points all
    survive. Fully vectorized: unique pairs sorted (nd desc, nt asc),
    per-nd min nt, exclusive running min over strictly-greater nd."""
    pairs = np.unique(np.stack([nd, nt], axis=1), axis=0)
    und = np.unique(pairs[:, 0])[::-1]  # nd values descending
    # per-nd min nt (pairs sorted by nd asc, nt asc → first of each group)
    first_idx = np.searchsorted(pairs[:, 0], und, side="left")
    gmin = pairs[first_idx, 1]
    # exclusive cummin over strictly greater nd
    m1 = np.concatenate([[np.iinfo(np.int64).max], np.minimum.accumulate(gmin)[:-1]])
    alive_nd = und[m1 > gmin]  # group survives iff its min beats all greater-nd
    alive_min = gmin[m1 > gmin]
    lut = dict(zip(alive_nd.tolist(), alive_min.tolist()))
    keep = np.fromiter(
        (lut.get(a, np.iinfo(np.int64).min) == b for a, b in zip(nd, nt)),
        bool,
        len(nd),
    )
    return keep


def q_pareto_docs(sf_dir: str):
    """Pareto frontier of the corpus on (lexical diversity MAXIMIZED,
    token count MINIMIZED) — the skyline operator ("which docs are the
    most diverse for their length") used to pick exemplar documents for
    curriculum / eval sets. A document survives iff no other document
    has ≥ its distinct-token count AND ≤ its token count with one
    strict inequality; duplicate feature points all survive.

    Ray plan — the classic distributed-skyline two-phase prune: each
    block reduces to its LOCAL skyline inside ``map_batches`` (the
    skyline operator is idempotent and closed under union: no global
    survivor can be locally dominated), survivors (≤ skyline-size per
    block, typically tiny) are repartitioned to one block and pruned
    once more for the exact global frontier. No sort-shuffle of the
    corpus; documents never move — only (doc_id, 2 ints) survivor rows.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def feats(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        nd, nt, keep_ids = [], [], []
        for did, text in zip(ids, batch.column("text").to_pylist()):
            toks = (text or "").split()
            if not toks:
                continue
            keep_ids.append(did)
            nd.append(len(set(toks)))
            nt.append(len(toks))
        nd = np.asarray(nd, np.int64)
        nt = np.asarray(nt, np.int64)
        ids = np.asarray(keep_ids, np.int64)
        if len(ids):
            m = _skyline_prune(nd, nt)
            ids, nd, nt = ids[m], nd[m], nt[m]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_distinct": pa.array(nd, pa.int64()),
                "n_tok": pa.array(nt, pa.int64()),
            }
        )

    def final(batch: pa.Table) -> pa.Table:
        nd = batch.column("n_distinct").to_numpy(zero_copy_only=False)
        nt = batch.column("n_tok").to_numpy(zero_copy_only=False)
        if len(nd) == 0:
            return batch
        return batch.filter(pa.array(_skyline_prune(nd, nt)))

    return (
        docs.map_batches(feats, batch_format="pyarrow")
        .repartition(1)
        .map_batches(final, batch_format="pyarrow")
    )


SQL_PARETO_DOCS = r"""
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS t
  FROM documents
),
feat AS (
  SELECT doc_id,
         CAST(len(list_distinct(t)) AS BIGINT) AS n_distinct,
         CAST(len(t) AS BIGINT) AS n_tok
  FROM toks WHERE len(t) > 0
),
w AS (
  SELECT doc_id, n_distinct, n_tok,
         MIN(n_tok) OVER (ORDER BY n_distinct DESC
                          RANGE BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS m1,
         MIN(n_tok) OVER (PARTITION BY n_distinct) AS mg
  FROM feat
)
SELECT doc_id, n_distinct, n_tok
FROM w
WHERE (m1 IS NULL OR m1 > n_tok) AND n_tok = mg
"""


# ---------------------------------------------------------------------------
# heaps_fit — Heaps'-law exponent from the vocab_growth curve
# ---------------------------------------------------------------------------


def q_heaps_fit(sf_dir: str):
    """Heaps'-law fit V(T) = k·T^β: ln-ln OLS over vocab_growth's five
    (n_tokens, vocab) checkpoints — the one-number vocabulary-growth
    readout (β ≈ 0.5 for natural text; β → 1 flags unjoined boilerplate
    or ID-like tokens flooding the vocab). The distributed work is
    vocab_growth's pipeline verbatim; the fit folds 5 rows on the
    driver with the zipf_fit integer discipline: ln-points quantized to
    1e-9 fixed point, exact-integer OLS sums (python ints = HUGEINT),
    one float division per output."""
    from .queries_wave9 import q_vocab_growth

    pts = q_vocab_growth(sf_dir).take_all()  # bounded: one row per growth checkpoint
    qx = [
        int(math.floor(math.log(float(r["n_tokens"])) * 1e9 + 0.5)) for r in pts
    ]
    qy = [int(math.floor(math.log(float(r["vocab"])) * 1e9 + 0.5)) for r in pts]
    n = len(qx)
    sx, sy = sum(qx), sum(qy)
    sxy = sum(x * y for x, y in zip(qx, qy))
    sxx = sum(x * x for x in qx)
    slope = float(n * sxy - sx * sy) / float(n * sxx - sx * sx)
    intercept = (float(sy) - slope * float(sx)) / float(n) / 1e9
    return pa.table(
        {
            "n_points": pa.array([n], pa.int64()),
            "beta": pa.array([slope], pa.float64()),
            "ln_k": pa.array([intercept], pa.float64()),
        }
    )


SQL_HEAPS_FIT = r"""
WITH growth AS ({growth}),
pts AS (
  SELECT CAST(floor(ln(CAST(n_tokens AS DOUBLE)) * 1e9 + CAST(0.5 AS DOUBLE))
              AS BIGINT) AS qx,
         CAST(floor(ln(CAST(vocab AS DOUBLE)) * 1e9 + CAST(0.5 AS DOUBLE))
              AS BIGINT) AS qy
  FROM growth
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
           / CAST(n * sxx - sx * sx AS DOUBLE) AS beta,
         sx, sy, n
  FROM sums
)
SELECT n_points, beta,
       (CAST(sy AS DOUBLE) - beta * CAST(sx AS DOUBLE))
         / CAST(n AS DOUBLE) / 1e9 AS ln_k
FROM fit
"""


# ---------------------------------------------------------------------------
# lang_source_mi — pointwise mutual information between lang and source
# ---------------------------------------------------------------------------


def q_lang_source_mi(sf_dir: str):
    """Association between the corpus's two categorical facets: per
    (lang, source) cell counts, marginals, and the cell's pointwise
    mutual information ln(N·n_ls / (n_l·n_s)) — the contingency-table
    readout a mixture designer checks before stratifying by either
    facet (PMI ≈ 0 everywhere ⇒ independent facets ⇒ stratify on one).

    Ray plan: map-side crosstab partials (one small table per batch) →
    one tiny groupby(lang, source) sum; marginals fold on the driver
    over the ≤|langs|·|sources| cell table. Output is PER-CELL rows —
    no float aggregation anywhere, so summation order can't perturb the
    value hash; pmi is the single mirrored ln of one float division."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "source"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        tbl = batch.group_by(["lang", "source"]).aggregate([("lang", "count")])
        return pa.table(
            {
                "lang": tbl.column("lang"),
                "source": tbl.column("source"),
                "c": tbl.column("lang_count").cast(pa.int64()),
            }
        )

    cells = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "source"])
        .sum("c")
        .take_all()  # bounded: one row per lang×source (bounded key domain)
    )
    langs: dict[str, int] = {}
    sources: dict[str, int] = {}
    n = 0
    for r in cells:
        c = int(r["sum(c)"])
        langs[r["lang"]] = langs.get(r["lang"], 0) + c
        sources[r["source"]] = sources.get(r["source"], 0) + c
        n += c
    out = {
        "lang": [],
        "source": [],
        "n_ls": [],
        "n_l": [],
        "n_s": [],
        "n": [],
        "pmi": [],
    }
    for r in cells:
        c = int(r["sum(c)"])
        nl, ns = langs[r["lang"]], sources[r["source"]]
        out["lang"].append(r["lang"])
        out["source"].append(r["source"])
        out["n_ls"].append(c)
        out["n_l"].append(nl)
        out["n_s"].append(ns)
        out["n"].append(n)
        out["pmi"].append(math.log(float(n * c) / float(nl * ns)))
    return pa.table(
        {
            "lang": pa.array(out["lang"], pa.string()),
            "source": pa.array(out["source"], pa.string()),
            "n_ls": pa.array(out["n_ls"], pa.int64()),
            "n_l": pa.array(out["n_l"], pa.int64()),
            "n_s": pa.array(out["n_s"], pa.int64()),
            "n": pa.array(out["n"], pa.int64()),
            "pmi": pa.array(out["pmi"], pa.float64()),
        }
    )


SQL_LANG_SOURCE_MI = r"""
WITH c AS (
  SELECT lang, source, CAST(COUNT(*) AS BIGINT) AS n_ls
  FROM documents GROUP BY lang, source
),
l AS (SELECT lang, CAST(SUM(n_ls) AS BIGINT) AS n_l FROM c GROUP BY lang),
s AS (SELECT source, CAST(SUM(n_ls) AS BIGINT) AS n_s FROM c GROUP BY source),
t AS (SELECT CAST(SUM(n_ls) AS BIGINT) AS n FROM c)
SELECT c.lang, c.source, c.n_ls, l.n_l, s.n_s, t.n,
       ln(CAST(t.n * c.n_ls AS DOUBLE) / CAST(l.n_l * s.n_s AS DOUBLE)) AS pmi
FROM c JOIN l USING (lang) JOIN s USING (source) CROSS JOIN t
"""
