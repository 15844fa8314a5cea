"""Seventeenth-wave operators (round-3 continuation session, 2026-08-20).

Listed by name in ``queries.py``'s QUERIES/ORACLES. Two of this wave's oracles are COMPOSED
from already-proven oracle texts at registration time (the funnel nests
the c4_rules / gopher_rules oracle SQL as CTEs), so the rule logic has
exactly one SQL definition in the repo.

House rules throughout: Arrow batches end to end, map-side partials
before any groupby, broadcast small sides via ``ray.put``, and an
operand-for-operand DuckDB oracle for every query.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# sitemap_robots_audit — sitemap-listed URLs the host's own robots.txt blocks
# ---------------------------------------------------------------------------

_SRA_RULES = {
    "site0.example.com": "User-agent: *\nDisallow: /page/\n",
    "site1.example.com": "User-agent: *\nDisallow: /page/1\n",
}


def q_sitemap_robots_audit(sf_dir: str):
    """Crawl-hygiene audit: URLs a host ADVERTISES in its sitemaps but
    DISALLOWS in its robots.txt — the classic webmaster misconfiguration
    every serious crawler reports before fetching (a sitemap entry is an
    invitation, robots is a prohibition; the intersection is wasted
    budget or a compliance trap). Composes the two oracle-proven
    surfaces: the distributed sitemap walk (sources/sitemap.py) and the
    robots evaluator (state/politeness.RobotsFilterBatch, same rules
    table as the robots_filter query).

    Distributed shape: sitemap build+parse is the existing two-level
    plan; the robots check is one map_batches with the tiny rules table
    shipped once per actor; the violation filter is map-side. Nothing
    materializes on the driver.
    """
    from ..sources.pages import read_pages
    from ..sources.sitemap import build_sitemap_table, parse_sitemaps
    from ..state.politeness import RobotsFilterBatch

    pages = read_pages(sf_dir, columns=["url"])
    sm = build_sitemap_table(pages)
    listed = parse_sitemaps(sm)  # every host, no pattern

    class Audit(RobotsFilterBatch):
        """RobotsFilterBatch, keeping the sitemap columns and emitting
        only the violations (listed AND disallowed)."""

        def __call__(self, batch: pa.Table) -> pa.Table:
            flags = super().__call__(batch.select(["url"]))
            bad = ~flags.column("allowed").to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "host": pa.array(
                        np.asarray(batch.column("host").to_pylist(), object)[
                            bad
                        ].tolist(),
                        pa.string(),
                    ),
                    "url": pa.array(
                        np.asarray(batch.column("url").to_pylist(), object)[
                            bad
                        ].tolist(),
                        pa.string(),
                    ),
                }
            )

    return listed.map_batches(
        Audit, fn_constructor_args=(_SRA_RULES,), concurrency=2,
        batch_format="pyarrow",
    )


SQL_SITEMAP_ROBOTS_AUDIT = """
WITH pages AS (
  SELECT doc_id,
         CASE WHEN doc_id % 7 = 0 THEN 0 ELSE doc_id % 50 END AS host_id
  FROM documents
),
purl AS (
  SELECT doc_id, host_id,
         'site' || host_id || '.example.com' AS host,
         'https://site' || host_id || '.example.com/page/' || doc_id AS url
  FROM pages
)
SELECT host, url FROM purl
WHERE (host_id = 0)
   OR (host_id = 1 AND CAST(doc_id AS VARCHAR) LIKE '1%')
"""


# ---------------------------------------------------------------------------
# oov_rate — out-of-vocabulary rate per language against the corpus top-V
# ---------------------------------------------------------------------------

_OOV_V = 20


def q_oov_rate(sf_dir: str):
    """Tokenizer-fit diagnostic: the out-of-vocabulary token rate per
    language against a top-V corpus vocabulary (V = 20; ties broken
    token-ASC) — the number that says whether a fixed vocab (or a BPE
    merge table trained on one slice) covers another language's slice.
    Per lang: docs, total tokens, OOV tokens, oov_rate.

    Distributed shape: pass 1 = map-side token-count partials + ONE
    groupby(token) + sort/limit(V) (the zipf_fit head plan); the tiny
    vocab broadcasts via ``ray.put``; pass 2 = per-batch (lang, n_tok,
    n_oov) partials + ONE groupby(lang). Integer sums, one mirrored
    division.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "text"]
    )

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
        .limit(_OOV_V)
        .take_all()  # bounded: ≤ _OOV_V rows (sort+limit)
    )
    vocab_ref = ray.put(frozenset(r["w"] for r in top))

    def partial(batch: pa.Table) -> pa.Table:
        vocab = ray.get(vocab_ref)
        agg: dict[str, list] = {}
        for lang, text in zip(
            batch.column("lang").to_pylist(), batch.column("text").to_pylist()
        ):
            toks = (text or "").split()
            a = agg.setdefault(lang, [0, 0, 0])
            a[0] += 1
            a[1] += len(toks)
            a[2] += sum(1 for t in toks if t not in vocab)
        langs = sorted(agg)
        return pa.table(
            {
                "lang": pa.array(langs, pa.string()),
                "n_docs": pa.array([agg[l][0] for l in langs], pa.int64()),
                "n_tok": pa.array([agg[l][1] for l in langs], pa.int64()),
                "n_oov": pa.array([agg[l][2] for l in langs], pa.int64()),
            }
        )

    agg = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(
            ray.data.aggregate.Sum("n_docs", alias_name="n_docs"),
            ray.data.aggregate.Sum("n_tok", alias_name="n_tok"),
            ray.data.aggregate.Sum("n_oov", alias_name="n_oov"),
        )
    )

    def finish(batch: pa.Table) -> pa.Table:
        nt = batch.column("n_tok").to_numpy(zero_copy_only=False).astype(np.int64)
        no = batch.column("n_oov").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "lang": batch.column("lang"),
                "n_docs": batch.column("n_docs").cast(pa.int64()),
                "n_tok": pa.array(nt, pa.int64()),
                "n_oov": pa.array(no, pa.int64()),
                "oov_rate": pa.array(
                    [
                        float(o) / float(t) if t else None
                        for o, t in zip(no, nt)
                    ],
                    pa.float64(),
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


SQL_OOV_RATE = rf"""
WITH toks AS (
  SELECT lang, unnest(list_filter(regexp_split_to_array(text, '\s+'),
                                  x -> x <> '')) AS tok
  FROM documents
),
freq AS (
  SELECT tok, CAST(COUNT(*) AS BIGINT) AS c FROM toks GROUP BY tok
),
vocab AS (
  SELECT tok FROM freq ORDER BY c DESC, tok LIMIT {_OOV_V}
),
dt AS (
  SELECT lang, tok FROM toks
),
sums AS (
  SELECT dt.lang,
         CAST(COUNT(*) AS BIGINT) AS n_tok,
         CAST(SUM(CASE WHEN v.tok IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS n_oov
  FROM dt LEFT JOIN vocab v USING (tok)
  GROUP BY dt.lang
),
docs_n AS (
  SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs FROM documents GROUP BY lang
)
SELECT d.lang, d.n_docs,
       COALESCE(s.n_tok, 0) AS n_tok,
       COALESCE(s.n_oov, 0) AS n_oov,
       CASE WHEN COALESCE(s.n_tok, 0) = 0 THEN NULL
            ELSE CAST(s.n_oov AS DOUBLE) / CAST(s.n_tok AS DOUBLE) END AS oov_rate
FROM docs_n d LEFT JOIN sums s ON s.lang = d.lang
"""


# ---------------------------------------------------------------------------
# quality_gate_funnel — sequential attrition through the stage-1 gates
# ---------------------------------------------------------------------------

_QGF_GATES = ("gopher", "c4", "lang_en")


def q_quality_gate_funnel(sf_dir: str):
    """Pipeline-ops funnel: sequential attrition of the corpus through
    the stage-1 quality gates in webtext order — gopher rule bundle,
    then C4 cleaning rules, then the metadata language gate (lang =
    'en'). Per stage: n_in, n_kept, n_dropped, keep_rate — the
    dashboard row every curation run is judged by (which gate is eating
    the corpus?).

    Distributed shape: ONE map over documents computes all three flags
    per doc (the oracle-proven gopher_rules_batch / c4_rules_batch
    kernels + a column compare) and folds them into per-batch
    (n, k1, k12, k123) partials; one 4-integer aggregate closes it; the
    3-row funnel is driver arithmetic. The oracle NESTS the c4_rules
    and gopher_rules oracle texts as CTEs — one SQL definition of each
    rule bundle in the repo.
    """
    import functools

    from ..stages import textstats

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    gopher = functools.partial(textstats.gopher_rules_batch, min_stops=1)

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        langs = batch.column("lang").to_pylist()
        raw = pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array([t or "" for t in texts], pa.string()),
            }
        )
        g1 = gopher(raw).column("keep").to_numpy(zero_copy_only=False)
        structured = pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(
                    [
                        textstats.derive_structured_page(i, t or "")
                        for i, t in zip(ids, texts)
                    ],
                    pa.string(),
                ),
            }
        )
        g2 = (
            textstats.c4_rules_batch(structured)
            .column("keep")
            .to_numpy(zero_copy_only=False)
        )
        g3 = np.array([l == "en" for l in langs], bool)
        return pa.table(
            {
                "n": pa.array([len(ids)], pa.int64()),
                "k1": pa.array([int(g1.sum())], pa.int64()),
                "k12": pa.array([int((g1 & g2).sum())], pa.int64()),
                "k123": pa.array([int((g1 & g2 & g3).sum())], pa.int64()),
            }
        )

    row = docs.map_batches(partial, batch_format="pyarrow").aggregate(
        ray.data.aggregate.Sum("n", alias_name="n"),
        ray.data.aggregate.Sum("k1", alias_name="k1"),
        ray.data.aggregate.Sum("k12", alias_name="k12"),
        ray.data.aggregate.Sum("k123", alias_name="k123"),
    )
    n, k1, k12, k123 = (int(row[k]) for k in ("n", "k1", "k12", "k123"))
    stages = [(1, "gopher", n, k1), (2, "c4", k1, k12), (3, "lang_en", k12, k123)]
    return pa.table(
        {
            "stage": pa.array([s for s, *_ in stages], pa.int64()),
            "gate": pa.array([g for _, g, *_ in stages], pa.string()),
            "n_in": pa.array([i for *_, i, _ in stages], pa.int64()),
            "n_kept": pa.array([k for *_, k in stages], pa.int64()),
            "n_dropped": pa.array([i - k for *_, i, k in stages], pa.int64()),
            "keep_rate": pa.array(
                [float(k) / float(i) if i else None for *_, i, k in stages],
                pa.float64(),
            ),
        }
    )


def _sql_quality_gate_funnel(oracles: dict) -> str:
    gopher_sql = oracles["gopher_rules"].strip()
    c4_sql = oracles["c4_rules"].strip()
    return f"""
WITH gf AS ({gopher_sql}),
c4 AS ({c4_sql}),
j AS (
  SELECT d.doc_id, gf.keep AS g1, c4.keep AS g2, (d.lang = 'en') AS g3
  FROM documents d
  JOIN gf ON gf.doc_id = d.doc_id
  JOIN c4 ON c4.doc_id = d.doc_id
),
agg AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(CASE WHEN g1 THEN 1 ELSE 0 END) AS BIGINT) AS k1,
         CAST(SUM(CASE WHEN g1 AND g2 THEN 1 ELSE 0 END) AS BIGINT) AS k12,
         CAST(SUM(CASE WHEN g1 AND g2 AND g3 THEN 1 ELSE 0 END) AS BIGINT) AS k123
  FROM j
)
SELECT * FROM (
  SELECT CAST(1 AS BIGINT) AS stage, 'gopher' AS gate, n AS n_in, k1 AS n_kept,
         n - k1 AS n_dropped,
         CASE WHEN n = 0 THEN NULL
              ELSE CAST(k1 AS DOUBLE) / CAST(n AS DOUBLE) END AS keep_rate
  FROM agg
  UNION ALL
  SELECT 2, 'c4', k1, k12, k1 - k12,
         CASE WHEN k1 = 0 THEN NULL
              ELSE CAST(k12 AS DOUBLE) / CAST(k1 AS DOUBLE) END
  FROM agg
  UNION ALL
  SELECT 3, 'lang_en', k12, k123, k12 - k123,
         CASE WHEN k12 = 0 THEN NULL
              ELSE CAST(k123 AS DOUBLE) / CAST(k12 AS DOUBLE) END
  FROM agg
)
"""
