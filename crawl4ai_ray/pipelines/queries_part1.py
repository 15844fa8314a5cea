"""Core query registry, part 1 of 2 (split r4: no registry file >
2,500 LoC — r3 VERDICT hygiene task). Assembled by queries.py; see its
docstring for the registry contract.
"""

from __future__ import annotations

"""Named queries + DuckDB oracle SQL — the correctness surface.

Each entry runs a Ray Data pipeline over the testdata tables (and the
deterministically synthesized pages corpus, sources/pages.py) and, where the
semantics are ANSI-SQL-expressible, carries a DuckDB oracle that reconstructs
the same result from the raw tables — including the pages corpus itself,
whose construction is pure doc_id arithmetic precisely so the oracle can
rebuild it in SQL (link graph via UNION of edge rules, BFS via recursive
CTE). Column names match between Ray and SQL by construction.
"""


import os

import numpy as np
import pyarrow as pa

import ray

from ..config import CrawlConfig
from ..functions.filters import (
    CompositeScorer,
    FreshnessScorer,
    KeywordRelevanceScorer,
    PathDepthScorer,
    URLPatternFilter,
)
from ..functions.urls import normalize_url, normalize_url_for_deep_crawl
from ..functions import hashing
from ..sources.pages import url_of
from ..stages import ann, dedup, sampling, textstats
from ..stages.extract import ExtractPages
from .crawl import crawl
from .extract_pipeline import extract_pipeline

# ---------------------------------------------------------------------------
# shared SQL fragments — MUST mirror sources/pages.py arithmetic
# ---------------------------------------------------------------------------

SQL_PAGES = """
pages AS (
  SELECT doc_id,
         CASE WHEN doc_id % 7 = 0 THEN 0 ELSE doc_id % 50 END AS host_id
  FROM documents
),
purl AS (
  SELECT doc_id,
         host_id,
         'site' || host_id || '.example.com' AS host,
         'https://site' || host_id || '.example.com' AS site,
         'https://site' || host_id || '.example.com/page/' || doc_id AS url
  FROM pages
)
"""

SQL_EDGES = """
nn AS (SELECT COUNT(*) AS c FROM documents),
child AS (
  SELECT doc_id AS src_id, (2 * doc_id + 1) % nn.c AS dst_id FROM documents, nn
  UNION ALL
  SELECT doc_id, (2 * doc_id + 2) % nn.c FROM documents, nn
  UNION ALL
  SELECT doc_id, (7 * doc_id + 3) % nn.c FROM documents, nn
),
edges AS (
  SELECT DISTINCT u1.url AS src, u2.url AS dst
  FROM child JOIN purl u1 ON u1.doc_id = child.src_id
             JOIN purl u2 ON u2.doc_id = child.dst_id
  UNION
  SELECT DISTINCT url AS src, site AS dst FROM purl
  UNION
  SELECT url AS src, url || '?page=2' AS dst FROM purl WHERE doc_id % 37 = 0
)
"""


def _explode_links(
    batch: pa.Table,
    include_external: bool = False,
    require_http: bool = False,
    with_text: bool = False,
):
    """Shared link-explode for the edge/anchor queries: iterate each doc's
    scraped link lists, normalize hrefs with the seen-key normalizer, and
    yield (src, dst[, text]) rows. One definition so the normalization /
    first-wins contract can never drift between the oracles that all
    depend on it."""
    srcs, dsts, txts = [], [], []
    cols = [batch.column("url").to_pylist(), batch.column("links_internal").to_pylist()]
    ext = (
        batch.column("links_external").to_pylist()
        if include_external
        else [[] for _ in range(batch.num_rows)]
    )
    for src, li, le in zip(cols[0], cols[1], ext):
        for link in list(li) + list(le):
            key = normalize_url_for_deep_crawl(link["href"], src)
            if not key:
                continue
            if require_http and not key.startswith(("http://", "https://")):
                continue
            srcs.append(src)
            dsts.append(key)
            if with_text:
                txts.append(link["text"])
    return (srcs, dsts, txts) if with_text else (srcs, dsts)


def _pages_ds(sf_dir: str, columns=None):
    from ..sources.pages import read_pages

    return read_pages(sf_dir, columns=columns)


def _docs(sf_dir: str):
    return extract_pipeline(sf_dir)


# ---------------------------------------------------------------------------
# crawl-side queries
# ---------------------------------------------------------------------------

def q_pages_per_host(sf_dir: str):
    """Pages per host via map-side partial aggregation (stages/agg.py):
    only (host, partial) rows shuffle, so the heavy-hitter host (site0,
    ~16% of the corpus) never concentrates raw rows on one reducer."""
    from ..functions.urls import hosts_array
    from ..stages.agg import partial_count

    pages = _pages_ds(sf_dir, columns=["url"])

    def add_host(batch: pa.Table) -> pa.Table:
        return pa.table({"host": hosts_array(batch.column("url"))})

    hosts = pages.map_batches(add_host, batch_format="pyarrow")
    return partial_count(hosts, "host", out_col="n_pages")


def q_top_hosts(sf_dir: str):
    return (
        q_pages_per_host(sf_dir)
        .sort(["n_pages", "host"], descending=[True, False])
        .limit(5)
    )


def q_link_graph_edges(sf_dir: str):
    docs = _docs(sf_dir).select_columns(["url", "links_internal"])

    def explode(batch: pa.Table) -> pa.Table:
        srcs, dsts = _explode_links(batch)
        return pa.table(
            {"src": pa.array(srcs, pa.string()), "dst": pa.array(dsts, pa.string())}
        )

    edges = docs.map_batches(explode, batch_format="pyarrow")
    return edges.groupby(["src", "dst"]).count().select_columns(["src", "dst"])


def q_link_graph_edges_excluded(sf_dir: str):
    """Edges over internal ∪ EXTERNAL links under domain exclusion
    (ScrapeConfig.exclude_domains + exclude_social_media_links,
    async_configs.py:1090-1094): every synthetic page carries exactly one
    external link to www.external-site.org, which the exclusion removes, so
    the result must equal the internal-only edge oracle — proving the knobs
    drop exactly the excluded domain's links and nothing else (if the knob
    silently broke, the external edges would appear and the hash would
    mismatch)."""
    from ..config import ScrapeConfig

    cfg = ScrapeConfig(
        exclude_social_media_links=True,
        exclude_domains=("external-site.org",),
    )
    docs = extract_pipeline(sf_dir, cfg=cfg).select_columns(
        ["url", "links_internal", "links_external"]
    )

    def explode(batch: pa.Table) -> pa.Table:
        srcs, dsts = _explode_links(batch, include_external=True, require_http=True)
        return pa.table(
            {"src": pa.array(srcs, pa.string()), "dst": pa.array(dsts, pa.string())}
        )

    edges = docs.map_batches(explode, batch_format="pyarrow")
    return edges.groupby(["src", "dst"]).count().select_columns(["src", "dst"])


def q_bfs_depth(sf_dir: str):
    cfg = CrawlConfig(max_depth=3, seen_shards=4)
    run = crawl(sf_dir, seeds=[url_of(0), url_of(1), url_of(2)], cfg=cfg)
    urls, depths = [], []
    for w in run.waves:
        ft = w["frontier_table"]
        urls.extend(ft.column("url_norm").to_pylist())
        depths.extend(int(d) for d in ft.column("depth").to_pylist())
    return pa.table(
        {"url": pa.array(urls, pa.string()), "depth": pa.array(depths, pa.int64())}
    )


def q_robots_filter(sf_dir: str):
    """Distributed robots evaluation: rules broadcast per actor, pages
    streamed through map_batches (never materialized on the driver)."""
    from ..state.politeness import RobotsFilterBatch

    rules = {
        "site0.example.com": "User-agent: *\nDisallow: /page/\n",
        "site1.example.com": "User-agent: *\nDisallow: /page/1\n",
    }
    pages = _pages_ds(sf_dir, columns=["url"])
    return pages.map_batches(
        RobotsFilterBatch,
        fn_constructor_args=(rules,),
        batch_format="pyarrow",
        concurrency=(1, 4),
    )


def q_head_filters(sf_dir: str):
    """ContentRelevanceFilter (BM25 over head fields) + SEOFilter over the
    corpus heads (reference deep_crawling/filters.py:501-690). The head
    'fetch' is the corpus head-prefix slice; evaluation is a streaming
    map_batches with the filters compiled once per actor. Thresholds sit in
    the verified gaps of the deterministic score distributions, so the
    decisions are exactly (doc_id%3==0) and (host_id==0) — which is what
    the oracle reconstructs."""
    from ..functions.filters import ContentRelevanceFilter, SEOFilter, head_fields

    pages = _pages_ds(sf_dir, columns=["url", "html"])

    class HeadFilters:
        def __init__(self):
            self.rel = ContentRelevanceFilter("summary synthetic", threshold=1.8)
            self.seo = SEOFilter(threshold=0.5, keywords=["site0"])

        def __call__(self, batch: pa.Table) -> pa.Table:
            urls = batch.column("url").to_pylist()
            heads = []
            for h in batch.column("html").to_pylist():
                if isinstance(h, bytes):
                    cut = h.find(b"</head>")
                    h = (h[: cut + 7] if cut != -1 else h[:65536]).decode(
                        "utf-8", errors="replace"
                    )
                heads.append(h)
            fields = [head_fields(h) for h in heads]
            rel = self.rel.apply_head_batch(fields)
            seo = self.seo.apply_head_batch(urls, heads)
            return pa.table(
                {
                    "url": pa.array(urls, pa.string()),
                    "relevant": pa.array(rel.tolist(), pa.bool_()),
                    "seo_ok": pa.array(seo.tolist(), pa.bool_()),
                }
            )

    return pages.map_batches(
        HeadFilters, batch_format="pyarrow", concurrency=(1, 4), batch_size=128
    )


def q_url_seeder(sf_dir: str):
    """AsyncUrlSeeder analogue (async_url_seeder.py): corpus-wide url
    discovery with glob pattern + head peek + BM25 relevance filtering.
    Threshold 1.8 sits in the verified gap of the deterministic score
    distribution (2.509 for doc_id%3==0 pages vs 1.110 otherwise), so the
    selected set — and the extracted titles — are SQL-reconstructable."""
    from ..sources.seeder import seed_urls

    return seed_urls(
        sf_dir,
        pattern="*.example.com/page/*",
        extract_head=True,
        query="summary synthetic",
        score_threshold=1.8,
    ).select_columns(["url", "title", "description"])


def q_url_normalize(sf_dir: str):
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def make_and_norm(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        out = []
        for i in ids:
            h = i % 50
            m = i % 3
            if m == 0:
                raw = (
                    f"HTTPS://SITE{h}.EXAMPLE.COM/Page/{i}/"
                    f"?b=2&a=1&utm_source=x&fbclid=y#frag"
                )
                base = "https://example.com"
            elif m == 1:
                raw = f"../other/page-{i}.html"
                base = f"https://site{h}.example.com/dir/sub/index.html"
            else:
                raw = f"/a/b//c/{i}?ref=x#top"
                base = f"https://site{h}.example.com"
            out.append(normalize_url(raw, base))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "url_norm": pa.array(out, pa.string()),
            }
        )

    return docs.map_batches(make_and_norm, batch_format="pyarrow")


def q_url_filter_pattern(sf_dir: str):
    pages = _pages_ds(sf_dir, columns=["url"])
    filt = URLPatternFilter(["*.example.com/page/1*"])

    def apply(batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        mask = filt.apply_batch(urls)
        keep = [u for u, m in zip(urls, mask) if m]
        return pa.table({"url": pa.array(keep, pa.string())})

    return pages.map_batches(apply, batch_format="pyarrow")


def q_url_scores(sf_dir: str):
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    scorer = CompositeScorer(
        [PathDepthScorer(optimal_depth=3, weight=1.0), FreshnessScorer(weight=0.5)]
    )

    def score(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        urls = []
        for i in ids:
            h = i % 50
            year = 2015 + i % 10
            extra = "/extra" if i % 4 == 0 else ""
            urls.append(f"https://site{h}.example.com/blog/{year}{extra}/item{i}")
        s = scorer.score_batch(urls)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "url": pa.array(urls, pa.string()),
                "score": pa.array(s, pa.float64()),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow")


def q_url_nonsense(sf_dir: str):
    """Seeder nonsense-URL gate (async_url_seeder.py:1284-1380): derive a
    deterministic URL variant per doc (one per active rule family) and flag
    it with is_nonsense_url. The oracle re-implements every active rule
    generically in SQL — it does NOT branch on the variant index, so a rule
    regression on either side breaks the hash."""
    from ..functions.urls import is_nonsense_url

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def derive(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        urls, flags = [], []
        for i in ids:
            base = f"https://site{i % 50}.example.com/page/{i}"
            k = i % 8
            if k == 0:
                u = base
            elif k == 1:
                u = base + "/robots.txt"
            elif k == 2:
                u = base + "/sitemap-news.xml"
            elif k == 3:
                u = base + "?print=1"
            elif k == 4:
                u = base + "/.well-known/security.txt"
            elif k == 5:
                u = base + "/wp-admin/options.html"
            elif k == 6:
                u = f"https://site{i % 50}.example.com/a"
            else:
                u = base + "/humans.txt"
            urls.append(u)
            flags.append(is_nonsense_url(u))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "url": pa.array(urls, pa.string()),
                "nonsense": pa.array(flags, pa.bool_()),
            }
        )

    return docs.map_batches(derive, batch_format="pyarrow")


def q_url_traps(sf_dir: str):
    """Spider-trap gate (functions/urls.py trap_flags): derive one URL
    variant per doc (one per rule family + two negative controls) and emit
    every per-rule flag. Like url_nonsense, the oracle re-implements every
    rule generically in SQL over the URL STRING (segment-list form, since
    RE2 lacks backreferences) — it does not branch on the variant index."""
    from ..functions.urls import trap_flags

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def derive(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        urls = []
        for i in ids:
            base = f"https://site{i % 50}.example.com/page/{i}"
            k = i % 8
            if k == 0:
                u = base
            elif k == 1:
                u = base + "/x/x/x"
            elif k == 2:
                u = base + "/a1/a2/a3/a4/a5/a6/a7"
            elif k == 3:
                u = base + "?phpsessid=deadbeef"
            elif k == 4:
                u = base + "?a=1&b=2&c=3&d=4&e=5"
            elif k == 5:
                u = base + "/" + "x" * 200
            elif k == 6:
                u = base + "/2050/01/05/report"
            else:
                u = base + "/y/z/y/z"
            urls.append(u)
        flags = [trap_flags(u) for u in urls]
        cols = {
            "doc_id": pa.array(ids, pa.int64()),
            "url": pa.array(urls, pa.string()),
        }
        for rule in (
            "repeated_segment",
            "too_deep",
            "session_id",
            "many_params",
            "too_long",
            "bad_year",
            "is_trap",
        ):
            cols[rule] = pa.array([f[rule] for f in flags], pa.bool_())
        return pa.table(cols)

    return docs.map_batches(derive, batch_format="pyarrow")


def q_sitemap_urls(sf_dir: str):
    """Sitemap discovery (AsyncUrlSeeder._iter_sitemap parity,
    async_url_seeder.py:830-960): synthesize each host's sitemap corpus
    (root index → two parity-split sub-sitemap urlsets with lastmod /
    priority fields), walk it from the root indexes with the distributed
    two-level parser, glob-filter like SeedingConfig.pattern. The oracle
    re-derives every field (including the hash-derived lastmod/priority)
    straight from the pages universe — the XML build+parse round-trip on
    the Ray side must be lossless for the value hash to match."""
    from ..sources.pages import read_pages
    from ..sources.sitemap import build_sitemap_table, parse_sitemaps

    pages = read_pages(sf_dir, columns=["url"])
    sm = build_sitemap_table(pages)
    return parse_sitemaps(sm, pattern="https://site1*.example.com/*")


def q_shuffle_export(sf_dir: str):
    """Deterministic shuffle-for-training placement (stages/shuffle.py):
    every doc's (shard, in-shard position) under the seed-keyed 64-bit
    mixed order. Rank computed with the two-level distributed scan; the
    oracle recomputes key/shard in HUGEINT arithmetic and ranks with
    ROW_NUMBER over the identical order."""
    from ..stages.shuffle import shuffle_assignments

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return shuffle_assignments(docs, n_shards=16, seed=7)


def q_crawl_delta(sf_dir: str):
    """Incremental recrawl diff (stages/delta.py): two simulated snapshots
    of the corpus — prev drops doc_id%7==3, curr drops doc_id%10==6 and
    rewrites every 5th doc — classified new/gone/changed/unchanged with one
    bucketed full-outer shuffle. Oracle = FULL OUTER JOIN + CASE."""
    import hashlib

    from ..stages.delta import snapshot_delta

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def snap(keep_fn, mutate: bool):
        def fn(batch: pa.Table) -> pa.Table:
            ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(
                np.int64
            )
            texts = batch.column("text").to_pylist()
            keep = keep_fn(ids)
            out_ids, out_h = [], []
            for i, t in zip(ids[keep], [t for t, k in zip(texts, keep) if k]):
                body = t + "v2" if (mutate and i % 5 == 0) else t
                out_ids.append(int(i))
                out_h.append(hashlib.md5(body.encode()).hexdigest())
            return pa.table(
                {
                    "doc_id": pa.array(out_ids, pa.int64()),
                    "content_hash": pa.array(out_h, pa.string()),
                }
            )

        return fn

    prev = docs.map_batches(snap(lambda i: i % 7 != 3, False), batch_format="pyarrow")
    curr = docs.map_batches(snap(lambda i: i % 10 != 6, True), batch_format="pyarrow")
    return snapshot_delta(prev, curr)


def q_extract_docs(sf_dir: str):
    docs = _docs(sf_dir)
    return docs.select_columns(["url", "success", "n_links", "n_images"])


# ---------------------------------------------------------------------------
# training-data queries (documents / embeddings)
# ---------------------------------------------------------------------------

def q_exact_dedup(sf_dir: str):
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    n = docs.count()

    def shift(batch: pa.Table) -> pa.Table:
        ids = pa.compute.add(batch.column("doc_id"), n)
        return batch.set_column(0, "doc_id", ids)

    dup = docs.union(docs.map_batches(shift, batch_format="pyarrow"))
    keep = dedup.exact_dedup_keepers(dup)
    return keep.rename_columns({"keep_id": "keep_doc_id"})


def q_token_stats(sf_dir: str):
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return docs.map_batches(textstats.token_stats_batch, batch_format="pyarrow")


def q_quality_counts(sf_dir: str):
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return docs.map_batches(textstats.quality_counts_batch, batch_format="pyarrow")


def q_quality_filter(sf_dir: str):
    """Composite quality score + keep threshold (the CCNet/Gopher-style
    web-corpus quality filter): length score, punct/digit penalty,
    stopword density, averaged and thresholded at 0.5. Both engines
    evaluate the IDENTICAL rational expression tree (divisions, clips,
    left-assoc sums — no transcendentals), so the doubles are
    bit-identical and no rounding is needed."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    scored = docs.map_batches(
        textstats.quality_score_batch, batch_format="pyarrow"
    )

    def add_keep(batch: pa.Table) -> pa.Table:
        q = batch.column("quality")
        return batch.append_column(
            "keep", pa.compute.greater_equal(q, pa.scalar(0.5))
        )

    return scored.map_batches(add_keep, batch_format="pyarrow")


def q_quality_deciles(sf_dir: str):
    """Curriculum binning: every doc gets its NTILE(10) decile in the
    corpus-wide (quality score, doc_id) order — the assembly step that
    feeds easy-to-hard training curricula (stages/sampling.py
    quality_decile_assign, shared with the webtext pipeline's
    curriculum stage): counting-sort global rank (broadcast score
    histogram + intra-score enumeration in one hash(score) bucket
    shuffle), deciles by SQL NTILE's first-rem-tiles-get-one-extra
    rule. Oracle = DuckDB's own NTILE(10)."""
    from ..stages.sampling import quality_decile_assign

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return quality_decile_assign(docs)


def q_lang_dist(sf_dir: str):
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang"])
    out = docs.groupby("lang").count().rename_columns({"count()": "n_docs"})
    return out.map_batches(
        lambda b: b.set_column(
            b.schema.get_field_index("n_docs"), "n_docs", b.column("n_docs").cast(pa.int64())
        ),
        batch_format="pyarrow",
    )


def q_content_hash(sf_dir: str):
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return docs.map_batches(
        lambda b: textstats.content_hash_batch(b, "text"), batch_format="pyarrow"
    )


def q_repetition_stats(sf_dir: str):
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return docs.map_batches(
        textstats.repetition_stats_batch, batch_format="pyarrow"
    )


def q_line_dedup(sf_dir: str):
    """RefinedWeb-style corpus-frequency boilerplate removal
    (stages/linededup.py): segments recurring in >2 distinct docs are
    dropped from every doc and the residual text reassembled. The
    synthetic documents have no newline structure, so the deterministic
    stand-in segment model is non-overlapping 3-token windows (partial
    tail window included) — the SQL oracle applies the identical model.
    Only (128-bit key, doc_id) pairs shuffle; the boilerplate set is
    broadcast once via ray.put and probed per actor."""
    from ..stages.linededup import line_dedup

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return line_dedup(docs, width=3, max_docs=2)


def q_lm_bucket(sf_dir: str):
    """CCNet-style unigram-LM perplexity bucketing (stages/lmscore.py):
    corpus-fit capped-vocab model (top-16 tokens + one OOV class so the
    broadcast stays bounded at any corpus size), per-doc nll accumulated
    in fixed-point int64 (order-independent — no float-summation hash
    instability), head/middle/tail by fixed integer thresholds."""
    from ..stages.lmscore import unigram_lm_score

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return unigram_lm_score(
        docs, vocab_k=16, head_t=342_800_000, tail_t=343_500_000
    )


def q_webtext_pipeline(sf_dir: str):
    """Flagship end-to-end training-data pipeline — the composition a
    100 TB webtext run would actually execute, as ONE streaming Dataset
    chain (no stage materializes the corpus; the only driver-held state
    is the boilerplate key set and the capped LM dict, both broadcast):

      1. quality filter (CCNet/Gopher-style composite score ≥ 0.5)
      2. corpus-frequency boilerplate removal (stages/linededup.py),
         boilerplate-only docs dropped
      3. exact dedup on the CLEANED text — bucketed by hash64 % 64 so the
         shuffle has 64 scheduling units (string-exact keep-min-doc_id
         within bucket; not one group per distinct text)
      4. unigram-LM perplexity bucketing (stages/lmscore.py), tail
         dropped

    Output: survivors as (doc_id, dl, nll_fixed, mean_nll_fixed, bucket).
    The SQL oracle recomputes the identical four-stage composition."""
    from .webtext import webtext_pipeline

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return webtext_pipeline(docs)


def q_decontaminate(sf_dir: str):
    from ..stages.decontaminate import decontaminate

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    # Deterministic stand-in benchmark: every 97th doc (the real use reads
    # an eval-set table; only its small size matters for the plan shape).
    bench = docs.map_batches(
        lambda b: b.filter(
            pa.array(b.column("doc_id").to_numpy(zero_copy_only=False) % 97 == 0)
        ),
        batch_format="pyarrow",
    )
    return decontaminate(docs, bench, n=3)


def q_decontaminate_bloom(sf_dir: str):
    """Same contamination semantics as q_decontaminate, through the
    bloom-semijoin + bucketed-exact-verify scale path (benchmark side too
    big to broadcast exactly → broadcast its BITS, verify the bounded
    candidate trickle in place). Shares the decontaminate oracle — the
    verify pass makes the bloom variant exact."""
    from ..stages.decontaminate import decontaminate_bloom

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    bench = docs.map_batches(
        lambda b: b.filter(
            pa.array(b.column("doc_id").to_numpy(zero_copy_only=False) % 97 == 0)
        ),
        batch_format="pyarrow",
    )
    return decontaminate_bloom(docs, bench, n=3)


def q_decontaminate_fuzzy(sf_dir: str):
    """NEAR-duplicate decontamination: a corpus doc is contaminated when
    its 3-gram Jaccard against any benchmark doc is ≥ 0.8 — the fuzzy
    complement of the verbatim-n-gram `decontaminate`. Deterministic
    stand-in benchmark: every 97th doc with its FIRST TOKEN DROPPED, so
    matches are near-duplicates (J < 1), never byte-equal — exercising
    the fuzzy path specifically. Cross-side prefix-filtered AllPairs +
    exact verify; corpus never shuffles whole."""
    from ..stages.decontaminate import decontaminate_fuzzy

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def mk_bench(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        keep = ids % 97 == 0
        texts = [
            " ".join(t.split()[1:])
            for t, k in zip(b.column("text").to_pylist(), keep)
            if k
        ]
        return pa.table(
            {
                "doc_id": pa.array(ids[keep], pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )

    bench = docs.map_batches(mk_bench, batch_format="pyarrow")
    return decontaminate_fuzzy(docs, bench, tau=0.8, shingle=3)


def q_warc_roundtrip(sf_dir: str):
    """Pages → `.warc.gz` shards → pages: the Common-Crawl interchange
    format as sink AND source (sources/warc.py). `digest_ok` recomputes
    each payload's md5 on read against the digest stamped at write, so
    byte-level losslessness is checked IN-BAND — the oracle asserting
    digest_ok=TRUE for every url is a corruption check, not a tautology."""
    import tempfile

    from ..sources.pages import read_pages
    from ..sources.warc import read_warc, write_warc

    pages = read_pages(sf_dir, columns=["url", "warc_ts", "html"])
    # fresh dir per run: shard names depend on block boundaries, so a
    # REUSED dir would accumulate stale shards from a differently-batched
    # earlier run and read back duplicates (caught by the sweep gate)
    out = tempfile.mkdtemp(prefix="c4r_warc_", dir="/tmp")
    write_warc(pages, out).materialize()  # drive the sink to completion
    return read_warc(out).select_columns(["url", "warc_ts", "digest_ok"])


def q_jsonl_roundtrip(sf_dir: str):
    """Documents → `.jsonl.gz` shards → documents: newline-delimited JSON
    as sink AND source (sources/jsonl.py) — the Pile/Dolma/RedPajama
    interchange format next to the WARC sibling. Each record's `_digest`
    (md5 of its canonical payload JSON, stamped at write) is recomputed
    on read, so JSON-encoding losslessness (unicode escapes, key order)
    is checked IN-BAND; the oracle's md5(text) match then proves the
    text column itself survived the round trip byte-for-byte."""
    import tempfile

    from ..sources.jsonl import read_jsonl, write_jsonl

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "text"]
    )
    # fresh dir per run: shard names depend on block boundaries (same
    # contract as warc_roundtrip — a reused dir would accumulate stale
    # shards from a differently-batched earlier run)
    out = tempfile.mkdtemp(prefix="c4r_jsonl_", dir="/tmp")
    write_jsonl(docs, out, key_col="doc_id").materialize()
    schema = pa.schema(
        [("doc_id", pa.int64()), ("lang", pa.string()), ("text", pa.string())]
    )
    back = read_jsonl(out, schema)

    def digest_text(batch: pa.Table) -> pa.Table:
        import hashlib as _hl

        md5s = [
            _hl.md5(t.encode("utf-8")).hexdigest()
            for t in batch.column("text").to_pylist()
        ]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "lang": batch.column("lang"),
                "text_md5": pa.array(md5s, pa.string()),
                "digest_ok": batch.column("digest_ok"),
            }
        )

    return back.map_batches(digest_text, batch_format="pyarrow")


def q_url_canonical_groups(sf_dir: str):
    """Mirror/variant URL consolidation — the crawl-side dedup that
    collapses scheme-case, trailing-slash, tracking-param and fragment
    variants of one page into a canonical group. Variants are exploded
    map-side, normalized with the oracled `normalize_url`, then ONE
    groupby(url_norm) with Count + Min aggregates (map-side combined);
    no row ever carries more than the url strings."""
    from ..functions.urls import normalize_url

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def variants(batch: pa.Table) -> pa.Table:
        raws = []
        for i in batch.column("doc_id").to_pylist():
            h = i % 50
            raws.append(f"HTTPS://SITE{h}.EXAMPLE.COM/page/{i}/")
            if i % 2 == 0:
                raws.append(
                    f"https://site{h}.example.com/page/{i}?utm_campaign=c&gclid=g"
                )
            if i % 3 != 1:
                raws.append(f"https://site{h}.example.com/page/{i}#sec")
        norms = [normalize_url(r, "https://example.com") for r in raws]
        return pa.table(
            {
                "url_norm": pa.array(norms, pa.string()),
                "raw": pa.array(raws, pa.string()),
            }
        )

    return (
        docs.map_batches(variants, batch_format="pyarrow")
        .groupby("url_norm")
        .aggregate(
            ray.data.aggregate.Count(alias_name="n_variants"),
            ray.data.aggregate.Min("raw", alias_name="canonical_raw"),
        )
    )


def q_image_dhash_dups(sf_dir: str):
    """Image near-dup pairs by perceptual dHash: media payloads →
    actor-pool dHash (stages/multimodal.DHashImage — the difference
    hash is the REAL algorithm; only the JPEG→8×9-thumbnail decode in
    front is the container's stub seam) → the complete-within-radius
    hamming block bucketing shared with simhash (stages/dedup.
    hamming_pairs). Payloads are deterministic 8×9 grids derived from
    doc_id; every doc_id ≡ 1 (mod 50) carries its predecessor's grid
    with ONE pixel bumped — a planted near-dup at hamming ≤ 1. The
    oracle rebuilds grids, bits, and two-half packed hashes in SQL and
    takes all pairs with hamming ≤ 2."""
    from ..stages.dedup import hamming_pairs
    from ..stages.multimodal import DHashImage, raw_gray_payload

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def synth(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        r = np.arange(8, dtype=np.int64)[None, :, None]
        c = np.arange(9, dtype=np.int64)[None, None, :]
        base = np.where(ids % 50 == 1, ids - 1, ids)[:, None, None]
        # squared congruential mixing: a LINEAR congruence (any
        # coefficients) leaves all ids on a one-parameter offset family
        # whose dHash patterns are mutually close (measured: 36k, then
        # still 3.3k of 125k pairs within hamming 2); squaring mod the
        # prime is non-linear in the offset, so grids decorrelate and
        # only the planted pairs stay near
        x = (base * 2654435761 + r * 40503 + c * 69427) % 1000003
        grids = (((x * x) % 1000003) % 251).astype(np.uint8)
        planted = ids % 50 == 1
        grids[planted, 0, 0] = (grids[planted, 0, 0].astype(np.int64) + 1) % 251
        return pa.table(
            {
                "media_id": pa.array(ids, pa.int64()),
                "payload": pa.array(
                    [raw_gray_payload(g) for g in grids], pa.binary()
                ),
            }
        )

    media = docs.map_batches(synth, batch_format="pyarrow")
    sigs = media.map_batches(
        DHashImage, batch_format="pyarrow", batch_size=256, concurrency=(1, 8)
    )
    return hamming_pairs(sigs, max_hamming=2, id_col="id", sig_col="dhash")


def q_audio_fp_dups(sf_dir: str):
    """Audio near-dup pairs by 64-bit band-energy fingerprint
    (stages/multimodal.AudioFingerprint — simplified Haitsma–Kalker;
    the sign/packing math is real, the decode in front is the declared
    stub seam) through the same hamming block bucketing as simhash and
    image dHash. PCM payloads are squared-congruential int16 streams;
    doc_id ≡ 2 (mod 50) carries its predecessor's samples with one
    sample nudged — a planted near-dup whose energy signs move ≤ 2
    bits. The oracle rebuilds samples → band energies → sign bits →
    lo/hi packed halves in SQL, pairs at hamming ≤ 4."""
    from ..stages.dedup import hamming_pairs
    from ..stages.multimodal import AudioFingerprint

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def synth(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        t = np.arange(1024, dtype=np.int64)[None, :]
        base = np.where(ids % 50 == 2, ids - 1, ids)[:, None]
        x = (base * 2654435761 + t * 97003) % 1000003
        mag = ((x * x) % 1000003) % 4096  # int64 domain until the cast
        planted = ids % 50 == 2
        # one-sample nudge with wrap INSIDE the 0..4095 magnitude domain
        # (a bare +1 could push 2047 -> 2048 past int16 after the offset)
        mag[planted, 7] = (mag[planted, 7] + 1) % 4096
        samples = (mag - 2048).astype(np.int16)
        return pa.table(
            {
                "media_id": pa.array(ids, pa.int64()),
                "payload": pa.array(
                    [s.tobytes() for s in samples], pa.binary()
                ),
            }
        )

    media = docs.map_batches(synth, batch_format="pyarrow")
    sigs = media.map_batches(
        AudioFingerprint, batch_format="pyarrow", batch_size=256, concurrency=(1, 8)
    )
    return hamming_pairs(sigs, max_hamming=4, id_col="id", sig_col="afp")


def q_phrase_search(sf_dir: str):
    """Exact phrase search over the term-partitioned POSITIONAL index
    (stages/index.py build_positional_index + phrase_lookup): the
    lookup reads only the phrase terms' partitions (asserted via bytes
    telemetry), then intersects per-doc position lists — token k must
    sit at first_pos + k. The oracle scans with the equivalent
    adjacent-token predicate over the same whitespace tokenization."""
    import tempfile

    from ..stages.index import build_positional_index, phrase_lookup

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = tempfile.mkdtemp(prefix="c4r_posidx_", dir="/tmp")
    build_positional_index(docs, out)
    res, tel = phrase_lookup(out, "order line")
    assert 0 < tel["bytes_scanned"] < tel["bytes_total"], tel
    return res


def q_leakage_safe_split(sf_dir: str):
    """Contamination-safe train/eval split: duplicate CLUSTERS land on
    one side whole — a naive per-doc hash split leaks near-identical
    text across the boundary and inflates eval. Chain: planted-copy
    corpus (documents ∪ byte-identical copies at +N, the exact_dedup
    testbed) → duplicate edges per content-hash group → REAL
    connected_components propagation → side = component % 10 < 8
    (min-member id is the component label, so every duplicate follows
    its canonical doc's side). Oracle: MIN OVER (PARTITION BY md5(text))
    + the same modular rule."""
    from ..functions import hashing
    from ..stages.graph import connected_components

    corpus, _ = _docs_with_exact_copies(sf_dir)

    def key(batch: pa.Table) -> pa.Table:
        h = hashing.hash64(batch.column("text").to_pylist())
        return pa.table(
            {
                "k": pa.array(h, pa.uint64()),
                "doc_id": batch.column("doc_id"),
            }
        )

    def group_edges(group: pa.Table) -> pa.Table:
        ids = np.sort(
            np.asarray(group.column("doc_id").to_pylist(), np.int64)
        )
        if len(ids) < 2:
            return pa.table(
                {"src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "src": pa.array(np.full(len(ids) - 1, ids[0]), pa.int64()),
                "dst": pa.array(ids[1:], pa.int64()),
            }
        )

    edges = (
        corpus.map_batches(key, batch_format="pyarrow")
        .groupby("k")
        .map_groups(group_edges, batch_format="pyarrow")
    )
    nodes = corpus.map_batches(
        lambda b: pa.table({"node": b.column("doc_id")}), batch_format="pyarrow"
    )
    comps = connected_components(nodes, edges)

    def assign(batch: pa.Table) -> pa.Table:
        comp = batch.column("component").to_numpy(zero_copy_only=False)
        side = np.where(comp % 10 < 8, "train", "eval")
        return pa.table(
            {
                "doc_id": batch.column("node"),
                "component": batch.column("component"),
                "split": pa.array(side.tolist(), pa.string()),
            }
        )

    return comps.map_batches(assign, batch_format="pyarrow")


def q_regex_search_trigram(sf_dir: str):
    """Regex search with trigram-index pruning (the pg_trgm trick,
    stages/index.py build_trigram_index + regex_search_trigram):
    candidates = docs whose postings hold ALL trigrams of the pattern's
    literal runs (a superset of matches), the real regex runs only on
    candidates point-read by id. Exact by construction; the oracle is
    the full-scan regex itself."""
    import tempfile

    from ..stages.index import build_trigram_index, regex_search_trigram

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = tempfile.mkdtemp(prefix="c4r_tridx_", dir="/tmp")
    build_trigram_index(docs, out)
    res, tel = regex_search_trigram(
        out,
        f"{sf_dir}/documents.parquet",
        pattern=r"batch [a-z]+ window",
        literals=["batch ", " window"],
    )
    assert 0 < tel["bytes_scanned"] < tel["bytes_total"], tel
    return res


def q_corpus_rollup(sf_dir: str):
    """Corpus-composition report (GROUP BY ROLLUP re-expressed): docs and
    chars by language × source, per-language subtotals, grand total —
    one distributed groupby over the finest cells, coarser levels folded
    from the bounded cell table."""
    from ..stages.agg import rollup_stats

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "source", "n_chars"]
    )
    return rollup_stats(docs, ["lang", "source"], "n_chars")


def q_connected_components(sf_dir: str):
    """Connected components over the host-membership graph (each page
    linked to its host's hub page): label propagation with convergence
    detection (stages/graph.py connected_components) — the fixpoint must
    equal min-doc_id-per-host, which the oracle computes independently
    from the corpus arithmetic."""
    from ..stages.graph import connected_components

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def host_of(ids: np.ndarray) -> np.ndarray:
        return np.where(ids % 7 == 0, 0, ids % 50)

    # hubs: min doc_id per host — a 50-row aggregate, broadcast to the
    # edge builder (small-side broadcast, not a shuffle join)
    hubs_ds = docs.map_batches(
        lambda b: pa.table(
            {
                "host_id": pa.array(
                    host_of(b.column("doc_id").to_numpy(zero_copy_only=False))
                ),
                "doc_id": b.column("doc_id"),
            }
        ),
        batch_format="pyarrow",
    ).groupby("host_id").min("doc_id")
    # hosts are dense ints 0..49 — a fancy-indexable array beats a dict
    hub_arr = np.zeros(50, dtype=np.int64)
    for r in hubs_ds.take_all():  # bounded: one row per host (≤ 50 hosts)
        hub_arr[int(r["host_id"])] = int(r["min(doc_id)"])
    hub_ref = ray.put(hub_arr)

    def mk_edges(batch: pa.Table) -> pa.Table:
        hubs = ray.get(hub_ref)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        dst = hubs[host_of(ids)]
        keep = ids != dst  # drop self-loops
        return pa.table(
            {
                "src": pa.array(ids[keep], pa.int64()),
                "dst": pa.array(dst[keep], pa.int64()),
            }
        )

    nodes = docs.map_batches(
        lambda b: pa.table({"node": b.column("doc_id")}), batch_format="pyarrow"
    )
    edges = docs.map_batches(mk_edges, batch_format="pyarrow")
    return connected_components(nodes, edges)


def q_seed_distances(sf_dir: str):
    """Multi-source BFS seed attribution over the synthetic link graph:
    every reachable doc gets (hop distance from the nearest seed, id of
    that seed, lowest-seed tiebreak) — the graph-analytics twin of the
    crawl's bfs_depth, computed by packed-int min-label propagation with
    convergence detection (stages/graph.py multi_source_bfs). The oracle
    unrolls the identical (dist·2^32 + seed) min-propagation for 16
    sweeps — ≥ the graph's seed eccentricity at every test sf, so both
    engines sit at the same fixpoint."""
    from ..stages.graph import multi_source_bfs

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    nodes = docs.map_batches(
        lambda b: pa.table({"node": b.column("doc_id")}), batch_format="pyarrow"
    )
    return multi_source_bfs(nodes, _synthetic_link_edges(sf_dir), seeds=[0, 1, 2])


def _seed_distances_sql(n_iters: int = 16) -> str:
    """Unrolled min-label-propagation oracle for q_seed_distances: the
    packed lbl = dist*2^32 + seed arithmetic, iterated n_iters times.
    MATERIALIZED per NOTES gotcha — without it DuckDB inlines each level
    into both consumers of the next (exponential blowup)."""
    sent = 1 << 62
    hop = 1 << 32
    parts = [
        f"""e AS MATERIALIZED (
  SELECT CAST(doc_id AS BIGINT) AS src,
         CAST((2 * doc_id + 1) % nn.c AS BIGINT) AS dst FROM documents, nn
  UNION ALL
  SELECT doc_id, (2 * doc_id + 2) % nn.c FROM documents, nn
  UNION ALL
  SELECT doc_id, (7 * doc_id + 3) % nn.c FROM documents, nn
),
l0 AS MATERIALIZED (
  SELECT CAST(doc_id AS BIGINT) AS node,
         CAST(CASE WHEN doc_id IN (0, 1, 2) THEN doc_id
                   ELSE {sent} END AS BIGINT) AS lbl
  FROM documents
)"""
    ]
    for i in range(1, n_iters + 1):
        parts.append(
            f"""l{i} AS MATERIALIZED (
  SELECT node, MIN(lbl) AS lbl FROM (
    SELECT node, lbl FROM l{i - 1}
    UNION ALL
    SELECT e.dst AS node, l{i - 1}.lbl + {hop} AS lbl
    FROM l{i - 1} JOIN e ON e.src = l{i - 1}.node
    WHERE l{i - 1}.lbl < {sent}
  ) GROUP BY node
)"""
        )
    return (
        "WITH nn AS (SELECT COUNT(*) AS c FROM documents),\n"
        + ",\n".join(parts)
        + f"""
SELECT node,
       CAST(lbl // {hop} AS BIGINT) AS dist,
       CAST(lbl % {hop} AS BIGINT) AS seed
FROM l{n_iters} WHERE lbl < {sent}
"""
    )


def _label_prop_ctes(n_sweeps: int = 4) -> str:
    """The unrolled seeded-LPA CTE chain (nn, e, lab0 … lab{n}) WITHOUT
    the WITH keyword or final SELECT — the community_modularity oracle
    (wave 9) computes modularity on top of its lab{n} labels."""
    parts = [
        """e AS MATERIALIZED (
  SELECT CAST(doc_id AS BIGINT) AS src,
         CAST((2 * doc_id + 1) % nn.c AS BIGINT) AS dst FROM documents, nn
  UNION ALL
  SELECT doc_id, (2 * doc_id + 2) % nn.c FROM documents, nn
  UNION ALL
  SELECT doc_id, (7 * doc_id + 3) % nn.c FROM documents, nn
),
lab0 AS MATERIALIZED (
  SELECT CAST(doc_id AS BIGINT) AS node,
         CASE WHEN doc_id < 5 THEN CAST(doc_id AS BIGINT) ELSE NULL END AS lbl
  FROM documents
)"""
    ]
    for i in range(1, n_sweeps + 1):
        parts.append(
            f"""cand{i} AS MATERIALIZED (
  SELECT e.dst AS node, l.lbl, COUNT(*) AS c
  FROM e JOIN lab{i - 1} l ON l.node = e.src
  WHERE l.lbl IS NOT NULL
  GROUP BY 1, 2
),
mode{i} AS MATERIALIZED (
  SELECT node, lbl FROM (
    SELECT node, lbl,
           row_number() OVER (PARTITION BY node ORDER BY c DESC, lbl) AS rn
    FROM cand{i}) WHERE rn = 1
),
lab{i} AS MATERIALIZED (
  SELECT p.node,
         CASE WHEN p.node < 5 THEN p.lbl
              ELSE COALESCE(m.lbl, p.lbl) END AS lbl
  FROM lab{i - 1} p LEFT JOIN mode{i} m ON m.node = p.node
)"""
        )
    return "nn AS (SELECT COUNT(*) AS c FROM documents),\n" + ",\n".join(
        parts
    )


def q_tfidf_top_terms(sf_dir: str):
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return textstats.tfidf_top_terms(docs, k=3)


def q_gopher_rules(sf_dir: str):
    """Gopher quality-rule bundle (stages/textstats.py gopher_rules_batch):
    per-rule flags + conjunction, all ratios compared as exact integers."""
    import functools

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    # min_stops=1 on the synthetic corpus (its stopword density is low by
    # construction) so the conjunction discriminates; production default is 2
    return docs.map_batches(
        functools.partial(textstats.gopher_rules_batch, min_stops=1),
        batch_format="pyarrow",
    )


def q_dsir_weights(sf_dir: str):
    """DSIR hashed-unigram importance weights (stages/dsir.py) with
    target = English docs: per-bucket log-ratios fitted from ONE K-row
    aggregate, broadcast as fixed-point int64, per-doc weight = integer
    dot product (order-free → hash-stable). Oracle reproduces the bucket
    hash via DuckDB's md5_number_lower and the identical quantized ln."""
    from ..stages.dsir import dsir_weights

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "is_target", pa.compute.equal(batch.column("lang"), pa.scalar("en"))
        )

    tagged = docs.map_batches(tag, batch_format="pyarrow")
    return dsir_weights(tagged, target_col="is_target")


def q_ann_topk_pq(sf_dir: str):
    """Product-quantization ANN (stages/ann.py pq_topk): 2 subspaces ×
    8-centroid integer-exact codebooks (2 Lloyd iterations), codes built
    with one bucketed pivot shuffle, broadcast ADC lookup tables, local
    top-k per code batch. Fully fixed-point, so the oracle unrolls BOTH
    subspace k-means chains and recomputes the ADC distances in SQL."""
    from ..stages.ann import pq_topk

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    return pq_topk(
        emb, query_ids=range(5), k=10, m_subspaces=2, codebook_k=8, iters=2
    )


def q_ann_topk_ivfpq(sf_dir: str):
    """IVF-PQ ANN (stages/ann.py ivfpq_topk): 4 coarse cells (integer
    k-means over full vectors), nprobe=2, 2×8 PQ codebooks, codes
    written partitioned by cell and ONLY probed cells read back (bytes
    telemetry). faiss IndexIVFPQ semantics with by_residual=False, so
    the oracle composes THREE unrolled k-means chains (coarse + both
    subspaces), ranks cells per query by the same integer L2, and
    restricts the ADC ranking to neighbors in probed cells."""
    import tempfile

    from ..stages.ann import ivfpq_topk

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    out = tempfile.mkdtemp(prefix="c4r_ivfpq_", dir="/tmp")
    res, telemetry = ivfpq_topk(
        emb,
        query_ids=range(5),
        out_dir=out,
        k=10,
        n_cells=4,
        nprobe=2,
        coarse_iters=2,
        m_subspaces=2,
        codebook_k=8,
        iters=2,
    )
    # pruning evidence when the 5 queries' probe union < all cells; the
    # strict always-pruned case is pinned by the unit test's single query
    assert 0 < telemetry["bytes_scanned"] <= telemetry["bytes_total"], telemetry
    return res


def q_ann_recall_ivfpq(sf_dir: str):
    """Recall@10 of the IVF-PQ index against the EXACT integer-L2
    ranking (stages/ann.py recall_at_k) — the evaluation operator of
    the ANN family: ground truth from brute_l2fp_topk (same fixed-point
    quantization and tie discipline as the index), intersection counted
    per query in one tagged-union groupby. The oracle recomputes BOTH
    rankings and the same n_hits/10 division."""
    import tempfile

    from ..stages.ann import brute_l2fp_topk, ivfpq_topk, recall_at_k

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    out = tempfile.mkdtemp(prefix="c4r_ivfpq_", dir="/tmp")
    approx, _ = ivfpq_topk(
        emb,
        query_ids=range(5),
        out_dir=out,
        k=10,
        n_cells=4,
        nprobe=2,
        coarse_iters=2,
        m_subspaces=2,
        codebook_k=8,
        iters=2,
    )
    exact = brute_l2fp_topk(emb, query_ids=range(5), k=10)
    return recall_at_k(approx, exact, k=10)


def q_mmr_rerank(sf_dir: str):
    """Maximal-Marginal-Relevance diversity re-ranking (stages/ann.py
    mmr_rerank): top-20 candidates by integer fixed-point dot product,
    then 5 greedy picks maximizing rel − max-sim-to-selected (λ = 1/2
    up to scale, ties → smaller id). Fully integer, so the oracle
    unrolls the greedy loop: per step a penalty MAX-join against the
    selected set, argmax by (score DESC, id ASC)."""
    from ..stages.ann import mmr_rerank

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    return mmr_rerank(emb, query_ids=range(5), k_cand=20, k_out=5)


def _mmr_sql(k_cand: int = 20, k_out: int = 5) -> str:
    """Unrolled MMR oracle: fp embeddings, integer rel dots, top-k_cand,
    candidate-pair sims, then k_out greedy steps (penalty max-join +
    argmax per step). MATERIALIZED per the DuckDB inlining gotcha."""
    parts = [
        """efp AS MATERIALIZED (
  SELECT vec_id,
         CAST(unnest(range(len(embedding))) AS BIGINT) AS dim,
         CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1048576.0
                    + CAST(0.5 AS DOUBLE)) AS BIGINT) AS e
  FROM embeddings
),
q AS (SELECT vec_id FROM embeddings WHERE vec_id < 5),
relt AS MATERIALIZED (
  SELECT q.vec_id AS query_id, f2.vec_id AS neighbor_id,
         CAST(SUM(f.e * f2.e) AS BIGINT) AS rel
  FROM q
  JOIN efp f ON f.vec_id = q.vec_id
  JOIN efp f2 ON f2.dim = f.dim AND f2.vec_id <> q.vec_id
  GROUP BY 1, 2
),"""
        + f"""
cand AS MATERIALIZED (
  SELECT query_id, neighbor_id, rel FROM (
    SELECT query_id, neighbor_id, rel,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY rel DESC, neighbor_id) AS rn
    FROM relt) WHERE rn <= {k_cand}
),
sims AS MATERIALIZED (
  SELECT c1.query_id, c1.neighbor_id AS a, c2.neighbor_id AS b,
         CAST(SUM(fa.e * fb.e) AS BIGINT) AS sim
  FROM cand c1
  JOIN cand c2 ON c1.query_id = c2.query_id
  JOIN efp fa ON fa.vec_id = c1.neighbor_id
  JOIN efp fb ON fb.vec_id = c2.neighbor_id AND fb.dim = fa.dim
  GROUP BY 1, 2, 3
),
sel1 AS MATERIALIZED (
  SELECT query_id, neighbor_id, rel AS score FROM (
    SELECT query_id, neighbor_id, rel,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY rel DESC, neighbor_id) AS rn
    FROM cand) WHERE rn = 1
),
selset1 AS MATERIALIZED (SELECT query_id, neighbor_id FROM sel1)"""
    ]
    for i in range(2, k_out + 1):
        parts.append(
            f"""pen{i} AS (
  SELECT s.query_id, s.a AS neighbor_id, MAX(s.sim) AS pen
  FROM sims s
  JOIN selset{i - 1} ss
    ON ss.query_id = s.query_id AND ss.neighbor_id = s.b
  GROUP BY 1, 2
),
sel{i} AS MATERIALIZED (
  SELECT query_id, neighbor_id, score FROM (
    SELECT c.query_id, c.neighbor_id, c.rel - p.pen AS score,
           row_number() OVER (PARTITION BY c.query_id
                              ORDER BY c.rel - p.pen DESC, c.neighbor_id)
             AS rn
    FROM cand c
    JOIN pen{i} p
      ON p.query_id = c.query_id AND p.neighbor_id = c.neighbor_id
    WHERE NOT EXISTS (
      SELECT 1 FROM selset{i - 1} ss
      WHERE ss.query_id = c.query_id AND ss.neighbor_id = c.neighbor_id
    )) WHERE rn = 1
),
selset{i} AS MATERIALIZED (
  SELECT query_id, neighbor_id FROM selset{i - 1}
  UNION ALL
  SELECT query_id, neighbor_id FROM sel{i}
)"""
        )
    finals = "\nUNION ALL\n".join(
        f"SELECT query_id, CAST({i} AS BIGINT) AS rank, neighbor_id, "
        f"score AS mmr_fp FROM sel{i}"
        for i in range(1, k_out + 1)
    )
    return "WITH " + ",\n".join(parts) + "\n" + finals


def q_embedding_norm_outliers(sf_dir: str):
    """Embedding sanity monitor: vectors whose squared fixed-point L2
    norm sits further than 2 population-σ from the corpus mean — the QA
    gate that catches collapsed (near-zero) or exploded rows before
    they poison ANN/dedup stages. The z-score is
    z = (v·n − S1)/√(n·S2 − S1²) from exact integer moments — with one
    twist: raw norm² ≤ 2^46 would push Σv² past int64, so all moments
    are computed on v CENTERED BY THE CORPUS MIN (z is shift-invariant),
    keeping every integer inside int64 at this scale. One exactly-
    rounded divide+sqrt at the end, mirrored by the oracle."""
    from ..stages.cluster import quantize_embeddings

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")

    def norms(batch: pa.Table) -> pa.Table:
        x = quantize_embeddings(batch)
        v = np.einsum("nd,nd->n", x, x)  # ≤ 64·2^40 — int64-safe
        return pa.table(
            {
                "vec_id": batch.column("vec_id").cast(pa.int64()),
                "norm2_fp": pa.array(v, pa.int64()),
            }
        )

    scored = emb.map_batches(norms, batch_format="pyarrow").materialize()
    # center by the corpus min so the squared-sum moment fits int64:
    # (v−m) ≤ spread ~2^24 here, (v−m)² ≤ 2^48, ×n ≤ 2^57 — exact
    m = scored.min("norm2_fp")

    def moments(batch: pa.Table) -> pa.Table:
        v = batch.column("norm2_fp").to_numpy(zero_copy_only=False) - m
        return pa.table(
            {
                "n": pa.array([len(v)], pa.int64()),
                "s1": pa.array([int(v.sum())], pa.int64()),
                "s2": pa.array([int((v * v).sum())], pa.int64()),
            }
        )

    # ONE combined aggregate pass (three .sum() calls would re-run the
    # moments map three times)
    row = scored.map_batches(moments, batch_format="pyarrow").aggregate(
        ray.data.aggregate.Sum("n", alias_name="n"),
        ray.data.aggregate.Sum("s1", alias_name="s1"),
        ray.data.aggregate.Sum("s2", alias_name="s2"),
    )
    n, s1, s2 = int(row["n"]), int(row["s1"]), int(row["s2"])

    def zscore(batch: pa.Table) -> pa.Table:
        v = batch.column("norm2_fp").to_numpy(zero_copy_only=False) - m
        var_num = n * s2 - s1 * s1
        if var_num > 0:
            z = (v * n - s1).astype(np.float64) / np.sqrt(float(var_num))
        else:
            z = np.zeros(len(v), np.float64)
        return pa.table(
            {
                "vec_id": batch.column("vec_id"),
                "norm2_fp": batch.column("norm2_fp"),
                "zscore": pa.array(z, pa.float64()),
                "is_outlier": pa.array(np.abs(z) > 2.0, pa.bool_()),
            }
        )

    return scored.map_batches(zscore, batch_format="pyarrow")


def q_kmeans_embeddings(sf_dir: str):
    """Distributed Lloyd's k-means over the embedding table
    (stages/cluster.py kmeans_fp): integer-exact fixed-point arithmetic
    throughout, so the iterative algorithm is SQL-reproducible — the
    oracle unrolls the same 4 iterations as CTEs."""
    from ..stages.cluster import kmeans_fp

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    assignments, _ = kmeans_fp(emb, k=8, iters=4)
    return assignments


def q_semdedup(sf_dir: str):
    """SemDeDup (cluster-then-cosine-drop) over embeddings with planted
    identical copies (vec_id + N, like embedding_neardup): every copy is
    cos=1 to its original and must be dropped; cluster assignment +
    threshold test are integer-exact so the SQL oracle reproduces the
    full pipeline including the k-means chain."""
    from ..stages.cluster import semdedup

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    n = emb.count()

    def copy(batch: pa.Table) -> pa.Table:
        ids = pa.compute.add(batch.column("vec_id"), n)
        return batch.set_column(
            batch.schema.get_field_index("vec_id"), "vec_id", ids
        )

    dup = emb.union(emb.map_batches(copy, batch_format="pyarrow"))
    return semdedup(dup, k=8, iters=4, tau_num=81, tau_den=100)


def q_token_budget_select(sf_dir: str):
    """Greedy quality-ordered token-budget selection
    (stages/sampling.py token_budget_select): keep the best docs while
    the running token total stays ≤ 12000 — a two-level scan over
    score-ordered bins, with bins past the budget pruned map-side before
    the only shuffle. Oracle = the quality expression tree (proven
    float-exact by quality_filter) + SUM() OVER (ORDER BY quality DESC,
    doc_id)."""
    from ..stages.sampling import token_budget_select

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    # score and token count in ONE pass over the read (a join of two
    # derived maps would shuffle for nothing)
    def score_and_count(batch: pa.Table) -> pa.Table:
        s = textstats.quality_score_batch(batch)
        t = textstats.token_stats_batch(batch)
        return pa.table(
            {
                "doc_id": s.column("doc_id"),
                "quality": s.column("quality"),
                "n_tok": t.column("n_tokens"),
            }
        )

    combined = docs.map_batches(score_and_count, batch_format="pyarrow")
    return token_budget_select(
        combined, budget=12000, score_col="quality", weight_col="n_tok"
    )


def q_c4_rules(sf_dir: str):
    """C4 cleaning-rule bundle (stages/textstats.py c4_rules_batch) over
    deterministically derived structured pages (the synthetic table is
    line-less; derive_structured_page adds lines/punct/contaminations the
    SQL oracle mirrors). Pure map_batches — trivially 100 TB-safe."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def structure(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(
                    [
                        textstats.derive_structured_page(i, t)
                        for i, t in zip(ids, texts)
                    ],
                    pa.string(),
                ),
            }
        )

    return docs.map_batches(structure, batch_format="pyarrow").map_batches(
        textstats.c4_rules_batch, batch_format="pyarrow"
    )


def q_logreg_quality(sf_dir: str):
    """Trainable quality classifier (stages/logreg.py): class-weighted
    full-batch GD as iterative broadcast-aggregate with fixed-point
    integer gradient sums (order-free → hash-stable). Oracle replays the
    12 unrolled iterations in MATERIALIZED CTEs with the identical float
    expressions."""
    from ..stages.logreg import logreg_quality_scores

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return logreg_quality_scores(docs, iters=12, lr=2.0, pos_weight=6.0)


def q_logreg_calibration(sf_dir: str):
    """Reliability table for the trained quality classifier
    (stages/logreg.py logreg_calibration): per probability decile,
    (n, n_pos, Σp fixed-point) — predicted mass vs observed positives,
    the eval operator that closes the classifier loop. Exact-int
    aggregates on the same round-8 doubles both engines emit."""
    from ..stages.logreg import logreg_calibration

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return logreg_calibration(docs, iters=12, lr=2.0, pos_weight=6.0)


def q_logreg_auc(sf_dir: str):
    """ROC-AUC of the trained quality classifier via the tie-aware
    Mann-Whitney rank sum over the distinct round-8 score grid
    (stages/logreg.py logreg_auc) — the threshold-free eval closing the
    classifier loop beside logreg_calibration. Exact-int numerator, ONE
    division; oracle mirrors the doubled-average-rank fold."""
    from ..stages.logreg import logreg_auc

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return logreg_auc(docs, iters=12, lr=2.0, pos_weight=6.0)


def q_pmi_pairs(sf_dir: str):
    """Windowed PMI collocations (stages/textstats.py pmi_pairs): forward
    window 3, min_count 5. All-integer counts with one float expression at
    the end, mirrored operand-for-operand by the oracle."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return textstats.pmi_pairs(docs, window=3, min_count=5)


def q_funnel(sf_dir: str):
    """Ordered view→click→purchase funnel over the events table
    (stages/windows.py funnel_counts — bucket-pattern sequence matching)."""
    from ..stages.windows import funnel_counts

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"]
    )
    return funnel_counts(events, steps=("view", "click", "purchase"))


def q_retention(sf_dir: str):
    """Cohort retention over the events table (stages/windows.py
    retention_cohorts)."""
    from ..stages.windows import retention_cohorts

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    return retention_cohorts(events, max_offset_days=7)


def q_media_decode(sf_dir: str):
    """Multimodal plumbing as a checked query: documents become opaque
    binary payloads (text bytes — the corpus stand-in for image bytes),
    flow through the DecodeMedia → ResizeMedia actor pools, and emit
    (media_id, mime, width, height, feat_md5). Deterministic stub codecs
    (no PIL/ffmpeg in env, declared) → pinned golden oracle."""
    import hashlib as _hashlib

    from ..stages.multimodal import media_pipeline

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def to_media(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        payloads = [t.encode("utf-8") for t in batch.column("text").to_pylist()]
        mimes = [("image/png", "image/jpeg", "video/mp4")[i % 3] for i in ids]
        return pa.table(
            {
                "media_id": pa.array(ids, pa.int64()),
                "url": pa.array(
                    [f"https://media.example.com/{i}" for i in ids], pa.string()
                ),
                "mime": pa.array(mimes, pa.string()),
                "payload": pa.array(payloads, pa.binary()),
            }
        )

    media = docs.map_batches(to_media, batch_format="pyarrow")
    out = media_pipeline(media, batch_size=32)

    def finish(batch: pa.Table) -> pa.Table:
        feats = batch.column("features").to_pylist()
        h = [
            _hashlib.md5(np.asarray(f, dtype=np.float32).tobytes()).hexdigest()
            for f in feats
        ]
        return pa.table(
            {
                "media_id": batch.column("media_id"),
                "mime": batch.column("mime"),
                "width": batch.column("width").cast(pa.int64()),
                "height": batch.column("height").cast(pa.int64()),
                "feat_md5": pa.array(h, pa.string()),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def q_distinct_users(sf_dir: str):
    """Exact COUNT(DISTINCT user) per event type — map-side pair dedup,
    global pair groupby, partial count (stages/agg.py)."""
    from ..stages.agg import distinct_count_per_key

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )
    return distinct_count_per_key(events, "event_type", "user_id")


def q_distinct_users_hll(sf_dir: str):
    """HyperLogLog variant of `distinct_users` (the 100 TB path: per-key
    1 KB register sketches shuffle instead of every distinct pair).
    Deterministic via the pinned hash spec; golden-pinned oracle with an
    independent scalar-python recompute (scripts/gen_golden_oracles.py)."""
    from ..stages.agg import hll_distinct_per_key

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )
    return hll_distinct_per_key(events, "event_type", "user_id")


def q_token_percentiles(sf_dir: str):
    """Exact corpus length percentiles via the bounded-histogram plan
    (stages/agg.exact_percentiles) — no distributed sort."""
    from ..stages.agg import exact_percentiles

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    stats = docs.map_batches(textstats.token_stats_batch, batch_format="pyarrow")
    return exact_percentiles(stats, "n_tokens", (0.5, 0.9, 0.95, 0.99))


def q_pagerank(sf_dir: str, small_threshold: int = 50_000):
    """PageRank over the synthetic id-level link graph (the same 3
    modular out-edge rules SQL_EDGES uses, deduplicated per row —
    collisions only ever occur within one row's 3 candidates, so dedup
    and out-degree are LOCAL, no shuffle to build the edge table).
    ``small_threshold=0`` forces the distributed BSP path (bench.py's
    pagerank_dist leg — r3 VERDICT: the bench must keep measuring the
    iterative-shuffle plan, not only the local fast path)."""
    from ..stages.graph import pagerank

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    n = docs.count()

    def mk_edges(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        d1 = (2 * ids + 1) % n
        d2 = (2 * ids + 2) % n
        d3 = (7 * ids + 3) % n
        dup3 = (d3 == d1) | (d3 == d2)  # d1 != d2 always (differ by 1 mod n)
        outdeg = 3.0 - dup3.astype(np.float64)
        w = 1.0 / outdeg
        keep3 = ~dup3
        src = np.concatenate([ids, ids, ids[keep3]])
        dst = np.concatenate([d1, d2, d3[keep3]])
        ws = np.concatenate([w, w, w[keep3]])
        return pa.table(
            {
                "src": pa.array(src, pa.int64()),
                "dst": pa.array(dst, pa.int64()),
                "w": pa.array(ws, pa.float64()),
            }
        )

    nodes = docs.map_batches(
        lambda b: pa.table({"node": b.column("doc_id")}), batch_format="pyarrow"
    )
    edges = docs.map_batches(mk_edges, batch_format="pyarrow")
    return pagerank(
        nodes, edges, n_iters=5, damping=0.85, small_threshold=small_threshold
    )


def q_personalized_pagerank(sf_dir: str):
    """Personalized PageRank (random walk with restart) from the crawl's
    seed docs {0,1,2} — seed-relative authority for topic-focused
    frontier prioritization, vs global pagerank's popularity. Same
    distributed plan (the teleport vector changes, not the shuffles)."""
    from ..stages.graph import pagerank

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    n = docs.count()

    def mk_edges(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        d1 = (2 * ids + 1) % n
        d2 = (2 * ids + 2) % n
        d3 = (7 * ids + 3) % n
        dup3 = (d3 == d1) | (d3 == d2)
        outdeg = 3.0 - dup3.astype(np.float64)
        w = 1.0 / outdeg
        keep3 = ~dup3
        return pa.table(
            {
                "src": pa.array(np.concatenate([ids, ids, ids[keep3]]), pa.int64()),
                "dst": pa.array(np.concatenate([d1, d2, d3[keep3]]), pa.int64()),
                "w": pa.array(np.concatenate([w, w, w[keep3]]), pa.float64()),
            }
        )

    nodes = docs.map_batches(
        lambda b: pa.table({"node": b.column("doc_id")}), batch_format="pyarrow"
    )
    edges = docs.map_batches(mk_edges, batch_format="pyarrow")
    return pagerank(nodes, edges, n_iters=5, damping=0.85, seeds=[0, 1, 2])


def q_host_pagerank(sf_dir: str):
    """Host-level (domain) authority, CC-curation style: the page link
    graph is contracted map-side to host ids, collapsed to weighted
    inter-host simple edges (self-loops dropped) by ONE int-pair groupby,
    out-weights normalized row-stochastic with the bucketed attach, then
    weighted PageRank runs on the (orders-of-magnitude smaller) host
    graph. 4 iterations, ROUND(8) both engines."""
    from ..stages.graph import (
        contract_to_host_graph,
        normalize_out_weights,
        pagerank,
    )

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    n = docs.count()

    def mk_host_edges(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        d1 = (2 * ids + 1) % n
        d2 = (2 * ids + 2) % n
        d3 = (7 * ids + 3) % n
        keep3 = ~((d3 == d1) | (d3 == d2))  # distinct page edges (local)
        src = np.concatenate([ids, ids, ids[keep3]])
        dst = np.concatenate([d1, d2, d3[keep3]])
        hs = np.where(src % 7 == 0, 0, src % 50)
        hd = np.where(dst % 7 == 0, 0, dst % 50)
        return pa.table(
            {
                "src_host": pa.array(hs, pa.int64()),
                "dst_host": pa.array(hd, pa.int64()),
            }
        )

    def mk_host_nodes(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {"node": pa.array(np.where(ids % 7 == 0, 0, ids % 50), pa.int64())}
        )

    page_edges = docs.map_batches(mk_host_edges, batch_format="pyarrow")
    host_edges = normalize_out_weights(contract_to_host_graph(page_edges))
    nodes = (
        docs.map_batches(mk_host_nodes, batch_format="pyarrow")
        .groupby("node")
        .count()
        .select_columns(["node"])
    )
    return pagerank(nodes, host_edges, n_iters=4, damping=0.85)


def q_hits(sf_dir: str):
    """HITS hubs/authorities over the synthetic id-level link graph —
    same distinct-edge model as pagerank (collisions only within one
    row's 3 candidates, so dedup is local). 4 L1-normalized sweeps,
    ROUND(8) on both engines."""
    from ..stages.graph import hits

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    n = docs.count()

    def mk_edges(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        d1 = (2 * ids + 1) % n
        d2 = (2 * ids + 2) % n
        d3 = (7 * ids + 3) % n
        keep3 = ~((d3 == d1) | (d3 == d2))  # d1 != d2 always
        src = np.concatenate([ids, ids, ids[keep3]])
        dst = np.concatenate([d1, d2, d3[keep3]])
        return pa.table(
            {"src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64())}
        )

    nodes = docs.map_batches(
        lambda b: pa.table({"node": b.column("doc_id")}), batch_format="pyarrow"
    )
    edges = docs.map_batches(mk_edges, batch_format="pyarrow")
    return hits(nodes, edges, n_iters=4)


def q_ann_topk(sf_dir: str):
    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    qrows = sorted(
        emb.filter(expr="vec_id < 5").take_all(), key=lambda r: r["vec_id"]  # bounded: the k query vectors only
    )
    queries = np.asarray([r["embedding"] for r in qrows], dtype=np.float64)
    qids = [int(r["vec_id"]) for r in qrows]
    out = ann.brute_force_topk(emb, queries, qids, k=10)
    return out.select_columns(["query_id", "neighbor_id", "rank"])


def q_ann_topk_ivf_scan(sf_dir: str):
    """In-memory IVF baseline: probes by masking but still scans every row
    — kept under the _scan name so the default ann_topk_ivf is the
    bucket-pruned storage path (r2 VERDICT #8)."""
    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    qrows = sorted(
        emb.filter(expr="vec_id < 5").take_all(), key=lambda r: r["vec_id"]  # bounded: the k query vectors only
    )
    queries = np.asarray([r["embedding"] for r in qrows], dtype=np.float64)
    qids = [int(r["vec_id"]) for r in qrows]
    out = ann.ivf_topk(emb, queries, qids, k=10, n_centroids=8, nprobe=8)
    return out.select_columns(["query_id", "neighbor_id", "rank"])


def q_ann_topk_ivf(sf_dir: str):
    """IVF with bucket-pruned STORAGE (the default scale path): embeddings partitioned by centroid
    once (deterministic layout under /tmp), queries read only probed
    partitions. nprobe = all centroids here so the result is exact and the
    brute-force SQL oracle applies; the bytes-scanned telemetry (logged)
    demonstrates the pruning path at lower nprobe."""
    import hashlib
    import os
    import tempfile

    from ..stages.ann import ivf_topk_bucketed, partition_embeddings

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    slug = hashlib.sha1(os.path.realpath(sf_dir).encode()).hexdigest()[:12]
    idx_dir = os.path.join(tempfile.gettempdir(), "c4r_ivf", slug)
    if not os.path.exists(os.path.join(idx_dir, "_CENTROIDS.npy")):
        partition_embeddings(emb, idx_dir, n_centroids=8)
    qrows = sorted(
        emb.filter(expr="vec_id < 5").take_all(), key=lambda r: r["vec_id"]  # bounded: the k query vectors only
    )
    queries = np.asarray([r["embedding"] for r in qrows], dtype=np.float64)
    qids = [int(r["vec_id"]) for r in qrows]
    out, telem = ivf_topk_bucketed(idx_dir, queries, qids, k=10, nprobe=8)
    return out.select_columns(["query_id", "neighbor_id", "rank"])


def q_embedding_neardup_brute(sf_dir: str):
    """Brute-force small-N baseline (full-matrix broadcast + blocked
    matmul) — kept under the _brute name so the query users copy by default
    (q_embedding_neardup) is the scale path (r2 VERDICT #8). tau sized to
    the synthetic embeddings' cosine range (max ≈ 0.48)."""
    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    pairs = dedup.embedding_neardup_pairs(emb, tau=0.3)
    return pairs.groupby(["a", "b"]).count().select_columns(["a", "b"])


def q_embedding_neardup(sf_dir: str):
    """Cosine near-dup, SCALE PATH (the default): random-hyperplane LSH
    bucketing + exact in-bucket cosine ≥ 0.9 verification, over embeddings
    with planted identical copies (vec_id + N). Identical vectors share
    every bucket → 100% recall by construction; no full-matrix broadcast
    anywhere (contrast q_embedding_neardup_brute)."""
    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    n = emb.count()

    def copy(batch: pa.Table) -> pa.Table:
        ids = pa.compute.add(batch.column("vec_id"), n)
        return batch.set_column(
            batch.schema.get_field_index("vec_id"), "vec_id", ids
        )

    dup = emb.union(emb.map_batches(copy, batch_format="pyarrow"))
    return dedup.embedding_neardup_pairs_lsh(dup, tau=0.9, id_col="vec_id")


_EXACT_COPIES_CACHE: dict[tuple, tuple] = {}


def _docs_with_exact_copies(sf_dir: str):
    """documents ∪ byte-identical copies at doc_id + N (planted exact dups
    whose pair set the oracle reconstructs in SQL).

    The materialized corpus is cached per (Ray job, sf_dir): the simhash and
    fingerprint dedup queries plant the same copies, so a driver running the
    family (the correctness gate, bench) builds the union once; the job id in
    the key drops the cache when a new ray.init would orphan the blocks."""
    import os as _os

    try:
        job = ray.get_runtime_context().get_job_id()
    except Exception:
        job = None
    key = (job, _os.path.realpath(sf_dir))
    if key in _EXACT_COPIES_CACHE:
        return _EXACT_COPIES_CACHE[key]
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    n = docs.count()

    def copy(batch: pa.Table) -> pa.Table:
        ids = [i + n for i in batch.column("doc_id").to_pylist()]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": batch.column("text"),
            }
        )

    # materialized: the dup set is consumed three times (candidate pipeline
    # + both verify joins); without this the union re-executes per sink
    dup = docs.union(docs.map_batches(copy, batch_format="pyarrow")).materialize()
    _EXACT_COPIES_CACHE[key] = (dup, docs)
    return dup, docs


def q_minhash_pairs(sf_dir: str):
    """Near-dup pairs = LSH candidates over the raw corpus, then EXACT
    3-gram-Jaccard verification at tau=0.9 (candidate→verify, the standard
    minhash dedup pipeline). The oracle recomputes all-pairs 3-gram Jaccard
    in SQL; the Ray side must therefore have 100% recall at tau (16 bands ×
    4 rows: miss prob ≤ (1-0.9⁴)¹⁶ ≈ 3e-8 per pair)."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).materialize()  # consumed by the LSH pipeline and both verify joins
    cands = dedup.minhash_lsh_pairs(docs, num_perm=64, bands=16)
    return dedup.verify_pairs(cands, docs, mode="jaccard", tau=0.9)


def q_minhash_index_dedup(sf_dir: str):
    """Incremental near-dup check of a NEW crawl batch against a
    PERSISTED minhash index of the historical corpus (build once, probe
    per batch — signatures of the old side never recompute): bucket-
    partitioned band-key store + pruned probe (stages/dedup.py
    build_minhash_index / probe_minhash_index), then exact 3-gram-Jaccard
    verification at tau=0.9 over old∪new texts. New batch = every 31st
    doc with its first token dropped, ids lifted by 1e6."""
    import hashlib as _hashlib
    import os as _os
    import shutil as _shutil
    import uuid as _uuid

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    key = _hashlib.md5(_os.path.realpath(sf_dir).encode()).hexdigest()[:12]
    index_dir = f"/tmp/c4r_mhidx/{key}"
    if not _os.path.exists(_os.path.join(index_dir, "_SPEC.json")):
        build = f"{index_dir}.build-{_uuid.uuid4().hex[:8]}"
        dedup.build_minhash_index(docs, build, num_perm=64, bands=16)
        _os.makedirs(_os.path.dirname(index_dir), exist_ok=True)
        try:  # atomic move-into-place; a concurrent winner keeps its copy
            _os.rename(build, index_dir)
        except OSError:
            _shutil.rmtree(build, ignore_errors=True)

    def mk_new(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        keep = ids % 31 == 0
        texts = [
            " ".join(t.split()[1:])
            for t, k in zip(b.column("text").to_pylist(), keep)
            if k
        ]
        return pa.table(
            {
                "doc_id": pa.array(ids[keep] + 1_000_000, pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )

    new_docs = docs.map_batches(mk_new, batch_format="pyarrow").materialize()
    cands, telemetry = dedup.probe_minhash_index(new_docs, index_dir)
    assert telemetry["bytes_total"] > 0
    both = docs.union(new_docs)
    return dedup.verify_pairs(cands, both, mode="jaccard", tau=0.9)


def _synthetic_link_edges(sf_dir: str):
    """The synthetic doc link graph (same arithmetic as the pagerank / CC
    oracles): src -> (2s+1, 2s+2, 7s+3) mod N. Shared by the triangle and
    clustering queries — one Python site, mirrored by one SQL CTE shape."""
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    n_docs = docs.count()

    def child_edges(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.concatenate([ids, ids, ids])
        dst = np.concatenate(
            [(2 * ids + 1) % n_docs, (2 * ids + 2) % n_docs, (7 * ids + 3) % n_docs]
        )
        return pa.table(
            {"src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64())}
        )

    return docs.map_batches(child_edges, batch_format="pyarrow")


