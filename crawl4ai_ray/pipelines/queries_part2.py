"""Core query registry, part 2 of 2 — see queries_part1.py.

Star-imports part 1 so function bodies resolve shared helpers through
this module's globals (the parts never import the assembler, so there is
no cycle).
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

from . import queries_part1 as _p1  # noqa: E402

globals().update(
    {k: v for k, v in vars(_p1).items() if not k.startswith("__")}
)

def q_ngram_jaccard_pairs(sf_dir: str):
    """EXACT all-pairs 3-gram Jaccard >= 0.9 via PREFIX-FILTERED candidate
    generation (AllPairs/ppjoin) + exact verification — identical result
    to the full inverted-index ngram_jaccard_pairs (equality locked by
    test) but ~(1-tau)^2 the pair explosion on hot shingles. The
    non-approximate sibling of q_minhash_pairs — same metric, same
    threshold, no LSH recall caveat; the oracle recomputes it from string
    grams in SQL."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return dedup.ngram_jaccard_pairs_prefix(docs, tau=0.9, shingle=3)


def q_neardup_keep(sf_dir: str):
    """End-to-end near-dup REMOVAL (the composition a training-data user
    actually runs): exact prefix-filtered 3-gram Jaccard pairs →
    undirected edges → distributed connected components (min-label
    propagation with convergence detection) → canonical winner = the
    lowest doc_id per component. → (doc_id, component, keep). The oracle
    recomputes pairs from string grams and closes components with a
    recursive CTE."""
    from ..stages.graph import connected_components

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    pairs = dedup.ngram_jaccard_pairs_prefix(docs, tau=0.9, shingle=3)
    edges = pairs.map_batches(
        lambda b: pa.table(
            {
                "src": b.column("a").cast(pa.int64()),
                "dst": b.column("b").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    nodes = docs.map_batches(
        lambda b: pa.table({"node": b.column("doc_id").cast(pa.int64())}),
        batch_format="pyarrow",
    )
    comp = connected_components(nodes, edges)

    def verdict(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("node").cast(pa.int64()),
                "component": batch.column("component").cast(pa.int64()),
                "keep": pa.compute.equal(
                    batch.column("node"), batch.column("component")
                ),
            }
        )

    return comp.map_batches(verdict, batch_format="pyarrow")


def q_duplicate_spans(sf_dir: str):
    """Merged maximal cross-document duplicate 5-token spans (substring
    dedup à la exact-substring dup marking): windows whose gram occurs in
    ≥2 distinct docs, fused into (doc_id, start_tok, end_tok) islands.
    The oracle regenerates windows by list slicing in SQL and merges
    islands with window functions."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return dedup.duplicate_ngram_spans(docs, window=5)


def q_pack_sequences(sf_dir: str):
    """Concat-and-chunk training-sequence packing (seq_len=128) over the
    documents table: each doc's global token offset and sequence span in
    the deterministic doc_id-ordered token stream. Oracle = window cumsum
    over SQL token counts."""
    from ..stages import packing

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return packing.pack_sequences(docs, seq_len=128)


def q_pack_manifest(sf_dir: str):
    """Per-sequence packing manifest (seq_len=128): docs touching each
    sequence + filled token slots. Oracle explodes each doc's sequence
    range with generate_series and recomputes the overlap arithmetic."""
    from ..stages import packing

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return packing.sequence_manifest(
        packing.pack_sequences(docs, seq_len=128), seq_len=128
    )


def _token_counts_ds(sf_dir: str):
    """(doc_id, lang, n_tok) over documents — whitespace token counts,
    shared by the per-lang mean and sketch-quantile queries."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "text"]
    )

    def counts(batch: pa.Table) -> pa.Table:
        n = np.fromiter(
            (len((t or "").split()) for t in batch.column("text").to_pylist()),
            dtype=np.int64,
            count=batch.num_rows,
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "lang": batch.column("lang"),
                "n_tok": pa.array(n, pa.int64()),
            }
        )

    return docs.map_batches(counts, batch_format="pyarrow")


def q_token_quantiles_sketch(sf_dir: str):
    """Per-language token-count quantiles from the deterministic KLL-style
    sketch (stages/sketch.py) — the approximate, O(k log n)-memory sibling
    of the exact token_percentiles. Deterministic by construction (ordered
    id-range partials, bucket-ordered fold) → golden-pinned oracle with an
    independent scalar recompute in scripts/gen_golden_oracles.py."""
    from ..stages.sketch import quantiles_per_key

    toks = _token_counts_ds(sf_dir)
    return quantiles_per_key(
        toks, key="lang", value="n_tok", qs=[0.25, 0.5, 0.9], k=64
    )


_TERM_INDEX_CACHE: dict[str, str] = {}


def q_term_index_lookup(sf_dir: str):
    """Point lookup against the term-partitioned postings layout
    (stages/index.py): (doc_id, tf) for the term 'merge', reading ONE of
    32 partitions (bytes-scanned telemetry asserted in tests). The layout
    is built once per session per sf_dir. Oracle recomputes the term's tf
    from the text in SQL."""
    import hashlib as _hl

    from ..stages.index import build_term_index, term_lookup

    key = os.path.realpath(sf_dir)
    if key not in _TERM_INDEX_CACHE:
        out = os.path.join(
            "/tmp/c4r_term_index", _hl.md5(key.encode()).hexdigest()[:12]
        )
        if not os.path.exists(os.path.join(out, "_META")):
            docs = ray.data.read_parquet(
                f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
            )
            build_term_index(docs, out, num_partitions=32)
        _TERM_INDEX_CACHE[key] = out
    ds, _tel = term_lookup(_TERM_INDEX_CACHE[key], "merge")
    return ds


def q_grouped_sample(sf_dir: str):
    """Deterministic exact-k (k=5) sample per language — smallest Knuth
    bucket of doc_id wins, ties by id; the fixed-size complement of the
    rate-based stratified_sample. Oracle = ROW_NUMBER window over the
    same integer decision function."""
    from ..stages import sampling

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    return sampling.grouped_sample(docs, k=5)


def q_rebalance_mix(sf_dir: str):
    """Language-mix rebalancing: target 50% en / 20% de / 20% fr / 10% es
    (zh dropped) over a 250-doc budget, deterministic integer-cut
    down-sampling. Oracle reproduces the two-phase cut arithmetic in
    BIGINT SQL."""
    from ..stages import sampling

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    return sampling.rebalance_mix(
        docs,
        target_bp={"en": 5000, "de": 2000, "fr": 2000, "es": 1000},
        total_keep=250,
    )


def q_bpe_merges(sf_dir: str):
    """Distributed BPE merge learning (stages/bpe.py, sharded incremental
    scale path): top-24 merges over the documents corpus word
    frequencies. Iterative + argmax-valued — not SQL-expressible;
    golden-pinned at sf0.01 with an independent scalar recompute asserted
    by the generator (learn_bpe_scalar)."""
    from ..stages.bpe import learn_bpe

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return learn_bpe(docs, num_merges=24)


def q_bpe_tokenize(sf_dir: str):
    """Tokenizer train→apply: learn 48 merges (sharded incremental), then
    stream the corpus through the cached actor-pool encoder — per-doc
    (doc_id, n_words, n_chars, n_tokens). Golden-pinned at sf0.01; the
    generator recomputes it with the SEQUENTIAL reference encoder
    (tokenize_scalar), so the rank-argmin encode is cross-validated."""
    from ..stages.bpe import learn_bpe, tokenize_corpus

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    m = learn_bpe(docs, num_merges=48)
    merges = list(zip(m.column("left").to_pylist(), m.column("right").to_pylist()))
    return tokenize_corpus(docs, merges)


def q_temperature_mix(sf_dir: str):
    """Temperature-scaled (α=1/2) language-mix sampling over a 250-doc
    budget: per-stratum shares ∝ isqrt(count), integer-exact cuts, same
    map-only deterministic keep rule as the other samplers. The oracle
    recomputes isqrt as FLOOR(SQRT(...)) — exact for counts < 2^52."""
    from ..stages import sampling

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    return sampling.temperature_mix(docs, total_keep=250)


def q_ngram_df_histogram(sf_dir: str):
    """Gram document-frequency histogram (boilerplate profile): n_grams
    per doc_freq. Two-level aggregation — per-bucket full reduction, tiny
    partial histograms, final groupby over ≤max(df) rows."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return dedup.ngram_doc_freq_histogram(docs, shingle=3)


def q_simhash_pairs(sf_dir: str):
    """Exact-dup pairs via simhash candidates (hamming ≤ 3 block bucketing)
    + byte-equality verification over the corpus with planted identical
    copies. Identical texts share all blocks → 100% recall by construction;
    the equality verify kills near-miss candidates, so the output is exactly
    the planted pair set (SQL-reconstructable)."""
    dup, _ = _docs_with_exact_copies(sf_dir)
    cands = dedup.simhash_pairs(dup, max_hamming=3)
    return dedup.verify_pairs(cands, dup, mode="equal")


def q_fingerprints(sf_dir: str):
    """Winnowing fingerprints, exploded to one row per kept window hash
    (doc_id, idx, fp). Hash-valued → oracle = pinned golden (generated and
    independently recomputed in pure python by
    scripts/gen_golden_oracles.py)."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    fps = docs.map_batches(textstats.fingerprint_batch, batch_format="pyarrow")

    def explode(batch: pa.Table) -> pa.Table:
        ids, idxs, vals = [], [], []
        for i, fp in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("fingerprint").to_pylist(),
        ):
            for j, v in enumerate(fp):
                ids.append(i)
                idxs.append(j)
                vals.append(v)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "idx": pa.array(idxs, pa.int64()),
                "fp": pa.array(vals, pa.uint64()),
            }
        )

    return fps.map_batches(explode, batch_format="pyarrow")


def q_fingerprint_dups(sf_dir: str):
    """Exact-dup pairs via winnowing-fingerprint candidates (docs sharing a
    kept window-hash) with FUSED in-bucket equality verification (content
    hash rides in the bucket rows — no verify shuffle at all), planted
    identical copies. Identical token streams keep identical window minima
    → 100% recall; equality verify → exactly the planted pairs."""
    dup, _ = _docs_with_exact_copies(sf_dir)
    return dedup.fingerprint_dup_pairs_fused(dup)


def q_redact(sf_dir: str):
    """Redaction scrub stage over the documents table. The operator ships
    the 21-pattern PII catalog (emails/phones/IPs/…); the synthetic corpus
    contains none of those, so the query exercises the same machinery with
    a corpus-matching keyword pattern — the oracle re-derives the rewrite
    with DuckDB's regexp_replace."""
    from ..stages.redact import redact

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet")
    return redact(
        docs, patterns={"kw": r"\b(spark|dup)\b"}, concurrency=(1, 4)
    )


def q_stratified_sample(sf_dir: str):
    """Deterministic per-language downsampling (training-data mixing):
    keep iff knuth_bucket(doc_id) < rate[lang]·10000. Map-only — no
    shuffle, no RNG; the oracle recomputes the same arithmetic in SQL."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    return sampling.stratified_sample(
        docs, rates={"en": 0.5, "de": 0.25, "fr": 0.25}, default_rate=0.1
    )


def q_dataset_split_counts(sf_dir: str):
    """Train/val/test assignment as a pure function of doc_id, aggregated
    to (split, lang) counts — the reproducible-split operator every
    training pipeline needs before a single byte is trained on."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    tagged = sampling.deterministic_split(docs, val_frac=0.1, test_frac=0.1)
    out = tagged.groupby(["split", "lang"]).aggregate(
        ray.data.aggregate.Count(alias_name="n_docs")
    )
    return out.map_batches(
        lambda b: b.set_column(
            b.schema.get_field_index("n_docs"),
            "n_docs",
            b.column("n_docs").cast(pa.int64()),
        ),
        batch_format="pyarrow",
    )


def q_lang_id(sf_dir: str):
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return docs.map_batches(
        textstats.LangId, batch_format="pyarrow", concurrency=(1, 4), batch_size=256
    )


def q_best_first_order(sf_dir: str):
    cfg = CrawlConfig(
        strategy="best_first",
        max_depth=2,
        max_pages=40,
        seen_shards=4,
        url_scorer=KeywordRelevanceScorer(["page/1", "page/2"], weight=1.0),
    )
    run = crawl(sf_dir, seeds=[url_of(0)], cfg=cfg)
    urls, waves = [], []
    for w in run.waves:
        for u in w["frontier_urls"]:
            urls.append(u)
            waves.append(w["wave"])
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "wave": pa.array(waves, pa.int64()),
        }
    )


def q_dfs_order(sf_dir: str):
    """DFS crawl-order conformance: strategy="dfs" sorts the pending set
    (depth desc, url asc — score 0 with no scorer) and admits the whole
    frontier each wave up to the page budget. Completes the
    ordering-oracle triple (bfs_depth / best_first_order / dfs_order);
    the oracle replays the wave loop as a recursive CTE, the same
    construction as best_first_order's."""
    cfg = CrawlConfig(strategy="dfs", max_depth=2, max_pages=30, seen_shards=4)
    run = crawl(sf_dir, seeds=[url_of(0)], cfg=cfg)
    urls, waves = [], []
    for w in run.waves:
        for u in w["frontier_urls"]:
            urls.append(u)
            waves.append(w["wave"])
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "wave": pa.array(waves, pa.int64()),
        }
    )


def q_politeness_budget(sf_dir: str):
    cfg = CrawlConfig(
        max_depth=2, seen_shards=4, max_pages_per_host_per_wave=2
    )
    run = crawl(sf_dir, seeds=[url_of(0), url_of(1), url_of(2)], cfg=cfg)
    urls, waves = [], []
    for w in run.waves:
        for u in w["frontier_urls"]:
            urls.append(u)
            waves.append(w["wave"])
    return pa.table(
        {"url": pa.array(urls, pa.string()), "wave": pa.array(waves, pa.int64())}
    )


# ---------------------------------------------------------------------------
# relational demonstrators (TPC-H-ish; exercise join + groupby at scale)
# ---------------------------------------------------------------------------

def q_link_preview(sf_dir: str):
    """Link targets joined to corpus head metadata (Dataset.join path)."""
    from ..sources.pages import read_pages
    from ..stages.link_preview import link_preview

    docs = _docs(sf_dir)
    pages = read_pages(sf_dir, columns=["url", "html"])
    return link_preview(docs, pages)


def q_link_preview_filtered(sf_dir: str):
    """LinkPreviewConfig knobs exercised: exclude glob prunes targets
    map-side, max_links=5 caps distinct previewed targets per source
    (first-by-target-asc, via grouped_topk)."""
    from ..sources.pages import read_pages
    from ..stages.link_preview import link_preview

    docs = _docs(sf_dir)
    pages = read_pages(sf_dir, columns=["url", "html"])
    return link_preview(
        docs, pages, exclude_patterns=["*/page/1*"], max_links=5
    )


def q_adaptive_crawl(sf_dir: str):
    """Statistical-stopping adaptive crawl (rows-only: iterative algorithm)."""
    from .adaptive import adaptive_crawl

    res = adaptive_crawl(
        sf_dir, [url_of(0)], query="table scan merge join",
        max_waves=4, wave_size=8, max_pages=40,
    )
    return pa.table(
        {
            "wave": pa.array([w["wave"] for w in res.waves], pa.int64()),
            "pages": pa.array([w["pages"] for w in res.waves], pa.int64()),
            "confidence": pa.array(
                [w["confidence"] for w in res.waves], pa.float64()
            ),
        }
    )


def q_schema_extract(sf_dir: str):
    """JsonCssExtractionStrategy over the pages corpus: h1 text per page."""
    from ..functions.extraction import ExtractStage, JsonCssExtractionStrategy

    pages = _pages_ds(sf_dir, columns=["url", "html"])
    schema = {
        "baseSelector": "h1",
        "fields": [{"name": "h1", "type": "text"}],
    }
    stage = ExtractStage(JsonCssExtractionStrategy(schema), content_col="html")

    def flatten(batch: pa.Table) -> pa.Table:
        import json as _json

        urls, h1s = [], []
        for u, ex in zip(
            batch.column("url").to_pylist(), batch.column("extracted").to_pylist()
        ):
            for rec in _json.loads(ex):
                urls.append(u)
                h1s.append(rec.get("h1", ""))
        return pa.table(
            {"url": pa.array(urls, pa.string()), "h1": pa.array(h1s, pa.string())}
        )

    return pages.map_batches(stage, batch_format="pyarrow").map_batches(
        flatten, batch_format="pyarrow"
    )


def q_regex_extract(sf_dir: str):
    """RegexExtractionStrategy with a custom pattern over page HTML: the
    deterministic code-block function names (every 7th page)."""
    from ..functions.extraction import ExtractStage, RegexExtractionStrategy

    pages = _pages_ds(sf_dir, columns=["url", "html"])
    stage = ExtractStage(
        RegexExtractionStrategy(patterns={"fn": r"sample_\d+"}), content_col="html"
    )

    def flatten(batch: pa.Table) -> pa.Table:
        import json as _json

        urls, values = [], []
        for u, ex in zip(
            batch.column("url").to_pylist(), batch.column("extracted").to_pylist()
        ):
            seen = set()
            for rec in _json.loads(ex):
                if rec["value"] not in seen:
                    seen.add(rec["value"])
                    urls.append(u)
                    values.append(rec["value"])
        return pa.table(
            {"url": pa.array(urls, pa.string()), "value": pa.array(values, pa.string())}
        )

    return pages.map_batches(stage, batch_format="pyarrow").map_batches(
        flatten, batch_format="pyarrow"
    )


def q_adaptive_embedding(sf_dir: str):
    """Embedding-strategy adaptive crawl (adaptive_crawler.py:593-960
    analogue): deterministic query expansion → distributed best-cosine
    coverage updates → gap-steered best-first waves. Deterministic output;
    oracle = pinned golden (iterative algorithm, not SQL-expressible)."""
    from .adaptive import adaptive_crawl

    res = adaptive_crawl(
        sf_dir, [url_of(0)], query="table scan merge join",
        max_waves=4, wave_size=8, max_pages=32, strategy="embedding",
    )
    return pa.table(
        {
            "wave": pa.array([w["wave"] for w in res.waves], pa.int64()),
            "pages": pa.array([w["pages"] for w in res.waves], pa.int64()),
            "gaps": pa.array([w["gaps"] for w in res.waves], pa.int64()),
            "confidence": pa.array(
                [round(w["confidence"], 9) for w in res.waves], pa.float64()
            ),
        }
    )


def q_cosine_sections(sf_dir: str):
    """Cosine-cluster section extraction (rows-only: stub embedder)."""
    from ..stages.embed import cosine_sections

    pages = _pages_ds(sf_dir, columns=["url", "text"])
    return cosine_sections(pages).select_columns(["url", "cluster", "n_chunks"])


def q_top_k_relevant(sf_dir: str):
    """BM25 top-k most relevant documents for a query (adaptive
    get_relevant_content analogue; rows-only: float scores)."""
    import math

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    query_terms = ["table", "scan", "merge"]

    def score(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        scores = []
        for t in texts:
            toks = t.lower().split()
            n = len(toks) or 1
            s = sum(toks.count(q) / n for q in query_terms)
            scores.append(s)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "score": pa.array(scores, pa.float64()),
            }
        )

    return (
        docs.map_batches(score, batch_format="pyarrow")
        .sort(["score", "doc_id"], descending=[True, False])
        .limit(10)
        .select_columns(["doc_id"])
    )


def _bm25_scored(sf_dir: str, terms=("table", "scan", "merge")):
    """Shared BM25 scoring plan (doc_id, score): one tokenize pass emits
    per-doc (tf…, dl); collection stats fold on the driver and broadcast
    back into the scoring map. Used by q_bm25_topk and q_hybrid_rrf."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    terms = list(terms)
    K1, B = 1.2, 0.75

    def tfs(batch: pa.Table) -> pa.Table:
        cols = {"doc_id": batch.column("doc_id")}
        texts = [(t or "").lower().split() for t in batch.column("text").to_pylist()]
        cols["dl"] = pa.array([len(t) for t in texts], pa.int64())
        for i, q in enumerate(terms):
            cols[f"tf{i}"] = pa.array([t.count(q) for t in texts], pa.int64())
        return pa.table(cols)

    # materialized: consumed by the stats aggregate, the df aggregate AND
    # the scoring map — without it the corpus is read+tokenized three
    # times (review finding)
    tf_ds = docs.map_batches(tfs, batch_format="pyarrow").materialize()
    aggs = [ray.data.aggregate.Count(alias_name="n_docs"),
            ray.data.aggregate.Sum("dl", alias_name="sum_dl")]
    stats_row = tf_ds.aggregate(*aggs)
    # df per term: tiny second aggregate over boolean masks
    def df_part(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                f"df{i}": pa.array(
                    [int((batch.column(f"tf{i}").to_numpy(zero_copy_only=False) > 0).sum())],
                    pa.int64(),
                )
                for i in range(len(terms))
            }
        )

    df_row = tf_ds.map_batches(df_part, batch_format="pyarrow").aggregate(
        *[ray.data.aggregate.Sum(f"df{i}", alias_name=f"df{i}") for i in range(len(terms))]
    )
    n_docs = int(stats_row["n_docs"])
    sum_dl = int(stats_row["sum_dl"])
    dfs = [int(df_row[f"df{i}"]) for i in range(len(terms))]
    avgdl = float(sum_dl) / float(n_docs)
    import math

    # math.log (libm) rather than np.log: numpy's SIMD log can differ
    # from DuckDB's libm ln in the last ulp
    idfs = [
        math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0) for df in dfs
    ]

    def score(batch: pa.Table) -> pa.Table:
        dl = batch.column("dl").to_numpy(zero_copy_only=False).astype(np.float64)
        s = np.zeros(len(dl), dtype=np.float64)
        for i in range(len(terms)):
            tf = batch.column(f"tf{i}").to_numpy(zero_copy_only=False).astype(np.float64)
            s += idfs[i] * (tf * (K1 + 1.0)) / (tf + K1 * (1.0 - B + B * dl / avgdl))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "score": pa.array(np.round(s, 8), pa.float64()),
            }
        )

    return tf_ds.map_batches(score, batch_format="pyarrow")


def q_bm25_topk(sf_dir: str):
    """Full BM25 (Robertson idf + length normalization, k1=1.2 b=0.75)
    top-10 document search — the lexical sibling of the ANN queries and
    the corpus-level big brother of the seeder's head-field BM25. Both
    engines evaluate the identical expression tree over exact int64
    counts and ROUND to 8 decimals (the pagerank float discipline), with
    doc_id tiebreak."""
    return (
        _bm25_scored(sf_dir)
        .sort(["score", "doc_id"], descending=[True, False])
        .limit(10)
    )


def q_bm25_topk_indexed(sf_dir: str):
    """BM25 top-10 over the PERSISTED term index (stages/index.py
    bm25_lookup): only the three query terms' partitions are read
    (asserted via bytes telemetry), df comes from the pruned postings,
    dl rides each posting (keep_dl layout), avgdl/N from the build-time
    _META. The score is the identical float expression as the full-scan
    bm25_topk — absent terms contribute exactly 0.0 — so this query
    shares bm25_topk's oracle verbatim: index path ≡ scan path."""
    import tempfile

    from ..stages.index import bm25_lookup, build_term_index

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = tempfile.mkdtemp(prefix="c4r_bm25idx_", dir="/tmp")
    build_term_index(docs, out, keep_dl=True)
    res, tel = bm25_lookup(out, ["table", "scan", "merge"], k=10)
    assert 0 < tel["bytes_scanned"] < tel["bytes_total"], tel
    return res


def q_bm25_topk_merged(sf_dir: str):
    """Index lifecycle: the corpus is indexed as TWO crawl segments
    (doc_id < N/2 and the rest), compacted with merge_term_indexes
    applying tombstone deletes (doc_id ≡ 0 mod 31 — recrawled docs),
    then queried with bm25_lookup. The defining property under test:
    BM25 over the compacted index ≡ BM25 over a fresh index of the
    surviving corpus — the oracle is the scan formula over documents
    WHERE doc_id % 31 <> 0."""
    import tempfile

    from ..stages.index import bm25_lookup, build_term_index, merge_term_indexes

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    n = docs.count()
    half = n // 2
    seg_a = docs.filter(expr=f"doc_id < {half}")
    seg_b = docs.filter(expr=f"doc_id >= {half}")
    d_a = tempfile.mkdtemp(prefix="c4r_bm25seg_a_", dir="/tmp")
    d_b = tempfile.mkdtemp(prefix="c4r_bm25seg_b_", dir="/tmp")
    merged = tempfile.mkdtemp(prefix="c4r_bm25merged_", dir="/tmp")
    build_term_index(seg_a, d_a, keep_dl=True)
    build_term_index(seg_b, d_b, keep_dl=True)
    deletes = {i for i in range(0, n, 31)}
    merge_term_indexes([d_a, d_b], merged, delete_ids=deletes)
    res, tel = bm25_lookup(merged, ["table", "scan", "merge"], k=10)
    assert 0 < tel["bytes_scanned"] < tel["bytes_total"], tel
    return res


def q_hybrid_rrf(sf_dir: str):
    """Hybrid retrieval: reciprocal-rank fusion of the BM25 lexical
    top-20 and the exact-cosine semantic top-20 (query = embedding 0,
    vec_id aligned with doc_id). Fusion is integer-exact —
    contribution = 10^9 // (60 + rank) — so only the two input RANKINGS
    carry float comparisons (both already oracle-proven: bm25_topk,
    ann_topk). → (doc_id, rrf_fp, rank) top-10."""
    from ..stages.ann import brute_force_topk, rrf_fuse

    lex20 = (
        _bm25_scored(sf_dir)
        .sort(["score", "doc_id"], descending=[True, False])
        .limit(20)
    )

    def lex_rank(batch: pa.Table) -> pa.Table:
        # post-limit the dataset is ≤20 ordered rows in one block
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "rank": pa.array(
                    np.arange(1, batch.num_rows + 1, dtype=np.int64), pa.int64()
                ),
            }
        )

    lex = lex20.repartition(1).map_batches(
        lex_rank, batch_format="pyarrow", batch_size=None
    )

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    q0 = sorted(
        emb.filter(expr="vec_id < 1").take_all(), key=lambda r: r["vec_id"]  # bounded: the k query vectors only
    )
    queries = np.asarray([r["embedding"] for r in q0], dtype=np.float64)
    sem = brute_force_topk(emb, queries, [0], k=20).map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("neighbor_id").cast(pa.int64()),
                "rank": b.column("rank").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    return rrf_fuse([lex, sem], k_const=60, topk=10)


def q_triangles(sf_dir: str):
    """Exact triangle enumeration over the synthetic doc link graph (the
    pagerank/CC corpus arithmetic): degree-ordered node-iterator as five
    bounded union+groupby shuffles (stages/graph.py triangle_enumerate).
    Oracle = the textbook three-way self-join on the deduped undirected
    edge list."""
    from ..stages.graph import triangle_enumerate

    return triangle_enumerate(_synthetic_link_edges(sf_dir))


def q_clustering_coeff(sf_dir: str):
    """Local clustering coefficients over the synthetic link graph —
    triangles credited to their three corners, degrees from the deduped
    edge list, identical (2.0·T)/(deg·(deg−1)) expression both engines."""
    from ..stages.graph import clustering_coefficients

    return clustering_coefficients(_synthetic_link_edges(sf_dir))


def q_events_window(sf_dir: str):
    """Tumbling 1h window counts per event_type (custom windowed-aggregate
    operator; count-only so the oracle compare is float-free)."""
    from ..stages.windows import tumbling_window_counts

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type"]
    )
    out = tumbling_window_counts(events, "1h", value_col=None)
    return out.select_columns(["window_start", "event_type", "n_events"])


def q_events_hopping(sf_dir: str):
    """Hopping-window aggregate: 1 h windows every 30 min (each event in 2
    windows). Oracle: UNION of the two window starts in SQL."""
    from ..stages.windows import hopping_window_counts

    events = ray.data.read_parquet(f"{sf_dir}/events.parquet")
    return hopping_window_counts(events, size_minutes=60, hop_minutes=30)


def q_text_normalize(sf_dir: str):
    """Unicode/whitespace normalization (functions/text.normalize_text):
    NFC compose, C0-control strip, horizontal-space collapse, blank-line
    cap, edge trim — the ftfy-lite pass before tokenization. The corpus
    text is clean by construction, so each doc gets a deterministic
    messy derivation planted first (combining accents, a BEL control, a
    tab, 4 newlines, trailing spaces — keyed on doc_id, mirrored
    verbatim by the oracle); map-only, zero shuffles."""
    from ..functions.text import normalize_text

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def messy_then_norm(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        out = []
        for i, t in zip(ids, batch.column("text").to_pylist()):
            m = t
            if i % 3 == 0:
                m += " mid\x07dle"
            if i % 5 == 0:
                m += "\n\n\n\nz"
            m += " Café\t tail  "
            out.append(normalize_text(m))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "text_norm": pa.array(out, pa.string()),
                "n_chars": pa.array([len(t) for t in out], pa.int64()),
            }
        )

    return docs.map_batches(messy_then_norm, batch_format="pyarrow")


def q_event_transitions(sf_dir: str):
    """Behavior transition matrix: corpus-wide counts of (event_type →
    next event_type) within each user's time-ordered stream — the
    Markov-chain summary funnels/retention build on. One hash(user) % P
    shuffle co-locates each user's history; per bucket a vectorized
    sort + shift pairs each event with its successor (ties broken by
    event_id, mirrored by the oracle's LEAD ordering) and partial-
    counts the pairs map-side; ONE tiny pair groupby closes it."""
    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type", "event_id"]
    )
    P = 32

    def tag(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "bucket": pa.array((u % P).astype(np.int64)),
                "user_id": batch.column("user_id"),
                "ts": batch.column("ts"),
                "event_id": batch.column("event_id"),
                "event_type": batch.column("event_type"),
            }
        )

    def pairs(g: pa.Table) -> pa.Table:
        # arrow-native (r5): sorted lag + lexsorted pair run counts
        if g.num_rows == 0:
            return pa.table(
                {
                    "src_type": pa.array([], pa.string()),
                    "dst_type": pa.array([], pa.string()),
                    "c": pa.array([], pa.int64()),
                }
            )
        g = g.sort_by(
            [("user_id", "ascending"), ("ts", "ascending"),
             ("event_id", "ascending")]
        )
        uarr = g.column("user_id").to_numpy(zero_copy_only=False)
        earr = np.asarray(g.column("event_type").to_pylist(), dtype=object)
        same_user = uarr[1:] == uarr[:-1]
        src = earr[:-1][same_user]
        dst = earr[1:][same_user]
        o = np.lexsort((dst, src))
        src, dst = src[o], dst[o]
        newrun = np.r_[
            True, (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        ] if len(src) else np.zeros(0, bool)
        run_id = np.cumsum(newrun) - 1
        c = np.bincount(run_id).astype(np.int64) if len(src) else np.zeros(0, np.int64)
        return pa.table(
            {
                "src_type": pa.array(src[newrun].tolist(), pa.string()),
                "dst_type": pa.array(dst[newrun].tolist(), pa.string()),
                "c": pa.array(c, pa.int64()),
            }
        )

    return (
        events.map_batches(tag, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(pairs, batch_format="pyarrow")
        .groupby(["src_type", "dst_type"])
        .sum("c")
        .map_batches(
            lambda b: pa.table(
                {
                    "src_type": b.column("src_type"),
                    "dst_type": b.column("dst_type"),
                    "n": b.column("sum(c)").cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )


def q_chunk_counts(sf_dir: str):
    """SlidingWindowChunking over documents → chunks per doc (the chunking
    strategy family's oracle surface: counts are pure token arithmetic)."""
    from ..functions.extraction import SlidingWindowChunking

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    chunker = SlidingWindowChunking(window_size=100, step=50)

    def count(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        n = [len(chunker.chunk(t)) for t in batch.column("text").to_pylist()]
        return pa.table({"doc_id": ids, "n_chunks": pa.array(n, pa.int64())})

    return docs.map_batches(count, batch_format="pyarrow")


def q_asof_orders(sf_dir: str):
    """As-of join: each event picks the customer's latest order at or
    before the event time (custom operator: union-tag → groupby(entity) →
    per-group vectorized merge_asof)."""
    from ..stages.windows import asof_join

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderdate", "o_totalprice"],
    )
    # duplicate (cust, date) rows are resolved inside the asof's
    # per-bucket pass: ascending price tiebreak + merge_asof last-wins ==
    # max(o_totalprice) per (cust, date), replacing the previous
    # groupby().max().materialize() pre-step (~16 s fixed Aggregate cost)
    out = asof_join(
        events,
        orders,
        by_left="user_id",
        by_right="o_custkey",
        ts_left="ts",
        ts_right="o_orderdate",
        right_value_cols=["o_totalprice"],
        right_tiebreak_cols=["o_totalprice"],
    )
    def project(batch: pa.Table) -> pa.Table:
        # union with the tagged right side promoted l_event_id to float
        return pa.table(
            {
                "event_id": batch.column("l_event_id").cast(pa.int64()),
                "best_price": batch.column("o_totalprice"),
            }
        )

    return out.map_batches(project, batch_format="pyarrow")


def q_fit_markdown(sf_dir: str):
    """Content-filtered fit_markdown over the corpus (PruningContentFilter).
    Output = (url, n_fit_chars, fit_md5): the md5 pins the full fit text
    byte-for-byte while keeping the oracle row compact. Heuristic scores
    aren't SQL-expressible → oracle = pinned golden
    (scripts/gen_golden_oracles.py)."""
    from ..functions.content_filter import PruningContentFilter, fit_markdown

    pages = _pages_ds(sf_dir, columns=["url", "html"])

    class FitStage:
        def __init__(self):
            self.filt = PruningContentFilter(threshold=0.4)

        def __call__(self, batch: pa.Table) -> pa.Table:
            from ..html.dom import decode_html

            import hashlib

            urls = batch.column("url").to_pylist()
            out, digests = [], []
            for h in batch.column("html").to_pylist():
                md, _ = fit_markdown(decode_html(h), self.filt)
                out.append(len(md))
                digests.append(hashlib.md5(md.encode("utf-8")).hexdigest())
            return pa.table(
                {
                    "url": pa.array(urls, pa.string()),
                    "n_fit_chars": pa.array(out, pa.int64()),
                    "fit_md5": pa.array(digests, pa.string()),
                }
            )

    return pages.map_batches(
        FitStage, batch_format="pyarrow", batch_size=64, concurrency=(1, 8)
    )


def q_sessionize(sf_dir: str):
    """Gap-based session windows per user (30-min gap)."""
    from ..stages.windows import sessionize

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )
    return sessionize(events, gap_minutes=30)


def q_top_orders_per_cust(sf_dir: str):
    """Grouped top-k (the ROW_NUMBER window Ray Data lacks natively):
    top-3 orders per customer by price. Map-side partial top-k per batch,
    then ONE bucketed groupby — stages/agg.py grouped_topk."""
    from ..stages.agg import grouped_topk

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderkey", "o_totalprice"],
    )
    return grouped_topk(
        orders, key="o_custkey", value="o_totalprice", k=3,
        extra_cols=("o_orderkey",),
    )


def q_orders_per_nation(sf_dir: str):
    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey"])
    customer = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    nation = ray.data.read_parquet(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    oc = orders.join(
        customer, join_type="inner", num_partitions=8, on=("o_custkey",),
        right_on=("c_custkey",),
    )
    # nation is 25 rows: broadcast it instead of a second JoinOperator —
    # Ray 2.49's join costs ~4 s of actor-pool spin-up PER CALL (NOTES
    # r3), and chaining joins is exactly the shape that breaks on empty
    # shuffle partitions. One native join stays as the API demonstrator;
    # the small side goes map-side like every other broadcast lookup.
    nmap = {
        int(r["n_nationkey"]): r["n_name"] for r in nation.take_all()
    }
    nmap_ref = ray.put(nmap)

    def attach_nation(batch: pa.Table) -> pa.Table:
        nm = ray.get(nmap_ref)
        keys = batch.column("c_nationkey").to_pylist()
        return pa.table(
            {"n_name": pa.array([nm[int(k)] for k in keys], pa.string())}
        )

    ocn = oc.map_batches(attach_nation, batch_format="pyarrow")
    out = ocn.groupby("n_name").count().rename_columns({"count()": "n_orders"})
    return out.map_batches(
        lambda b: b.set_column(
            b.schema.get_field_index("n_orders"),
            "n_orders",
            b.column("n_orders").cast(pa.int64()),
        ),
        batch_format="pyarrow",
    )


def q_qty_by_flag(sf_dir: str):
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity"],
    )
    out = li.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        ray.data.aggregate.Sum("l_quantity", alias_name="sum_qty"),
        ray.data.aggregate.Count(alias_name="n_rows"),
    )
    return out.map_batches(
        lambda b: b.set_column(
            b.schema.get_field_index("n_rows"), "n_rows", b.column("n_rows").cast(pa.int64())
        ),
        batch_format="pyarrow",
    )


def q_neardup_resolve(sf_dir: str):
    """END-TO-END near-dup resolution — what a training-data pipeline
    actually runs: minhash-LSH candidates → exact Jaccard verify (the
    minhash_pairs pipeline) → connected components over surviving pairs →
    keep the min doc_id per cluster. Output: every document with its
    cluster id and a keep flag (survivors of the dedup). The oracle
    recomputes the pair set from string grams and resolves clusters with
    a transitive-closure recursive CTE — exact at any cluster diameter,
    unlike an unrolled fixed-iteration replay."""
    from ..stages.graph import connected_components

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).materialize()
    cands = dedup.minhash_lsh_pairs(docs, num_perm=64, bands=16)
    pairs = dedup.verify_pairs(cands, docs, mode="jaccard", tau=0.9)
    edges = pairs.map_batches(
        lambda b: pa.table(
            {
                "src": b.column("a").cast(pa.int64()),
                "dst": b.column("b").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    nodes = docs.map_batches(
        lambda b: pa.table({"node": b.column("doc_id").cast(pa.int64())}),
        batch_format="pyarrow",
    )
    comp = connected_components(nodes, edges)

    def project(batch: pa.Table) -> pa.Table:
        node = batch.column("node").cast(pa.int64())
        cl = batch.column("component").cast(pa.int64())
        return pa.table(
            {
                "doc_id": node,
                "cluster": cl,
                "keep": pa.compute.equal(node, cl),
            }
        )

    return comp.map_batches(project, batch_format="pyarrow")


def q_heavy_hitter_hosts(sf_dir: str):
    """Exact heavy hitters (> 5% of pages) over the corpus hosts via the
    two-phase Misra–Gries sketch-then-verify operator (stages/agg.py
    heavy_hitters). The synthetic corpus plants one heavy host (site0,
    ~16%); the other 49 sit at ~1.7% — the sketch must keep exactly the
    planted one and the verify pass must report its exact count."""
    from ..functions.urls import hosts_array
    from ..stages.agg import heavy_hitters

    pages = _pages_ds(sf_dir, columns=["url"])

    def add_host(batch: pa.Table) -> pa.Table:
        return pa.table({"host": hosts_array(batch.column("url"))})

    hosts = pages.map_batches(add_host, batch_format="pyarrow")
    return heavy_hitters(hosts, "host", phi=0.05)


def q_range_events(sf_dir: str):
    """Range (interval) join demonstrator: each event matches every
    same-user event whose trailing 1-hour window contains it
    (r.ts <= l.ts < r.ts + 1h — a self interval join with overlapping
    intervals), then a per-event rollup (n_window, sum_value).
    Exercises the time-chunked interval-join operator (stages/windows.py
    range_join): intervals replicate into overlapped chunks, one
    hash(entity, chunk) groupby, in-group vectorized merge — no
    all-pairs-per-entity blowup for hot users."""
    from ..stages.windows import range_join

    HOUR_US = 3_600_000_000
    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )
    right = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )

    def add_end(batch: pa.Table) -> pa.Table:
        start = batch.column("ts").cast(pa.timestamp("us"))
        end = pa.compute.add(start, pa.scalar(HOUR_US, pa.duration("us")))
        return batch.append_column("w_end", end)

    joined = range_join(
        events,
        right.map_batches(add_end, batch_format="pyarrow"),
        by_left="user_id",
        by_right="user_id",
        ts_left="ts",
        start_right="ts",
        end_right="w_end",
        right_value_cols=["value"],
        chunk_us=HOUR_US,
    )
    agg = joined.groupby("l_event_id").aggregate(
        ray.data.aggregate.Count(alias_name="n_window"),
        ray.data.aggregate.Sum("value", alias_name="sum_value"),
    )

    def project(batch: pa.Table) -> pa.Table:
        # float64 sums: summation order differs from the oracle's, ~1e-12
        # absolute; ROUND(6) on both sides absorbs it. pc.round is up to
        # one ULP off DuckDB's decimal-correct ROUND (322.28000000000003
        # vs 322.28), so round via the decimal string — post-aggregation
        # output only, one tiny pass over the final rows
        vals = [
            None if v is None else float(f"{v:.6f}")
            for v in batch.column("sum_value").to_pylist()
        ]
        return pa.table(
            {
                "event_id": batch.column("l_event_id").cast(pa.int64()),
                "n_window": batch.column("n_window").cast(pa.int64()),
                "sum_value": pa.array(vals, pa.float64()),
            }
        )

    return agg.map_batches(project, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def q_llm_extract_recorded(sf_dir: str):
    """LLM extraction through the recorded-completion kernel (r5, r4
    VERDICT task #3): drives the reference's full LLM data plane —
    chunk → build_prompt → completion call → JSON parse → row fan-out
    (extraction_strategy.py:479-803) — with the committed fixture
    (models/recorded_llm_extract_v1.json) standing in for the model.
    The fixture loads once per actor in ``__init__`` (the model-weights
    lifecycle); a prompt drift anywhere in the plumbing changes the
    md5 key and fails loudly. Oracle: REAL SQL — every recorded field
    (title = first 6 tokens, n_tokens, content md5) is independently
    recomputable from `documents`, so DuckDB verifies the values that
    actually travelled through the prompt/completion path.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    class LLMExtract:
        def __init__(self):
            from ..functions.extraction import IdentityChunking
            from ..functions.llm import (
                LLM_EXTRACT_INSTRUCTION,
                LLM_EXTRACT_SCHEMA,
                LLMExtractionStrategy,
                RecordedCompletions,
            )

            self.strategy = LLMExtractionStrategy(
                instruction=LLM_EXTRACT_INSTRUCTION,
                schema=LLM_EXTRACT_SCHEMA,
                chunking=IdentityChunking(),
                completion_fn=RecordedCompletions(),
            )

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids, titles, ntoks, md5s = [], [], [], []
            for did, text in zip(
                batch.column("doc_id").to_pylist(),
                batch.column("text").to_pylist(),
            ):
                for rec in self.strategy.extract(str(did), text or ""):
                    ids.append(int(rec["doc_id"]))
                    titles.append(rec["title"])
                    ntoks.append(int(rec["n_tokens"]))
                    md5s.append(rec["content_md5"])
            return pa.table(
                {
                    "doc_id": pa.array(ids, pa.int64()),
                    "title": pa.array(titles, pa.string()),
                    "n_tokens": pa.array(ntoks, pa.int64()),
                    "content_md5": pa.array(md5s, pa.string()),
                }
            )

    return docs.map_batches(
        LLMExtract, batch_format="pyarrow", batch_size=64, concurrency=(1, 4)
    )
