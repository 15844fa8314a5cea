"""Named queries + DuckDB oracle SQL — the correctness surface.

Each entry runs a Ray Data pipeline over the testdata tables (and the
deterministically synthesized pages corpus, sources/pages.py) and, where the
semantics are ANSI-SQL-expressible, carries a DuckDB oracle that reconstructs
the same result from the raw tables — including the pages corpus itself,
whose construction is pure doc_id arithmetic precisely so the oracle can
rebuild it in SQL (link graph via UNION of edge rules, BFS via recursive
CTE). Column names match between Ray and SQL by construction.
"""

from __future__ import annotations

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


# query definitions live in queries_part1/queries_part2 (r4 split:
# no registry source file > 2,500 LoC); this module assembles the
# QUERIES/ORACLES registries and re-exports every helper.
from . import queries_part1 as _p1  # noqa: E402
from . import queries_part2 as _p2  # noqa: E402

# namespace merge rather than star-import: the registry's shared helpers
# are deliberately _private, and `import *` would skip them
for _m in (_p1, _p2):
    globals().update(
        {k: v for k, v in vars(_m).items() if not k.startswith("__")}
    )
del _m

QUERIES = {
    "pages_per_host": q_pages_per_host,
    "top_hosts": q_top_hosts,
    "link_graph_edges": q_link_graph_edges,
    "link_graph_edges_excluded": q_link_graph_edges_excluded,
    "bfs_depth": q_bfs_depth,
    "robots_filter": q_robots_filter,
    "head_filters": q_head_filters,
    "url_seeder": q_url_seeder,
    "url_normalize": q_url_normalize,
    "url_filter_pattern": q_url_filter_pattern,
    "url_scores": q_url_scores,
    "url_nonsense": q_url_nonsense,
    "sitemap_urls": q_sitemap_urls,
    "url_traps": q_url_traps,
    "shuffle_export": q_shuffle_export,
    "crawl_delta": q_crawl_delta,
    "extract_docs": q_extract_docs,
    "exact_dedup": q_exact_dedup,
    "token_stats": q_token_stats,
    "quality_counts": q_quality_counts,
    "quality_filter": q_quality_filter,
    "quality_deciles": q_quality_deciles,
    "repetition_stats": q_repetition_stats,
    "decontaminate": q_decontaminate,
    "decontaminate_bloom": q_decontaminate_bloom,
    "decontaminate_fuzzy": q_decontaminate_fuzzy,
    "corpus_rollup": q_corpus_rollup,
    "url_canonical_groups": q_url_canonical_groups,
    "warc_roundtrip": q_warc_roundtrip,
    "jsonl_roundtrip": q_jsonl_roundtrip,
    "pagerank": q_pagerank,
    "hits_scores": q_hits,
    "host_pagerank": q_host_pagerank,
    "personalized_pagerank": q_personalized_pagerank,
    "tfidf_top_terms": q_tfidf_top_terms,
    "pmi_pairs": q_pmi_pairs,
    "logreg_quality": q_logreg_quality,
    "logreg_calibration": q_logreg_calibration,
    "logreg_auc": q_logreg_auc,
    "gopher_rules": q_gopher_rules,
    "c4_rules": q_c4_rules,
    "token_budget_select": q_token_budget_select,
    "dsir_weights": q_dsir_weights,
    "kmeans_embeddings": q_kmeans_embeddings,
    "embedding_norm_outliers": q_embedding_norm_outliers,
    "ann_topk_pq": q_ann_topk_pq,
    "ann_topk_ivfpq": q_ann_topk_ivfpq,
    "ann_recall_ivfpq": q_ann_recall_ivfpq,
    "mmr_rerank": q_mmr_rerank,
    "minhash_index_dedup": q_minhash_index_dedup,
    "semdedup": q_semdedup,
    "neardup_keep": q_neardup_keep,
    "hybrid_rrf": q_hybrid_rrf,
    "host_curation": q_host_curation,
    "anchor_text_agg": q_anchor_text_agg,
    "token_percentiles": q_token_percentiles,
    "snapshot_latest": q_snapshot_latest,
    "distinct_users": q_distinct_users,
    "distinct_users_hll": q_distinct_users_hll,
    "media_decode": q_media_decode,
    "image_dhash_dups": q_image_dhash_dups,
    "audio_fp_dups": q_audio_fp_dups,
    "phrase_search": q_phrase_search,
    "regex_search_trigram": q_regex_search_trigram,
    "mirror_hosts": q_mirror_hosts,
    "leakage_safe_split": q_leakage_safe_split,
    "funnel": q_funnel,
    "retention": q_retention,
    "connected_components": q_connected_components,
    "seed_distances": q_seed_distances,
    "label_communities": q_label_communities,
    "lang_dist": q_lang_dist,
    "content_hash": q_content_hash,
    "ann_topk": q_ann_topk,
    "ann_topk_ivf": q_ann_topk_ivf,
    "ann_topk_ivf_scan": q_ann_topk_ivf_scan,
    "embedding_neardup": q_embedding_neardup,
    "embedding_neardup_brute": q_embedding_neardup_brute,
    "minhash_pairs": q_minhash_pairs,
    "ngram_jaccard_pairs": q_ngram_jaccard_pairs,
    "ngram_df_histogram": q_ngram_df_histogram,
    "duplicate_spans": q_duplicate_spans,
    "pack_sequences": q_pack_sequences,
    "pack_manifest": q_pack_manifest,
    "rebalance_mix": q_rebalance_mix,
    "temperature_mix": q_temperature_mix,
    "bpe_merges": q_bpe_merges,
    "bpe_tokenize": q_bpe_tokenize,
    "grouped_sample": q_grouped_sample,
    "term_index_lookup": q_term_index_lookup,
    "line_dedup": q_line_dedup,
    "lm_bucket": q_lm_bucket,
    "webtext_pipeline": q_webtext_pipeline,
    "recrawl_priority": q_recrawl_priority,
    "length_vs_lang_mean": q_length_vs_lang_mean,
    "token_quantiles_sketch": q_token_quantiles_sketch,
    "simhash_pairs": q_simhash_pairs,
    "fingerprints": q_fingerprints,
    "fingerprint_dups": q_fingerprint_dups,
    "lang_id": q_lang_id,
    "redact": q_redact,
    "stratified_sample": q_stratified_sample,
    "dataset_split_counts": q_dataset_split_counts,
    "best_first_order": q_best_first_order,
    "dfs_order": q_dfs_order,
    "politeness_budget": q_politeness_budget,
    "link_preview": q_link_preview,
    "link_preview_filtered": q_link_preview_filtered,
    "adaptive_crawl": q_adaptive_crawl,
    "adaptive_embedding": q_adaptive_embedding,
    "schema_extract": q_schema_extract,
    "regex_extract": q_regex_extract,
    "cosine_sections": q_cosine_sections,
    "top_k_relevant": q_top_k_relevant,
    "bm25_topk": q_bm25_topk,
    "bm25_topk_indexed": q_bm25_topk_indexed,
    "bm25_topk_merged": q_bm25_topk_merged,
    "search_snippets": q_search_snippets,
    "triangles": q_triangles,
    "clustering_coeff": q_clustering_coeff,
    "events_window": q_events_window,
    "events_hopping": q_events_hopping,
    "event_bursts": q_event_bursts,
    "event_transitions": q_event_transitions,
    "text_normalize": q_text_normalize,
    "chunk_counts": q_chunk_counts,
    "asof_orders": q_asof_orders,
    "range_events": q_range_events,
    "heavy_hitter_hosts": q_heavy_hitter_hosts,
    "neardup_resolve": q_neardup_resolve,
    "events_props": q_events_props,
    "sessionize": q_sessionize,
    "fit_markdown": q_fit_markdown,
    "top_orders_per_cust": q_top_orders_per_cust,
    "orders_per_nation": q_orders_per_nation,
    "qty_by_flag": q_qty_by_flag,
    "llm_extract_recorded": q_llm_extract_recorded,
}

# the SQL oracle registry lives in queries_oracles / queries_oracles2
# (r4 split); their namespaces merge here so wave modules keep importing
# shared helpers (_STOP_RE, SQL fragments, ...) from .queries
from . import queries_oracles as _o1  # noqa: E402
from . import queries_oracles2 as _o2  # noqa: E402

for _m in (_o1, _o2):
    globals().update(
        {k: v for k, v in vars(_m).items() if not k.startswith("__")}
    )
del _m

# ---------------------------------------------------------------------------
# eighth-wave operators live in queries_wave8.py; registered here so the
# driver contract (__ray_entry__) keeps reading ONE registry pair.
# ---------------------------------------------------------------------------
import importlib  # noqa: E402
import os as _os  # noqa: E402
import re as _re  # noqa: E402

# wave modules are discovered, not hand-listed (r3 ADVICE: the unrolled
# 68-block import tail); each must expose
# register(queries, oracles, sql_pages). Sorted numerically so later
# waves may override earlier registrations deliberately.
_WAVE_RE = _re.compile(r"queries_wave(\d+)\.py$")
for _name in sorted(
    (m.group(1) for f in _os.listdir(_os.path.dirname(__file__))
     if (m := _WAVE_RE.fullmatch(f))),
    key=int,
):
    importlib.import_module(f".queries_wave{_name}", __package__).register(
        QUERIES, ORACLES, SQL_PAGES
    )
