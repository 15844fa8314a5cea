"""Candidate-link discovery for the crawl wave: explode → normalize →
filter → score → in-batch dedup → per-partition exchange files.

``DiscoverCandidates`` runs fused after extraction in each wave's Dataset
pipeline. The batch flows through unchanged; as a side effect its candidates
(and its count of skipped links) are written to the wave's exchange
directory, one Parquet file per seen-set partition — the map side of the
seen anti-join that ``SeenSet.finalize_wave_parquet`` reduces after the
execution (state/seen.py). The fetch side of the wave is
``sources/bucketed.make_fetch_filter``: a plain-function ``map_batches`` over
the resident corpus, joined against the admitted slice.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.filters import FilterChain, URLScorer
from ..functions.hashing import hash64
from ..functions.urls import host_of, is_valid_crawl_url, normalize_url_for_deep_crawl
from ..state.seen import write_candidates


class DiscoverCandidates:
    """docs batch → candidate links written to the wave's exchange.

    Mirrors BFSDeepCrawlStrategy.link_discovery (bfs_strategy.py:68-140):
    per link — seen-key normalization, validity gate, FilterChain,
    scorer, score_threshold — then an in-batch partial dedup (keep max
    score) before partitioning the rows on ``h1 % num_partitions`` into
    ``exchange_dir``. The batch's count of skipped links rides in the
    metadata of its first file. Files are named by a hash of the batch's
    source urls, so a retried Ray task overwrites its own files and the
    wave's crawl order and counters stay exact. Returns the batch unchanged.
    """

    def __init__(
        self,
        exchange_dir: str,
        num_partitions: int,
        filter_chain: FilterChain | None = None,
        scorer: URLScorer | None = None,
        score_threshold: float | None = None,
        include_external: bool = False,
        max_depth: int = 3,
    ):
        self.exchange_dir = exchange_dir
        self.num_partitions = num_partitions
        self.filter_chain = filter_chain
        self.scorer = scorer
        self.score_threshold = score_threshold
        self.include_external = include_external
        self.max_depth = max_depth

    def __call__(self, batch: pa.Table) -> pa.Table:
        src_urls = batch.column("url").to_pylist()
        depths = batch.column("depth").to_pylist()
        links_int = batch.column("links_internal").to_pylist()
        links_ext = (
            batch.column("links_external").to_pylist()
            if self.include_external and "links_external" in batch.column_names
            else [[] for _ in src_urls]
        )

        cand_url, cand_host, cand_depth, cand_parent = [], [], [], []
        n_skipped = 0
        for src, depth, li, le in zip(src_urls, depths, links_int, links_ext):
            next_depth = int(depth) + 1
            if next_depth > self.max_depth:
                continue
            for link in list(li) + list(le):
                href = link["href"]
                key = normalize_url_for_deep_crawl(href, src)
                if not key or not is_valid_crawl_url(key):
                    n_skipped += 1
                    continue
                cand_url.append(key)
                cand_host.append(host_of(key))
                cand_depth.append(next_depth)
                cand_parent.append(src)

        if cand_url and self.filter_chain is not None:
            mask = self.filter_chain.apply_batch(cand_url)
            n_skipped += int((~mask).sum())
            keep = np.nonzero(mask)[0]
            cand_url = [cand_url[i] for i in keep]
            cand_host = [cand_host[i] for i in keep]
            cand_depth = [cand_depth[i] for i in keep]
            cand_parent = [cand_parent[i] for i in keep]

        if cand_url:
            scores = (
                self.scorer.score_batch(cand_url)
                if self.scorer is not None
                else np.zeros(len(cand_url))
            )
            if self.score_threshold is not None:
                keep = np.nonzero(scores >= self.score_threshold)[0]
                n_skipped += len(cand_url) - len(keep)
                cand_url = [cand_url[i] for i in keep]
                cand_host = [cand_host[i] for i in keep]
                cand_depth = [cand_depth[i] for i in keep]
                cand_parent = [cand_parent[i] for i in keep]
                scores = scores[keep]
        else:
            scores = np.zeros(0)

        # in-batch partial dedup (canonical: max score, min depth, min parent)
        best: dict[str, int] = {}
        for i, u in enumerate(cand_url):
            j = best.get(u)
            if j is None or (-scores[i], cand_depth[i], cand_parent[i]) < (
                -scores[j], cand_depth[j], cand_parent[j]
            ):
                best[u] = i
        idx = sorted(best.values())
        if idx or n_skipped:
            batch_id = format(int(hash64(["\n".join(src_urls)])[0]), "016x")
            cand = pa.table(
                {
                    "url_norm": pa.array([cand_url[i] for i in idx], pa.string()),
                    "host": pa.array([cand_host[i] for i in idx], pa.string()),
                    "depth": pa.array([cand_depth[i] for i in idx], pa.int32()),
                    "parent_url": pa.array([cand_parent[i] for i in idx], pa.string()),
                    "score": pa.array(np.asarray(scores, np.float64)[idx], pa.float64()),
                }
            )
            write_candidates(self.exchange_dir, self.num_partitions, batch_id,
                             cand, n_skipped)
        return batch
