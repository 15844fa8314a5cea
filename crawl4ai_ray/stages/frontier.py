"""Candidate-link discovery for the crawl wave: explode → normalize →
filter → score → in-batch dedup → seen-shard offer.

``DiscoverCandidates`` runs fused after extraction in each wave's Dataset
pipeline. The batch flows through unchanged; its candidates (and its count
of skipped links) go to the UrlSeenShard actors as a side effect. The fetch
side of the wave is ``sources/bucketed.make_fetch_filter``: a plain-function
``map_batches`` over the resident corpus, joined against the admitted slice.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.filters import FilterChain, URLScorer
from ..functions.urls import host_of, is_valid_crawl_url, normalize_url_for_deep_crawl


class DiscoverCandidates:
    """docs batch → candidate links offered to the seen shards.

    Mirrors BFSDeepCrawlStrategy.link_discovery (bfs_strategy.py:68-140):
    per link — seen-key normalization, validity gate, FilterChain,
    scorer, score_threshold — then an in-batch partial dedup (keep max
    score) before scattering to the UrlSeenShard actors. The batch's count
    of skipped links rides on the same offer RPC. Offering is idempotent
    (deterministic canonical pick), so Ray task retries keep the crawl
    order; only the wave's discovery counters could count a retried batch
    twice. Returns the batch unchanged.
    """

    def __init__(
        self,
        seen_set,
        filter_chain: FilterChain | None = None,
        scorer: URLScorer | None = None,
        score_threshold: float | None = None,
        include_external: bool = False,
        max_depth: int = 3,
    ):
        self.seen = seen_set
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
            self.seen.offer_candidates(
                [cand_url[i] for i in idx],
                [cand_host[i] for i in idx],
                [cand_depth[i] for i in idx],
                [cand_parent[i] for i in idx],
                [float(scores[i]) for i in idx],
                n_skipped,
            )
        return batch
