"""User-facing facade — the Ray-Data analogue of the reference's
``AsyncWebCrawler`` surface (async_webcrawler.py): a user of the reference
maps their calls 1:1:

    AsyncWebCrawler.arun(url, config)        → RayWebCrawler.run(url)
    AsyncWebCrawler.arun_many(urls, config)  → RayWebCrawler.run_many(urls)
    deep_crawl_strategy=BFS/DFS/BestFirst    → RayWebCrawler.deep_crawl(...)
    AdaptiveCrawler.digest(start, query)     → RayWebCrawler.digest(...)

The corpus plays the network: fetches resolve against the pages table
(live HTTP is out of scope for an offline data engine — SURVEY.md §2.11).
Results come back as Arrow-friendly dicts / Datasets, flattened per the
docs schema (stages/extract.py) rather than CrawlResult objects.
"""

from __future__ import annotations

import pyarrow as pa

import ray

from .config import CrawlConfig, ScrapeConfig
from .pipelines.crawl import CrawlRun, crawl
from .pipelines.extract_pipeline import extract_dataset
from .stages.extract import ExtractPages


class RayWebCrawler:
    def __init__(self, pages: "ray.data.Dataset | str", scrape: ScrapeConfig | None = None):
        """``pages``: the corpus Dataset (url, html, …) or an sf_dir path."""
        self._sf_dir = None
        if isinstance(pages, str):
            from .sources.pages import read_pages

            self._sf_dir = pages
            pages = read_pages(pages, columns=["url", "html"])
        self.pages = pages
        self.scrape = scrape or ScrapeConfig()

    # -- single page (arun) ------------------------------------------------
    def run(self, url: str) -> dict | None:
        """Extract one page from the corpus; None if the url isn't there.

        Point lookup, not a corpus scan (r2 VERDICT #10): when the crawler
        was built from an sf_dir, the url is hashed to its bucket in the
        bucketed layout and ONLY that bucket's files are read (with a
        parquet predicate for row-group pruning) — ``last_lookup_bytes``
        records the bytes considered vs ``filter().take(1)``'s full scan.
        Falls back to the scan for ad-hoc Dataset corpora with no layout.
        """
        row = None
        if getattr(self, "_sf_dir", None) is not None:
            import pyarrow.parquet as pq

            from .sources.bucketed import BucketedCorpus, bucket_of, ensure_bucketed

            if not hasattr(self, "_bucketed"):
                self._bucketed = BucketedCorpus(ensure_bucketed(self._sf_dir))
            b = int(bucket_of([url], self._bucketed.num_buckets)[0])
            files = self._bucketed.bucket_files.get(b)
            self.last_lookup_bytes = self._bucketed.bucket_bytes.get(b, 0)
            if not files:
                return None
            tbl = pq.read_table(
                files, columns=["url", "html"], filters=[("url", "=", url)]
            )
            if tbl.num_rows:
                row = {"url": tbl.column("url")[0].as_py(),
                       "html": tbl.column("html")[0].as_py()}
        else:
            self.last_lookup_bytes = None  # full scan — no layout available
            rows = self.pages.filter(expr=f'url == "{url}"').take(1)
            if rows:
                row = rows[0]
        if row is None:
            return None
        batch = pa.table({"url": [row["url"]], "html": [row["html"]]})
        out = ExtractPages(self.scrape)(batch)
        return {c: out.column(c)[0].as_py() for c in out.column_names}

    # -- many pages (arun_many) -------------------------------------------
    def run_many(
        self,
        urls: list[str] | None = None,
        cache_mode=None,
        cache_dir: str | None = None,
    ) -> "ray.data.Dataset":
        """Extraction pipeline over the corpus (optionally a url subset).
        Lazy Dataset: consume with write_parquet / iter_batches (the
        reference's stream=True maps to batch-wise iteration here).

        ``cache_mode`` + ``cache_dir`` give the reference's
        ``arun(cache_mode=...)`` semantics (state/cache.py decision
        table): hits served from the docs cache, misses extracted and —
        mode permitting — appended to it."""
        pages = self.pages
        if urls is not None:
            want = ray.put(set(urls))

            class FilterUrls:
                def __init__(self):
                    self.want = ray.get(want)

                def __call__(self, batch: pa.Table) -> pa.Table:
                    mask = pa.array(
                        [u in self.want for u in batch.column("url").to_pylist()],
                        pa.bool_(),
                    )
                    return batch.filter(mask)

            pages = pages.map_batches(
                FilterUrls, batch_format="pyarrow", concurrency=(1, 4)
            )
        if cache_mode is not None and cache_dir is not None:
            from .state.cache import cached_extract

            return cached_extract(
                pages,
                cache_dir,
                lambda p: extract_dataset(p, self.scrape),
                mode=cache_mode,
            )
        return extract_dataset(pages, self.scrape)

    # -- deep crawl --------------------------------------------------------
    def deep_crawl(
        self,
        seeds: list[str] | str,
        strategy: str = "bfs",
        max_depth: int = 3,
        max_pages: int | None = None,
        out_dir: str | None = None,
        **cfg_kwargs,
    ) -> CrawlRun:
        if isinstance(seeds, str):
            seeds = [seeds]
        cfg = CrawlConfig(
            strategy=strategy,
            max_depth=max_depth,
            max_pages=max_pages,
            scrape=self.scrape,
            **cfg_kwargs,
        )
        return crawl(self.pages, seeds=seeds, cfg=cfg, out_dir=out_dir)

    # -- adaptive (digest) -------------------------------------------------
    def digest(self, start_url: str, query: str, **kwargs):
        from .pipelines.adaptive import adaptive_crawl

        if self._sf_dir is None:
            raise ValueError(
                "digest() needs a corpus sf_dir; construct RayWebCrawler with "
                "an sf_dir path to enable it"
            )
        return adaptive_crawl(self._sf_dir, [start_url], query, **kwargs)

    @classmethod
    def from_sf_dir(cls, sf_dir: str, scrape: ScrapeConfig | None = None) -> "RayWebCrawler":
        inst = cls(sf_dir, scrape)
        inst._sf_dir = sf_dir
        return inst
