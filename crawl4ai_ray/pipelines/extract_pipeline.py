"""The flagship pipeline: pages parquet → extracted docs.

``read_parquet(pages, columns=[url, html]) → map_batches(ExtractPages) →
[write_parquet]`` — streaming end-to-end: no driver-side materialization,
column-pruned read, Arrow zero-copy batches. The Ray-Data-native equivalent
of the reference's ``arun_many`` over a pre-fetched corpus
(async_webcrawler.py:653-755).
"""

from __future__ import annotations

import ray

from ..config import ScrapeConfig
from ..sources.pages import read_pages
from ..stages.extract import ExtractPages


def extract_dataset(
    pages: "ray.data.Dataset",
    cfg: ScrapeConfig | None = None,
    batch_size: int = 64,
    concurrency=None,
) -> "ray.data.Dataset":
    """Attach the extraction stage to an existing pages Dataset (lazy)."""
    return pages.map_batches(
        ExtractPages(cfg),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        zero_copy_batch=True,
    )


def extract_pipeline(
    sf_dir: str,
    cfg: ScrapeConfig | None = None,
    replicate: int = 1,
    out_dir: str | None = None,
    batch_size: int = 64,
    concurrency=None,
    columns=("url", "html"),
) -> "ray.data.Dataset":
    """pages(sf_dir) → docs. If ``out_dir`` is given, writes partitioned
    Parquet (resumable output layout) and returns a Dataset over it;
    otherwise returns the lazy Dataset."""
    pages = read_pages(sf_dir, replicate=replicate, columns=list(columns))
    docs = extract_dataset(pages, cfg, batch_size=batch_size, concurrency=concurrency)
    if out_dir:
        docs.write_parquet(out_dir)
        return ray.data.read_parquet(out_dir)
    return docs
