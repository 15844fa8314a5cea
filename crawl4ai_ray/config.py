"""Engine configuration — the subset of the reference's ~80-knob
``CrawlerRunConfig`` (async_configs.py:808-1571) that affects offline
data-processing output, plus Ray-execution sizing knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Reference config.py:47-50,94
MIN_WORD_THRESHOLD = 1
IMPORTANT_ATTRS = ("src", "href", "alt", "title", "width", "height")
IMAGE_SCORE_THRESHOLD = 2
TABLE_SCORE_THRESHOLD = 7

# Tags always removed before cleaning (content_scraping_strategy.py:621-623)
REMOVE_TAGS = ("script", "style", "link", "meta", "noscript", "head")

# Well-known social domains excluded when exclude_social_media_links is on
# (reference config.py:74-85; extended per-run via
# ScrapeConfig.exclude_social_media_domains)
SOCIAL_MEDIA_DOMAINS = (
    "facebook.com",
    "twitter.com",
    "x.com",
    "linkedin.com",
    "instagram.com",
    "pinterest.com",
    "tiktok.com",
    "snapchat.com",
    "reddit.com",
)


@dataclass
class ScrapeConfig:
    """Per-page extraction knobs (mirrors CrawlerRunConfig content params)."""

    word_count_threshold: int = MIN_WORD_THRESHOLD
    excluded_tags: tuple = ()
    excluded_classes: tuple = ()  # elements with any of these classes dropped
    exclude_external_links: bool = False
    exclude_internal_links: bool = False
    # domain-level link exclusion (async_configs.py:1090-1094): external
    # links (and images) whose base domain is in exclude_domains are removed
    # from the tree AND the links list (content_scraping_strategy.py:
    # 1155-1163, 1180-1192); exclude_social_media_links additionally folds
    # SOCIAL_MEDIA_DOMAINS + exclude_social_media_domains into that set
    # (ibid:1677-1683)
    exclude_social_media_links: bool = False
    exclude_social_media_domains: tuple = ()
    exclude_domains: tuple = ()
    exclude_external_images: bool = False
    # remove every <img> before any processing (content_scraping_strategy.py:
    # 878-882 bs4 / :1615-1619 lxml: "early removal ... to minimize memory")
    exclude_all_images: bool = False
    # drop <form> subtrees during cleaning, before their links are collected
    # (content_scraping_strategy.py:760-762, :1223-1225)
    remove_forms: bool = False
    # parity knob: the reference's lxml parser keeps HTML comments unless
    # remove_comments is set (content_scraping_strategy.py:1622-1626); our
    # tokenizer never emits comment nodes, so comments are ALWAYS removed —
    # the knob is accepted (and validated in tests) but is a no-op.
    remove_comments: bool = False
    # extra attributes preserved alongside IMPORTANT_ATTRS in cleaned_html
    # (content_scraping_strategy.py:795 keep_attrs)
    keep_attrs: tuple = ()
    image_score_threshold: int = IMAGE_SCORE_THRESHOLD
    table_score_threshold: int = TABLE_SCORE_THRESHOLD
    image_description_min_words: int = 1
    only_text: bool = False
    keep_data_attributes: bool = False
    # scoping knobs (CrawlerRunConfig parity, async_configs.py:850-905):
    # css_selector scopes the ENTIRE scrape to matching subtrees;
    # target_elements scopes only content (cleaned_html/text/markdown) while
    # links/media still come from the full page; excluded_selector drops
    # matching elements before any processing.
    css_selector: str | None = None
    target_elements: tuple = ()
    excluded_selector: str | None = None
    # inline <iframe srcdoc="..."> content into the page tree (the offline
    # analogue of the reference's iframe fetch+inline, utils.py format_html)
    process_iframes: bool = False
    score_links: bool = False
    citations: bool = True
    # markdown content source: cleaned_html | raw_html | fit_html
    content_source: str = "cleaned_html"
    # fit_html shrink knobs (utils.py preprocess_html_for_schema; wired with
    # text_threshold=500, max_size=300_000 at async_webcrawler.py:513)
    fit_text_threshold: int = 500
    fit_max_size: int = 300_000


@dataclass
class CrawlConfig:
    """Frontier / wave-loop knobs (deep-crawl strategies + dispatcher)."""

    strategy: str = "bfs"  # bfs | dfs | best_first
    max_depth: int = 3
    max_pages: int | None = None
    score_threshold: float | None = None
    include_external: bool = False
    # politeness (async_dispatcher.py:26-83, virtual-time deterministic form)
    max_pages_per_host_per_wave: int | None = None
    base_delay_s: float = 2.0  # deterministic midpoint of uniform(1,3)
    max_delay_s: float = 60.0
    check_robots: bool = False
    # queue aging (fairness): per-wave score boost for rows that have waited,
    # the wave analogue of the reference dispatcher's −wait_time priority
    # bump after 600 s (async_dispatcher.py:189-198). 0.0 = off (keeps
    # ordering a pure function of depth/score for the parity oracles);
    # set >0 so politeness-deferred hosts cannot starve behind fresh
    # high-score work.
    aging_rate: float = 0.0
    # memory-adaptive dispatch, the wave-level analogue of the reference's
    # MemoryAdaptiveDispatcher pressure ladder (async_dispatcher.py:
    # 121-187 monitor, 229-258 requeue): probe once per wave via
    # ``memory_probe()`` (percent; default = psutil, else /proc/meminfo).
    # percent ≥ memory_threshold_percent → PRESSURE: the wave
    # budget shrinks to 1/4 (the "pause new launches" analogue). percent
    # ≥ critical_threshold_percent → CRITICAL: the admitted slice is
    # REQUEUED with retry_count+1 instead of fetched (rows keep their
    # enqueued_wave, so aging raises their priority — the
    # _get_priority_score retry bump); a row requeued past
    # max_memory_retries raises MemoryError, as the dispatcher does after
    # its sustained-pressure timeout. None disables the ladder.
    memory_threshold_percent: float | None = None
    critical_threshold_percent: float = 95.0
    max_memory_retries: int = 5
    memory_probe: object = None  # () -> float percent; None = auto
    # frontier sizing: pending sets larger than this leave the driver and
    # become a parquet-backed Dataset with distributed sort+limit per wave
    # (state/frontier_store.py)
    frontier_small_threshold: int = 200_000
    # execution sizing
    # URL-seen partitions: the crawl hashes each candidate url into one of
    # ``seen_shards`` partitions (h1 % seen_shards); each partition is
    # reduced by one Ray task per wave and stored as its own sorted runs
    # (state/seen.py). Crawl results do not depend on it.
    seen_shards: int = 16
    scrape_batch_size: int = 64
    # corpus source: when set, the crawl reads this bucketed layout's files
    # (sources/bucketed.py partition_corpus) instead of its ``pages``
    # argument. Either way the corpus is read once and kept in the object
    # store for every wave (pipelines/crawl.py).
    corpus_bucket_dir: str | None = None
    # link gating/prioritization (functions.filters instances; picklable)
    filter_chain: object | None = None
    url_scorer: object | None = None
    # fetch-stage extension hooks (sources.bucketed.FetchHooks):
    # before_request / after_request / on_error, batch-level, picklable
    fetch_hooks: object | None = None

    scrape: ScrapeConfig = field(default_factory=ScrapeConfig)
