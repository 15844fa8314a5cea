"""API facade + bucketed corpus layout."""

import pyarrow as pa

import ray

from crawl4ai_ray.api import RayWebCrawler
from crawl4ai_ray.sources.bucketed import fetch_bucketed, partition_corpus
from crawl4ai_ray.sources.pages import read_pages, url_of

SF = "/root/testdata/sf0.001"


def test_run_single(ray_session):
    crawler = RayWebCrawler(SF)
    doc = crawler.run(url_of(3))
    assert doc["success"] and doc["url"] == url_of(3)
    assert "# Page 3" in doc["markdown"]
    assert crawler.run("https://nowhere.example.com/x") is None
    # point lookup, not a corpus scan: only the url's hash bucket is read
    assert crawler.last_lookup_bytes is not None
    assert 0 < crawler.last_lookup_bytes < crawler._bucketed.total_bytes
    # parity with the scan fallback (Dataset corpus, no layout)
    from crawl4ai_ray.sources.pages import read_pages

    scan = RayWebCrawler(read_pages(SF, columns=["url", "html"]))
    doc2 = scan.run(url_of(3))
    assert scan.last_lookup_bytes is None
    assert doc2 == doc


def test_run_many_subset(ray_session):
    crawler = RayWebCrawler(SF)
    ds = crawler.run_many([url_of(0), url_of(1)])
    df = ds.to_pandas()
    assert sorted(df["url"]) == sorted([url_of(0), url_of(1)])


def test_deep_crawl_via_api(ray_session):
    crawler = RayWebCrawler(SF)
    run = crawler.deep_crawl(url_of(0), strategy="bfs", max_depth=1)
    assert run.pages_crawled >= 1
    assert len(run.waves) >= 1


def test_digest_via_api(ray_session):
    crawler = RayWebCrawler.from_sf_dir(SF)
    res = crawler.digest(url_of(0), "table scan", max_waves=2, wave_size=5, max_pages=10)
    assert res.pages_crawled > 0


def test_bucketed_corpus_fetch(ray_session, tmp_path):
    pages = read_pages(SF, columns=["url", "html"])
    corpus_dir = str(tmp_path / "bucketed")
    partition_corpus(pages, corpus_dir, num_buckets=8)
    frontier = {url_of(i): (0, "", 0.0) for i in (0, 5, 17)}
    out = fetch_bucketed(corpus_dir, frontier).to_pandas()
    assert sorted(out["url"]) == sorted(frontier)
    assert set(out.columns) >= {"url", "html", "depth", "parent_url", "score"}


def test_crawl_with_bucketed_corpus(ray_session, tmp_path):
    from crawl4ai_ray.config import CrawlConfig
    from crawl4ai_ray.pipelines.crawl import crawl

    pages = read_pages(SF, columns=["url", "html"])
    corpus_dir = str(tmp_path / "bucketed_crawl")
    partition_corpus(pages, corpus_dir, num_buckets=8)
    cfg_b = CrawlConfig(max_depth=1, seen_shards=2, corpus_bucket_dir=corpus_dir)
    cfg_n = CrawlConfig(max_depth=1, seen_shards=2)
    seeds = [url_of(0), url_of(1)]
    runs = [
        crawl(pages, seeds=seeds, cfg=cfg_b),  # the layout's bucket files
        crawl(pages, seeds=seeds, cfg=cfg_n),  # the given Dataset
        crawl(SF, seeds=seeds, cfg=cfg_n),  # the sf_dir path
    ]
    # the corpus source must not change the crawl
    orders = [[list(w["frontier_urls"]) for w in r.waves] for r in runs]
    assert orders[0] == orders[1] == orders[2]
    assert runs[0].pages_crawled == runs[1].pages_crawled == runs[2].pages_crawled > 0


def test_crawler_hub():
    from crawl4ai_ray.config import ScrapeConfig
    from crawl4ai_ray.hub import CrawlerHub

    hub = CrawlerHub()
    hub.register("docs", "https://docs.*", scrape=ScrapeConfig(word_count_threshold=2))
    hub.register("generic", "https://*")
    assert hub.resolve("https://docs.example.com/x").name == "docs"
    assert hub.resolve("https://other.com/").name == "generic"
    assert hub.resolve("ftp://x") is None
    assert hub.get("docs").scrape.word_count_threshold == 2
    assert hub.names() == ["docs", "generic"]


def test_fetch_hooks(ray_session):
    """before_request filters, after_request transforms, on_error recovers
    (reference hook surface, async_crawler_strategy.py:2248-2290)."""
    import pyarrow as pa

    from crawl4ai_ray.config import CrawlConfig
    from crawl4ai_ray.pipelines.crawl import crawl
    from crawl4ai_ray.sources.bucketed import FetchHooks
    from crawl4ai_ray.sources.pages import url_of

    # before_request: refuse to fetch url_of(1)'s children subtree urls
    blocked = url_of(3)

    def before(urls):
        return [u for u in urls if u != blocked]

    def after(batch: pa.Table) -> pa.Table:
        # annotate score +1 to prove the transform ran
        import pyarrow.compute as pc

        return batch.set_column(
            batch.schema.get_field_index("score"),
            "score",
            pc.add(batch.column("score"), 1.0),
        )

    cfg = CrawlConfig(
        max_depth=2, seen_shards=2,
        fetch_hooks=FetchHooks(before_request=before, after_request=after),
    )
    run = crawl("/root/testdata/sf0.001", seeds=[url_of(0), url_of(3)], cfg=cfg)
    crawled = {u for w in run.waves for u in w["frontier_urls"]}
    docs = run.docs_dataset().to_pandas()
    assert blocked not in set(docs.url)  # never fetched
    assert blocked in crawled  # but it was admitted (hook dropped it)
    assert run.pages_crawled > 0

    # on_error: a poisoned after_request skips batches instead of failing
    def boom(batch):
        raise RuntimeError("poison")

    seen_errors = []

    cfg2 = CrawlConfig(
        max_depth=1, seen_shards=2,
        fetch_hooks=FetchHooks(after_request=boom, on_error=lambda u, e: None),
    )
    run2 = crawl("/root/testdata/sf0.001", seeds=[url_of(0)], cfg=cfg2)
    assert run2.pages_crawled == 0  # every batch skipped, no crash


def test_dispatcher_surface(ray_session):
    from crawl4ai_ray.sources.pages import url_of
    from crawl4ai_ray.strategies import BaseDispatcher, RayDatasetDispatcher

    d = RayDatasetDispatcher("/root/testdata/sf0.001")
    assert isinstance(d, BaseDispatcher)
    one = d.crawl_url(url_of(2))
    assert one and one["url"] == url_of(2)
    ds = d.run_urls([url_of(2), url_of(4)])
    assert ds.count() == 2


def test_url_seeder(ray_session):
    """AsyncUrlSeeder-analogue surface: pattern, domain, head peek, BM25
    filter, max_urls cap (reference async_url_seeder.py semantics)."""
    from crawl4ai_ray.sources.seeder import seed_urls

    sf = "/root/testdata/sf0.001"
    # plain discovery with glob
    urls = seed_urls(sf, pattern="*/page/1*").to_pandas()
    assert len(urls) > 0 and all("/page/1" in u for u in urls.url)
    # domain restriction
    d = seed_urls(sf, domain="site7.example.com").to_pandas()
    assert len(d) > 0 and all("site7.example.com" in u for u in d.url)
    # head extraction carries title/description
    h = seed_urls(sf, pattern="*/page/42", extract_head=True).to_pandas()
    assert h.title.iloc[0].startswith("Page 42")
    assert "Synthetic page 42" in h.description.iloc[0]
    # BM25 relevance filter keeps only %3 pages (summary meta present)
    r = seed_urls(sf, query="summary synthetic", score_threshold=1.8).to_pandas()
    ids = r.url.str.extract(r"/page/(\d+)")[0].astype(int)
    assert len(r) > 0 and (ids % 3 == 0).all()
    assert (r.relevance_score > 1.8).all()
    # max_urls cap is deterministic (sorted)
    capped = seed_urls(sf, max_urls=5).to_pandas()
    assert list(capped.url) == sorted(capped.url) and len(capped) == 5
