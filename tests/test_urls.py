"""URL normalization parity tests — cases modeled on the reference's
tests/test_normalize_url.py plus seen-key and domain edge cases."""

from crawl4ai_ray.functions.urls import (
    extract_extension,
    extract_year,
    get_base_domain,
    host_of,
    is_external_url,
    is_valid_crawl_url,
    normalize_url,
    normalize_url_for_deep_crawl,
    path_depth,
)

BASE = "https://example.com/dir/page.html"


def test_relative_resolution():
    assert normalize_url("../other.html", BASE) == "https://example.com/other.html"
    assert normalize_url("sub/x.html", BASE) == "https://example.com/dir/sub/x.html"
    assert normalize_url("/rooted", BASE) == "https://example.com/rooted"


def test_netloc_lowercased_path_case_kept():
    assert (
        normalize_url("HTTPS://EXAMPLE.COM/Path/Page", "https://example.com")
        == "https://example.com/Path/Page"
    )


def test_trailing_slash_stripped_except_root():
    assert normalize_url("https://a.com/x/", BASE) == "https://a.com/x"
    assert normalize_url("https://a.com/", BASE) == "https://a.com/"


def test_tracking_params_dropped_and_sorted():
    u = normalize_url(
        "https://a.com/p?b=2&a=1&utm_source=x&gclid=1&fbclid=2&ref=r&ref_src=s", BASE
    )
    assert u == "https://a.com/p?a=1&b=2"


def test_fragment_dropped():
    assert normalize_url("https://a.com/p#frag", BASE) == "https://a.com/p"
    assert (
        normalize_url("https://a.com/p#frag", BASE, keep_fragment=True)
        == "https://a.com/p#frag"
    )


def test_empty_href():
    assert normalize_url("", BASE) is None
    assert normalize_url_for_deep_crawl(None, BASE) is None


def test_seen_key_rstrips_all_trailing_slashes():
    assert (
        normalize_url_for_deep_crawl("https://a.com/x///", BASE) == "https://a.com/x"
    )
    # root becomes empty path (reference parse_qs/rstrip semantics)
    assert normalize_url_for_deep_crawl("https://a.com/", BASE) == "https://a.com"


def test_seen_key_tracking_subset():
    # deep-crawl normalizer drops only its 5 params; keeps e.g. gclid
    u = normalize_url_for_deep_crawl("https://a.com/p?utm_source=x&gclid=1", BASE)
    assert u == "https://a.com/p?gclid=1"


def test_get_base_domain():
    assert get_base_domain("https://www.example.com/x") == "example.com"
    assert get_base_domain("https://sub.example.co.uk/x") == "example.co.uk"
    assert get_base_domain("https://example.com:8080/") == "example.com"
    assert get_base_domain("not a url") == ""


def test_is_external():
    assert not is_external_url("https://sub.example.com/a", "example.com")
    assert is_external_url("https://other.org/a", "example.com")
    assert is_external_url("mailto:x@example.com", "example.com")
    assert not is_external_url("/relative/path", "example.com")


def test_validity():
    assert is_valid_crawl_url("https://example.com/x")
    assert not is_valid_crawl_url("ftp://example.com/x")
    assert not is_valid_crawl_url("https://localhost/x")  # no dot


def test_path_depth_and_extension_and_year():
    assert path_depth("https://a.com") == 0
    assert path_depth("https://a.com/") == 0
    assert path_depth("https://a.com/a/b") == 2
    assert extract_extension("https://a.com/f.html?q=1") == "html"
    # reference's _quick_extension scans the whole URL (scorers.py:272-302):
    # extensionless path falls back to the domain's TLD — kept for parity
    assert extract_extension("https://a.com/f") == "com"
    assert extract_extension("no-dots-here") == ""
    assert extract_year("https://a.com/blog/2021/post") == 2021
    assert extract_year("https://a.com/blog/1850/x") is None
    assert host_of("https://A.b.COM:443/x") == "a.b.com"


def test_is_nonsense_url_active_rules():
    """Mirrors the ACTIVE rules of async_url_seeder.py:1284-1380 (rules 4-8
    are commented out in the reference and must stay off here)."""
    from crawl4ai_ray.functions.urls import is_nonsense_url as f

    # rule 1: robots / sitemap roots
    assert f("https://a.com/robots.txt")
    assert f("https://a.com/deep/sitemap.xml")
    assert f("https://a.com/sitemap_index.xml")
    # rule 2: sitemap variations
    assert f("https://a.com/sitemap-news.xml")
    assert f("https://a.com/sitemaps/part1.xml.gz")
    assert f("https://a.com/sitemap/urls.txt")
    assert not f("https://a.com/sitemap/page.html")
    # rule 3: utility files
    assert f("https://a.com/humans.txt")
    assert f("https://a.com/favicon.ico")
    assert f("https://a.com/.well-known/security.txt")
    # rules 4-8 are COMMENTED OUT in the reference: feeds/api/media pass
    assert not f("https://a.com/feed.xml/article-name")
    assert not f("https://a.com/api/v1/page-about-apis")
    assert not f("https://a.com/downloads/report.pdf")
    # rule 9: hidden path parts
    assert f("https://a.com/.git/config")
    assert f("https://a.com/x/.hidden/page")
    assert not f("https://a.com/x/file.txt.bak")
    # rule 10: non-content paths (substring semantics, as in the reference)
    assert f("https://a.com/wp-admin/options.php")
    assert f("https://a.com/checkout/step1")
    assert f("https://a.com/administrator/page")  # '/admin' substring fires
    # rule 11: print views
    assert f("https://a.com/article?print=1")
    assert f("https://a.com/x/print/article")
    assert f("https://a.com/article_print.html")
    # rule 12: very short paths, language roots exempt
    assert f("https://a.com/a")
    assert not f("https://a.com/")
    assert not f("https://a.com/en")
    assert not f("https://a.com/page/123")


def test_seeder_filter_nonsense(tmp_path):
    """filter_nonsense_urls defaults on (SeedingConfig :1676) and drops
    utility urls from seeding."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import ray
    from crawl4ai_ray.sources.seeder import seed_urls

    urls = [
        "https://s.example.com/page/1",
        "https://s.example.com/robots.txt",
        "https://s.example.com/page/2",
        "https://s.example.com/wp-admin/x",
    ]
    pages = ray.data.from_arrow(
        pa.table({"url": pa.array(urls), "html": pa.array([b""] * 4, pa.binary())})
    )
    kept = sorted(seed_urls(pages).to_pandas()["url"].tolist())
    assert kept == ["https://s.example.com/page/1", "https://s.example.com/page/2"]
    all_urls = sorted(seed_urls(pages, filter_nonsense_urls=False).to_pandas()["url"].tolist())
    assert all_urls == sorted(urls)


def test_trap_flags_rules():
    from crawl4ai_ray.functions.urls import is_trap_url, trap_flags

    base = "https://a.example.com/page/5"
    assert not is_trap_url(base)
    # consecutive repetition >= 3 (x/x/x), not alternation (y/z/y/z)
    assert trap_flags(base + "/x/x/x")["repeated_segment"]
    assert not is_trap_url(base + "/y/z/y/z")
    assert not trap_flags(base + "/x/x")["repeated_segment"]
    # depth: > 8 segments
    deep = "https://a.example.com/" + "/".join(f"s{i}" for i in range(9))
    assert trap_flags(deep)["too_deep"]
    assert not trap_flags("https://a.example.com/" + "/".join(f"s{i}" for i in range(8)))["too_deep"]
    # session ids: first param or later, case-insensitive
    assert trap_flags(base + "?PHPSESSID=ab")["session_id"]
    assert trap_flags(base + "?x=1&sid=9")["session_id"]
    assert not trap_flags(base + "?classid=9")["session_id"]
    # param explosion: >= 5
    assert trap_flags(base + "?a=1&b=2&c=3&d=4&e=5")["many_params"]
    assert not trap_flags(base + "?a=1&b=2&c=3&d=4")["many_params"]
    # length
    assert trap_flags(base + "/" + "x" * 200)["too_long"]
    # calendar years out of [1990, 2025]
    assert trap_flags(base + "/2050/01/05/report")["bad_year"]
    assert not trap_flags(base + "/2024/01/05/report")["bad_year"]
    assert not trap_flags(base + "/1234x/")["bad_year"]  # not a pure 4-digit seg


def test_trap_filter_in_chain():
    from crawl4ai_ray.functions.filters import FilterChain, TrapFilter

    f = TrapFilter()
    urls = [
        "https://a.example.com/ok",
        "https://a.example.com/x/x/x/gallery",
        "https://a.example.com/post?jsessionid=z",
    ]
    mask = f.apply_batch(urls)
    assert mask.tolist() == [True, False, False]
    assert f.stats.passed == 1 and f.stats.rejected == 2
    chain = FilterChain([TrapFilter()])
    assert chain.apply("https://a.example.com/ok")
    assert not chain.apply("https://a.example.com/2077/01/01")


def test_normalize_text_rules():
    from crawl4ai_ray.functions.text import normalize_text

    # NFC composes combining sequences
    assert normalize_text("Cafe\u0301") == "Caf\u00e9"
    # C0 controls stripped, \n and \t survive (then \t collapses to space)
    assert normalize_text("a\x07b\x00c") == "abc"
    assert normalize_text("a\tb") == "a b"
    assert normalize_text("a \t  b") == "a b"
    # blank-line runs cap at one blank line; edges trimmed
    assert normalize_text("a\n\n\n\n\nb") == "a\n\nb"
    assert normalize_text("  a b \n") == "a b"
    # interior newlines under the cap are untouched
    assert normalize_text("a\nb\n\nc") == "a\nb\n\nc"


def test_unparseable_href_normalizes_to_none():
    """An href urllib cannot split (unclosed IPv6 bracket) has no canonical
    form: both normalizers return None instead of raising."""
    for href in ("http://[::1", "http://[zz]/x"):
        assert normalize_url(href, "https://a.example.com/p") is None
        assert normalize_url_for_deep_crawl(href, "https://a.example.com/p") is None
