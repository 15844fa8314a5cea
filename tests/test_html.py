"""HTML engine tests: scraping semantics, markdown determinism (the
byte-identity anchor), metadata/table/image extraction."""

import pytest

from crawl4ai_ray.config import ScrapeConfig
from crawl4ai_ray.html.dom import parse_html
from crawl4ai_ray.html.fit import preprocess_html_for_schema
from crawl4ai_ray.html.markdown import (
    convert_links_to_citations,
    generate_markdown,
    html_to_markdown,
)
from crawl4ai_ray.html.scrape import scrape_page
from crawl4ai_ray.sources.pages import build_html, url_of

URL = "https://site1.example.com/page/1"


def test_scrape_removes_script_style():
    html = "<html><head><script>x</script><style>y</style></head><body><p>hello world</p></body></html>"
    r = scrape_page(URL, html)
    assert "<script>" not in r["cleaned_html"]
    assert "<style>" not in r["cleaned_html"]
    assert r["text"] == "hello world"


def test_metadata():
    html = (
        '<html><head><title>T</title><meta name="description" content="D">'
        '<meta property="og:title" content="OT"><meta name="twitter:card" content="TC">'
        "</head><body><p>x</p></body></html>"
    )
    r = scrape_page(URL, html)
    m = r["metadata"]
    assert m["title"] == "T" and m["description"] == "D"
    assert m["og:title"] == "OT" and m["twitter:card"] == "TC"


def test_link_split_and_dedup():
    html = (
        '<body><a href="/a">one</a><a href="/a#x">dup</a>'
        '<a href="https://other.org/b" title="t">ext</a>'
        '<a href="mailto:x@y.z">mail</a><a href="javascript:void(0)">js</a></body>'
    )
    r = scrape_page(URL, html)
    internal = [l["href"] for l in r["links_internal"]]
    external = [l["href"] for l in r["links_external"]]
    assert internal == ["https://site1.example.com/a"]  # fragment dup removed
    assert external == ["https://other.org/b", "mailto:x@y.z"]
    assert r["links_external"][0]["title"] == "t"


def test_image_scoring_threshold():
    keep = '<body><img src="https://x.com/i.png" alt="big" width="300" height="300"><p>ctx words here</p></body>'
    drop = '<body><img src="https://x.com/icon-only"><p>ctx</p></body>'
    assert len(scrape_page(URL, keep)["images"]) == 1
    assert len(scrape_page(URL, drop)["images"]) == 0


def test_data_table_detection():
    layout = "<body><table><tr><td>a</td></tr></table><p>w</p></body>"
    data = (
        "<body><table><caption>c</caption><thead><tr><th>h1</th><th>h2</th></tr></thead>"
        "<tbody><tr><td>1</td><td>2</td></tr><tr><td>3</td><td>4</td></tr></tbody></table></body>"
    )
    assert scrape_page(URL, layout)["tables"] == []
    t = scrape_page(URL, data)["tables"]
    assert len(t) == 1
    assert t[0]["headers"] == ["h1", "h2"]
    assert t[0]["rows"] == [["1", "2"], ["3", "4"]]
    assert t[0]["caption"] == "c"


def test_word_count_threshold():
    html = "<body><p>tiny</p><p>this paragraph has plenty of words to keep</p></body>"
    cfg = ScrapeConfig(word_count_threshold=3)
    r = scrape_page(URL, html, cfg)
    assert "tiny" not in r["cleaned_html"]
    assert "plenty of words" in r["cleaned_html"]


def test_excluded_tags_and_classes():
    html = '<body><nav class="menu"><a href="/x">n</a></nav><p>content words</p></body>'
    r = scrape_page(URL, html, ScrapeConfig(excluded_tags=("nav",)))
    assert "menu" not in r["cleaned_html"] and "<nav" not in r["cleaned_html"]
    r2 = scrape_page(URL, html, ScrapeConfig(excluded_classes=("menu",)))
    assert "<nav" not in r2["cleaned_html"]


def test_markdown_blocks():
    md = html_to_markdown(
        "<h1>Title</h1><p>Para <strong>bold</strong> and <em>it</em>.</p>"
        "<ul><li>a</li><li>b</li></ul><pre><code>x = 1</code></pre>"
        '<blockquote>q</blockquote><p><a href="https://a.com/x">link</a></p>'
    )
    assert "# Title" in md
    assert "Para **bold** and _it_." in md
    assert "  * a\n  * b" in md
    assert "```\nx = 1\n```" in md
    assert "> q" in md
    assert "[link](https://a.com/x)" in md


def test_citations():
    md = "See [one](https://a.com/1) and [two](https://a.com/2) and [one again](https://a.com/1)."
    out, refs = convert_links_to_citations(md, "https://a.com")
    assert "one⟨1⟩" in out and "two⟨2⟩" in out and "one again⟨1⟩" in out
    assert "## References" in refs
    assert "⟨1⟩ https://a.com/1: one" in refs


def test_extraction_deterministic_byte_identical():
    html = build_html(7, 500, "some words " * 60, "en").encode()
    u = url_of(7)
    outs = set()
    for _ in range(3):
        r = scrape_page(u, html)
        md = generate_markdown(r["cleaned_root"], base_url=u)
        outs.add((r["cleaned_html"], md["raw_markdown"], md["markdown_with_citations"], r["text"]))
    assert len(outs) == 1  # byte-identical across repeated runs


def test_fit_html_truncates_and_keeps_structure():
    html = "<body><div id='k' class='c'><p>" + ("x" * 2000) + "</p></div></body>"
    fit = preprocess_html_for_schema(html, text_threshold=100)
    assert 'id="k"' in fit and "<p>" in fit
    assert len(fit) < len(html)
    assert "..." in fit


def test_malformed_html_recovery():
    html = "<body><p>unclosed<div>block<p>another</body>"
    r = scrape_page(URL, html)
    assert r["success"]
    assert "unclosed" in r["text"] and "another" in r["text"]


def test_dom_autoclose_li():
    root = parse_html("<ul><li>a<li>b<li>c</ul>")
    lis = root.find_all("li")
    assert [li.text() for li in lis] == ["a", "b", "c"]


def test_scrape_scoping_knobs():
    """css_selector / target_elements / excluded_selector / only_text /
    process_iframes (CrawlerRunConfig parity, async_configs.py:850-905)."""
    from crawl4ai_ray.config import ScrapeConfig
    from crawl4ai_ray.html.scrape import scrape_page

    html = (
        '<html><body>'
        '<nav class="menu"><a href="/nav">navlink</a></nav>'
        '<article id="main"><h1>Main</h1><p>main text</p>'
        '<a href="/inside">inside</a></article>'
        '<aside class="ads"><p>ad words</p><a href="/ad">adlink</a></aside>'
        '</body></html>'
    )
    u = "https://x.example.com/p"

    # css_selector scopes EVERYTHING (links included) to the match
    r = scrape_page(u, html, ScrapeConfig(css_selector="#main"))
    assert "main text" in r["text"] and "ad words" not in r["text"]
    hrefs = [l["href"] for l in r["links_internal"]]
    assert hrefs == ["https://x.example.com/inside"]

    # target_elements scopes content only; links still come from full page
    r = scrape_page(u, html, ScrapeConfig(target_elements=("article",)))
    assert "main text" in r["text"] and "ad words" not in r["text"]
    hrefs = {l["href"] for l in r["links_internal"]}
    assert "https://x.example.com/ad" in hrefs
    assert "https://x.example.com/nav" in hrefs

    # excluded_selector drops subtrees before anything else
    r = scrape_page(u, html, ScrapeConfig(excluded_selector=".ads"))
    assert "ad words" not in r["text"]
    assert all(l["href"] != "https://x.example.com/ad" for l in r["links_internal"])

    # only_text: cleaned output carries no markup
    r = scrape_page(u, html, ScrapeConfig(only_text=True))
    assert "<" not in r["cleaned_html"] and "main text" in r["cleaned_html"]

    # process_iframes inlines srcdoc content
    ihtml = '<body><p>before</p><iframe srcdoc="&lt;p&gt;framed words&lt;/p&gt;"></iframe></body>'
    r = scrape_page(u, ihtml, ScrapeConfig(process_iframes=True))
    assert "framed words" in r["text"]
    r = scrape_page(u, ihtml, ScrapeConfig(process_iframes=False))
    assert "framed words" not in r["text"]


def test_link_exclusion_knobs():
    """exclude_domains / exclude_social_media_links remove matching external
    links (and images) from BOTH the links list and the cleaned tree
    (content_scraping_strategy.py:1155-1192, async_configs.py:1090-1094)."""
    u = "https://x.example.com/p"
    html = (
        "<body><p>main text here</p>"
        '<p><a href="https://www.facebook.com/share">fb share</a></p>'
        '<p><a href="https://tracker.adnet.io/px">ad link</a></p>'
        '<p><a href="https://ok.partner.org/x">partner link</a></p>'
        '<p><a href="/local">local link</a></p>'
        '<img src="https://tracker.adnet.io/pix.png" alt="pixel image here">'
        "</body>"
    )
    # no knobs: all three external links present
    r = scrape_page(u, html, ScrapeConfig())
    ext = {l["href"] for l in r["links_external"]}
    assert ext == {
        "https://www.facebook.com/share",
        "https://tracker.adnet.io/px",
        "https://ok.partner.org/x",
    }
    # external links carry their own base domain
    domains = {l["href"]: l["base_domain"] for l in r["links_external"]}
    assert domains["https://www.facebook.com/share"] == "facebook.com"

    r = scrape_page(
        u,
        html,
        ScrapeConfig(
            exclude_social_media_links=True,
            exclude_domains=("adnet.io",),
        ),
    )
    ext = {l["href"] for l in r["links_external"]}
    assert ext == {"https://ok.partner.org/x"}  # fb (social) + adnet gone
    assert {l["href"] for l in r["links_internal"]} == {"https://x.example.com/local"}
    # removed from the cleaned tree too (markdown/cleaned_html parity)
    assert "fb share" not in r["cleaned_html"]
    assert "ad link" not in r["cleaned_html"]
    assert "partner link" in r["cleaned_html"]
    # excluded-domain image removed
    assert all("adnet.io" not in (i.get("src") or "") for i in r["images"])

    # user extension of the social list
    r = scrape_page(
        u,
        html,
        ScrapeConfig(
            exclude_social_media_links=True,
            exclude_social_media_domains=("partner.org",),
        ),
    )
    assert {l["href"] for l in r["links_external"]} == {"https://tracker.adnet.io/px"}


def test_exclude_all_images():
    """exclude_all_images removes every <img> before ANY processing
    (content_scraping_strategy.py:878-882): media list empty, no <img> in
    cleaned_html, internal images gone too."""
    html = (
        '<body><img src="/local.png" alt="big" width="300" height="300">'
        '<img src="https://cdn.other.org/i.png" alt="big" width="300" height="300">'
        "<p>context words around the images here</p></body>"
    )
    base = scrape_page(URL, html)
    assert len(base["images"]) == 2
    r = scrape_page(URL, html, ScrapeConfig(exclude_all_images=True))
    assert r["images"] == []
    assert "<img" not in r["cleaned_html"]
    assert "context words" in r["cleaned_html"]


def test_remove_forms():
    """remove_forms drops <form> subtrees before the link pass, so links
    inside forms never surface (content_scraping_strategy.py:760-762)."""
    html = (
        '<body><form action="/search"><input name="q">'
        '<a href="/form-link">inside form</a></form>'
        '<a href="/outside">real link with words</a><p>body words here</p></body>'
    )
    base = scrape_page(URL, html)
    assert any("form-link" in l["href"] for l in base["links_internal"])
    r = scrape_page(URL, html, ScrapeConfig(remove_forms=True))
    hrefs = [l["href"] for l in r["links_internal"]]
    assert not any("form-link" in h for h in hrefs)
    assert any("outside" in h for h in hrefs)
    assert "<form" not in r["cleaned_html"]


def test_remove_comments_always_on():
    """Our tokenizer never emits comment nodes, so comments are removed with
    OR without the knob — the knob exists for CrawlerRunConfig parity
    (content_scraping_strategy.py:1622-1626)."""
    html = "<body><p>visible words <!-- hidden secret --> more text</p></body>"
    for cfg in (ScrapeConfig(), ScrapeConfig(remove_comments=True)):
        r = scrape_page(URL, html, cfg)
        assert "hidden secret" not in r["cleaned_html"]
        assert "visible words" in r["text"]


def test_keep_attrs():
    """keep_attrs extends the IMPORTANT_ATTRS whitelist in cleaned_html
    (content_scraping_strategy.py:795)."""
    html = '<body><p id="main" role="note">enough words to keep this node</p></body>'
    base = scrape_page(URL, html)
    assert 'id="main"' not in base["cleaned_html"]
    r = scrape_page(URL, html, ScrapeConfig(keep_attrs=("id", "role")))
    assert 'id="main"' in r["cleaned_html"]
    assert 'role="note"' in r["cleaned_html"]


@pytest.mark.parametrize("depth", [1_000, 20_000])
def test_fit_html_deep_nesting(depth):
    """fit_html walks the tree with an explicit stack: nesting depth is not
    bounded by the interpreter's recursion limit."""
    fit = preprocess_html_for_schema("<div>" * depth + "x")
    assert fit == "<div>" * depth + "x" + "</div>" * depth


def test_tree_walkers_deep_nesting():
    """The scrape stage's other tree walkers (cleaning, serialization,
    block text) take 20,000 nested elements without recursing."""
    from crawl4ai_ray.html.scrape import _clean_tree, page_text

    depth = 20_000
    root = parse_html("<div>" * depth + "<p>deep words</p>" + "</div>" * depth)
    assert _clean_tree(root, ScrapeConfig())
    assert root.serialize() == "<div>" * depth + "<p>deep words</p>" + "</div>" * depth
    assert page_text(root) == "deep words"


@pytest.mark.parametrize("html, text", [
    ("<span>a</span> b", "a b"),
    ("<body>Hello <b>world</b></body>", "Hello world"),
    ("<div>x</div> tail <i>end</i>", "x\ntail end"),
    ("lead <p>mid</p> trail", "lead\nmid\ntrail"),
    ("<p>a</p><p>b</p>", "a\nb"),
])
def test_page_text_keeps_trailing_inline_text(html, text):
    """Inline text after the last block element (or on a page with no
    block element) ends the text; it is not dropped."""
    from crawl4ai_ray.html.scrape import page_text

    assert page_text(parse_html(html)) == text


def test_scrape_body_ending_in_inline_text():
    html = ("<html><body><p>some words in a para</p>"
            "trailing inline words here</body></html>")
    want = "some words in a para\ntrailing inline words here"
    assert scrape_page(URL, html)["text"] == want
    assert scrape_page(URL, html, ScrapeConfig(only_text=True))["cleaned_html"] == want


def test_unparseable_href_is_kept_as_written():
    """An href that does not parse (unclosed IPv6 bracket) no longer fails
    the page: the row succeeds and keeps the link as written, for the
    crawl to count as skipped."""
    import pyarrow as pa

    from crawl4ai_ray.stages.extract import ExtractPages

    html = "<html><body><p>hi</p><a href='http://[::1'>x</a><a href='/ok'>y</a></body></html>"
    out = ExtractPages(ScrapeConfig())(
        pa.table({"url": ["https://a.example.com/p"], "html": [html]})
    )
    assert out.num_rows == 1 and out.column("success").to_pylist() == [True]
    hrefs = [link["href"] for link in out.column("links_internal").to_pylist()[0]]
    assert hrefs == ["http://[::1", "https://a.example.com/ok"]
