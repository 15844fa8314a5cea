"""URL canonicalization / classification functions.

Clean-room reimplementations of the reference's URL semantics
(``/root/reference/crawl4ai/utils.py:2122-2402``,
``deep_crawling/bfs_strategy.py:46-66``); behaviour matched by spec, not by
code copy. Scalar functions + vectorized batch wrappers for use inside
``Dataset.map_batches``.
"""

from __future__ import annotations

import re
from urllib.parse import (
    parse_qs,
    parse_qsl,
    quote,
    unquote,
    urlencode,
    urljoin,
    urlparse,
    urlunparse,
)

import numpy as np
import pyarrow as pa

# Tracking params dropped by the full normalizer (utils.py:2177-2181).
_TRACKING_PARAMS = {
    "utm_source", "utm_medium", "utm_campaign", "utm_term",
    "utm_content", "gclid", "fbclid", "ref", "ref_src",
}
# The (smaller) set dropped by the dedup-key normalizer (utils.py:2230).
_DEEP_TRACKING_PARAMS = ("utm_source", "utm_medium", "utm_campaign", "ref", "fbclid")

# Multi-part TLD second-level labels recognised by get_base_domain
# (utils.py:2347-2362).
_SPECIAL_SLDS = {
    "co", "com", "org", "gov", "edu", "net", "mil", "int",
    "ac", "ad", "ae", "af", "ag",
}

_WWW_RE = re.compile(r"^www\.")

# Fast path: URLs already in canonical form (lowercase scheme+host, safe
# path chars that quote(unquote()) leaves untouched, no query/fragment, no
# trailing slash) skip the urlparse round-trip entirely. The character class
# is deliberately conservative: unreserved chars + '/' only.
_CANONICAL_RE = re.compile(
    r"^https?://[a-z0-9.-]+(?::\d+)?"
    r"(?:/(?:[A-Za-z0-9_.~/-]*[A-Za-z0-9_.~-])?)?\Z"
)


def resolve_url(href: str, base_url: str) -> str:
    """Plain reference-resolution (the reference's FIRST normalize_url
    definition, utils.py:2100-2117 — shadowed there by the extended
    normalizer below, but it's what tests/test_normalize_url.py asserts):
    validate base scheme/netloc, strip href, urljoin. Fragments kept."""
    parsed_base = urlparse(base_url)
    if not parsed_base.scheme or not parsed_base.netloc:
        raise ValueError(f"Invalid base URL format: {base_url}")
    if parsed_base.scheme.lower() not in ("http", "https"):
        raise ValueError(f"Invalid base URL format: {base_url}")
    return urljoin(base_url, href.strip())


def normalize_url(
    href: str,
    base_url: str,
    *,
    drop_query_tracking: bool = True,
    sort_query: bool = True,
    keep_fragment: bool = False,
    extra_drop_params=None,
) -> str | None:
    """Canonical URL form (reference utils.py:2122-2205).

    urljoin → lowercase netloc → quote(unquote(path)) → strip trailing '/'
    (except root) → lowercase+filter+sort query params → drop fragment.
    """
    if not href:
        return None
    if (
        drop_query_tracking
        and sort_query
        and not keep_fragment
        and not extra_drop_params
        and _CANONICAL_RE.match(href)
    ):
        return href  # already canonical; identical to the slow path's output
    try:
        parsed = urlparse(urljoin(base_url, href.strip()))
    except ValueError:  # unparseable, e.g. an unclosed IPv6 bracket
        return None

    netloc = parsed.netloc.lower()

    path = quote(unquote(parsed.path))
    if path.endswith("/") and path != "/":
        path = path.rstrip("/")

    query = parsed.query
    if query:
        params = [(k.lower(), v) for k, v in parse_qsl(query, keep_blank_values=True)]
        if drop_query_tracking:
            drop = _TRACKING_PARAMS
            if extra_drop_params:
                drop = drop | {p.lower() for p in extra_drop_params}
            params = [(k, v) for k, v in params if k not in drop]
        if sort_query:
            params.sort(key=lambda kv: kv[0])
        query = urlencode(params, doseq=True) if params else ""

    fragment = parsed.fragment if keep_fragment else ""
    return urlunparse((parsed.scheme, netloc, path, parsed.params, query, fragment))


def normalize_url_for_deep_crawl(href: str, base_url: str) -> str | None:
    """The URL-seen dedup key (reference utils.py:2208-2253).

    Note the reference uses ``parse_qs`` here (first-occurrence key order,
    blank values dropped, duplicate keys merged) and rstrips ALL trailing
    slashes from the path — we mirror that exactly since the seen-set parity
    depends on it.
    """
    if not href:
        return None
    if _CANONICAL_RE.match(href) and not href.endswith("/"):
        return href  # canonical, no trailing slash → rstrip is a no-op
    try:
        parsed = urlparse(urljoin(base_url, href.strip()))
    except ValueError:  # unparseable, e.g. an unclosed IPv6 bracket
        return None
    netloc = parsed.netloc.lower()
    query = parsed.query
    if query:
        params = parse_qs(query)
        for p in _DEEP_TRACKING_PARAMS:
            params.pop(p, None)
        query = urlencode(params, doseq=True) if params else ""
    return urlunparse(
        (parsed.scheme, netloc, parsed.path.rstrip("/"), parsed.params, query, "")
    )


def get_base_domain(url: str) -> str:
    """Registrable domain with co.uk-style heuristic (utils.py:2320-2368)."""
    try:
        domain = urlparse(url).netloc.lower()
        if not domain:
            return ""
        domain = domain.split(":")[0]
        domain = _WWW_RE.sub("", domain)
        parts = domain.split(".")
        if len(parts) > 2 and parts[-2] in _SPECIAL_SLDS:
            return ".".join(parts[-3:])
        return ".".join(parts[-2:])
    except Exception:
        return ""


_SPECIAL_SCHEMES = ("mailto:", "tel:", "ftp:", "file:", "data:", "javascript:")


def is_external_url(url: str, base_domain: str) -> bool:
    """Internal/external link split (utils.py:2371-2402)."""
    low = url.lower()
    if low.startswith(_SPECIAL_SCHEMES):
        return True
    try:
        parsed = urlparse(url)
        if not parsed.netloc:
            return False
        url_domain = parsed.netloc.lower().replace("www.", "")
        base = base_domain.lower().replace("www.", "")
        return not url_domain.endswith(base)
    except Exception:
        return False


def is_valid_crawl_url(url: str) -> bool:
    """Deep-crawl URL validity gate (bfs_strategy.py:46-66):
    scheme in {http, https} and netloc contains a dot."""
    try:
        parsed = urlparse(url)
        return parsed.scheme in ("http", "https") and "." in parsed.netloc
    except Exception:
        return False


def host_of(url: str) -> str:
    """netloc, lowercased, port stripped — the politeness partition key."""
    try:
        netloc = urlparse(url).netloc.lower()
        return netloc.split(":")[0]
    except Exception:
        return ""


def path_depth(url: str) -> int:
    """Number of non-empty path segments (scorers.py:197-228)."""
    pos = url.find("/", url.find("://") + 3)
    if pos == -1:
        return 0
    path = url[pos:]
    if not path or path == "/":
        return 0
    return sum(1 for seg in path.split("/") if seg)


def extract_extension(url: str) -> str:
    """File extension after last '.', stopping at ?#; (scorers.py:272-302)."""
    pos = url.rfind(".")
    if pos == -1:
        return ""
    end = len(url)
    for i in range(pos + 1, len(url)):
        c = url[i]
        if c in "?#;" or not c.isalnum():
            end = i
            break
    return url[pos + 1 : end].lower()


_UTILITY_FILES = (
    "ads.txt", "humans.txt", "security.txt", ".well-known/security.txt",
    "crossdomain.xml", "browserconfig.xml", "manifest.json",
    "apple-app-site-association", ".well-known/apple-app-site-association",
    "favicon.ico", "apple-touch-icon.png", "android-chrome-192x192.png",
)

_NON_CONTENT_PATHS = (
    "/wp-admin", "/wp-includes", "/wp-content/uploads",
    "/admin", "/login", "/signin", "/signup", "/register",
    "/checkout", "/cart", "/account", "/profile",
    "/search", "/404", "/error",
    "/.git", "/.svn", "/.hg",
    "/cgi-bin", "/scripts", "/includes",
)

_PRINT_PATTERNS = ("?print=", "&print=", "/print/", "_print.")

_SHORT_PATH_WHITELIST = ("/", "/en", "/de", "/fr", "/es", "/it")


def is_nonsense_url(url: str) -> bool:
    """Utility/nonsense URL gate — the seeder's pre-crawl filter
    (async_url_seeder.py:1284-1380, the ACTIVE rules only; the
    reference ships rules 4-8 commented out and we mirror that).
    True means the URL should not be crawled."""
    url_lower = url.lower()
    try:
        path = urlparse(url).path.lower()
    except Exception:
        return False
    # 1. robots / sitemap roots
    if path.endswith(("/robots.txt", "/sitemap.xml", "/sitemap_index.xml")):
        return True
    # 2. sitemap variations
    if "/sitemap" in path and path.endswith((".xml", ".xml.gz", ".txt")):
        return True
    # 3. common utility files
    if any(path.endswith(f"/{f}") for f in _UTILITY_FILES):
        return True
    # 9. hidden files / directories (any path part starting with '.')
    if any(part.startswith(".") for part in path.split("/") if part):
        return True
    # 10. common non-content paths (substring match, as in the reference)
    if any(ncp in path for ncp in _NON_CONTENT_PATHS):
        return True
    # 11. print views
    if any(p in url_lower for p in _PRINT_PATTERNS):
        return True
    # 12. very short paths (likely redirects/errors), language roots exempt
    if len(path.strip("/")) < 3 and path not in _SHORT_PATH_WHITELIST:
        return True
    return False


# --- spider-trap heuristics -------------------------------------------------
# Classic crawler-trap rules (Heritrix PathologicalPathDecideRule /
# TooManyPathSegmentsDecideRule lineage; no reference analogue — crawl4ai
# crawls page-at-a-time and never meets traps, but a 10^10-URL frontier
# does). Every rule is a pure function of the URL string so the SQL oracle
# reproduces it generically (RE2 has no backreferences, so the repeated-
# segment rule is expressed over the split segment list on both sides).

_TRAP_SESSION_RE = re.compile(r"(^|&)(sessionid|phpsessid|jsessionid|sid|sess)=")
_TRAP_4DIGIT_RE = re.compile(r"^\d{4}$")
TRAP_MAX_DEPTH = 8  # path segments
TRAP_MAX_LEN = 200  # whole-url chars
TRAP_MAX_PARAMS = 5  # query params (>= flags)
TRAP_YEAR_MIN, TRAP_YEAR_MAX = 1990, 2025

_TRAP_RULES = (
    "repeated_segment",
    "too_deep",
    "session_id",
    "many_params",
    "too_long",
    "bad_year",
)


def trap_flags(url: str) -> dict[str, bool]:
    """Per-rule spider-trap flags + their disjunction ``is_trap``.

    Rules: (1) a path segment repeated >=3 times consecutively
    (/x/x/x — mirror galleries, cyclic links); (2) path deeper than
    TRAP_MAX_DEPTH segments; (3) a session-id query param (each visitor
    mints a fresh URL universe); (4) >= TRAP_MAX_PARAMS query params
    (faceted-search explosion); (5) URL longer than TRAP_MAX_LEN chars;
    (6) a 4-digit path segment outside [TRAP_YEAR_MIN, TRAP_YEAR_MAX]
    (infinite-calendar pages). Unparseable URLs are not flagged (the
    validity gate drops them upstream)."""
    out = {r: False for r in _TRAP_RULES}
    try:
        parsed = urlparse(url)
        path, query = parsed.path, parsed.query
    except Exception:
        out["is_trap"] = False
        return out
    segs = [s for s in path.split("/") if s]
    out["repeated_segment"] = any(
        segs[i] == segs[i + 1] == segs[i + 2] for i in range(len(segs) - 2)
    )
    out["too_deep"] = len(segs) > TRAP_MAX_DEPTH
    out["session_id"] = bool(_TRAP_SESSION_RE.search(query.lower()))
    out["many_params"] = (
        len([p for p in query.split("&") if p]) >= TRAP_MAX_PARAMS if query else False
    )
    out["too_long"] = len(url) > TRAP_MAX_LEN
    out["bad_year"] = any(
        _TRAP_4DIGIT_RE.match(s) and not (TRAP_YEAR_MIN <= int(s) <= TRAP_YEAR_MAX)
        for s in segs
    )
    out["is_trap"] = any(out[r] for r in _TRAP_RULES)
    return out


def is_trap_url(url: str) -> bool:
    return trap_flags(url)["is_trap"]


def trap_mask(urls: list[str]) -> np.ndarray:
    """Vectorized keep-mask (True = NOT a trap) for frontier admission."""
    return np.fromiter(
        (not trap_flags(u)["is_trap"] for u in urls), dtype=bool, count=len(urls)
    )


_YEAR_RE = re.compile(
    r"(?:/|[-_])((?:19|20)\d{2})(?:(?:/|[-_])(?:\d{2})(?:(?:/|[-_])(?:\d{2}))?)?"
)


def extract_year(url: str, current_year: int = 2024) -> int | None:
    """Most recent plausible year in a URL path (scorers.py:350-387)."""
    latest = None
    for m in _YEAR_RE.finditer(url):
        year = int(m.group(1))
        if year <= current_year and (latest is None or year > latest):
            latest = year
    return latest


# ---------------------------------------------------------------------------
# Vectorized batch wrappers (operate on python lists / pyarrow arrays).
# URL parsing is stdlib-bound, so these are tight list comprehensions over a
# batch — invoked from map_batches, never per-row from the driver.
# ---------------------------------------------------------------------------

def normalize_batch(hrefs, base_urls) -> list[str | None]:
    return [normalize_url(h, b) for h, b in zip(hrefs, base_urls)]


def seen_key_batch(hrefs, base_urls) -> list[str | None]:
    return [normalize_url_for_deep_crawl(h, b) for h, b in zip(hrefs, base_urls)]


def host_batch(urls) -> list[str]:
    return [host_of(u) for u in urls]


def valid_mask(urls) -> np.ndarray:
    return np.fromiter((is_valid_crawl_url(u) for u in urls), dtype=bool, count=len(urls))


def hosts_array(urls: pa.Array | list) -> pa.Array:
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    py = urls.to_pylist() if isinstance(urls, pa.Array) else list(urls)
    return pa.array(host_batch(py), type=pa.string())
