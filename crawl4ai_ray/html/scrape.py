"""Page scraping: HTML → cleaned_html + links + media + tables + metadata.

Clean-room re-expression of the reference's scraping contract
(content_scraping_strategy.py:101-1864 — both the BS4 and LXML variants
implement the same semantics): remove non-content tags, apply word-count
thresholds, whitelist IMPORTANT_ATTRS, split links internal/external with
first-wins dedup, score images (threshold 2), detect data tables
(threshold 7), and extract head metadata. Runs on our stdlib DOM; one parse
per page, the cleaned tree is reused by the markdown generator.
"""

from __future__ import annotations

from ..config import IMPORTANT_ATTRS, REMOVE_TAGS, ScrapeConfig
from ..functions.urls import get_base_domain, is_external_url, normalize_url
from .dom import BLOCK_TAGS, Element, decode_html, parse_html
from .fit import fit_html_from_root


def page_text(el: Element) -> str:
    """Visible text with newlines at block boundaries, inline whitespace
    collapsed — the engine's 'extracted text per url' invariant column."""
    lines: list[str] = []
    buf: list[str] = []

    def flush():
        t = " ".join("".join(buf).split())
        buf.clear()
        if t:
            lines.append(t)

    # depth-first over a stack of (children iterator, is block) pairs: a
    # block element flushes before and after its content; the root counts
    # as a block, so trailing inline text is flushed when the walk ends
    stack = [(iter(el.children), True)]
    while stack:
        children, block = stack[-1]
        for c in children:
            if type(c) is str:
                buf.append(c)
                continue
            is_block = c.tag in BLOCK_TAGS
            if is_block:
                flush()
            stack.append((iter(c.children), is_block))
            break
        else:
            stack.pop()
            if block:
                flush()
    return "\n".join(lines)

_IMG_CLASSES_TO_SKIP = ("button", "icon", "logo")
_IMG_PARENT_TAGS_TO_SKIP = ("button", "input")
_IMAGE_FORMATS = ("jpg", "jpeg", "png", "webp", "avif", "gif")

_META_PREFIXES = ("og:", "twitter:", "article:")
_META_NAMES = ("title", "description", "keywords", "author")


def extract_metadata(root: Element) -> dict[str, str]:
    """head → {title, description, keywords, author, og:*, twitter:*,
    article:*} (utils.py:1497-1642 semantics)."""
    meta: dict[str, str] = {}
    head = root.find("head") or root
    title = head.find("title")
    meta["title"] = title.text() if title is not None else ""
    for m in head.find_all("meta"):
        name = (m.get("name") or "").lower()
        prop = (m.get("property") or "").lower()
        content = m.get("content") or ""
        if name in _META_NAMES[1:]:
            # reference strips these values (utils.py:1525,1529,1533 —
            # r4 parity fix; title was already stripped via text())
            meta[name] = content.strip()
        elif prop.startswith(_META_PREFIXES) or name.startswith(_META_PREFIXES):
            # og:/twitter: values are stripped too (utils.py:1539-1540)
            meta[prop or name] = content.strip()
    return meta


def _closest_parent_text(el: Element, min_words: int) -> str:
    """Image desc = nearest ancestor with enough words
    (find_closest_parent_with_useful_text, content_scraping_strategy.py)."""
    p = el.parent
    while p is not None:
        t = p.text()
        if len(t.split()) >= max(min_words, 1) and t:
            return t
        p = p.parent
    return ""


def parse_srcset(value: str) -> list[dict]:
    """'u1 640w, u2 1024w' → [{url, width}] (content_scraping_strategy.py:42-59)."""
    out = []
    for part in value.split(","):
        part = part.strip()
        if not part:
            continue
        bits = part.split()
        url = bits[0]
        width = None
        if len(bits) > 1 and bits[-1].endswith("w"):
            w = bits[-1].rstrip("w")
            if w.isdigit():
                width = w
        out.append({"url": url, "width": width})
    return out


def process_image(
    img: Element, index: int, total_images: int, cfg: ScrapeConfig
) -> list[dict] | None:
    """Score + variant-expand one <img> (content_scraping_strategy.py:420-566)."""
    style = img.get("style", "") or ""
    alt = img.get("alt", "") or ""
    src = img.get("src", "") or ""
    data_src = img.get("data-src", "") or ""
    srcset = img.get("srcset", "") or ""
    data_srcset = img.get("data-srcset", "") or ""
    width = img.get("width")
    height = img.get("height")
    parent = img.parent

    parent_classes = parent.classes() if parent is not None else []
    if (
        "display:none" in style.replace(" ", "")
        or (parent is not None and parent.tag in _IMG_PARENT_TAGS_TO_SKIP)
        or any(c in cls for c in _IMG_CLASSES_TO_SKIP for cls in parent_classes)
        or any(c in src for c in _IMG_CLASSES_TO_SKIP)
        or any(c in alt for c in _IMG_CLASSES_TO_SKIP)
    ):
        return None

    score = 0
    if width and width.isdigit() and int(width) > 150:
        score += 1
    if height and height.isdigit() and int(height) > 150:
        score += 1
    if alt:
        score += 1
    if total_images and index / total_images < 0.5:
        score += 1
    sources = [src, data_src, srcset, data_srcset]
    if any(any(f in s.lower() for f in _IMAGE_FORMATS) for s in sources if s):
        score += 1
    if srcset or data_srcset:
        score += 1
    if img.find_parent("picture") is not None:
        score += 1

    detected_format = None
    for s in sources:
        if s:
            for f in _IMAGE_FORMATS:
                if f in s.lower():
                    detected_format = f
                    break
        if detected_format:
            break

    if score <= cfg.image_score_threshold:
        return None

    base = {
        "alt": alt,
        "desc": _closest_parent_text(img, cfg.image_description_min_words),
        "score": score,
        "group_id": index,
        "format": detected_format,
    }
    seen: set[str] = set()
    variants: list[dict] = []

    def add(u: str | None, w: str | None = None):
        if u and not u.startswith("data:") and u not in seen:
            seen.add(u)
            variants.append({**base, "src": u, "width": w})

    add(src)
    add(data_src)
    for value in (srcset, data_srcset):
        if value:
            for s in parse_srcset(value):
                add(s["url"], s["width"])
    picture = img.find_parent("picture")
    if picture is not None:
        for source in picture.find_all("source"):
            ss = source.get("srcset")
            if ss:
                for s in parse_srcset(ss):
                    add(s["url"], s["width"])
    for attr, value in img.attrs.items():
        if attr.startswith("data-") and ("src" in attr or "srcset" in attr) and value and "http" in value:
            add(value)
    return variants or None


def is_data_table(table: Element, threshold: int) -> bool:
    """Layout-vs-data scoring (content_scraping_strategy.py:201-272)."""
    score = 0.0
    has_thead = table.find("thead") is not None
    has_tbody = table.find("tbody") is not None
    if has_thead:
        score += 2
    if has_tbody:
        score += 1
    ths = table.find_all("th")
    rows = table.find_all("tr")
    if ths:
        score += 2
        first_row_th = rows and any(
            isinstance(c, Element) and c.tag == "th" for c in rows[0].children
        )
        if has_thead or first_row_th:
            score += 1
    # nested tables
    if any(e is not table and e.tag == "table" for e in table.iter()):
        score -= 3
    role = (table.get("role") or "").lower()
    if role in ("presentation", "none"):
        score -= 3
    if not rows:
        return False
    col_counts = [
        sum(1 for c in r.iter() if c.tag in ("td", "th") and c is not r) for r in rows
    ]
    avg_cols = sum(col_counts) / len(col_counts)
    variance = sum((c - avg_cols) ** 2 for c in col_counts) / len(col_counts)
    if variance < 1:
        score += 2
    if table.find("caption") is not None:
        score += 2
    if table.get("summary"):
        score += 1
    cells = [c for r in rows for c in r.iter() if c.tag in ("td", "th") and c is not r]
    total_text = sum(len(c.text()) for c in cells)
    total_tags = sum(1 for _ in table.iter()) - 1
    text_ratio = total_text / (total_tags + 1e-5)
    if text_ratio > 20:
        score += 3
    elif text_ratio > 10:
        score += 2
    score += sum(1 for a in table.attrs if a.startswith("data-")) * 0.5
    if avg_cols >= 2 and len(rows) >= 2:
        score += 2
    return score >= threshold


def extract_table_data(table: Element) -> dict:
    """headers/rows/caption/summary with colspan expansion
    (content_scraping_strategy.py:275-346)."""
    caption_el = table.find("caption")
    caption = caption_el.text() if caption_el is not None else ""
    summary = (table.get("summary") or "").strip()
    rows = table.find_all("tr")
    headers: list[str] = []
    body_rows: list[list[str]] = []
    for r in rows:
        cells = [c for c in r.children if isinstance(c, Element) and c.tag in ("td", "th")]
        if not cells:
            continue
        values: list[str] = []
        for c in cells:
            span = c.get("colspan")
            n = int(span) if span and span.isdigit() else 1
            txt = c.text()
            values.append(txt)
            values.extend([""] * (n - 1))
        if not headers and all(c.tag == "th" for c in cells):
            headers = values
        else:
            body_rows.append(values)
    return {"headers": headers, "rows": body_rows, "caption": caption, "summary": summary}


def _should_drop(el: Element, cfg: ScrapeConfig) -> bool:
    if el.tag in REMOVE_TAGS or el.tag in cfg.excluded_tags:
        return True
    if cfg.excluded_classes:
        cls = el.classes()
        if any(c in cfg.excluded_classes for c in cls):
            return True
    return False


def _clean_tree(root: Element, cfg: ScrapeConfig) -> bool:
    """Clean in place, children before parents. Returns True if ``root``
    should be kept.

    Keep rule (content_scraping_strategy.py:824-833 semantics): an element
    survives if it contains an <a>/<img>/kept table, or its visible word
    count meets ``word_count_threshold``; attrs reduced to IMPORTANT_ATTRS
    (+ data-* when keep_data_attributes). The walk keeps a stack of (element,
    children iterator, kept children) frames instead of recursing, so
    nesting depth is not bounded by the recursion limit.
    """
    if _should_drop(root, cfg):
        return False
    top: list = []  # receives root if it is kept
    stack = [(root, iter(root.children), [])]
    while stack:
        el, children, kept = stack[-1]
        for c in children:
            if type(c) is str:
                kept.append(c)
            elif not _should_drop(c, cfg):
                stack.append((c, iter(c.children), []))
                break
        else:
            stack.pop()
            el.children = kept
            # attr whitelist
            el.attrs = {
                k: v
                for k, v in el.attrs.items()
                if k in IMPORTANT_ATTRS
                or k in cfg.keep_attrs
                or (cfg.keep_data_attributes and k.startswith("data-"))
            }
            if (
                el.tag in ("a", "img", "br", "hr", "[doc]")
                # kept children already passed the rule
                or any(type(c) is not str for c in kept)
                or el.word_count() >= cfg.word_count_threshold
            ):
                (stack[-1][2] if stack else top).append(el)
    return bool(top)


def scrape_page(url: str, html, cfg: ScrapeConfig | None = None) -> dict:
    """Full scrape of one page. Returns a plain dict (columnar-friendly):

    cleaned_html, cleaned_root (DOM for the markdown stage), metadata,
    links_internal, links_external, images, tables, text, success.
    """
    cfg = cfg or ScrapeConfig()
    html_str = decode_html(html)
    try:
        root = parse_html(html_str)
    except Exception:
        return {
            "success": False, "cleaned_html": "", "cleaned_root": None,
            "metadata": {}, "links_internal": [], "links_external": [],
            "images": [], "videos": [], "audios": [], "tables": [],
            "text": "", "fit_html": "",
        }

    metadata = extract_metadata(root)
    base_domain = get_base_domain(url)

    body = root.find("body") or root

    # early removal of all images (content_scraping_strategy.py:878-882):
    # before links/media/cleaning so no <img> reaches any output
    if cfg.exclude_all_images:
        for img in body.find_all("img"):
            img.detach()
    # forms go before the link pass: the reference decomposes <form> during
    # the same traversal that collects links, so links inside forms never
    # surface (content_scraping_strategy.py:760-762)
    if cfg.remove_forms:
        for form in body.find_all("form"):
            form.detach()

    # --- scoping knobs (CrawlerRunConfig parity, async_configs.py:850-905)
    if cfg.excluded_selector:
        from .selectors import select

        for el in select(body, cfg.excluded_selector):
            el.detach()
    if cfg.css_selector:
        # scope the ENTIRE scrape (links/media/content) to matching subtrees
        from .dom import Element
        from .selectors import select

        matches = select(body, cfg.css_selector)
        scoped = Element("[doc]")
        scoped.children = list(matches)
        body = scoped
    if cfg.process_iframes:
        # inline <iframe srcdoc> content (offline analogue of the
        # reference's iframe fetch + inline, utils.py format_html)
        for fr in body.find_all("iframe"):
            srcdoc = fr.get("srcdoc")
            if srcdoc:
                from .dom import Element

                inner = parse_html(srcdoc)
                div = Element("div", {"class": "iframe-content"}, parent=fr.parent)
                div.children = list(inner.children)
                if fr.parent is not None:
                    fr.parent.children = [
                        div if c is fr else c for c in fr.parent.children
                    ]

    page_context = None
    if cfg.score_links:
        from ..functions.link_scoring import extract_page_context

        headlines = " ".join(
            h.text() for h in body.find_all("h1", "h2", "h3")
        )
        page_context = extract_page_context(
            metadata.get("title", ""), headlines, metadata.get("description", ""), url
        )

    # --- links (before cleaning, on the full tree: reference does the same
    # link pass over the parsed doc) — first-wins dedup per page keyed by
    # the normalized href (content_scraping_strategy.py:683-691).
    links_internal: list[dict] = []
    links_external: list[dict] = []
    seen_hrefs: set[str] = set()
    # effective excluded-domain set (content_scraping_strategy.py:1677-1683):
    # exclude_domains ∪ (SOCIAL_MEDIA_DOMAINS ∪ exclude_social_media_domains
    # when exclude_social_media_links)
    excl_domains = set(cfg.exclude_domains)
    if cfg.exclude_social_media_links:
        from ..config import SOCIAL_MEDIA_DOMAINS

        excl_domains |= set(SOCIAL_MEDIA_DOMAINS) | set(
            cfg.exclude_social_media_domains
        )
    for a in body.find_all("a"):
        href = a.get("href")
        if not href:
            continue
        low = href.lower()
        if low.startswith(("javascript:", "data:")):
            continue
        if low.startswith(("mailto:", "tel:", "ftp:", "file:")):
            resolved = href
        else:
            # an href that does not parse stays a link, as written, so the
            # crawl counts it as a skipped link; having no host, it is internal
            resolved = normalize_url(href, url) or href.strip()
        if not resolved or resolved in seen_hrefs:
            continue
        seen_hrefs.add(resolved)
        rec = {
            "href": resolved,
            "text": a.text(),
            "title": a.get("title", "") or "",
            "base_domain": base_domain,
        }
        if page_context is not None:
            from ..functions.link_scoring import (
                calculate_link_intrinsic_score,
                calculate_total_score,
            )

            rec["intrinsic_score"] = calculate_link_intrinsic_score(
                rec["text"], resolved, rec["title"],
                a.get("class", "") or "", a.get("rel", "") or "", page_context,
            )
            rec["total_score"] = calculate_total_score(rec["intrinsic_score"], None)
        if is_external_url(resolved, base_domain):
            # external links carry their own base domain
            # (content_scraping_strategy.py:1154-1156)
            link_base_domain = get_base_domain(resolved)
            rec["base_domain"] = link_base_domain
            if cfg.exclude_external_links or link_base_domain in excl_domains:
                # the reference removes the node, so the link disappears
                # from cleaned_html/markdown too (ibid:1158-1162)
                a.detach()
                continue
            links_external.append(rec)
        elif not cfg.exclude_internal_links:
            links_internal.append(rec)

    # --- images
    images: list[dict] = []
    imgs = body.find_all("img")
    for i, img in enumerate(imgs):
        # excluded-domain images are removed like links
        # (content_scraping_strategy.py:1180-1192)
        if excl_domains and get_base_domain(img.get("src") or "") in excl_domains:
            img.detach()
            continue
        variants = process_image(img, i, len(imgs), cfg)
        if variants:
            if cfg.exclude_external_images:
                variants = [
                    v for v in variants if not is_external_url(v["src"], base_domain)
                ]
            images.extend(variants)

    # --- tables ('table' in excluded_tags suppresses extraction too —
    # content_scraping_strategy.py:1707-1711, r4 parity fix)
    tables = (
        []
        if "table" in cfg.excluded_tags
        else [
            extract_table_data(t)
            for t in body.find_all("table")
            if is_data_table(t, cfg.table_score_threshold)
        ]
    )

    # --- video/audio with nested <source> (content_scraping_strategy.py:764-787)
    videos, audios = [], []
    for tag, sink in (("video", videos), ("audio", audios)):
        for el in body.find_all(tag):
            srcs = []
            if el.get("src"):
                srcs.append({"src": el.get("src"), "type": el.get("type", "") or ""})
            for s in el.find_all("source"):
                if s.get("src"):
                    srcs.append({"src": s.get("src"), "type": s.get("type", "") or ""})
            sink.extend(srcs)

    # --- fit_html from the raw tree (reference computes it from raw html,
    # async_webcrawler.py:513), non-mutating, before cleaning
    fit_html = fit_html_from_root(root, cfg.fit_text_threshold, cfg.fit_max_size)

    # --- content scoping: target_elements narrows cleaned_html/text (and
    # thus markdown) to matching subtrees while links/media above already
    # came from the full page (async_configs.py target_elements semantics)
    content_body = body
    if cfg.target_elements:
        from .dom import Element
        from .selectors import select

        matches: list = []
        for sel in cfg.target_elements:
            for el in select(body, sel):
                if el not in matches:
                    matches.append(el)
        content_body = Element("[doc]")
        content_body.children = matches

    # --- cleaning (mutates the tree; links/images already captured)
    _clean_tree(content_body, cfg)
    text = page_text(content_body)
    if cfg.only_text:
        # text-only mode (CrawlerRunConfig.only_text): no markup survives
        cleaned_html = text
    else:
        cleaned_html = "".join(
            c if isinstance(c, str) else c.serialize()
            for c in content_body.children
        ).strip()
    body = content_body

    return {
        "success": True,
        "cleaned_html": cleaned_html,
        "cleaned_root": body,
        "metadata": metadata,
        "links_internal": links_internal,
        "links_external": links_external,
        "images": images,
        "videos": videos,
        "audios": audios,
        "tables": tables,
        "text": text,
        "fit_html": fit_html,
    }
