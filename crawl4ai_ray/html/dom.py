"""Minimal DOM built on the stdlib ``html.parser.HTMLParser``.

The reference scrapes with lxml/BeautifulSoup (content_scraping_strategy.py);
neither is available in this environment, so the engine carries its own tiny,
dependency-free DOM: enough structure for cleaning, link/media/table
extraction and markdown generation, with deterministic serialization (the
byte-identity anchor for extracted text).
"""

from __future__ import annotations

from html import escape, unescape
from html.parser import HTMLParser

VOID_TAGS = frozenset(
    {
        "area", "base", "br", "col", "embed", "hr", "img", "input",
        "link", "meta", "param", "source", "track", "wbr",
    }
)

# Tags whose raw text content is preserved verbatim (no ws collapsing).
PRE_TAGS = frozenset({"pre", "textarea"})

# Block-level tags: close an open <p>, and delimit text blocks.
BLOCK_TAGS = frozenset(
    {
        "address", "article", "aside", "blockquote", "div", "dl", "dd", "dt",
        "fieldset", "figcaption", "figure", "footer", "form", "h1", "h2",
        "h3", "h4", "h5", "h6", "header", "hr", "li", "main", "nav", "ol",
        "p", "pre", "section", "table", "tbody", "td", "tfoot", "th",
        "thead", "tr", "ul",
    }
)

# Tags auto-closed when a sibling of the same kind opens (lenient HTML).
_AUTOCLOSE_SIBLING = {
    "li": {"li"},
    "p": BLOCK_TAGS,
    "td": {"td", "th", "tr"},
    "th": {"td", "th", "tr"},
    "tr": {"tr"},
    "option": {"option"},
    "dd": {"dd", "dt"},
    "dt": {"dd", "dt"},
}


class Element:
    __slots__ = ("tag", "attrs", "children", "parent")

    def __init__(self, tag: str, attrs: dict | None = None, parent: "Element | None" = None):
        self.tag = tag
        self.attrs = attrs or {}
        self.children: list = []  # Element | str (text node)
        self.parent = parent

    # -- queries ----------------------------------------------------------
    def get(self, key: str, default=None):
        return self.attrs.get(key, default)

    def iter(self):
        """Depth-first pre-order over elements (self included)."""
        stack = [self]
        pop = stack.pop
        push = stack.extend
        while stack:
            node = pop()
            yield node
            push([c for c in reversed(node.children) if type(c) is not str])

    def find_all(self, *tags: str):
        # hot path (scrape/fit/markdown all walk the tree): plain loop, no
        # generator machinery
        tagset = set(tags)
        out = []
        stack = [self]
        pop = stack.pop
        push = stack.extend
        while stack:
            node = pop()
            if node.tag in tagset:
                out.append(node)
            push([c for c in reversed(node.children) if type(c) is not str])
        return out

    def find(self, *tags: str):
        tagset = set(tags)
        stack = [self]
        pop = stack.pop
        push = stack.extend
        while stack:
            node = pop()
            if node.tag in tagset:
                return node
            push([c for c in reversed(node.children) if type(c) is not str])
        return None

    def find_parent(self, tag: str):
        p = self.parent
        while p is not None:
            if p.tag == tag:
                return p
            p = p.parent
        return None

    def classes(self) -> list[str]:
        return self.attrs.get("class", "").split()

    # -- text -------------------------------------------------------------
    def itertext(self):
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                yield node
            else:
                stack.extend(reversed(node.children))

    def text(self, *, strip: bool = True, collapse: bool = True) -> str:
        raw = "".join(self.itertext())
        if collapse:
            raw = " ".join(raw.split())
        return raw.strip() if strip else raw

    def word_count(self) -> int:
        return len(self.text().split())

    # -- mutation ---------------------------------------------------------
    def detach(self):
        if self.parent is not None:
            self.parent.children = [c for c in self.parent.children if c is not self]
            self.parent = None

    # -- serialization ----------------------------------------------------
    def serialize(self, keep_attrs=None) -> str:
        """Depth-first over a stack of (close tag, children iterator)
        pairs, so nesting depth is not bounded by the recursion limit. A
        void element's children are not written."""
        out: list[str] = []
        append = out.append
        stack = [("", iter((self,)))]
        while stack:
            close, children = stack[-1]
            for c in children:
                if type(c) is str:
                    append(escape(c, quote=False))
                    continue
                if c.tag == "[doc]":
                    stack.append(("", iter(c.children)))
                    break
                attrs = c.attrs
                if keep_attrs is not None:
                    attrs = {k: v for k, v in attrs.items() if k in keep_attrs}
                attr_s = "".join(
                    f' {k}="{escape(v, quote=True)}"' if v is not None else f" {k}"
                    for k, v in attrs.items()
                )
                append(f"<{c.tag}{attr_s}>")
                if c.tag not in VOID_TAGS:
                    stack.append((f"</{c.tag}>", iter(c.children)))
                    break
            else:
                stack.pop()
                append(close)
        return "".join(out)


class _DomBuilder(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.root = Element("[doc]")
        self.stack = [self.root]

    # lenient auto-closing of li/p/td/… siblings
    def _autoclose(self, tag: str):
        top = self.stack[-1]
        while len(self.stack) > 1:
            top = self.stack[-1]
            closers = _AUTOCLOSE_SIBLING.get(top.tag)
            if closers and tag in closers:
                self.stack.pop()
            else:
                break

    def handle_starttag(self, tag, attrs):
        tag = tag.lower()
        self._autoclose(tag)
        attr_dict = {}
        for k, v in attrs:
            if k not in attr_dict:  # first occurrence wins
                attr_dict[k.lower()] = v if v is not None else ""
        el = Element(tag, attr_dict, parent=self.stack[-1])
        self.stack[-1].children.append(el)
        if tag not in VOID_TAGS:
            self.stack.append(el)

    def handle_startendtag(self, tag, attrs):
        # HTML5 semantics (matching lxml/BS4, which the reference uses): the
        # trailing slash on a non-void tag is ignored — '<p/>' opens a <p>.
        # Exception: script/style stay childless, because HTMLParser's lexer
        # does not enter CDATA mode for a self-closing token and the fast
        # tokenizer mirrors that (documented divergence from browsers).
        tag = tag.lower()
        if tag in VOID_TAGS or tag in _CDATA_TAGS:
            self._autoclose(tag)
            attr_dict = {}
            for k, v in attrs:
                if k not in attr_dict:
                    attr_dict[k.lower()] = v if v is not None else ""
            el = Element(tag, attr_dict, parent=self.stack[-1])
            self.stack[-1].children.append(el)
            return
        self.handle_starttag(tag, attrs)

    def handle_endtag(self, tag):
        tag = tag.lower()
        if tag in VOID_TAGS:
            return
        # pop until matching open tag (lenient recovery)
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i].tag == tag:
                del self.stack[i:]
                return
        # unmatched end tag: ignore

    def handle_data(self, data):
        if data:
            self.stack[-1].children.append(data)


def _parse_html_slow(html: str) -> Element:
    builder = _DomBuilder()
    builder.feed(html)
    builder.close()
    return builder.root


# ---------------------------------------------------------------------------
# Fast path: single-regex tokenizer. Produces the IDENTICAL tree to the
# HTMLParser-based builder for common HTML; any leftover tag-like text it
# can't consume (`<x`/`</x` outside CDATA) triggers a full fallback to the
# slow parser, so the two can never disagree on tag structure. Differential-
# tested (tests/test_fast_parser.py) over the corpus + hypothesis inputs.
# ---------------------------------------------------------------------------

import re as _re

_TOKEN_RE = _re.compile(
    r"<!--.*?-->"                       # comments
    r"|<!\[CDATA\[.*?\]\]>"             # cdata blocks
    r"|<![^>]*>"                        # doctype / other declarations
    r"|<\?[^>]*>"                       # processing instructions
    r"|</([a-zA-Z][-\w:.]*)\s*>"        # end tag      (group 1)
    r"|<([a-zA-Z][-\w:.]*)"             # start tag    (group 2)
    r"((?:\s+[^\s/>=]+(?:\s*=+\s*(?:\"[^\"]*\"|'[^']*'|(?![\"'])[^\s>]*))?)*)"  # attrs (3)
    r"\s*(/?)>",                        # self-closing (group 4)
    _re.S,
)
_ATTR_RE = _re.compile(
    # '=+' separator and unquoted-value-not-starting-with-quote mirror
    # HTMLParser's attrfind_tolerant (';==' parses as attr ';' = '')
    r"([^\s/>=]+)(?:\s*=+\s*(?:\"([^\"]*)\"|'([^']*)'|((?![\"'])[^\s>]*)))?"
)
# any unconsumed '</', '<letter', '<!' or '<?' residue → full fallback
# (HTMLParser has bespoke recovery for these, e.g. it swallows '</>')
_TAGISH_RE = _re.compile(r"</|<[a-zA-Z!?]")
_CDATA_TAGS = ("script", "style")


def _parse_html_fast(html: str) -> Element | None:
    root = Element("[doc]")
    stack = [root]
    pos = 0
    n = len(html)
    out_append_text = []

    def autoclose(tag: str):
        while len(stack) > 1:
            closers = _AUTOCLOSE_SIBLING.get(stack[-1].tag)
            if closers and tag in closers:
                stack.pop()
            else:
                break

    while pos < n:
        m = _TOKEN_RE.search(html, pos)
        text = html[pos : m.start()] if m else html[pos:]
        if text:
            if _TAGISH_RE.search(text):
                return None  # tag-like residue the fast path can't place
            if "&" in text:
                text = unescape(text)
            stack[-1].children.append(text)
        if not m:
            break
        pos = m.end()
        if m.group(1):  # end tag
            tag = m.group(1).lower()
            if tag in VOID_TAGS:
                continue
            for i in range(len(stack) - 1, 0, -1):
                if stack[i].tag == tag:
                    del stack[i:]
                    break
        elif m.group(2):  # start tag
            tag = m.group(2).lower()
            autoclose(tag)
            attrs = {}
            raw_attrs = m.group(3)
            if raw_attrs:
                for am in _ATTR_RE.finditer(raw_attrs):
                    k = am.group(1).lower()
                    if k in attrs:
                        continue
                    v = am.group(2)
                    if v is None:
                        v = am.group(3)
                    if v is None:
                        v = am.group(4)
                    if v is None:
                        v = ""
                    elif "&" in v:
                        v = unescape(v)
                    attrs[k] = v
            el = Element(tag, attrs, parent=stack[-1])
            stack[-1].children.append(el)
            self_closing = bool(m.group(4))
            if tag in VOID_TAGS:
                continue
            # HTML5: a trailing slash on a non-void tag is ignored ('<p/>'
            # opens a <p>), matching lxml/BS4 and _DomBuilder. script/style
            # with a self-closing token stay childless (no CDATA scan),
            # mirroring HTMLParser's lexer which only enters CDATA mode on a
            # plain start tag.
            if self_closing and tag in _CDATA_TAGS:
                continue
            if tag in _CDATA_TAGS:
                # raw text until the matching close tag (HTMLParser CDATA
                # mode: content NOT unescaped)
                close = _re.compile(rf"</{tag}\s*>", _re.I)
                cm = close.search(html, pos)
                if cm is None:
                    # HTMLParser drops unterminated CDATA content at EOF
                    pos = n
                    continue
                content = html[pos : cm.start()]
                if content:
                    el.children.append(content)
                pos = cm.end()
                continue
            stack.append(el)
    return root


def parse_html(html: str) -> Element:
    fast = _parse_html_fast(html)
    if fast is not None:
        return fast
    return _parse_html_slow(html)


def decode_html(raw) -> str:
    """bytes → str with charset fallback (the reference charset-detects at
    async_crawler_strategy.py:2387-2389; offline corpus is utf-8-first)."""
    if isinstance(raw, str):
        return raw
    if raw is None:
        return ""
    for enc in ("utf-8", "latin-1"):
        try:
            return raw.decode(enc)
        except UnicodeDecodeError:
            continue
    return raw.decode("utf-8", errors="replace")


__all__ = [
    "Element",
    "parse_html",
    "decode_html",
    "unescape",
    "VOID_TAGS",
    "PRE_TAGS",
    "BLOCK_TAGS",
]
