"""fit_html: structure-preserving HTML shrink for schema extraction.

Re-expression of the reference's ``preprocess_html_for_schema``
(utils.py:2863-3006; wired with text_threshold=500, max_size=300_000 at
async_webcrawler.py:513): keep the element skeleton + selector-relevant
attributes, truncate long text runs, cap total output size. Non-mutating,
so the extract stage can compute fit_html from the same parsed tree it
later cleans.
"""

from __future__ import annotations

from html import escape

from .dom import VOID_TAGS, Element, parse_html

_FIT_DROP_TAGS = frozenset({"script", "style", "noscript", "svg", "iframe"})
_FIT_KEEP_ATTRS = ("id", "class", "href", "src", "alt", "title", "name",
                   "property", "content", "width", "height")


def _fit_serialize(root: Element, out: list[str], text_threshold: int):
    """Depth-first over a stack of (close tag, children iterator) pairs, so
    nesting depth is not bounded by the recursion limit."""
    append = out.append
    stack = [("", iter((root,)))]
    while stack:
        close, children = stack[-1]
        for c in children:
            if type(c) is str:
                t = c if len(c) <= text_threshold else c[:text_threshold] + "..."
                append(escape(t, quote=False))
                continue
            if c.tag in _FIT_DROP_TAGS:
                continue
            close_tag = ""
            if c.tag != "[doc]":
                attrs = {k: v for k, v in c.attrs.items() if k in _FIT_KEEP_ATTRS}
                attr_s = "".join(f' {k}="{escape(v, quote=True)}"' for k, v in attrs.items())
                append(f"<{c.tag}{attr_s}>")
                if c.tag not in VOID_TAGS:
                    close_tag = f"</{c.tag}>"
            stack.append((close_tag, iter(c.children)))
            break
        else:
            stack.pop()
            append(close)


def fit_html_from_root(
    root: Element, text_threshold: int = 500, max_size: int = 300_000
) -> str:
    out: list[str] = []
    _fit_serialize(root, out, text_threshold)
    s = "".join(out)
    return s[:max_size] if len(s) > max_size else s


def preprocess_html_for_schema(
    html: str, text_threshold: int = 500, max_size: int = 300_000
) -> str:
    try:
        root = parse_html(html)
    except Exception:
        return html[:max_size]
    return fit_html_from_root(root, text_threshold, max_size)
