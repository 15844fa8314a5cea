"""Seeded input generation. The program under test receives only these.

One base corpus of ``CORPUS_DOCS`` documents (the shape of the sf0.1
``documents`` table: doc_id, text, lang) is generated from a fixed corpus
seed, so per-URL output digests can be pinned once. The workload seed picks
everything else: which tiled pages an extract run sees and in what order,
the crawl's seed URLs, and the near-copy edits of the dedup corpus.

All randomness is splitmix64 over numpy uint64, so a seed gives the same
inputs under any Python or numpy version.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

CORPUS_DOCS = 5000
CORPUS_SEED = 0x5EED_C0DE
# extract_stream: the base corpus tiled 4x is a 20k-URL page space
EXTRACT_TILES = 4
EXTRACT_SPACE = CORPUS_DOCS * EXTRACT_TILES

VOCAB = (
    "the a data table row column key value join merge sort hash scan filter "
    "group agg order line part query batch stream window vector spark fast "
    "slow big small customer dup index page link crawl"
).split()
LANGS = ("en", "de", "es", "fr", "zh", "ja", "pt", "it")

_M64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def splitmix64(x) -> np.ndarray:
    z = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (z + np.uint64(0x9E3779B97F4A7C15)) & _M64
        z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _M64
        z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _M64
    return z ^ (z >> np.uint64(31))


def _stream(seed: int, tag: int, n: int) -> np.ndarray:
    """n pseudo-random uint64 values for (seed, tag)."""
    base = splitmix64(np.uint64((seed * 0x2545F491 + tag) & 0xFFFFFFFFFFFFFFFF))
    with np.errstate(over="ignore"):
        return splitmix64(base + np.arange(n, dtype=np.uint64))


def base_documents(n: int = CORPUS_DOCS) -> pa.Table:
    """doc_id, text, lang. Doc d has 16-87 words drawn from VOCAB."""
    r = _stream(CORPUS_SEED, 1, n)
    n_words = (16 + r % np.uint64(72)).astype(np.int64)
    words = _stream(CORPUS_SEED, 2, int(n_words.sum())) % np.uint64(len(VOCAB))
    vocab = np.asarray(VOCAB, dtype=object)[words.astype(np.int64)]
    ends = np.cumsum(n_words)
    texts = [" ".join(vocab[e - k:e]) for e, k in zip(ends, n_words)]
    langs = [LANGS[int(x)] for x in (r >> np.uint64(32)) % np.uint64(len(LANGS))]
    return pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
        }
    )


def page_id_of(url: str) -> int:
    return int(url.rsplit("/", 1)[1])


def build_pages(docs: pa.Table, page_ids, n_graph: int) -> pa.Table:
    """(url, html) for ``page_ids`` over a link graph of ``n_graph`` nodes.
    Page p renders base document ``p % len(docs)`` with the engine's own
    synthetic-page template (``sources.pages.build_html``)."""
    from crawl4ai_ray.sources.pages import build_html, url_of

    texts = docs.column("text").to_pylist()
    langs = docs.column("lang").to_pylist()
    n_docs = len(texts)
    ids = [int(p) for p in page_ids]
    return pa.table(
        {
            "url": pa.array([url_of(p) for p in ids], pa.string()),
            "html": pa.array(
                [
                    build_html(p, n_graph, texts[p % n_docs], langs[p % n_docs]).encode()
                    for p in ids
                ],
                pa.binary(),
            ),
        }
    )


def extract_page_ids(seed: int, n_pages: int) -> np.ndarray:
    """The seeded slice of the 20k tiled page space, in seeded order."""
    keys = _stream(seed, 3, EXTRACT_SPACE)
    return np.argsort(keys, kind="stable")[:n_pages]


def crawl_seed_ids(seed: int, n_graph: int, k: int = 3) -> list[int]:
    out: list[int] = []
    for x in _stream(seed, 4, 64):
        d = int(x % np.uint64(n_graph))
        if d not in out:
            out.append(d)
        if len(out) == k:
            return out
    raise ValueError("could not draw distinct seed pages")


def dedup_documents(
    docs: pa.Table, seed: int, n_base: int, n_copies: int
) -> tuple[pa.Table, list[tuple[int, int]]]:
    """The first ``n_base`` base documents plus ``n_copies`` seeded copies,
    rows in seeded order. Three in four copies take one word substitution
    of a source with at least 60 words (3-shingle Jaccard >= 0.9); the rest
    have 30% of their words replaced. Returns (table, planted (src, copy))."""
    texts = docs.column("text").to_pylist()[:n_base]
    ids = list(range(n_base))
    long_docs = [d for d in ids if len(texts[d].split()) >= 60]
    r = _stream(seed, 5, 4 * n_copies)
    planted = []
    for k in range(n_copies):
        copy_id = n_base + k
        x = r[4 * k:4 * k + 4]
        near = int(x[0] % np.uint64(4)) != 0
        pool = long_docs if near else ids
        src = pool[int(x[1] % np.uint64(len(pool)))]
        words = texts[src].split()
        edits = 1 if near else max(1, (3 * len(words)) // 10)
        pos = _stream(int(x[2] & np.uint64(0x7FFFFFFF)), 6, edits) % np.uint64(len(words))
        for j, p in enumerate(pos):
            words[int(p)] = f"edit{k}x{j}"
        texts.append(" ".join(words))
        ids.append(copy_id)
        planted.append((src, copy_id))
    order = np.argsort(_stream(seed, 7, len(ids)), kind="stable")
    table = pa.table(
        {
            "doc_id": pa.array(np.asarray(ids, np.int64)[order]),
            "text": pa.array([texts[i] for i in order], pa.string()),
        }
    )
    return table, planted


def write_parts(table: pa.Table, out_dir: str, n_files: int) -> str:
    """Write ``table`` as ``n_files`` parquet files (one read task each)."""
    os.makedirs(out_dir, exist_ok=True)
    step = -(-table.num_rows // n_files)
    for i in range(n_files):
        part = table.slice(i * step, step)
        if part.num_rows:
            pq.write_table(part, os.path.join(out_dir, f"part-{i:03d}.parquet"))
    return out_dir
