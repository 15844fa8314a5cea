"""Sixty-ninth-wave operators (round 4) — the PDF data-transform family
(r3 VERDICT "What's missing" #5: the one reference data-transform family
with zero analogue; ``crawl4ai/processors/pdf/*``).

Not a statistics wave (those are frozen per the r3 scope-drift flag):
these exercise ``stages/pdf.py`` — a REAL pure-python PDF reader (stdlib
zlib Flate + text-operator parsing) behind actor-pool stages — by
round-tripping the documents corpus through ACTUAL PDF bytes:
deterministic synthesis (6 tokens/line, 5 lines/page, Flate-compressed)
→ distributed parse-back → per-page rows. The DuckDB oracle never sees a
PDF: it reconstructs the expected pages from the source text with list
ops, so any parser/writer defect breaks the hash.

Listed by name in ``queries.py``'s QUERIES/ORACLES.
"""

from __future__ import annotations

import pyarrow as pa

import ray

from ..stages.pdf import (
    LINES_PER_PAGE,
    TOKENS_PER_LINE,
    pdf_corpus,
    synth_pdf_batch,
)


def q_pdf_pages(sf_dir: str):
    """Per-page text extraction from REAL PDF bytes: synthesize one
    Flate-compressed PDF per document (deterministic layout), then
    ``stages.pdf.PdfExtract`` (actor-pool page fan-out) parses the bytes
    back. Output: (doc_id, page_number, raw_text, n_chars). The oracle
    reconstructs every page from the source text — the whole
    writer→zlib→parser→text-operator chain must be lossless to match."""
    from ..stages.pdf import pdf_pipeline

    out = pdf_pipeline(pdf_corpus(sf_dir), batch_size=32)

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "page_number": batch.column("page_number").cast(pa.int64()),
                "raw_text": batch.column("raw_text"),
                "n_chars": batch.column("n_chars"),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


SQL_PDF_PAGES = f"""
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '') AS t
  FROM documents
),
nl AS (
  SELECT doc_id, t,
         CAST((len(t) + {TOKENS_PER_LINE - 1}) // {TOKENS_PER_LINE}
              AS BIGINT) AS n_lines
  FROM toks WHERE len(t) > 0
),
lines AS (
  SELECT doc_id, u.i AS line_idx,
         array_to_string(
           t[(u.i * {TOKENS_PER_LINE} + 1):((u.i + 1) * {TOKENS_PER_LINE})],
           ' '
         ) AS line
  FROM nl, UNNEST(range(0, n_lines)) AS u(i)
),
pages AS (
  SELECT doc_id,
         CAST(line_idx // {LINES_PER_PAGE} + 1 AS BIGINT) AS page_number,
         string_agg(line, chr(10) ORDER BY line_idx) AS raw_text
  FROM lines
  GROUP BY doc_id, line_idx // {LINES_PER_PAGE}
)
SELECT doc_id, page_number, raw_text,
       CAST(length(raw_text) AS BIGINT) AS n_chars
FROM pages
"""


def q_pdf_metadata(sf_dir: str):
    """PDF file metadata over the synthesized corpus (PDFMetadata
    analogue, processor.py:25-33): title from /Info, page count from the
    page tree, encrypted flag. Output: (doc_id, title, producer,
    n_pages, encrypted)."""
    from ..stages.pdf import pdf_metadata_batch

    out = pdf_corpus(sf_dir).map_batches(
        pdf_metadata_batch, batch_format="pyarrow", batch_size=32
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "title": batch.column("title"),
                "producer": batch.column("producer"),
                "n_pages": batch.column("n_pages"),
                "encrypted": batch.column("encrypted"),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


SQL_PDF_METADATA = f"""
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '') AS t
  FROM documents
)
SELECT doc_id,
       'doc ' || doc_id AS title,
       'crawl4ai_ray' AS producer,
       CAST(CASE WHEN len(t) = 0 THEN 0
                 ELSE ((len(t) + {TOKENS_PER_LINE - 1}) // {TOKENS_PER_LINE}
                       + {LINES_PER_PAGE - 1}) // {LINES_PER_PAGE}
            END AS BIGINT) AS n_pages,
       FALSE AS encrypted
FROM toks
"""


def q_pdf_markdown_stats(sf_dir: str):
    """The structuring transform over extracted pages
    (clean_pdf_text, utils.py:213-350): per document, total markdown
    length and page count. Distributed: the per-page markdown rides out
    of the same PdfExtract pass; ONE groupby(doc_id) closes the stats.

    Exactness: the corpus alphabet is lowercase a-z + space (verified),
    so of the reference's heuristics only the TITLE rule can fire —
    first line of a page with ≥2 lines and 3-8 words (always true here:
    multi-line pages lead with a full 6-token line) becomes
    ``## line``; every other line folds into one space-joined
    paragraph; the citation/hyphen/punctuation post-fixes are no-ops
    without their trigger characters. The oracle mirrors exactly that.
    The FULL heuristic surface (headers, authors, affiliations, emails,
    sections, quotes, hyphen joins, citations) is pytest-locked on
    crafted academic-paper text in tests/test_pdf.py."""
    from ..stages.pdf import pdf_pipeline

    def check_alphabet(batch: pa.Table) -> pa.Table:
        # distributed precondition guard: the oracle's exact md mirror
        # is only valid while no structuring trigger characters exist;
        # fail loudly if the corpus ever grows them (r4)
        import re as _re

        for t in batch.column("text").to_pylist():
            if t and _re.search(r"[^a-z ]", t):
                raise ValueError(
                    "pdf_markdown_stats: corpus text outside [a-z ] — the "
                    "title-rule-only oracle precondition no longer holds"
                )
        return batch

    guarded = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(check_alphabet, batch_format="pyarrow").map_batches(
        synth_pdf_batch, batch_format="pyarrow", batch_size=64
    )
    out = pdf_pipeline(guarded, batch_size=32)

    def md_stats(batch: pa.Table) -> pa.Table:
        md = batch.column("markdown").to_pylist()
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "md_chars": pa.array([len(m) for m in md], pa.int64()),
            }
        )

    return (
        out.map_batches(md_stats, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(
            ray.data.aggregate.Sum("md_chars", alias_name="md_chars"),
            ray.data.aggregate.Count(alias_name="n_pages"),
        )
    )


SQL_PDF_MD_STATS = f"""
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '') AS t
  FROM documents
),
nl AS (
  SELECT doc_id, t,
         CAST((len(t) + {TOKENS_PER_LINE - 1}) // {TOKENS_PER_LINE}
              AS BIGINT) AS n_lines
  FROM toks WHERE len(t) > 0
),
lines AS (
  SELECT doc_id, u.i AS line_idx,
         array_to_string(
           t[(u.i * {TOKENS_PER_LINE} + 1):((u.i + 1) * {TOKENS_PER_LINE})],
           ' '
         ) AS line
  FROM nl, UNNEST(range(0, n_lines)) AS u(i)
),
pages AS (
  SELECT doc_id,
         CAST(line_idx // {LINES_PER_PAGE} + 1 AS BIGINT) AS page_number,
         string_agg(line, chr(10) ORDER BY line_idx) AS raw,
         CAST(COUNT(*) AS BIGINT) AS pl,
         MIN(CASE WHEN line_idx % {LINES_PER_PAGE} = 0 THEN line END)
           AS first_line
  FROM lines
  GROUP BY doc_id, line_idx // {LINES_PER_PAGE}
),
md AS (
  -- title rule fires on every multi-line page (first line = 6 tokens);
  -- remaining lines fold into ONE space-joined paragraph
  SELECT doc_id, page_number,
         CASE WHEN pl >= 2 THEN
           '## ' || first_line || chr(10) || chr(10)
                 || replace(substr(raw, length(first_line) + 2), chr(10), ' ')
         ELSE raw END AS md_text
  FROM pages
)
SELECT doc_id, CAST(SUM(length(md_text)) AS BIGINT) AS md_chars,
       CAST(COUNT(*) AS BIGINT) AS n_pages
FROM md
GROUP BY doc_id
"""
