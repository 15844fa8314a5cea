"""crawl4ai_ray — a Ray-Data-native web-corpus crawl/extract engine.

A from-scratch rebuild of the query & data-processing capabilities of the
reference crawler (buizmanager/crawl4ai) on top of ``ray.data.Dataset``:

- columnar Arrow batches end-to-end (``map_batches(batch_format="pyarrow")``)
- stateful stages (URL-seen Bloom shards) as actors; politeness/robots as a
  driver-side host table
- the crawl frontier as iterative Dataset pipelines (normalize → seen
  anti-join → politeness admission → sort(score)+limit)
- extraction (HTML → cleaned_html/markdown/links/media/tables/metadata) as
  stateless vectorized batch transforms

Nothing here is a code port: semantics were derived from reading the
reference (file:line cites in docstrings); the execution model is Ray Data.
"""

__version__ = "0.1.0"

# how many Ray schema warnings the filter below has dropped in this process
schema_warnings_dropped = 0


def _install_empty_schema_warning_filter() -> None:
    """Drop Ray Data's cosmetic 'different schema … new schema: .'
    warning for EMPTY-schema bundles only (r4 VERDICT task #6).

    Root cause (verified by minimal repro — an identity UDF through
    ``groupby().map_groups`` reproduces it): when a sort exchange
    produces a 0-row partition, Ray builds the block with no schema,
    and ``_apply_udf_to_groups`` never calls the UDF on a 0-row block,
    so the downstream map emits a schema-less bundle too — no UDF of
    ours can type those blocks. Ray's own
    ``dedupe_schemas_with_validation`` (streaming_executor_state.py)
    already short-circuits when the OLD schema is empty but warns when
    the NEW one is; the divergence is harmless there (the typed old
    schema is kept, ``enforce_schemas`` is False). This filter mirrors
    that short-circuit for the new side. Real typed-vs-typed schema
    divergences still warn. Each dropped record is counted in
    ``schema_warnings_dropped``.
    """
    import logging

    class _EmptyNewSchemaFilter(logging.Filter):
        def filter(self, record: logging.LogRecord) -> bool:  # noqa: A003
            global schema_warnings_dropped
            msg = record.getMessage()
            drop = (
                "Operator produced a RefBundle with a different schema" in msg
                and (
                    "new schema: ." in msg
                    # pandas-block flavor of the same 0-row artifact
                    or "new schema: PandasBlockSchema(names=[], types=[])"
                    in msg
                )
            )
            if drop:
                schema_warnings_dropped += 1
            return not drop

    logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state"
    ).addFilter(_EmptyNewSchemaFilter())


_install_empty_schema_warning_filter()
