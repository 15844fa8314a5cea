"""r5 (r4 VERDICT task #6): the package-level logging filter drops ONLY
Ray's cosmetic empty-new-schema divergence warning (0-row sort
partitions produce schema-less blocks no UDF can type); real
typed-vs-typed divergences must still pass through."""

import logging

import crawl4ai_ray  # installs the filter on import

LOGGER = logging.getLogger(
    "ray.data._internal.execution.streaming_executor_state"
)


def _passes(msg: str) -> bool:
    rec = logging.LogRecord(
        LOGGER.name, logging.WARNING, __file__, 1, msg, None, None
    )
    return all(f.filter(rec) for f in LOGGER.filters)


def test_empty_new_schema_warning_is_dropped():
    assert not _passes(
        "Operator produced a RefBundle with a different schema than the "
        "previous one. Previous schema: dst: int64\nval: double, "
        "new schema: . This may lead to unexpected behavior."
    )


def test_ray_still_emits_the_filtered_message():
    """The filter matches Ray's wording; if Ray rewords the warning the
    filter silently stops dropping it, so pin the text in Ray's source."""
    from ray.data._internal.execution import streaming_executor_state

    with open(streaming_executor_state.__file__) as f:
        src = f.read()
    assert "Operator produced a RefBundle with a different schema" in src


def test_real_schema_divergence_still_warns():
    assert _passes(
        "Operator produced a RefBundle with a different schema than the "
        "previous one. Previous schema: dst: int64, "
        "new schema: dst: double. This may lead to unexpected behavior."
    )
    assert _passes("some unrelated warning")


def test_pagerank_dist_log_is_warning_free(ray_session, sf_dir):
    """End-to-end: the forced-BSP pagerank plan executes without any
    schema-divergence records surviving the filter."""
    import ray as _ray

    from crawl4ai_ray.pipelines.queries import q_pagerank

    seen: list[str] = []

    class Capture(logging.Handler):
        def emit(self, record):
            seen.append(record.getMessage())

    h = Capture(level=logging.WARNING)
    LOGGER.addHandler(h)
    before = crawl4ai_ray.schema_warnings_dropped
    try:
        q_pagerank(sf_dir, small_threshold=0).materialize()
    finally:
        LOGGER.removeHandler(h)
    bad = [m for m in seen if "different schema" in m]
    assert not bad, bad
    # the plan does produce empty-schema bundles: the filter dropped them
    assert crawl4ai_ray.schema_warnings_dropped > before
