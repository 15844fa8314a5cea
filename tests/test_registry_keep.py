"""The query registry against its keep table, without starting Ray.

``tests/data/registry_keep.json`` lists every query the registry held
before the statistics catalogue was cut, with the rule that keeps it (or
``none``) and whether it is still registered. These checks fail when a
query is added without a row, when a deleted query comes back, or when
the first 50 entries (the correctness sample) move.
"""

import json
import os

import pytest

from crawl4ai_ray.pipelines.queries import ORACLES, QUERIES

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(REPO, "tests", "data", "registry_keep.json")) as f:
    TABLE = json.load(f)["queries"]


@pytest.fixture(autouse=True)
def ray_session():
    """Overrides the suite's Ray start-up: nothing here needs a cluster."""
    yield


def test_first_fifty_are_the_correctness_sample():
    with open(os.path.join(REPO, "CORRECTNESS_r05.json")) as f:
        sample = list(json.load(f))
    assert list(QUERIES)[:50] == sample


def test_registry_matches_the_keep_table():
    assert set(QUERIES) == {n for n, r in TABLE.items() if r["registered"]}
    # the registry keeps the table's order
    assert list(QUERIES) == [n for n, r in TABLE.items() if r["registered"]]


def test_every_registered_query_is_kept_by_a_rule_or_held():
    for name in QUERIES:
        row = TABLE[name]
        if row["rule"] == "none":
            assert row["held_by"], name
        else:
            assert row["rule"] in ("a", "b", "c", "d") and row["evidence"], name


def test_oracles_are_a_subset_of_queries():
    assert set(ORACLES) <= set(QUERIES)
