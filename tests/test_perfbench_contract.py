"""The benchmark's hooks into the engine still resolve.

``perfbench`` wraps engine functions by module and attribute name for its
traced run, and builds a ``CrawlConfig`` for its crawl workload. An engine
refactor that renames one of those, or drops a config field, would break the
benchmark only when it runs; these checks catch it without starting Ray.
"""

import importlib

import pytest

from crawl4ai_ray.config import CrawlConfig
from perfbench import trace, workloads


@pytest.fixture(autouse=True)
def ray_session():
    """Overrides the suite's Ray start-up: nothing here needs a cluster."""
    yield


@pytest.mark.parametrize("module,attr,name", trace.WORKER_TARGETS + trace.DRIVER_TARGETS)
def test_trace_target_resolves(module, attr, name):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), (module, attr)


def test_crawl_polite_config_is_accepted(tmp_path):
    wl = workloads.CrawlPolite(0, workloads.SMOKE, str(tmp_path))
    wl.bucket_dir = str(tmp_path / "buckets")  # set by generate()
    cfg = wl._cfg()
    assert isinstance(cfg, CrawlConfig)
    assert cfg.corpus_bucket_dir == wl.bucket_dir
    assert cfg.max_pages_per_host_per_wave == wl.HOST_CAP
