"""Memory-pressure requeue semantics (r3 VERDICT task #6) — the wave
analogue of the reference MemoryAdaptiveDispatcher's pressure ladder
(async_dispatcher.py:121-187 monitor, 229-258 requeue-with-retry_count):

- CRITICAL: the admitted (in-flight) frontier slice requeues with
  retry_count+1 instead of fetching; the wave manifest carries requeue
  accounting; after pressure clears the crawl produces the IDENTICAL
  final crawl set as an unpressured run.
- PRESSURE: the wave budget shrinks (the pause-new-launches analogue)
  but nothing is lost.
- Sustained critical past max_memory_retries raises MemoryError, as the
  dispatcher does after its sustained-pressure timeout.
- Checkpoint/resume: a run killed during the pressure window resumes to
  the same final set (retry_count survives pending.parquet; pre-r4
  checkpoints without the column still load — zero-filled).
"""

from __future__ import annotations

import json
import os

import pytest

from crawl4ai_ray.config import CrawlConfig
from crawl4ai_ray.pipelines.crawl import crawl, resume_crawl
from crawl4ai_ray.sources.pages import url_of

SF = "/root/testdata/sf0.001"
SEEDS = [url_of(0), url_of(1), url_of(2)]


class ScriptedProbe:
    """Deterministic memory-percent sequence; repeats the last value."""

    def __init__(self, seq):
        self.seq = list(seq)
        self.calls = 0

    def __call__(self) -> float:
        v = self.seq[min(self.calls, len(self.seq) - 1)]
        self.calls += 1
        return float(v)


def _crawl_set(run):
    urls = set()
    for m in run.waves:
        fu = m.get("frontier_urls")
        if fu is not None and m.get("pages_crawled", 0) >= 0 and "memory" in m:
            if m["memory"].get("mode") == "critical":
                continue
        if fu is not None:
            urls.update(list(fu))
    return urls


def test_critical_requeues_then_identical_crawl(ray_session):
    cfg0 = CrawlConfig(max_depth=2, seen_shards=4)
    base = crawl(SF, seeds=SEEDS, cfg=cfg0)
    base_set = _crawl_set(base)
    assert base.pages_crawled > 0

    # wave 0 hits critical twice, then memory recovers
    probe = ScriptedProbe([97.0, 96.0, 50.0])
    cfg = CrawlConfig(
        max_depth=2,
        seen_shards=4,
        memory_threshold_percent=90.0,
        critical_threshold_percent=95.0,
        memory_probe=probe,
    )
    run = crawl(SF, seeds=SEEDS, cfg=cfg)

    # two requeue waves with accounting, then the real crawl
    crit = [m for m in run.waves if m.get("memory", {}).get("mode") == "critical"]
    assert len(crit) == 2
    assert crit[0]["requeued_memory"] == len(SEEDS)
    assert crit[0]["memory"]["max_retry_count"] == 1
    assert crit[1]["memory"]["max_retry_count"] == 2
    assert all(m["pages_crawled"] == 0 for m in crit)

    # identical final crawl set and page count vs the unpressured run
    assert run.pages_crawled == base.pages_crawled
    assert _crawl_set(run) == base_set
    # crawl_order reads every wave, the requeued ones included
    assert {u for u, _ in run.crawl_order} == {u for u, _ in base.crawl_order}


def test_pressure_shrinks_budget_without_loss(ray_session):
    probe = ScriptedProbe([92.0, 50.0])  # pressure on wave 0 only
    cfg = CrawlConfig(
        max_depth=2,
        seen_shards=4,
        memory_threshold_percent=90.0,
        memory_probe=probe,
    )
    run = crawl(SF, seeds=SEEDS, cfg=cfg)
    base = crawl(SF, seeds=SEEDS, cfg=CrawlConfig(max_depth=2, seen_shards=4))
    # wave 0 shrank to 1/4 of the 3 seeds = 1 url; the rest deferred, not
    # dropped — final totals match
    assert run.waves[0]["memory"]["mode"] == "pressure"
    assert run.waves[0]["frontier_size"] == 1
    assert run.pages_crawled == base.pages_crawled
    assert _crawl_set(run) == _crawl_set(base)


def test_sustained_critical_raises_memory_error(ray_session):
    probe = ScriptedProbe([99.0])  # never recovers
    cfg = CrawlConfig(
        max_depth=1,
        seen_shards=4,
        memory_threshold_percent=90.0,
        critical_threshold_percent=95.0,
        max_memory_retries=3,
        memory_probe=probe,
    )
    with pytest.raises(MemoryError, match="memory critical"):
        crawl(SF, seeds=SEEDS, cfg=cfg)


def test_requeue_checkpoint_resume_identical(ray_session, tmp_path):
    """Kill the run during the pressure window (simulated by stopping at
    the checkpoint the critical wave wrote) and resume: the requeue
    accounting is on disk and the resumed crawl reaches the same final
    set as an uninterrupted run."""
    out = str(tmp_path / "ckpt")
    probe = ScriptedProbe([97.0, 50.0])
    cfg = CrawlConfig(
        max_depth=2,
        seen_shards=4,
        memory_threshold_percent=90.0,
        critical_threshold_percent=95.0,
        memory_probe=probe,
    )
    run = crawl(SF, seeds=SEEDS, cfg=cfg, out_dir=out)

    # the critical wave checkpointed with requeue accounting on disk
    m0 = json.load(open(os.path.join(out, "wave=0000", "manifest.json")))
    assert m0["memory"]["mode"] == "critical"
    assert m0["requeued_memory"] == len(SEEDS)
    assert os.path.exists(os.path.join(out, "wave=0000", "pending.parquet"))

    # resume from the post-pressure state must be a no-op continuation
    cfg_resume = CrawlConfig(max_depth=2, seen_shards=4)
    resumed = resume_crawl(SF, cfg_resume, out)
    base = crawl(SF, seeds=SEEDS, cfg=CrawlConfig(max_depth=2, seen_shards=4))
    assert run.pages_crawled == base.pages_crawled
    # resume reports the cumulative total and finds nothing left to do
    assert resumed.pages_crawled == base.pages_crawled
    assert _seen_keys(resumed) == _seen_keys(base)

    # resuming from the critical wave itself (later manifests gone) finds
    # the seeds in its seen runs and reaches the same final state
    for d in os.listdir(out):
        if d.startswith("wave=") and d != "wave=0000":
            os.remove(os.path.join(out, d, "manifest.json"))
    from_critical = resume_crawl(SF, cfg_resume, out)
    assert _crawl_set(from_critical) == _crawl_set(base)
    assert _seen_keys(from_critical) == _seen_keys(base)


def _seen_keys(run) -> set:
    import pyarrow as pa
    import pyarrow.parquet as pq

    keys = set()
    for payload in run.seen_payloads:
        t = pq.read_table(pa.BufferReader(payload))
        keys.update(zip(t.column("h1").to_pylist(), t.column("h2").to_pylist()))
    return keys
