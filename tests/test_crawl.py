"""Crawl-loop conformance: BFS parity vs an in-memory reference walk,
determinism across runs, checkpoint/resume, politeness budget."""

import os

import pytest

from crawl4ai_ray.config import CrawlConfig
from crawl4ai_ray.functions.urls import normalize_url_for_deep_crawl
from crawl4ai_ray.pipelines.crawl import crawl, resume_crawl
from crawl4ai_ray.sources.pages import (
    children_of,
    host_id_of,
    n_pages,
    url_of,
)

SF = "/root/testdata/sf0.001"
SEEDS = [url_of(0), url_of(1), url_of(2)]


def seen_keys(run) -> set[tuple[int, int]]:
    """The final seen set of a crawl, as (h1, h2) keys."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    keys = set()
    for payload in run.seen_payloads:
        t = pq.read_table(pa.BufferReader(payload))
        keys.update(zip(t.column("h1").to_pylist(), t.column("h2").to_pylist()))
    return keys


def reference_bfs(seed_ids, n, max_depth):
    """Pure-python level-synchronised BFS over the synthetic link graph —
    the conformance golden (children edges + per-page home link)."""
    depth = {}
    frontier = {url_of(i): 0 for i in seed_ids}
    for u, d in frontier.items():
        depth[u] = d
    while frontier:
        nxt = {}
        for u, d in frontier.items():
            if d + 1 > max_depth:
                continue
            # home links only exist on real pages (page/<id> urls)
            if "/page/" not in u:
                continue
            if "?" in u:
                continue  # pagination targets have no page rows
            pid = int(u.rsplit("/", 1)[1])
            home = f"https://site{host_id_of(pid)}.example.com"
            targets = [url_of(c) for c in children_of(pid, n)] + [home]
            if pid % 37 == 0:
                targets.append(f"{u}?page=2")
            for t in targets:
                if t not in depth:
                    depth[t] = d + 1
                    nxt[t] = d + 1
        frontier = nxt
    return depth


@pytest.fixture(scope="module")
def bfs_run(ray_session):
    cfg = CrawlConfig(max_depth=3, seen_shards=4)
    return crawl(SF, seeds=SEEDS, cfg=cfg)


def test_bfs_depths_match_reference(bfs_run):
    n = n_pages(SF)
    golden = reference_bfs([0, 1, 2], n, max_depth=3)
    ours = {}
    for w in bfs_run.waves:
        ft = w["frontier_table"]
        for u, d in zip(ft.column("url_norm").to_pylist(), ft.column("depth").to_pylist()):
            ours[u] = int(d)
    assert ours == golden


def test_bfs_wave_order_deterministic(ray_session, bfs_run):
    cfg = CrawlConfig(max_depth=3, seen_shards=2)  # different shard count
    run2 = crawl(SF, seeds=SEEDS, cfg=cfg)
    assert [w["frontier_urls"] for w in bfs_run.waves] == [
        w["frontier_urls"] for w in run2.waves
    ]


def test_bfs_seen_set_is_exact(bfs_run):
    # final visited set == union of all wave frontiers (each url exactly once)
    all_urls = [u for w in bfs_run.waves for u in w["frontier_urls"]]
    assert len(all_urls) == len(set(all_urls))
    assert bfs_run.waves[-1]["seen"]["exact_size"] == len(all_urls)


def test_max_pages_budget(ray_session):
    cfg = CrawlConfig(max_depth=3, max_pages=10, seen_shards=2)
    run = crawl(SF, seeds=SEEDS, cfg=cfg)
    # max_pages budgets successful crawls (reference counts successes only,
    # bfs_strategy.py:173-175); fetch-misses in the frontier don't consume it
    assert run.pages_crawled <= 10
    assert all(w["frontier_size"] <= 10 for w in run.waves)


def test_politeness_cap_defers_not_drops(ray_session):
    cfg = CrawlConfig(max_depth=1, seen_shards=2, max_pages_per_host_per_wave=1)
    run = crawl(SF, seeds=[url_of(0), url_of(7), url_of(14)], cfg=cfg)
    # seeds 0,7,14 all live on site0 (heavy-hitter host): cap 1/host/wave
    # → three waves of one page each at depth 0, none dropped
    depth0_waves = [
        w for w in run.waves if 0 in set(w["frontier_table"].column("depth").to_pylist())
    ]
    assert len(depth0_waves) == 3
    crawled = [u for w in run.waves for u in w["frontier_urls"]]
    for s in [url_of(0), url_of(7), url_of(14)]:
        assert normalize_url_for_deep_crawl(s, s) in crawled


def test_dfs_and_best_first_run(ray_session):
    for strategy in ("dfs", "best_first"):
        cfg = CrawlConfig(strategy=strategy, max_depth=2, max_pages=15, seen_shards=2)
        run = crawl(SF, seeds=[url_of(0)], cfg=cfg)
        assert run.pages_crawled > 0
        urls = [u for w in run.waves for u in w["frontier_urls"]]
        assert len(urls) == len(set(urls))


def reference_best_first(seed_id, n, scorer, max_depth, max_pages, batch=10):
    """Sequential priority-queue simulator (independent golden for the
    distributed best-first wave loop): pop top-`batch` by
    (score desc, depth asc, url asc), crawl, discover, repeat."""
    seed = url_of(seed_id)
    pending = {seed: (0, scorer.score(seed))}  # url -> (depth, score)
    seen = {seed}
    crawled = 0
    waves = []
    while pending and crawled < max_pages:
        order = sorted(pending.items(), key=lambda kv: (-kv[1][1], kv[1][0], kv[0]))
        wave = order[: min(batch, max_pages - crawled)]
        waves.append([u for u, _ in wave])
        for u, (d, _) in wave:
            del pending[u]
            if "/page/" not in u or "?" in u:
                continue  # fetch miss: no doc, no links, not counted
            crawled += 1
            if d + 1 > max_depth:
                continue
            pid = int(u.rsplit("/", 1)[1])
            home = f"https://site{host_id_of(pid)}.example.com"
            targets = [home] + [url_of(c) for c in children_of(pid, n)]
            if pid % 37 == 0:
                targets.append(f"{u}?page=2")
            for t in targets:
                if t not in seen:
                    seen.add(t)
                    pending[t] = (d + 1, scorer.score(t))
    return waves


def test_best_first_order_matches_reference_sim(ray_session):
    from crawl4ai_ray.functions.filters import KeywordRelevanceScorer

    n = n_pages(SF)
    cfg = CrawlConfig(
        strategy="best_first",
        max_depth=2,
        max_pages=40,
        seen_shards=4,
        url_scorer=KeywordRelevanceScorer(["page/1", "page/2"], weight=1.0),
    )
    run = crawl(SF, seeds=[url_of(0)], cfg=cfg)
    golden = reference_best_first(
        0, n, KeywordRelevanceScorer(["page/1", "page/2"], weight=1.0),
        max_depth=2, max_pages=40,
    )
    ours = [sorted(w["frontier_urls"]) for w in run.waves]
    golden_sorted = [sorted(w) for w in golden]
    assert ours == golden_sorted


def reference_dfs(seed_ids, n, max_depth, max_pages):
    """Sequential simulator for the engine's DFS variant: pending sorted
    (depth desc, score desc, url asc), whole frontier each wave."""
    pending = {url_of(i): 0 for i in seed_ids}
    seen = set(pending)
    crawled = 0
    waves = []
    while pending and crawled < max_pages:
        order = sorted(pending.items(), key=lambda kv: (-kv[1], kv[0]))
        wave = order[: max_pages - crawled] if max_pages else order
        waves.append(sorted(u for u, _ in wave))
        for u, d in wave:
            del pending[u]
            if "/page/" not in u or "?" in u:
                continue
            crawled += 1
            if d + 1 > max_depth:
                continue
            pid = int(u.rsplit("/", 1)[1])
            home = f"https://site{host_id_of(pid)}.example.com"
            targets = [home] + [url_of(c) for c in children_of(pid, n)]
            if pid % 37 == 0:
                targets.append(f"{u}?page=2")
            for t in targets:
                if t not in seen:
                    seen.add(t)
                    pending[t] = d + 1
    return waves


def test_dfs_order_matches_reference_sim(ray_session):
    n = n_pages(SF)
    cfg = CrawlConfig(strategy="dfs", max_depth=2, max_pages=30, seen_shards=2)
    run = crawl(SF, seeds=[url_of(0)], cfg=cfg)
    golden = reference_dfs([0], n, max_depth=2, max_pages=30)
    ours = [sorted(w["frontier_urls"]) for w in run.waves]
    assert ours == golden


def test_checkpoint_resume(ray_session, tmp_path):
    out1 = str(tmp_path / "full")
    cfg = CrawlConfig(max_depth=2, seen_shards=2)
    full = crawl(SF, seeds=SEEDS, cfg=cfg, out_dir=out1)

    # interrupted run: stop after wave 0 by capping pages to wave0 size,
    # then resume with the real budget
    out2 = str(tmp_path / "resumed")
    w0 = full.waves[0]["frontier_size"]
    cfg_cut = CrawlConfig(max_depth=2, seen_shards=2, max_pages=w0)
    crawl(SF, seeds=SEEDS, cfg=cfg_cut, out_dir=out2)
    resumed = resume_crawl(SF, CrawlConfig(max_depth=2, seen_shards=2), out2)

    full_urls = [u for w in full.waves for u in w["frontier_urls"]]
    resumed_urls = [u for w in resumed.waves for u in w["frontier_urls"]]
    assert full.waves[0]["frontier_urls"] + resumed_urls == full_urls
    assert seen_keys(resumed) == seen_keys(full)
    assert len(seen_keys(full)) == full.waves[-1]["seen"]["exact_size"]
    assert os.path.exists(os.path.join(out1, "wave=0000", "manifest.json"))
    assert os.path.exists(os.path.join(out1, "wave=0000", "docs"))


def test_resume_skips_torn_manifest(ray_session, tmp_path):
    """A wave directory whose manifest never made it past ``.tmp`` is not a
    complete wave: resume restarts from the last complete one."""
    cfg = CrawlConfig(max_depth=2, seen_shards=2)
    full = crawl(SF, seeds=SEEDS, cfg=cfg)
    out = str(tmp_path / "cut")
    w0 = full.waves[0]["frontier_size"]
    crawl(SF, seeds=SEEDS, cfg=CrawlConfig(max_depth=2, seen_shards=2, max_pages=w0),
          out_dir=out)
    assert sorted(os.listdir(os.path.join(out, "wave=0000"))).count("manifest.json") == 1
    assert not any(f.endswith(".tmp") for f in os.listdir(os.path.join(out, "wave=0000")))
    torn = os.path.join(out, "wave=0001")
    os.makedirs(torn)
    with open(os.path.join(torn, "manifest.json.tmp"), "w") as f:
        f.write('{"wave": 1, "cumul')
    resumed = resume_crawl(SF, cfg, out)
    full_urls = [u for w in full.waves for u in w["frontier_urls"]]
    resumed_urls = [u for w in resumed.waves for u in w["frontier_urls"]]
    assert resumed.waves[0]["wave"] == 1
    assert full.waves[0]["frontier_urls"] + resumed_urls == full_urls
    assert seen_keys(resumed) == seen_keys(full)


def test_resume_ignores_torn_wave_seen_runs(ray_session, tmp_path):
    """A wave directory holding seen delta runs and docs but no manifest adds
    nothing to the resumed seen set: resume opens only the runs the last
    complete manifest lists."""
    import shutil

    from crawl4ai_ray.state.seen import url_keys, write_run

    cfg = CrawlConfig(max_depth=2, seen_shards=2)
    full = crawl(SF, seeds=SEEDS, cfg=cfg, out_dir=str(tmp_path / "full"))
    out = str(tmp_path / "cut")
    w0 = full.waves[0]["frontier_size"]
    crawl(SF, seeds=SEEDS, cfg=CrawlConfig(max_depth=2, seen_shards=2, max_pages=w0),
          out_dir=out)
    # wave 1 ran to its seen reduce and docs write, then died before its
    # manifest; its seen dir also holds a run of a url no page links to
    torn = os.path.join(out, "wave=0001")
    for d in ("seen", "docs"):
        shutil.copytree(os.path.join(tmp_path, "full", "wave=0001", d), os.path.join(torn, d))
    stray = "https://stray.example.com/never-linked"
    write_run(os.path.join(torn, "seen", "stray.parquet"), *url_keys([stray]))
    resumed = resume_crawl(SF, cfg, out)
    assert resumed.waves[0]["wave"] == 1
    assert full.waves[0]["frontier_urls"] + [
        u for w in resumed.waves for u in w["frontier_urls"]
    ] == [u for w in full.waves for u in w["frontier_urls"]]
    assert seen_keys(resumed) == seen_keys(full)
    h1, h2 = url_keys([stray])
    assert (int(h1[0]), int(h2[0])) not in seen_keys(resumed)


def test_duplicate_seeds_crawl_once(ray_session):
    """Seeds that normalize to one url are one frontier row: fetched,
    extracted and listed in the crawl order once."""
    cfg = CrawlConfig(max_depth=0, seen_shards=2)
    run = crawl(SF, seeds=[url_of(0), url_of(0), url_of(0) + "#top"], cfg=cfg)
    assert run.crawl_order == [(url_of(0), 0)]
    assert run.docs_dataset().count() == 1


def test_crawl_leaves_no_scratch(ray_session, tmp_path, monkeypatch):
    """An un-checkpointed crawl removes its frontier scratch dir and builds
    no bucket layout, for a path and for a Dataset corpus."""
    import tempfile

    from crawl4ai_ray.sources.pages import read_pages

    pages = read_pages(SF, columns=["url", "html"])
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    cfg = CrawlConfig(max_depth=2, seen_shards=2, frontier_small_threshold=10)
    for corpus in (SF, pages):
        run = crawl(corpus, seeds=SEEDS, cfg=cfg)
        assert run.pages_crawled > 0 and run.final_pending is not None
        left = [f for f in os.listdir(tmp_path)
                if f.startswith("c4r_frontier_") or f == "c4r_buckets"]
        assert left == []


def test_checkpoint_resume_dataset_mode_and_strategies(ray_session, tmp_path):
    """Resume parity holds when the frontier runs in Dataset mode (directory
    pending.parquet checkpoints) and for dfs / best_first orderings."""
    for strategy in ("dfs", "best_first"):
        cfg_kw = dict(max_depth=2, seen_shards=2, strategy=strategy,
                      frontier_small_threshold=10)
        full = crawl(SF, seeds=SEEDS, cfg=CrawlConfig(**cfg_kw),
                     out_dir=str(tmp_path / f"full_{strategy}"))
        assert any(w["frontier_dataset_mode"] for w in full.waves), strategy

        out2 = str(tmp_path / f"cut_{strategy}")
        w0 = full.waves[0]["frontier_size"]
        crawl(SF, seeds=SEEDS, cfg=CrawlConfig(max_pages=w0, **cfg_kw),
              out_dir=out2)
        resumed = resume_crawl(SF, CrawlConfig(**cfg_kw), out2)
        full_urls = [u for w in full.waves for u in w["frontier_urls"]]
        resumed_urls = [u for w in resumed.waves for u in w["frontier_urls"]]
        assert full.waves[0]["frontier_urls"] + resumed_urls == full_urls, strategy
        assert seen_keys(resumed) == seen_keys(full), strategy


def test_wave_discovery_counters_repeat_and_reconcile(ray_session):
    """The per-wave discovery counters come back with each wave's shard
    finalize: two identical crawls report identical counters, and every
    url marked seen is a seed or one of some wave's new urls."""
    from crawl4ai_ray.functions.filters import DomainFilter, FilterChain

    def counters():
        cfg = CrawlConfig(
            max_depth=3,
            seen_shards=4,
            filter_chain=FilterChain([DomainFilter(blocked_domains=["site3.example.com"])]),
        )
        run = crawl(SF, seeds=SEEDS, cfg=cfg)
        keys = ("candidates_offered", "candidates_skipped", "new_urls")
        return run, [tuple(w[k] for k in keys) for w in run.waves]

    run1, c1 = counters()
    _, c2 = counters()
    assert c1 == c2
    assert sum(c[1] for c in c1) > 0  # the blocked host's links are skipped
    assert sum(c[2] for c in c1) + len(SEEDS) == run1.waves[-1]["seen"]["exact_size"]


def test_checkpointed_crawl_matches_in_memory(ray_session, bfs_run, tmp_path):
    """Writing each wave's docs straight to parquet crawls the same pages
    in the same order as holding them materialized."""
    cfg = CrawlConfig(max_depth=3, seen_shards=4)
    run = crawl(SF, seeds=SEEDS, cfg=cfg, out_dir=str(tmp_path / "ck"))
    assert run.crawl_order == bfs_run.crawl_order
    assert run.pages_crawled == bfs_run.pages_crawled
    assert run.docs_dataset().count() == bfs_run.docs_dataset().count()


def test_crawl_starts_no_actors(ray_session, bfs_run, tmp_path):
    """Politeness lives in the driver and the seen set in files reduced by
    plain tasks: a crawl starts no actors, and a checkpointed one writes no
    per-wave seen dump, only each wave's delta runs."""
    from ray._private import state

    before = set(state.actors())
    out = str(tmp_path / "ck")
    run = crawl(SF, seeds=SEEDS, cfg=CrawlConfig(max_depth=2, seen_shards=3), out_dir=out)
    assert [a for aid, a in state.actors().items() if aid not in before] == []
    assert not [f for d, _, fs in os.walk(out) for f in fs if f.endswith(".bloom")]
    assert not os.path.exists(os.path.join(out, "wave=0000", "exchange"))
    # every run file a manifest lists exists, and they hold the seen set
    import json

    manifest = json.load(open(os.path.join(out, f"wave={len(run.waves) - 1:04d}", "manifest.json")))
    runs = [r for part in manifest["seen_runs"] for r in part]
    assert len(manifest["seen_runs"]) == 3 and runs
    assert all(os.path.exists(os.path.join(out, r)) for r in runs)


def test_malformed_href_is_a_skipped_link(ray_session):
    """A page whose link cannot be parsed (``http://[::1``) is crawled; its
    wave completes and counts the link in ``candidates_skipped``."""
    import ray

    html = ("<html><body><p>hello world</p><a href='http://[::1'>x</a>"
            "<a href='/page/2'>ok</a></body></html>")
    pages = ray.data.from_items([
        {"url": "https://site1.example.com/page/1", "html": html},
        {"url": "https://site1.example.com/page/2", "html": "<html><body>two</body></html>"},
    ])
    run = crawl(pages, seeds=["https://site1.example.com/page/1"],
                cfg=CrawlConfig(max_depth=1, seen_shards=2))
    assert [u for u, _ in run.crawl_order] == [
        "https://site1.example.com/page/1", "https://site1.example.com/page/2"
    ]
    assert run.waves[0]["candidates_skipped"] == 1
    assert run.waves[0]["new_urls"] == 1
