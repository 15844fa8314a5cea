"""The crawl driver: iterative wave loop over Dataset pipelines.

Ray-Data-native rebuild of the reference's deep-crawl strategies
(bfs_strategy.py / dfs_strategy.py / bff_strategy.py): the asyncio
PriorityQueue becomes a FrontierStore — a parquet-backed Dataset with a
distributed ``sort(keys).limit(budget)`` per wave (driver-side Arrow fast
path below a size threshold; identical ordering, tested); the ``visited``
set becomes ``cfg.seen_shards`` hash partitions of sorted 128-bit key runs
on disk (state/seen.py); the RateLimiter becomes a virtual-time host table
held in the driver (state/politeness.py). A crawl starts no actors. Each
wave is one streaming Dataset execution

    pages ⋉ frontier → extract → discover candidates (written to the
      wave's exchange dir, one Parquet file per seen partition)
    → sink: ``write_parquet`` to the wave's docs dir when checkpointing,
      else ``materialize`` (the docs stay in the object store)

followed by one plain Ray task per seen partition

    → reduce (canonical pick + anti-join against the partition's runs;
      writes a delta run and the new frontier rows to parquet, and returns
      the wave's discovery counters)

and the driver-side steps

    → distributed sort + limit → robots/politeness admission
    → next frontier (+ checkpoint)

Strategy = the wave's sort key (SURVEY.md §2.6):
    bfs        (depth asc,  score desc, url asc)
    dfs        (depth desc, score desc, url asc)
    best_first (score desc, depth asc,  url asc)
with optional queue aging (cfg.aging_rate — the reference dispatcher's
−wait_time fairness boost, async_dispatcher.py:189-198).

The driver only ever materializes the budget-bounded admitted slice of the
frontier; new candidates flow exchange file → reduce task → parquet →
Dataset without touching the driver. The corpus is resolved once per crawl
(the bucket files of ``cfg.corpus_bucket_dir`` when set, else the sf_dir's
pages or the given Dataset) and materialized into the object store; every
wave then fetches with one plain-function ``map_batches`` that joins the
resident blocks against the admitted slice (sources/bucketed.py
``make_fetch_filter``). The per-wave bucket-pruned read
(``BucketedCorpus.fetch``) only pays once a corpus outgrows the object
store, so the crawl does not use it.

Determinism: every wave's membership and order is a pure function of the
corpus + config (canonical dedup tie-breaks, url-sorted reduce output,
seeded virtual-time politeness) — this is the crawl-order parity surface.

Checkpointing: ``out_dir/wave=NNNN/`` holds docs parquet, the admitted
frontier parquet, the pending frontier, the wave's seen delta runs
(``seen/``) and a manifest with lineage + filter/dedup/politeness metrics
and the run files that make up the seen set (``seen_runs``), written last
and atomically; ``resume_crawl`` restarts from the last wave whose manifest
exists and opens exactly the runs it lists (SURVEY.md §4.2).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time

import pyarrow as pa
import pyarrow.parquet as pq

import ray

from ..config import CrawlConfig
from ..functions.urls import host_of, normalize_url_for_deep_crawl
from ..sources.bucketed import BucketedCorpus, make_fetch_filter
from ..sources.pages import read_pages
from ..stages.extract import ExtractPages
from ..stages.frontier import DiscoverCandidates
from ..state.frontier_store import FrontierStore, empty_frontier
from ..state.politeness import PolitenessPool
from ..state.seen import SeenSet


def _frontier_from_seeds(seeds: list[str]) -> pa.Table:
    # one row per url: each frontier row is fetched (and crawled) once
    norm = list(dict.fromkeys(normalize_url_for_deep_crawl(s, s) for s in seeds))
    return pa.table(
        {
            "url_norm": pa.array(norm, pa.string()),
            "host": pa.array([host_of(u) for u in norm], pa.string()),
            "depth": pa.array([0] * len(norm), pa.int32()),
            "parent_url": pa.array([""] * len(norm), pa.string()),
            "score": pa.array([0.0] * len(norm), pa.float64()),
            "enqueued_wave": pa.array([0] * len(norm), pa.int32()),
            "retry_count": pa.array([0] * len(norm), pa.int32()),
        }
    )


def _default_memory_probe() -> float:
    """Memory percent for the pressure ladder: psutil when present (the
    reference's signal, async_dispatcher.py:148), else /proc/meminfo —
    the same system-memory-percent semantics psutil reports, so the
    ladder stays meaningful without psutil. (Ray's
    available_resources()['object_store_memory'] is NOT used: it tracks
    logical resource reservations, not actual store fill, and reads ~0%
    forever — r4 ADVICE.)"""
    try:
        import psutil

        return float(psutil.virtual_memory().percent)
    except ImportError:
        pass
    try:
        info: dict[str, int] = {}
        with open("/proc/meminfo") as f:
            for line in f:
                parts = line.split()
                if len(parts) >= 2 and parts[0].endswith(":"):
                    info[parts[0][:-1]] = int(parts[1])  # kB
        total = info.get("MemTotal", 0)
        # psutil's percent = (total - available) / total
        avail = info.get(
            "MemAvailable",
            info.get("MemFree", 0) + info.get("Buffers", 0) + info.get("Cached", 0),
        )
        if total > 0:
            return 100.0 * (1.0 - avail / total)
    except OSError:
        pass
    return 0.0


class WaveUrls:
    """List-like view of one wave's admitted URLs. For a checkpointed crawl
    it holds only the wave's frontier.parquet path and reads on demand, so
    the driver retains O(1) memory per wave instead of accumulating every
    wave's URL list across a long crawl (r2 VERDICT #7); for in-memory runs
    it wraps the plain list."""

    def __init__(self, urls: list[str] | None = None, path: str | None = None):
        self._urls = urls
        self._path = path

    def _load(self) -> list[str]:
        if self._urls is not None:
            return self._urls
        import pyarrow.parquet as pq

        return pq.read_table(self._path, columns=["url_norm"]).column(
            "url_norm"
        ).to_pylist()

    def __iter__(self):
        return iter(self._load())

    def __len__(self):
        return len(self._load())

    def __getitem__(self, i):
        return self._load()[i]

    def __eq__(self, other):
        return list(self) == list(other)

    def __add__(self, other):
        return list(self) + list(other)

    def __radd__(self, other):
        return list(other) + list(self)

    def __repr__(self):
        return f"WaveUrls({self._path or self._urls!r})"


def _doc_files(docs_dirs: list[str]) -> list[str]:
    """The written docs files that hold rows. A write task whose block held
    no rows leaves a file without columns, and ``read_parquet`` takes a list
    of files, not of directories."""
    files = []
    for d in docs_dirs:
        if os.path.isdir(d):
            for f in sorted(os.listdir(d)):
                path = os.path.join(d, f)
                if f.endswith(".parquet") and pq.read_metadata(path).num_rows:
                    files.append(path)
    return files


class CrawlRun:
    """Results + lineage of one crawl."""

    def __init__(self, out_dir: str | None):
        self.out_dir = out_dir
        self.waves: list[dict] = []
        self.docs_dirs: list[str] = []
        self.docs_mats: list = []  # materialized per-wave docs when no out_dir
        self.pages_crawled = 0
        self.final_pending = None
        # the final seen set, one ``SeenSet.dump_all`` payload per partition
        self.seen_payloads: list[bytes] | None = None

    @property
    def crawl_order(self) -> list[tuple[str, int]]:
        """(url, wave) for every crawled page, in deterministic wave order.
        For checkpointed runs this reads each wave's frontier.parquet on
        demand rather than holding every wave's URLs in driver memory."""
        out = []
        for w in self.waves:
            out.extend((u, w["wave"]) for u in w["frontier_urls"])
        return out

    def docs_dataset(self):
        files = _doc_files(self.docs_dirs)
        if files:
            return ray.data.read_parquet(files)
        if self.docs_mats:
            ds = self.docs_mats[0]
            for other in self.docs_mats[1:]:
                ds = ds.union(other)
            return ds
        return None


def _write_checkpoint(
    wave_dir: str, store: FrontierStore, seen: SeenSet, manifest: dict
) -> None:
    """Persist a finished wave: the pending frontier, then ``manifest.json``
    with the seen set's run list (the runs themselves are already on disk).
    ``resume_crawl`` counts a wave directory as complete once its manifest
    exists, so the manifest is written to a ``.tmp`` file and renamed into
    place: a torn write never looks complete."""
    os.makedirs(wave_dir, exist_ok=True)
    store.spill(os.path.join(wave_dir, "pending.parquet"))
    manifest["seen_runs"] = seen.relative_runs(os.path.dirname(wave_dir))
    tmp = os.path.join(wave_dir, "manifest.json.tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f)
    os.replace(tmp, os.path.join(wave_dir, "manifest.json"))


def crawl(
    pages: "ray.data.Dataset | str",
    seeds: list[str],
    cfg: CrawlConfig | None = None,
    out_dir: str | None = None,
    robots_rules: dict[str, str] | None = None,
    pending0: pa.Table | None = None,
    seen_payloads: list[bytes] | None = None,
    start_wave: int = 0,
    pages_crawled0: int = 0,
    seen_runs: list[list[str]] | None = None,
) -> CrawlRun:
    """Run a deterministic deep crawl over an offline pages corpus.

    ``pages``: a Dataset of (url, html, …) or an sf_dir path; ignored when
    ``cfg.corpus_bucket_dir`` is set. A continued crawl passes its pending
    frontier as ``pending0`` and its seen set either as ``seen_payloads``
    (a previous ``run.seen_payloads``) or as ``seen_runs`` (a checkpoint's
    run files, one list per partition).
    """
    cfg = cfg or CrawlConfig()
    # ---- the corpus: read once, resident in the object store for every wave
    if cfg.corpus_bucket_dir is not None:
        files = BucketedCorpus(cfg.corpus_bucket_dir).bucket_files.values()
        pages = ray.data.read_parquet(
            [f for fs in files for f in fs], columns=["url", "html"]
        )
    elif isinstance(pages, str):
        pages = read_pages(pages, columns=["url", "html"])
    corpus = pages.materialize()
    corpus_bytes = corpus.size_bytes()

    seen = SeenSet(num_shards=cfg.seen_shards, runs=seen_runs)
    politeness = PolitenessPool(
        base_delay=cfg.base_delay_s,
        max_delay=cfg.max_delay_s,
        robots_rules=robots_rules,
    )
    run = CrawlRun(out_dir)
    run.pages_crawled = pages_crawled0
    # frontier spill scratch: checkpoints when out_dir is set, else a temp
    # dir removed when the crawl ends
    scratch = out_dir or tempfile.mkdtemp(prefix="c4r_frontier_")
    store = FrontierStore(
        strategy=cfg.strategy,
        aging_rate=cfg.aging_rate,
        spill_dir=os.path.join(scratch, "_frontier_spill"),
        small_threshold=cfg.frontier_small_threshold,
    )

    try:
        if seen_runs is not None or seen_payloads is not None:
            if seen_payloads is not None:
                seen.load_all(seen_payloads, os.path.join(scratch, "seen_loaded"))
            if pending0 is not None and pending0.num_rows:
                if "enqueued_wave" not in pending0.column_names:
                    pending0 = pending0.append_column(
                        "enqueued_wave",
                        pa.array([start_wave] * pending0.num_rows, pa.int32()),
                    )
                store.push(pending0)
        else:
            seeds_tbl = _frontier_from_seeds(seeds)
            # the engine marks seeds visited up front (deterministic variant
            # of the reference's empty-start visited set, SURVEY.md §7.4)
            seen.add(seeds_tbl.column("url_norm"), os.path.join(scratch, "seen_seeds"))
            store.push(seeds_tbl)

        wave = start_wave
        while len(store) > 0 and wave <= 10_000:  # safety bound on waves
            if cfg.max_pages is not None and run.pages_crawled >= cfg.max_pages:
                break

            # ---- memory ladder (MemoryAdaptiveDispatcher wave analogue;
            # async_dispatcher.py:147-187 monitor, 229-258 requeue)
            mem_pct = 0.0
            mem_mode = "off"
            if cfg.memory_threshold_percent is not None:
                probe = cfg.memory_probe or _default_memory_probe
                mem_pct = float(probe())
                mem_mode = (
                    "critical"
                    if mem_pct >= cfg.critical_threshold_percent
                    else "pressure"
                    if mem_pct >= cfg.memory_threshold_percent
                    else "normal"
                )

            # ---- wave selection: distributed sort + limit = the queue pop
            budget = len(store)
            if cfg.max_pages is not None:
                budget = min(budget, cfg.max_pages - run.pages_crawled)
            if cfg.strategy == "best_first":
                # reference pops batches of 10 (bff_strategy.py:19,129-213)
                budget = min(budget, 10)
            if mem_mode == "pressure":
                # "pause new task launches" analogue: shrink the wave
                budget = max(1, budget // 4)
            frontier = store.pop_wave(budget, wave)

            if mem_mode == "critical":
                # requeue the whole in-flight slice with retry_count+1
                # instead of fetching (async_dispatcher.py:229-258); rows
                # keep enqueued_wave so aging raises their priority, the
                # wave analogue of the dispatcher's retry priority bump
                rc = frontier.column("retry_count").to_numpy(
                    zero_copy_only=False
                )
                if rc.size and int(rc.max()) >= cfg.max_memory_retries:
                    raise MemoryError(
                        f"crawl wave {wave}: memory critical "
                        f"({mem_pct:.1f}%) and a frontier row exceeded "
                        f"{cfg.max_memory_retries} memory requeues"
                    )
                idx = frontier.schema.get_field_index("retry_count")
                requeued = frontier.set_column(
                    idx,
                    "retry_count",
                    pa.array((rc + 1).astype("int32"), pa.int32()),
                )
                store.push(requeued)
                manifest = {
                    "wave": wave,
                    "strategy": cfg.strategy,
                    "memory": {
                        "percent": round(mem_pct, 2),
                        "mode": "critical",
                        "requeued": int(frontier.num_rows),
                        "max_retry_count": int(rc.max() + 1) if rc.size else 0,
                    },
                    "frontier_size": int(frontier.num_rows),
                    "pages_crawled": 0,
                    "cumulative_pages": run.pages_crawled,
                    "requeued_memory": int(frontier.num_rows),
                    # a requeued wave crawled nothing
                    "frontier_urls": [],
                }
                if out_dir:
                    # checkpoint the requeued wave like any other so a
                    # resume mid-pressure restarts from consistent state
                    _write_checkpoint(
                        os.path.join(out_dir, f"wave={wave:04d}"), store, seen, manifest
                    )
                run.waves.append(manifest)
                wave += 1
                continue

            # ---- robots + politeness admission (deterministic order)
            hosts = frontier.column("host").to_pylist()
            urls = frontier.column("url_norm").to_pylist()
            if cfg.check_robots and robots_rules:
                allowed = politeness.robots_allowed(hosts, urls)
                frontier = frontier.filter(pa.array(allowed))
                hosts = frontier.column("host").to_pylist()
                urls = frontier.column("url_norm").to_pylist()
            admitted_mask = politeness.admit(hosts, cfg.max_pages_per_host_per_wave)
            admitted = frontier.filter(pa.array(admitted_mask))
            rejected = frontier.filter(pa.array(~admitted_mask))
            # politeness defers, never drops: rejected go back to pending
            # (keeping their original enqueued_wave so aging accumulates)
            if rejected.num_rows:
                store.push(rejected)

            if admitted.num_rows == 0:
                if rejected.num_rows and cfg.aging_rate == 0.0:
                    break  # pathological cap: nothing admissible this wave
                if rejected.num_rows:
                    wave += 1  # aging will eventually admit a starved host
                continue

            frontier_urls = admitted.column("url_norm").to_pylist()
            t0 = time.time()
            wave_dir = os.path.join(scratch, f"wave={wave:04d}")
            exchange = os.path.join(wave_dir, "exchange")
            # a torn earlier attempt at this wave may have left files
            shutil.rmtree(exchange, ignore_errors=True)

            # ---- ONE fused streaming pipeline per wave: fetch ⋉ → extract →
            # candidate discovery (side effect: the exchange files) → sink.
            # The fetch is a plain-function map_batches over the resident
            # corpus, joined against the admitted slice shipped as a
            # zero-copy plasma Arrow table (no per-wave actor pools).
            meta = admitted.select(["url_norm", "depth", "parent_url", "score"])
            meta = meta.rename_columns(["url", "depth", "parent_url", "score"])
            docs = (
                corpus.map_batches(
                    make_fetch_filter(ray.put(meta), cfg.fetch_hooks),
                    batch_format="pyarrow",
                )
                .map_batches(
                    ExtractPages(cfg.scrape),
                    batch_format="pyarrow",
                    batch_size=cfg.scrape_batch_size,
                )
                .map_batches(
                    DiscoverCandidates(
                        exchange,
                        cfg.seen_shards,
                        filter_chain=cfg.filter_chain,
                        scorer=cfg.url_scorer,
                        score_threshold=cfg.score_threshold,
                        include_external=cfg.include_external,
                        max_depth=cfg.max_depth,
                    ),
                    batch_format="pyarrow",
                    batch_size=cfg.scrape_batch_size,
                )
            )
            # one execution per wave: a checkpointed crawl streams the docs
            # straight into the wave's docs dir and reads back only the url
            # column; otherwise the docs stay materialized in the object
            # store (budget-bounded, spillable) for ``run.docs_dataset()``
            if out_dir:
                docs_dir = os.path.join(wave_dir, "docs")
                shutil.rmtree(docs_dir, ignore_errors=True)
                os.makedirs(docs_dir)
                docs.write_parquet(docs_dir)
                crawled_urls = {
                    u
                    for f in _doc_files([docs_dir])
                    for u in pq.read_table(f, columns=["url"]).column("url").to_pylist()
                }
                run.docs_dirs.append(docs_dir)
            else:
                docs = docs.materialize()
                crawled_urls = set()
                for ref in docs.to_arrow_refs():
                    tbl = ray.get(ref)
                    if "url" in tbl.column_names:  # skip schema-less empties
                        crawled_urls.update(tbl.column("url").to_pylist())
                run.docs_mats.append(docs)
            n_crawled = len(crawled_urls)
            run.pages_crawled += n_crawled

            # politeness feedback (RateLimiter dynamics, async_dispatcher.py:
            # 63-83): success → ×0.75 recovery; fetch miss → 404 (no backoff;
            # only 429/503 would double the delay)
            statuses = [200 if u in crawled_urls else 404 for u in frontier_urls]
            politeness.report_status(
                [host_of(u) for u in frontier_urls], statuses
            )

            # ---- seen reduce → parquet spill → frontier push (new
            # candidate rows never route through the driver); the reduce
            # tasks also return the wave's discovery counters
            spill = os.path.join(scratch, "_newfront", f"wave={wave:04d}")
            new_paths, found = seen.finalize_wave_parquet(
                spill, wave + 1, exchange, os.path.join(wave_dir, "seen")
            )
            n_new = store.push_parquet(new_paths)

            try:
                # dispatcher-parity memory/queue telemetry (the reference's
                # MemoryAdaptiveDispatcher monitors psutil, async_dispatcher
                # .py:147-187; here Ray's own accounting stands in)
                avail = ray.available_resources()
                total = ray.cluster_resources()
                mem_stats = {
                    "cpu_available": avail.get("CPU", 0.0),
                    "cpu_total": total.get("CPU", 0.0),
                    "object_store_total_gb": round(
                        total.get("object_store_memory", 0.0) / 1e9, 2
                    ),
                    "object_store_available_gb": round(
                        avail.get("object_store_memory", 0.0) / 1e9, 2
                    ),
                }
            except Exception:
                mem_stats = {}
            manifest = {
                "wave": wave,
                "strategy": cfg.strategy,
                "memory": {"percent": round(mem_pct, 2), "mode": mem_mode},
                "resources": mem_stats,
                "frontier_size": len(frontier_urls),
                "frontier_dataset_mode": store.dataset_mode,
                "corpus_scan_bytes": corpus_bytes,
                "pages_crawled": n_crawled,
                "cumulative_pages": run.pages_crawled,
                "candidates_offered": found["candidates_offered"],
                "candidates_skipped": found["candidates_skipped"],
                "new_urls": n_new,
                "deferred": len(store) - n_new,
                "politeness_rejected": int(rejected.num_rows),
                "seen": found["seen"],
                "politeness": politeness.stats(),
                "wall_s": round(time.time() - t0, 3),
            }
            if out_dir:
                # manifest.json stays O(1) in wave size: the admitted slice
                # goes to frontier.parquet and the JSON carries only the
                # count + pointer (a 1e6-url wave would otherwise write a
                # multi-MB JSON per wave — r2 VERDICT #7).
                frontier_path = os.path.join(wave_dir, "frontier.parquet")
                pq.write_table(admitted, frontier_path)
                manifest["frontier_parquet"] = "frontier.parquet"
                _write_checkpoint(wave_dir, store, seen, manifest)
                # in-memory view reads the checkpoint on demand — the driver
                # does not accumulate URL lists across waves
                manifest["frontier_urls"] = WaveUrls(path=frontier_path)
            else:
                if store.dataset_mode:
                    store.spill()  # reset lazy lineage (lineage depth ≤ 1 wave)
                # in-memory extras (not JSON-serializable; used by queries
                # and tests, which run un-checkpointed crawls)
                manifest["frontier_urls"] = frontier_urls
                manifest["frontier_table"] = admitted
            run.waves.append(manifest)
            wave += 1
        # expose final state so callers (adaptive crawler, drivers) can
        # continue the crawl without re-reading disk checkpoints
        run.final_pending = store.to_table()
        run.seen_payloads = seen.dump_all()
        return run
    finally:
        seen.shutdown()
        politeness.shutdown()
        if out_dir is None:
            shutil.rmtree(scratch, ignore_errors=True)


def _read_pending_checkpoint(path: str) -> pa.Table:
    """pending.parquet may be a single file (driver-mode spill) or a
    directory of part files (Dataset-mode spill)."""
    if os.path.isdir(path):
        parts = [
            pq.read_table(os.path.join(path, f))
            for f in sorted(os.listdir(path))
            if f.endswith(".parquet")
        ]
        parts = [p for p in parts if p.num_rows]
        return pa.concat_tables(parts) if parts else empty_frontier()
    return pq.read_table(path)


def resume_crawl(
    pages: "ray.data.Dataset | str",
    cfg: CrawlConfig,
    out_dir: str,
    robots_rules: dict[str, str] | None = None,
) -> CrawlRun:
    """Resume from the last complete wave checkpoint in ``out_dir``."""
    waves = sorted(
        d for d in os.listdir(out_dir)
        if d.startswith("wave=")
        and os.path.exists(os.path.join(out_dir, d, "manifest.json"))
    )
    if not waves:
        raise FileNotFoundError(f"no complete wave checkpoints under {out_dir}")
    last = waves[-1]
    wave_dir = os.path.join(out_dir, last)
    with open(os.path.join(wave_dir, "manifest.json")) as f:
        manifest = json.load(f)
    pending = _read_pending_checkpoint(os.path.join(wave_dir, "pending.parquet"))
    if "seen_runs" not in manifest:
        raise ValueError(
            f"{wave_dir}/manifest.json lists no seen runs (a checkpoint "
            "written before the seen set was stored as runs)"
        )
    runs = [[os.path.join(out_dir, r) for r in part] for part in manifest["seen_runs"]]
    run = crawl(
        pages,
        seeds=[],
        cfg=cfg,
        out_dir=out_dir,
        robots_rules=robots_rules,
        pending0=pending,
        start_wave=manifest["wave"] + 1,
        pages_crawled0=manifest["cumulative_pages"],
        seen_runs=runs,
    )
    # include the already-completed waves' docs in the run view
    for d in waves:
        docs_dir = os.path.join(out_dir, d, "docs")
        if os.path.isdir(docs_dir) and docs_dir not in run.docs_dirs:
            run.docs_dirs.insert(0, docs_dir)
    return run
