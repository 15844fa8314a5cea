"""Benchmark harness — headline pipelines over $GRAFT_SF_DIR.

Prints ONE JSON line:
  {"metric": "...", "value": <total sec>, "unit": "sec",
   "queries": {...per-pipeline sec...}, "sf": ..., "num_cpus": N,
   "pages_per_sec": ...}

--scaling: runs the headline extraction pipeline in two fresh processes
(num_cpus=8 and num_cpus=32) on the same input and reports both throughputs
plus scaling efficiency (the sandbox substitute for N vs 4N nodes — see
BASELINE.md).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
REPLICATE = int(os.environ.get("GRAFT_REPLICATE", "4"))


def _init_ray(num_cpus: int):
    import logging

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            logging_level=logging.ERROR,
        )
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def _sf_label(path: str) -> float:
    base = os.path.basename(path.rstrip("/"))
    try:
        return float(base.replace("sf", ""))
    except ValueError:
        return -1.0


def bench_extract() -> tuple[float, int]:
    """Headline: pages corpus → full extraction → parquet sink."""
    from crawl4ai_ray.pipelines.extract_pipeline import extract_dataset
    from crawl4ai_ray.sources.pages import n_pages, read_pages

    out_dir = f"/tmp/bench_docs_{NUM_CPUS}"
    shutil.rmtree(out_dir, ignore_errors=True)
    pages = read_pages(SF_DIR, replicate=REPLICATE, columns=["url", "html"])
    n = n_pages(SF_DIR, replicate=REPLICATE)
    t0 = time.time()
    docs = extract_dataset(pages, batch_size=64)
    docs.write_parquet(out_dir)
    return time.time() - t0, n


def bench_crawl() -> float:
    from crawl4ai_ray.config import CrawlConfig
    from crawl4ai_ray.pipelines.crawl import crawl
    from crawl4ai_ray.sources.pages import url_of

    t0 = time.time()
    cfg = CrawlConfig(max_depth=3, seen_shards=8)
    crawl(SF_DIR, seeds=[url_of(0), url_of(1), url_of(2)], cfg=cfg)
    return time.time() - t0


def bench_minhash() -> float:
    import ray

    from crawl4ai_ray.stages.dedup import minhash_lsh_pairs

    t0 = time.time()
    docs = ray.data.read_parquet(
        os.path.join(SF_DIR, "documents.parquet"), columns=["doc_id", "text"]
    )
    minhash_lsh_pairs(docs).materialize()
    return time.time() - t0


def bench_ann() -> float:
    import numpy as np

    import ray

    from crawl4ai_ray.stages.ann import brute_force_topk

    t0 = time.time()
    emb = ray.data.read_parquet(os.path.join(SF_DIR, "embeddings.parquet"))
    qrows = emb.filter(expr="vec_id < 8").take_all()
    q = np.asarray([r["embedding"] for r in qrows], dtype=np.float64)
    qids = [int(r["vec_id"]) for r in qrows]
    brute_force_topk(emb, q, qids, k=10).materialize()
    return time.time() - t0


def bench_tfidf() -> float:
    import ray

    from crawl4ai_ray.stages.textstats import tfidf_top_terms

    t0 = time.time()
    docs = ray.data.read_parquet(
        os.path.join(SF_DIR, "documents.parquet"), columns=["doc_id", "text"]
    )
    tfidf_top_terms(docs, k=3).materialize()
    return time.time() - t0


def bench_pagerank() -> float:
    """Default dual-path pagerank (local fast path at sf0.1 — the
    cheap-graph number)."""
    from crawl4ai_ray.pipelines.queries import q_pagerank

    t0 = time.time()
    q_pagerank(SF_DIR).materialize()
    return time.time() - t0


def bench_pagerank_dist() -> float:
    """5 BSP iterations with small_threshold=0 — the iterative-shuffle
    stressor (2 all-to-alls per iteration; at bench scale the time is
    almost entirely Ray's fixed per-shuffle cost, which is the honest
    number for an iterative algorithm on Ray Data). r3 VERDICT: the
    bench must keep measuring the distributed plan, not only the local
    fast path."""
    from crawl4ai_ray.pipelines.queries import q_pagerank

    t0 = time.time()
    q_pagerank(SF_DIR, small_threshold=0).materialize()
    return time.time() - t0


def _minhash_100k_corpus() -> str:
    """Deterministic 100k-doc synthetic corpus (splitmix64-mixed token
    ids — linear families alias shingle patterns at n ≥ ~5e4, r3
    lesson), cached as parquet so the timed leg measures dedup only."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    path = "/tmp/c4r_bench_minhash100k.parquet"
    if os.path.exists(path):
        return path
    n, doclen = 100_000, 40

    def mix(x):
        x = (x + np.uint64(0x9E3779B97F4A7C15)) & np.uint64(0xFFFFFFFFFFFFFFFF)
        z = x
        z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & np.uint64(
            0xFFFFFFFFFFFFFFFF
        )
        z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & np.uint64(
            0xFFFFFFFFFFFFFFFF
        )
        return z ^ (z >> np.uint64(31))

    ids = np.arange(n, dtype=np.uint64)
    texts = []
    for i in range(n):
        toks = mix(ids[i] * np.uint64(doclen) + np.arange(doclen, dtype=np.uint64))
        if i % 10 == 9:  # planted near-dup of i-1: one-token edit
            toks = mix(
                (ids[i] - np.uint64(1)) * np.uint64(doclen)
                + np.arange(doclen, dtype=np.uint64)
            )
            toks[0] = mix(np.asarray([i], np.uint64))[0]
        texts.append(" ".join(f"w{t % np.uint64(1 << 40)}" for t in toks))
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(np.arange(n, dtype=np.int64)),
                "text": pa.array(texts, pa.string()),
            }
        ),
        path,
    )
    return path


def bench_minhash_100k() -> float:
    """Dedup-at-scale leg (r3 VERDICT): MinHash+LSH candidate pairs over
    a 100k-doc corpus with planted near-dups — catches regressions in
    the bucketed-shuffle dedup plan that the sf0.1 leg is too small to
    see."""
    import ray

    from crawl4ai_ray.stages.dedup import minhash_lsh_pairs

    path = _minhash_100k_corpus()
    t0 = time.time()
    docs = ray.data.read_parquet(path)
    minhash_lsh_pairs(docs).materialize()
    return time.time() - t0


def bench_webtext() -> float:
    """The flagship 4-stage training-data composition (quality filter →
    boilerplate line dedup → exact dedup → LM tail-drop) end-to-end."""
    from crawl4ai_ray.pipelines.queries import q_webtext_pipeline

    t0 = time.time()
    q_webtext_pipeline(SF_DIR).materialize()
    return time.time() - t0


def bench_textstats() -> float:
    import ray

    from crawl4ai_ray.stages.textstats import quality_counts_batch

    t0 = time.time()
    docs = ray.data.read_parquet(
        os.path.join(SF_DIR, "documents.parquet"), columns=["doc_id", "text"]
    )
    docs.map_batches(quality_counts_batch, batch_format="pyarrow").materialize()
    return time.time() - t0


def _warmup():
    """Spin up Ray workers + imports outside timed regions (a fixed-size
    cluster is already warm in production; cold-start isn't the metric)."""
    import ray

    from crawl4ai_ray.stages.extract import ExtractPages

    ds = ray.data.from_items(
        [{"url": f"https://w.example.com/{i}", "html": b"<p>warm up</p>"} for i in range(512)]
    )
    ds.map_batches(ExtractPages(), batch_format="pyarrow", batch_size=16).materialize()


def run_headline_only():
    _init_ray(NUM_CPUS)
    # warm the synth cache + workers outside the timed region
    from crawl4ai_ray.sources.pages import synthesize_pages

    synthesize_pages(SF_DIR, REPLICATE)
    _warmup()
    reps = int(os.environ.get("GRAFT_BENCH_REPS", "1"))
    secs = []
    n = 0
    for _ in range(reps):
        sec, n = bench_extract()
        secs.append(sec)
    secs.sort()
    sec = secs[len(secs) // 2]  # median
    print(json.dumps({"sec": sec, "pages": n, "pages_per_sec": n / sec, "all_secs": secs}))


def run_scaling():
    """Same job, fresh processes, 8 vs 32 cpus; report efficiency.

    Uses a larger replication so the 32-cpu run is compute-bound (tens of
    seconds), not scheduling-overhead-bound — the sandbox stand-in for the
    north rule's N vs 4N cluster sizes."""
    replicate = int(os.environ.get("GRAFT_SCALING_REPLICATE", "24"))
    # Round 2: the 8→32 pair now measures 0.99 efficiency at low ambient
    # load (r1's 0.64–0.74 was co-tenant noise, not an engine ceiling), so
    # the demanding pair is the default. Both 4→16 and 8→32 recorded in
    # BENCH/BASELINE.md.
    lo, hi = (
        int(x) for x in os.environ.get("GRAFT_SCALING_CPUS", "8,32").split(",")
    )
    reps = int(os.environ.get("GRAFT_SCALING_REPS", "3"))

    def one_run(cpus: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(cpus),
            GRAFT_SF_DIR=SF_DIR,
            GRAFT_REPLICATE=str(replicate),
            GRAFT_BENCH_REPS="1",
        )
        # GRAFT_SCALING_PIN=1 pins affinity to exactly `cpus` cores. Two
        # legitimate readings exist on one box (r3 measured both in the
        # same quiet window):
        #   pinned   → true small-machine physics: the 8-core leg gains
        #              turbo/cache headroom a 32-core run can't have
        #              (845 vs 622 pages/s/core) → ~0.74 ceiling that is
        #              a SINGLE-BOX artifact;
        #   unpinned → Ray caps task slots at N but workers spread over
        #              all cores at all-core frequency → per-core parity
        #              across levels, the honest proxy for N vs 4N NODES
        #              (each node brings its own turbo/bandwidth).
        # Default unpinned, matching the north rule's cluster framing.
        cmd = [sys.executable, __file__, "--headline-only"]
        if os.environ.get("GRAFT_SCALING_PIN", "0") == "1" and shutil.which(
            "taskset"
        ):
            cmd = ["taskset", "-c", f"0-{cpus - 1}"] + cmd
        out = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=1800
        )
        return json.loads(out.stdout.strip().splitlines()[-1])

    # INTERLEAVE the levels (lo,hi, lo,hi, …) and take per-level medians:
    # a co-tenant noise burst then degrades both levels instead of
    # silently sinking whichever level happened to run inside it (r3: an
    # all-lo-then-all-hi ordering measured 0.40 during a steal-time burst
    # on the same build that measures ~1.0 quiet)
    per_level: dict[int, list[dict]] = {lo: [], hi: []}
    for _ in range(reps):
        for cpus in (lo, hi):
            per_level[cpus].append(one_run(cpus))
    results = {}
    for cpus in (lo, hi):
        runs = sorted(per_level[cpus], key=lambda r: r["pages_per_sec"])
        results[cpus] = runs[len(runs) // 2]
    t_lo = results[lo]["pages_per_sec"]
    t_hi = results[hi]["pages_per_sec"]
    eff = (t_hi / t_lo) / (hi / lo)
    print(
        json.dumps(
            {
                "metric": f"scaling_efficiency_{lo}_to_{hi}",
                "value": round(eff, 4),
                "unit": "ratio",
                f"pages_per_sec_{lo}": round(t_lo, 1),
                f"pages_per_sec_{hi}": round(t_hi, 1),
                "pages": results[hi]["pages"],
                "sf": _sf_label(SF_DIR),
            }
        )
    )


def main():
    _init_ray(NUM_CPUS)
    from crawl4ai_ray.sources.pages import synthesize_pages

    synthesize_pages(SF_DIR, REPLICATE)  # cache synth outside timings
    _warmup()
    queries = {}
    # median of 3 for the HEADLINE metric: co-tenant steal bursts (see
    # BENCH/BASELINE.md round 3) swing single shots by up to 30%
    extract_secs = []
    n = 0
    for _ in range(3):
        s, n = bench_extract()
        extract_secs.append(s)
    extract_sec = sorted(extract_secs)[1]
    queries["extract"] = round(extract_sec, 3)
    queries["crawl_bfs"] = round(bench_crawl(), 3)
    queries["dedup_minhash"] = round(bench_minhash(), 3)
    queries["ann_topk"] = round(bench_ann(), 3)
    queries["textstats"] = round(bench_textstats(), 3)
    queries["tfidf"] = round(bench_tfidf(), 3)
    queries["webtext"] = round(bench_webtext(), 3)
    queries["pagerank_local"] = round(bench_pagerank(), 3)
    queries["pagerank_dist"] = round(bench_pagerank_dist(), 3)
    queries["dedup_minhash_100k"] = round(bench_minhash_100k(), 3)
    total = round(sum(queries.values()), 3)
    print(
        json.dumps(
            {
                "metric": "pages_extracted_per_sec",
                "value": round(n / extract_sec, 1),
                "unit": "sec",
                "queries": queries,
                "sf": _sf_label(SF_DIR),
                "num_cpus": NUM_CPUS,
                "pages": n,
                "total_sec": total,
                "extract_secs": [round(s, 3) for s in extract_secs],
            }
        )
    )


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        run_scaling()
    elif "--headline-only" in sys.argv:
        run_headline_only()
    else:
        main()
    import ray

    if ray.is_initialized():
        ray.shutdown()
