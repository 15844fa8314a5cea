"""Per-layer metrics of the traced run, and the end-to-end metric each one
should move.

Every traced run reports every metric below, whatever the workload; a
layer the workload does not exercise reads 0. Times and counts are per
measured job (the mean over the traced jobs of the run).
"""

from __future__ import annotations

import statistics

from perfbench.trace import covered, summarize

E = "extract_stream"
C = "crawl_polite"
D = "dedup_nearcopies"

# name, unit, better, (end-to-end metric it should move, on which workloads)
LAYERS = (
    ("html.scrape_page.calls", "count", "lower", ("rows_per_s", E, C)),
    ("html.scrape_page.self_s", "s", "lower", ("rows_per_s, cpu_s_per_1k_rows", E, C)),
    ("html.generate_markdown.calls", "count", "lower", ("rows_per_s", E, C)),
    ("html.generate_markdown.self_s", "s", "lower", ("rows_per_s, cpu_s_per_1k_rows", E, C)),
    ("stages.extract.ExtractPages.self_s", "s", "lower", ("rows_per_s, cpu_s_per_1k_rows", E, C)),
    ("stages.extract.rows_failed", "count", "lower", ("correctness", E)),
    ("ray_data.read.wall_s", "s", "lower", ("rows_per_s", E, D)),
    ("ray_data.extract_map.wall_s", "s", "lower", ("rows_per_s", E, C)),
    ("ray_data.write.wall_s", "s", "lower", ("rows_per_s", E, C)),
    ("pipelines.crawl.waves", "count", "lower", ("rows_per_s", C)),
    ("pipelines.crawl.wave_p50_s", "s", "lower", ("rows_per_s", C)),
    ("pipelines.crawl.wave_tail_s", "s", "lower", ("rows_per_s", C)),
    ("pipelines.crawl.driver_self_s", "s", "lower", ("rows_per_s", C)),
    ("pipelines.crawl.checkpoint_s", "s", "lower", ("rows_per_s", C)),
    ("pipelines.crawl.checkpoint_bytes", "bytes", "lower", ("rows_per_s, peak_rss_mb", C)),
    ("ray_data.wave_materialize_s", "s", "lower", ("rows_per_s", C)),
    ("state.frontier_store.pop_wave_s", "s", "lower", ("rows_per_s", C)),
    ("state.frontier_store.push_parquet_s", "s", "lower", ("rows_per_s", C)),
    ("state.frontier_store.spill_s", "s", "lower", ("rows_per_s", C)),
    ("state.frontier_store.deferred_rows", "count", "lower", ("rows_per_s", C)),
    ("state.politeness.admit_s", "s", "lower", ("rows_per_s", C)),
    ("state.politeness.report_status_s", "s", "lower", ("rows_per_s", C)),
    ("state.politeness.deferral_ratio", "ratio", "lower", ("rows_per_s", C)),
    ("state.seen.finalize_wave_parquet_s", "s", "lower", ("rows_per_s", C)),
    ("state.seen.dump_all_s", "s", "lower", ("rows_per_s", C)),
    ("state.seen.exact_size", "count", "lower", ("peak_rss_mb", C)),
    ("stages.frontier.candidates_offered", "count", "lower", ("rows_per_s", C)),
    ("stages.frontier.new_url_ratio", "ratio", "higher", ("rows_per_s", C)),
    ("sources.bucketed.scan_bytes", "bytes", "lower", ("rows_per_s, peak_rss_mb", C)),
    ("sources.bucketed.fetch_hit_ratio", "ratio", "higher", ("rows_per_s", C)),
    ("stages.dedup.signatures_self_s", "s", "lower", ("rows_per_s", D)),
    ("stages.dedup.verify_pairs_s", "s", "lower", ("rows_per_s", D)),
    ("stages.dedup.candidate_pairs", "count", "lower", ("rows_per_s", D)),
    ("stages.dedup.verified_pairs", "count", "higher", ("correctness", D)),
    ("stages.dedup.verify_ratio", "ratio", "higher", ("rows_per_s", D)),
    ("ray_data.shuffle.wall_s", "s", "lower", ("rows_per_s", D)),
    ("ray_data.shuffle.block_rows_skew", "ratio", "lower", ("rows_per_s", D)),
    ("trace.overhead_frac", "ratio", "lower", ("none: tracing cost", E, C, D)),
)
UNITS = {name: unit for name, unit, _, _ in LAYERS}


def tail(values: list[float]) -> float:
    """The highest percentile with at least 10 samples beyond it (the
    maximum when there are 10 samples or fewer)."""
    values = sorted(values)
    if not values:
        return 0.0
    return values[len(values) - 11] if len(values) >= 11 else values[-1]


def layer_metrics(jobs: list, spans: list[tuple]) -> dict[str, float]:
    """Every LAYERS metric except trace.overhead_frac, from the traced jobs'
    spans, their Dataset.stats() operator rows, and crawl wave manifests."""
    n = max(1, len(jobs))
    summary = summarize(spans)
    name_of = {(pid, sid): name for name, _, _, sid, _, pid in spans}

    def span(name, key="total_s"):
        return summary.get(name, {}).get(key, 0.0) / n

    def under_crawl(name):
        return sum(
            end - start
            for nm, start, end, _, parent, pid in spans
            if nm == name and name_of.get((pid, parent)) == "pipelines.crawl.crawl"
        ) / n

    ops = [op for j in jobs for op in j.info.get("ops", ())]
    read_s = sum(op["wall_sum_s"] for op in ops if op["name"].startswith("ReadParquet")) / n
    map_s = span("stages.extract.ExtractPages")
    fused_write = sum(op["wall_sum_s"] for op in ops if op["name"].endswith("->Write")) / n
    # the extract write is fused into the map operator: its share is the
    # operator's task time minus the UDF's; a crawl writes each wave's docs
    write_s = max(0.0, fused_write - map_s) if fused_write else under_crawl("ray_data.write_parquet")
    shuffles = [op for op in ops if op["all_to_all"]]
    # wall time during which at least one all-to-all operator was running
    shuffle_s = sum(
        covered([(op["start"], op["end"]) for op in j.info.get("ops", ()) if op["all_to_all"]])
        for j in jobs
    ) / n
    skews = [op["rows"]["max"] / op["rows"]["mean"] for op in shuffles if op["rows"].get("mean")]

    # a wave runs from one FrontierStore.pop_wave call to the next (the last
    # one to the end of its crawl)
    waves: list[float] = []
    pops = sorted(s[1] for s in spans if s[0] == "state.frontier_store.pop_wave")
    for _, c_start, c_end, *_ in sorted(s for s in spans if s[0] == "pipelines.crawl.crawl"):
        starts = [p for p in pops if c_start <= p <= c_end] + [c_end]
        waves.extend(b - a for a, b in zip(starts, starts[1:]))
    manifests = [w for j in jobs for w in j.info.get("waves", ())]

    def tot(key):
        return sum(w.get(key) or 0 for w in manifests)

    admitted, deferred, offered = tot("frontier_size"), tot("politeness_rejected"), tot("candidates_offered")
    cand = sum(j.info.get("n_candidates", 0) for j in jobs) / n
    verified = sum(j.info.get("n_verified", 0) for j in jobs) / n
    return {
        "html.scrape_page.calls": span("html.scrape_page", "calls"),
        "html.scrape_page.self_s": span("html.scrape_page", "self_s"),
        "html.generate_markdown.calls": span("html.generate_markdown", "calls"),
        "html.generate_markdown.self_s": span("html.generate_markdown", "self_s"),
        "stages.extract.ExtractPages.self_s": span("stages.extract.ExtractPages", "self_s"),
        "stages.extract.rows_failed": sum(j.info.get("rows_failed", 0) for j in jobs) / n,
        "ray_data.read.wall_s": read_s,
        "ray_data.extract_map.wall_s": map_s,
        "ray_data.write.wall_s": write_s,
        "pipelines.crawl.waves": len(manifests) / n,
        "pipelines.crawl.wave_p50_s": statistics.median(waves) if waves else 0.0,
        "pipelines.crawl.wave_tail_s": tail(waves),
        "pipelines.crawl.driver_self_s": span("pipelines.crawl.crawl", "self_s"),
        # checkpoint writes: each wave's docs, pending frontier and seen dumps
        "pipelines.crawl.checkpoint_s": under_crawl("ray_data.write_parquet")
        + under_crawl("state.frontier_store.spill")
        + under_crawl("state.seen.dump_all"),
        "pipelines.crawl.checkpoint_bytes": sum(j.info.get("checkpoint_bytes", 0) for j in jobs) / n,
        "ray_data.wave_materialize_s": under_crawl("ray_data.materialize"),
        "state.frontier_store.pop_wave_s": span("state.frontier_store.pop_wave"),
        "state.frontier_store.push_parquet_s": span("state.frontier_store.push_parquet"),
        "state.frontier_store.spill_s": span("state.frontier_store.spill"),
        "state.frontier_store.deferred_rows": deferred / n,
        "state.politeness.admit_s": span("state.politeness.admit"),
        "state.politeness.report_status_s": span("state.politeness.report_status"),
        "state.politeness.deferral_ratio": deferred / max(1, admitted + deferred),
        "state.seen.finalize_wave_parquet_s": span("state.seen.finalize_wave_parquet"),
        "state.seen.dump_all_s": span("state.seen.dump_all"),
        "state.seen.exact_size": float((manifests[-1].get("seen") or {}).get("exact_size", 0))
        if manifests else 0.0,
        "stages.frontier.candidates_offered": offered / n,
        "stages.frontier.new_url_ratio": tot("new_urls") / offered if offered else 0.0,
        "sources.bucketed.scan_bytes": tot("corpus_scan_bytes") / n,
        "sources.bucketed.fetch_hit_ratio": tot("pages_crawled") / admitted if admitted else 0.0,
        "stages.dedup.signatures_self_s": span("stages.dedup.MinHashSignatures", "self_s"),
        "stages.dedup.verify_pairs_s": span("stages.dedup.verify_pairs"),
        "stages.dedup.candidate_pairs": cand,
        "stages.dedup.verified_pairs": verified,
        "stages.dedup.verify_ratio": verified / cand if cand else 0.0,
        "ray_data.shuffle.wall_s": shuffle_s,
        "ray_data.shuffle.block_rows_skew": max(skews) if skews else 0.0,
    }
