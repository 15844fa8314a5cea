"""Regenerate the pinned outputs the benchmark checks against.

    python3 perfbench/pin.py

Run from the repository root, on the commit whose outputs are the
reference. Writes:

- ``pins/extract_digests.u64``: one little-endian uint64 digest
  (``workloads.row_digest``) per page id of the 20k-URL extract page space,
  over text, markdown, markdown_citations, references_markdown,
  cleaned_html and fit_html.
- ``pins/crawl_order.json``: the crawl-order digest of the ``crawl_polite``
  workload for seeds 0 .. CRAWL_SEEDS-1.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import numpy as np

NUM_CPUS = 4
CRAWL_SEEDS = 12


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, root)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    import logging

    import pyarrow.parquet as pq
    import ray

    from crawl4ai_ray.pipelines.extract_pipeline import extract_dataset
    from perfbench import inputs, trace, workloads

    work = os.path.join(root, ".bench_run", "pin")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level=logging.ERROR, log_to_driver=False)
    ray.data.DataContext.get_current().enable_progress_bars = False
    try:
        ids = np.arange(inputs.EXTRACT_SPACE)
        pages = inputs.build_pages(inputs.base_documents(), ids, inputs.EXTRACT_SPACE)
        in_dir = inputs.write_parts(pages, os.path.join(work, "pages"), 16)
        out_dir = os.path.join(work, "docs")
        extract_dataset(ray.data.read_parquet(in_dir, columns=["url", "html"])).write_parquet(out_dir)
        out = pq.read_table(out_dir, columns=["url", "success", *workloads.DIGEST_FIELDS])
        if out.num_rows != inputs.EXTRACT_SPACE or not all(out.column("success").to_pylist()):
            raise SystemExit("extract: not every page extracted successfully")
        digests = np.zeros(inputs.EXTRACT_SPACE, dtype="<u8")
        cols = [out.column(f).to_pylist() for f in workloads.DIGEST_FIELDS]
        for k, url in enumerate(out.column("url").to_pylist()):
            digests[inputs.page_id_of(url)] = workloads.row_digest([c[k] for c in cols])
        os.makedirs(workloads.PINS_DIR, exist_ok=True)
        digests.tofile(workloads.EXTRACT_PINS)
        print(f"pinned {len(digests)} extract digests")

        crawl_pins = {"crawl_pages": workloads.FULL.crawl_pages, "digests": {}}
        for seed in range(CRAWL_SEEDS):
            wl = workloads.CrawlPolite(seed, workloads.FULL, os.path.join(work, f"crawl-{seed}"))
            wl.generate()
            wl.pinned_digest = None
            job = wl.run_once(0, trace.NullTracer())
            wl.check(job)
            wl.discard(job)
            if job.errors:
                raise SystemExit(f"crawl seed {seed}: {job.errors}")
            crawl_pins["digests"][str(seed)] = job.info["crawl_digest"]
            print(f"crawl seed {seed}: {job.info['crawl_digest'][:16]}")
        with open(workloads.CRAWL_PINS, "w") as f:
            json.dump(crawl_pins, f, indent=1, sort_keys=True)
            f.write("\n")
    finally:
        ray.shutdown()
        shutil.rmtree(os.path.join(root, ".bench_run"), ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
