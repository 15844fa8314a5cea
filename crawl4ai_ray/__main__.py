"""CLI — the Ray-Data analogue of the reference's `crwl` command surface
(cli.py: crawl a URL, output markdown/json). Offline corpus in, Parquet or
stdout out.

  python -m crawl4ai_ray extract --sf-dir /root/testdata/sf0.001 --out /tmp/docs
  python -m crawl4ai_ray crawl   --sf-dir ... --seeds 0,1,2 --depth 3 --out /tmp/crawl
  python -m crawl4ai_ray show    --sf-dir ... --doc-id 7          # one page's markdown
  python -m crawl4ai_ray queries --sf-dir ... --name token_stats  # run a named query
  python -m crawl4ai_ray webtext --sf-dir ... --out /tmp/wt       # checkpointed pipeline
"""

from __future__ import annotations

import argparse
import json
import logging
import sys


def _init_ray(num_cpus: int | None):
    """Attach to the ambient cluster when one exists, else start local.

    `ray job submit --working-dir . -- python -m crawl4ai_ray <cmd> …`
    runs this module inside a cluster job: RAY_ADDRESS is then the
    cluster address and we must NOT force a local instance (the
    fixed-size multi-node deployment path of BASELINE.json's north
    rule). The sandbox presets RAY_ADDRESS=local, so standalone runs
    behave exactly as before."""
    import os

    import ray

    if not ray.is_initialized():
        addr = os.environ.get("RAY_ADDRESS", "local")
        if addr and addr != "local":
            ray.init(address=addr, logging_level=logging.ERROR)
        else:
            ray.init(
                address="local",
                num_cpus=num_cpus,
                include_dashboard=False,
                logging_level=logging.ERROR,
            )
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def main(argv=None):
    p = argparse.ArgumentParser(prog="crawl4ai_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    pe = sub.add_parser("extract", help="pages corpus → docs parquet")
    pe.add_argument("--sf-dir", required=True)
    pe.add_argument("--out", required=True)
    pe.add_argument("--replicate", type=int, default=1)

    pc = sub.add_parser("crawl", help="deep crawl with checkpoints")
    pc.add_argument("--sf-dir", required=True)
    pc.add_argument("--seeds", default="0,1,2", help="comma doc_ids or urls")
    pc.add_argument("--strategy", default="bfs", choices=["bfs", "dfs", "best_first"])
    pc.add_argument("--depth", type=int, default=3)
    pc.add_argument("--max-pages", type=int, default=None)
    pc.add_argument("--out", default=None)

    ps = sub.add_parser("show", help="print one page's extraction")
    ps.add_argument("--sf-dir", required=True)
    ps.add_argument("--doc-id", type=int, required=True)

    pq = sub.add_parser("queries", help="run a named query (or list them)")
    pq.add_argument("--sf-dir", required=True)
    pq.add_argument("--name", default=None)
    pq.add_argument("--limit", type=int, default=20)

    pw = sub.add_parser(
        "webtext",
        help="checkpointed training-data pipeline (quality → line dedup → "
        "exact dedup → LM filter); resumes from finished stages",
    )
    pw.add_argument("--sf-dir", required=True)
    pw.add_argument("--out", required=True)
    pw.add_argument("--width", type=int, default=3)
    pw.add_argument("--max-docs", type=int, default=2)
    pw.add_argument("--vocab-k", type=int, default=16)
    pw.add_argument(
        "--export-shards", type=int, default=0,
        help="also write the kept docs as a deterministic seed-keyed "
        "training shuffle under <out>/5_export/shard=NN/",
    )
    pw.add_argument("--export-seed", type=int, default=0)
    pw.add_argument(
        "--boiler-cap", type=int, default=1_000_000,
        help="cap on the broadcast boilerplate key set (scale with corpus "
        "size past ~1M docs, like --max-docs)",
    )
    pw.add_argument(
        "--curriculum", type=int, default=0,
        help="also write NTILE(K) curriculum deciles of the kept docs "
        "under <out>/6_curriculum/decile=N/",
    )
    pw.add_argument(
        "--min-compression-ratio", type=float, default=None,
        help="RefinedWeb-style repetition gate: drop docs whose zlib "
        "ratio falls below this floor (off by default; setting it "
        "changes the run's config hash)",
    )
    pw.add_argument(
        "--lang-gate", type=str, default=None,
        help="CCNet-style language gate: keep only docs whose windowed "
        "majority language-ID vote equals this code and that are not "
        "mixed-language (off by default)",
    )

    pp = sub.add_parser(
        "pdf",
        help="documents corpus → synthetic PDFs → per-page text/markdown "
        "parquet (stages/pdf.py round trip); --metadata writes the "
        "per-file metadata table instead",
    )
    pp.add_argument("--sf-dir", required=True)
    pp.add_argument("--out", required=True)
    pp.add_argument("--metadata", action="store_true")

    args = p.parse_args(argv)
    _init_ray(args.num_cpus)
    import ray

    try:
        if args.cmd == "extract":
            from .pipelines.extract_pipeline import extract_pipeline

            ds = extract_pipeline(args.sf_dir, replicate=args.replicate, out_dir=args.out)
            print(json.dumps({"rows": ds.count(), "out": args.out}))
        elif args.cmd == "crawl":
            from .config import CrawlConfig
            from .pipelines.crawl import crawl
            from .sources.pages import url_of

            seeds = [
                s if s.startswith("http") else url_of(int(s))
                for s in args.seeds.split(",")
            ]
            cfg = CrawlConfig(
                strategy=args.strategy, max_depth=args.depth, max_pages=args.max_pages
            )
            run = crawl(args.sf_dir, seeds=seeds, cfg=cfg, out_dir=args.out)
            print(
                json.dumps(
                    {
                        "waves": len(run.waves),
                        "pages_crawled": run.pages_crawled,
                        "out": args.out,
                    }
                )
            )
        elif args.cmd == "show":
            from .api import RayWebCrawler
            from .sources.pages import url_of

            doc = RayWebCrawler(args.sf_dir).run(url_of(args.doc_id))
            if doc is None:
                print("not found", file=sys.stderr)
                return 1
            print(doc["markdown"])
        elif args.cmd == "webtext":
            from .pipelines.webtext import run_webtext

            docs = ray.data.read_parquet(
                f"{args.sf_dir}/documents.parquet", columns=["doc_id", "text"]
            )
            man = run_webtext(
                docs,
                args.out,
                width=args.width,
                max_docs=args.max_docs,
                vocab_k=args.vocab_k,
                export_shards_n=args.export_shards or None,
                export_seed=args.export_seed,
                curriculum_tiles=args.curriculum or None,
                boiler_cap=args.boiler_cap,
                min_compression_ratio=args.min_compression_ratio,
                lang_gate=args.lang_gate,
            )
            print(json.dumps(man["stages"], indent=1))
        elif args.cmd == "pdf":
            from .stages.pdf import pdf_corpus, pdf_metadata_batch, pdf_pipeline

            corpus = pdf_corpus(args.sf_dir)
            if args.metadata:
                ds = corpus.map_batches(
                    pdf_metadata_batch, batch_format="pyarrow", batch_size=32
                )
            else:
                ds = pdf_pipeline(corpus, batch_size=32)
            ds = ds.materialize()
            ds.write_parquet(args.out)
            print(json.dumps({"rows": ds.count(), "out": args.out}))
        elif args.cmd == "queries":
            from .pipelines.queries import ORACLES, QUERIES

            if not args.name:
                for name in QUERIES:
                    mode = "oracle" if name in ORACLES else "rows-only"
                    print(f"{name}\t{mode}")
                return 0
            if args.name not in QUERIES:
                print(
                    f"unknown query {args.name!r}; available: "
                    + ", ".join(sorted(QUERIES)),
                    file=sys.stderr,
                )
                return 2
            res = QUERIES[args.name](args.sf_dir)
            import pandas as pd
            import pyarrow as pa

            if isinstance(res, ray.data.Dataset):
                df = res.limit(args.limit).to_pandas()
            elif isinstance(res, pa.Table):
                df = res.slice(0, args.limit).to_pandas()
            else:
                df = res.head(args.limit)
            print(df.to_string(index=False))
        return 0
    finally:
        ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
