"""Twenty-third-wave operators (round-3 continuation session,
2026-08-20).

Listed by name in ``queries.py``'s QUERIES/ORACLES. The lang-confusion oracle nests
the proven lang_id oracle as a CTE (registration-time composition, the
quality_gate_funnel pattern).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# lang_confusion — confusion matrix of the lang-id heuristic vs metadata
# ---------------------------------------------------------------------------


def q_lang_confusion(sf_dir: str):
    """Evaluation of the n-gram/stopword lang-id heuristic against the
    corpus metadata labels: the (lang_true, lang_pred) confusion-matrix
    counts — the number that says whether the cheap classifier is good
    enough to gate the expensive pipeline stages (and WHERE it fails:
    which languages bleed into 'unknown' or each other).

    Distributed shape: one map computes predictions (the oracle-proven
    LangId kernel, instantiated once per actor) and folds per-batch
    (true, pred) count partials; ONE pair groupby closes it.
    """
    from ..stages import textstats

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )

    class Conf:
        def __init__(self):
            self.langid = textstats.LangId()

        def __call__(self, batch: pa.Table) -> pa.Table:
            pred = self.langid(batch.select(["doc_id", "text"]))
            df = (
                pd.DataFrame(
                    {
                        "lang_true": batch.column("lang").to_pylist(),
                        "lang_pred": pred.column("lang_pred").to_pylist(),
                    }
                )
                .groupby(["lang_true", "lang_pred"], sort=True)
                .size()
                .reset_index(name="n")
            )
            return pa.table(
                {
                    "lang_true": pa.array(df["lang_true"], pa.string()),
                    "lang_pred": pa.array(df["lang_pred"], pa.string()),
                    "n": pa.array(df["n"].to_numpy(np.int64), pa.int64()),
                }
            )

    return (
        docs.map_batches(Conf, batch_format="pyarrow", concurrency=(1, 4))
        .groupby(["lang_true", "lang_pred"])
        .aggregate(ray.data.aggregate.Sum("n", alias_name="n"))
    )


def _sql_lang_confusion(oracles: dict) -> str:
    return f"""
WITH pred AS ({oracles["lang_id"].strip()})
SELECT d.lang AS lang_true, p.lang_pred, CAST(COUNT(*) AS BIGINT) AS n
FROM documents d JOIN pred p ON p.doc_id = d.doc_id
GROUP BY d.lang, p.lang_pred
"""


# ---------------------------------------------------------------------------
# split_ks_test — Kolmogorov–Smirnov balance check between split halves
# ---------------------------------------------------------------------------

_SKS_SHARDS = 16
_SKS_SEED = 7
_SKS_MULT = 6364136223846793005
_SKS_INC = 1442695040888963407


def q_split_ks_test(sf_dir: str):
    """Split-balance audit: the exact two-sample Kolmogorov–Smirnov
    statistic between the train and validation halves' document-length
    distributions, where the split is the deterministic LCG shard
    parity (shards 0–7 → train, 8–15 → val; the shuffle_export
    derivation). A skewed KS means the split leaked a length covariate
    — the standard pre-training sanity check after any split.

    Exactness: D = max over the support of |F_a − F_b| is computed on
    CROSS-MULTIPLIED integer cumulative counts — D_num = max |cum_a·n_b
    − cum_b·n_a| is an exact integer on both engines (no float CDFs),
    and D = D_num/(n_a·n_b) is the one mirrored division.

    Distributed shape: per-batch (split, n_chars) count partials, ONE
    pair groupby; the cumulative fold runs on the ≤ |distinct lengths|
    histogram.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        key = (
            ids.astype(np.uint64) * np.uint64(_SKS_MULT)
            + np.uint64(_SKS_INC)
            + np.uint64(_SKS_SEED)
        )
        shard = (key % np.uint64(_SKS_SHARDS)).astype(np.int64)
        split = (shard >= _SKS_SHARDS // 2).astype(np.int64)  # 0=train 1=val
        nc = batch.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64)
        df = (
            pd.DataFrame({"split": split, "n_chars": nc})
            .groupby(["split", "n_chars"], sort=True)
            .size()
            .reset_index(name="c")
        )
        return pa.table(
            {
                "split": pa.array(df["split"].to_numpy(np.int64), pa.int64()),
                "n_chars": pa.array(df["n_chars"].to_numpy(np.int64), pa.int64()),
                "c": pa.array(df["c"].to_numpy(np.int64), pa.int64()),
            }
        )

    hist = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby(["split", "n_chars"])
        .aggregate(ray.data.aggregate.Sum("c", alias_name="c"))
        .take_all()  # ≤ 2·|distinct lengths| — tiny
    )
    ca: dict[int, int] = {}
    cb: dict[int, int] = {}
    for r in hist:
        (ca if int(r["split"]) == 0 else cb)[int(r["n_chars"])] = int(r["c"])
    n_a = sum(ca.values())
    n_b = sum(cb.values())
    d_num = 0
    cum_a = cum_b = 0
    for v in sorted(set(ca) | set(cb)):
        cum_a += ca.get(v, 0)
        cum_b += cb.get(v, 0)
        d_num = max(d_num, abs(cum_a * n_b - cum_b * n_a))
    ks = float(d_num) / (float(n_a) * float(n_b)) if n_a and n_b else None
    return pa.table(
        {
            "n_train": pa.array([n_a], pa.int64()),
            "n_val": pa.array([n_b], pa.int64()),
            "d_num": pa.array([d_num], pa.int64()),
            "ks": pa.array([ks], pa.float64()),
        }
    )


SQL_SPLIT_KS_TEST = f"""
WITH k AS (
  SELECT n_chars,
         CASE WHEN CAST((CAST(doc_id AS HUGEINT) * {_SKS_MULT} + {_SKS_INC}
                         + {_SKS_SEED})
                        % CAST('18446744073709551616' AS HUGEINT)
                        % {_SKS_SHARDS} AS BIGINT) >= {_SKS_SHARDS // 2}
              THEN 1 ELSE 0 END AS split
  FROM documents
),
h AS (
  SELECT split, n_chars, CAST(COUNT(*) AS BIGINT) AS c
  FROM k GROUP BY split, n_chars
),
vals AS (SELECT DISTINCT n_chars FROM h),
cums AS (
  SELECT v.n_chars,
         CAST(SUM(CASE WHEN h.split = 0 THEN h.c ELSE 0 END) AS BIGINT) AS cum_a,
         CAST(SUM(CASE WHEN h.split = 1 THEN h.c ELSE 0 END) AS BIGINT) AS cum_b
  FROM vals v JOIN h ON h.n_chars <= v.n_chars
  GROUP BY v.n_chars
),
ns AS (
  SELECT CAST(SUM(CASE WHEN split = 0 THEN c ELSE 0 END) AS BIGINT) AS n_a,
         CAST(SUM(CASE WHEN split = 1 THEN c ELSE 0 END) AS BIGINT) AS n_b
  FROM h
),
d AS (
  SELECT CAST(MAX(ABS(CAST(c.cum_a AS HUGEINT) * ns.n_b
                      - CAST(c.cum_b AS HUGEINT) * ns.n_a)) AS BIGINT) AS d_num
  FROM cums c, ns GROUP BY ns.n_a, ns.n_b
)
SELECT ns.n_a AS n_train, ns.n_b AS n_val, d.d_num,
       CASE WHEN ns.n_a = 0 OR ns.n_b = 0 THEN NULL
            ELSE CAST(d.d_num AS DOUBLE)
                 / (CAST(ns.n_a AS DOUBLE) * CAST(ns.n_b AS DOUBLE)) END AS ks
FROM d, ns
"""
