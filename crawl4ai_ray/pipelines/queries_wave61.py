"""Sixty-first-wave operators (round-3 continuation session,
2026-08-21) — IPS de-biasing, zone-map pruning, l-diversity.

Listed by name in ``queries.py``'s QUERIES/ORACLES.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

import ray

from .queries_wave50 import _PBM_ANUM, _PBM_POS, _PBM_WEEKS

_IPS_Q = 10**6


# ---------------------------------------------------------------------------
# ips_debias — inverse-propensity correction of position-biased clicks
# ---------------------------------------------------------------------------


def q_ips_debias(sf_dir: str):
    """Inverse-propensity-scored CTR de-biasing over the PBM SERP log
    (same generator as pbm_click_model): raw per-tier CTR is crushed
    by position bias, but weighting each click by 1/θ_p = p (the true
    examination propensity) recovers the tier relevance — the IPS
    estimator behind every counterfactual learning-to-rank pipeline.
    Output: per tier the impression/click counts, raw CTR and the IPS
    estimate (which should sit near the true ¼ / ¾ relevances while
    raw CTR does not).

    Exactness: the IPS numerator Σ clicked·p is an exact integer (the
    propensity weight IS the position), so both CTRs are single
    integer divisions. Distributed shape: one map-side
    (tier, n, clicks, clicks·p) partial + one aggregate.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        agg = {t: [0, 0, 0] for t in (0, 1)}  # n, clicks, sum clicked*p
        for d in batch.column("doc_id").to_pylist():
            t = (
                int(hashlib.md5(f"tier|{d}".encode()).hexdigest()[:13], 16)
                % 2
            )
            for w in range(_PBM_WEEKS):
                p = (
                    1
                    + int(
                        hashlib.md5(
                            f"pos|{d}|{w}".encode()
                        ).hexdigest()[:13],
                        16,
                    )
                    % _PBM_POS
                )
                hc = int(
                    hashlib.md5(f"clk|{d}|{w}".encode()).hexdigest()[:13],
                    16,
                )
                clicked = int(hc * p < _PBM_ANUM[t])
                agg[t][0] += 1
                agg[t][1] += clicked
                agg[t][2] += clicked * p
        return pa.table(
            {
                "t": pa.array([0, 1], pa.int64()),
                "n": pa.array([agg[0][0], agg[1][0]], pa.int64()),
                "clicks": pa.array([agg[0][1], agg[1][1]], pa.int64()),
                "wclicks": pa.array([agg[0][2], agg[1][2]], pa.int64()),
            }
        )

    rows = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("t")
        .aggregate(
            ray.data.aggregate.Sum("n", alias_name="n"),
            ray.data.aggregate.Sum("clicks", alias_name="clicks"),
            ray.data.aggregate.Sum("wclicks", alias_name="wclicks"),
        )
        .take_all()  # bounded: few pooled scalar sums
    )
    rows.sort(key=lambda r: int(r["t"]))
    return pa.table(
        {
            "tier": pa.array([int(r["t"]) for r in rows], pa.int64()),
            "n_imp": pa.array([int(r["n"]) for r in rows], pa.int64()),
            "n_click": pa.array(
                [int(r["clicks"]) for r in rows], pa.int64()
            ),
            "raw_ctr_q": pa.array(
                [int(r["clicks"]) * _IPS_Q // int(r["n"]) for r in rows],
                pa.int64(),
            ),
            "ips_q": pa.array(
                [
                    int(r["wclicks"]) * _IPS_Q // int(r["n"])
                    for r in rows
                ],
                pa.int64(),
            ),
        }
    )


def _sql_ips() -> str:
    weeks = ", ".join(f"({w})" for w in range(_PBM_WEEKS))
    return f"""
WITH imp0 AS (
  SELECT d.doc_id, w.w,
         CAST(('0x' || substr(md5('tier|' || d.doc_id), 1, 13))
              AS BIGINT) % 2 AS t,
         1 + CAST(('0x' || substr(md5('pos|' || d.doc_id || '|' || w.w),
                                  1, 13)) AS BIGINT) % {_PBM_POS} AS p,
         CAST(('0x' || substr(md5('clk|' || d.doc_id || '|' || w.w),
                              1, 13)) AS BIGINT) AS hc
  FROM documents d CROSS JOIN (VALUES {weeks}) w(w)
),
imp AS (
  SELECT t, p,
         CASE WHEN hc * p < CASE WHEN t = 1 THEN {_PBM_ANUM[1]}
                                 ELSE {_PBM_ANUM[0]} END
              THEN 1 ELSE 0 END AS clicked
  FROM imp0
),
agg AS (
  SELECT t AS tier, CAST(COUNT(*) AS BIGINT) AS n_imp,
         CAST(SUM(clicked) AS BIGINT) AS n_click,
         CAST(SUM(clicked * p) AS BIGINT) AS wclicks
  FROM imp GROUP BY t
)
SELECT tier, n_imp, n_click,
       n_click * {_IPS_Q} // n_imp AS raw_ctr_q,
       wclicks * {_IPS_Q} // n_imp AS ips_q
FROM agg
"""


# ---------------------------------------------------------------------------
# zone_map_pruning — block min/max pruning under physical vs sorted layout
# ---------------------------------------------------------------------------

_ZM_B = 50
_ZM_LO = 300
_ZM_HI = 400


def q_zone_map_pruning(sf_dir: str):
    """Zone-map (block min/max) pruning selectivity for the predicate
    n_chars BETWEEN {lo} AND {hi} under two layouts: physical doc_id
    order vs length-sorted, with {b}-row blocks — the concrete read on
    WHY the rle_runs re-clustering wins: sorted layouts let the scan
    skip whole blocks whose [min,max] misses the predicate. Output:
    two rows with block counts, pruned blocks and the quantized
    pruned fraction.

    Exactness: physical blocks key on doc_id//{b} (ids are dense);
    sorted-layout block boundaries are the exact ({b}·i)-th order
    statistics, derived from the value histogram's cumulative counts —
    no global sort is materialized anywhere. Distributed shape: two
    bounded aggregates (per-block min/max; value histogram); the
    order-statistic fold is driver arithmetic over the distinct-value
    support.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )

    def phys_partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        df = pd.DataFrame(
            {
                "blk": batch.column("doc_id")
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
                // _ZM_B,
                "v": batch.column("n_chars")
                .to_numpy(zero_copy_only=False)
                .astype(np.int64),
            }
        )
        g = df.groupby("blk").agg(mn=("v", "min"), mx=("v", "max"))
        g = g.reset_index()
        return pa.table(
            {
                "blk": pa.array(g["blk"].to_numpy(np.int64), pa.int64()),
                "mn": pa.array(g["mn"].to_numpy(np.int64), pa.int64()),
                "mx": pa.array(g["mx"].to_numpy(np.int64), pa.int64()),
            }
        )

    phys = (
        docs.map_batches(phys_partial, batch_format="pyarrow")
        .groupby("blk")
        .aggregate(
            ray.data.aggregate.Min("mn", alias_name="mn"),
            ray.data.aggregate.Max("mx", alias_name="mx"),
        )
        .take_all()  # bounded: one row per block
    )
    phys_blocks = len(phys)
    phys_pruned = sum(
        1 for r in phys if int(r["mx"]) < _ZM_LO or int(r["mn"]) > _ZM_HI
    )

    def hist_partial(batch: pa.Table) -> pa.Table:
        v, c = np.unique(
            batch.column("n_chars")
            .to_numpy(zero_copy_only=False)
            .astype(np.int64),
            return_counts=True,
        )
        return pa.table(
            {
                "v": pa.array(v, pa.int64()),
                "c": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    hist = (
        docs.map_batches(hist_partial, batch_format="pyarrow")
        .groupby("v")
        .aggregate(ray.data.aggregate.Sum("c", alias_name="c"))
        .take_all()  # bounded: value-histogram cells
    )
    hist.sort(key=lambda r: int(r["v"]))
    vals = [int(r["v"]) for r in hist]
    cum = np.cumsum([int(r["c"]) for r in hist])
    n = int(cum[-1])

    def order_stat(k: int) -> int:
        # k-th smallest (1-based) from the cumulative histogram
        idx = int(np.searchsorted(cum, k, side="left"))
        return vals[idx]

    srt_blocks = (n + _ZM_B - 1) // _ZM_B
    srt_pruned = 0
    for b in range(srt_blocks):
        lo_k, hi_k = b * _ZM_B + 1, min((b + 1) * _ZM_B, n)
        mn, mx = order_stat(lo_k), order_stat(hi_k)
        if mx < _ZM_LO or mn > _ZM_HI:
            srt_pruned += 1
    return pa.table(
        {
            "layout": pa.array(["physical", "sorted"], pa.string()),
            "n_blocks": pa.array([phys_blocks, srt_blocks], pa.int64()),
            "pruned": pa.array([phys_pruned, srt_pruned], pa.int64()),
            "pruned_frac_q": pa.array(
                [
                    phys_pruned * _IPS_Q // phys_blocks,
                    srt_pruned * _IPS_Q // srt_blocks,
                ],
                pa.int64(),
            ),
        }
    )


SQL_ZONE_MAP = f"""
WITH phys AS (
  SELECT doc_id // {_ZM_B} AS blk,
         CAST(MIN(n_chars) AS BIGINT) AS mn,
         CAST(MAX(n_chars) AS BIGINT) AS mx
  FROM documents GROUP BY doc_id // {_ZM_B}
),
pagg AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS nb,
         CAST(SUM(CASE WHEN mx < {_ZM_LO} OR mn > {_ZM_HI}
                       THEN 1 ELSE 0 END) AS BIGINT) AS pruned
  FROM phys
),
srt AS (
  SELECT (row_number() OVER (ORDER BY n_chars, doc_id) - 1)
           // {_ZM_B} AS blk,
         CAST(n_chars AS BIGINT) AS v
  FROM documents
),
sblk AS (
  SELECT blk, CAST(MIN(v) AS BIGINT) AS mn, CAST(MAX(v) AS BIGINT) AS mx
  FROM srt GROUP BY blk
),
sagg AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS nb,
         CAST(SUM(CASE WHEN mx < {_ZM_LO} OR mn > {_ZM_HI}
                       THEN 1 ELSE 0 END) AS BIGINT) AS pruned
  FROM sblk
)
SELECT 'physical' AS layout, nb AS n_blocks, pruned,
       pruned * {_IPS_Q} // nb AS pruned_frac_q
FROM pagg
UNION ALL
SELECT 'sorted', nb, pruned, pruned * {_IPS_Q} // nb FROM sagg
"""


# ---------------------------------------------------------------------------
# l_diversity — sensitive-attribute diversity of QI classes
# ---------------------------------------------------------------------------

_LD_W = 100
_LD_L = 3


def q_l_diversity(sf_dir: str):
    """l-diversity audit companion to k_anonymity: with quasi-
    identifier (source, length-bucket) and SENSITIVE attribute lang,
    a QI class is risky when it carries fewer than l={l} distinct
    langs — k-anonymity alone can't stop attribute disclosure if
    everyone in the class shares the secret. Output: one row per QI
    class with its size, distinct-lang count and the risky flag.

    Exactness: pure integer distinct-counting. Distributed shape:
    map-side (source, bucket, lang) partials; one groupby closes both
    counts.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "lang", "n_chars"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        df = (
            pd.DataFrame(
                {
                    "source": batch.column("source").to_pylist(),
                    "len_b": (
                        batch.column("n_chars")
                        .to_numpy(zero_copy_only=False)
                        .astype(np.int64)
                        // _LD_W
                    ),
                    "lang": batch.column("lang").to_pylist(),
                }
            )
            .groupby(["source", "len_b", "lang"], sort=True)
            .size()
            .reset_index(name="c")
        )
        return pa.table(
            {
                "source": pa.array(df["source"], pa.string()),
                "len_b": pa.array(
                    df["len_b"].to_numpy(np.int64), pa.int64()
                ),
                "lang": pa.array(df["lang"], pa.string()),
                "c": pa.array(df["c"].to_numpy(np.int64), pa.int64()),
            }
        )

    parts = docs.map_batches(partial, batch_format="pyarrow").take_all()  # bounded: (lang × count) cells
    agg: dict = {}
    for r in parts:
        k = (r["source"], int(r["len_b"]))
        langs, n = agg.setdefault(k, (set(), [0]))
        langs.add(r["lang"])
        n[0] += int(r["c"])
    keys = sorted(agg)
    return pa.table(
        {
            "source": pa.array([k[0] for k in keys], pa.string()),
            "len_b": pa.array([k[1] for k in keys], pa.int64()),
            "n": pa.array([agg[k][1][0] for k in keys], pa.int64()),
            "n_langs": pa.array(
                [len(agg[k][0]) for k in keys], pa.int64()
            ),
            "risky": pa.array(
                [int(len(agg[k][0]) < _LD_L) for k in keys], pa.int64()
            ),
        }
    )


SQL_L_DIVERSITY = f"""
SELECT source, n_chars // {_LD_W} AS len_b,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(COUNT(DISTINCT lang) AS BIGINT) AS n_langs,
       CAST(CASE WHEN COUNT(DISTINCT lang) < {_LD_L} THEN 1 ELSE 0 END
            AS BIGINT) AS risky
FROM documents
GROUP BY source, n_chars // {_LD_W}
"""
