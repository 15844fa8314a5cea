"""Thirty-fourth-wave operators (round-3 continuation session,
2026-08-20).

Listed by name in ``queries.py``'s QUERIES/ORACLES. gate_order_opt nests the
gopher_rules oracle as a CTE at registration.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# sprt_abtest — sequential probability ratio test on a conversion stream
# ---------------------------------------------------------------------------

_SPRT_P0 = 0.15
_SPRT_P1 = 0.25
_SPRT_ALPHA = 0.05  # two-sided-ish: upper ln((1-b)/a), lower ln(b/(1-a))
_CU_DAY_US = 86_400_000_000

# frozen per-observation LLR increments (quantized once; the cumulative
# statistic is then an exact integer combination on both engines)
_SPRT_L1Q = math.floor(math.log(_SPRT_P1 / _SPRT_P0) * 1e12 + 0.5)
_SPRT_L0Q = math.floor(
    math.log((1.0 - _SPRT_P1) / (1.0 - _SPRT_P0)) * 1e12 + 0.5
)
_SPRT_UPPER_Q = math.floor(
    math.log((1.0 - _SPRT_ALPHA) / _SPRT_ALPHA) * 1e12 + 0.5
)
_SPRT_LOWER_Q = math.floor(
    math.log(_SPRT_ALPHA / (1.0 - _SPRT_ALPHA)) * 1e12 + 0.5
)


def q_sprt_abtest(sf_dir: str):
    """Wald's Sequential Probability Ratio Test monitoring the
    odd-user-id arm's purchase rate day by day: H0 p=0.15 vs H1
    p=0.25, LLR_t = x_t·ln(p1/p0) + (n_t−x_t)·ln((1−p1)/(1−p0)),
    decide as soon as LLR crosses ln((1−α)/α) (accept H1) or
    ln(α/(1−α)) (accept H0) — the sequential test that stops an A/B
    experiment (or a crawl-policy trial) with a fraction of the
    fixed-horizon sample size. Output: one row per day with cumulative
    (n, x), the exact-integer quantized LLR, the day's decision and a
    stopped flag marking the FIRST crossing.

    Exactness: the two per-observation log increments are quantized
    ONCE as frozen constants (module header), so LLR_q = x·L1q +
    (n−x)·L0q is pure integer arithmetic on both engines.

    Distributed shape: ONE daily (n, x) aggregate; the cumulative scan
    folds over ≤ #days rows on the driver (calendar-bounded).
    """
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "user_id", "event_type"]
    )

    def daily(batch: pa.Table) -> pa.Table:
        import pandas as pd

        ts_us = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        uid = batch.column("user_id").to_numpy(zero_copy_only=False)
        et = batch.column("event_type").to_pylist()
        keep = (uid % 2) == 1
        df = (
            pd.DataFrame(
                {
                    "day": (ts_us // _CU_DAY_US)[keep],
                    "x": np.array(
                        [1 if e == "purchase" else 0 for e in et], np.int64
                    )[keep],
                }
            )
            .groupby("day", sort=True)
            .agg(n=("x", "size"), x=("x", "sum"))
            .reset_index()
        )
        return pa.table(
            {
                "day": pa.array(df["day"].to_numpy(np.int64), pa.int64()),
                "n": pa.array(df["n"].to_numpy(np.int64), pa.int64()),
                "x": pa.array(df["x"].to_numpy(np.int64), pa.int64()),
            }
        )

    rows = (
        ev.map_batches(daily, batch_format="pyarrow")
        .groupby("day")
        .aggregate(
            ray.data.aggregate.Sum("n", alias_name="n"),
            ray.data.aggregate.Sum("x", alias_name="x"),
        )
        .take_all()  # bounded: one row per day (bounded key domain)
    )
    rows.sort(key=lambda r: int(r["day"]))
    out = {"day": [], "n_cum": [], "x_cum": [], "llr_q": [],
           "decision": [], "stopped": []}
    n_c = x_c = 0
    crossed = False
    for r in rows:
        n_c += int(r["n"])
        x_c += int(r["x"])
        llr = x_c * _SPRT_L1Q + (n_c - x_c) * _SPRT_L0Q
        dec = 1 if llr >= _SPRT_UPPER_Q else (-1 if llr <= _SPRT_LOWER_Q else 0)
        stop = int(dec != 0 and not crossed)
        if dec != 0:
            crossed = True
        out["day"].append(int(r["day"]))
        out["n_cum"].append(n_c)
        out["x_cum"].append(x_c)
        out["llr_q"].append(llr)
        out["decision"].append(dec)
        out["stopped"].append(stop)
    return pa.table(
        {
            "day": pa.array(out["day"], pa.int64()),
            "n_cum": pa.array(out["n_cum"], pa.int64()),
            "x_cum": pa.array(out["x_cum"], pa.int64()),
            "llr_q": pa.array(out["llr_q"], pa.int64()),
            "decision": pa.array(out["decision"], pa.int64()),
            "stopped": pa.array(out["stopped"], pa.int64()),
        }
    )


SQL_SPRT_ABTEST = f"""
WITH daily AS (
  SELECT epoch_us(ts) // {_CU_DAY_US} AS day,
         CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END)
              AS BIGINT) AS x
  FROM events WHERE user_id % 2 = 1 GROUP BY 1
),
cum AS (
  SELECT day,
         SUM(n) OVER (ORDER BY day) AS n_cum,
         SUM(x) OVER (ORDER BY day) AS x_cum
  FROM daily
),
st AS (
  SELECT day, n_cum, x_cum,
         x_cum * {_SPRT_L1Q} + (n_cum - x_cum) * {_SPRT_L0Q} AS llr_q
  FROM cum
),
dec AS (
  SELECT day, n_cum, x_cum, llr_q,
         CASE WHEN llr_q >= {_SPRT_UPPER_Q} THEN 1
              WHEN llr_q <= {_SPRT_LOWER_Q} THEN -1
              ELSE 0 END AS decision
  FROM st
),
frst AS (
  SELECT MIN(day) AS d0 FROM dec WHERE decision <> 0
)
SELECT CAST(dec.day AS BIGINT) AS day,
       CAST(n_cum AS BIGINT) AS n_cum,
       CAST(x_cum AS BIGINT) AS x_cum,
       CAST(llr_q AS BIGINT) AS llr_q,
       CAST(decision AS BIGINT) AS decision,
       CAST(CASE WHEN dec.day = frst.d0 THEN 1 ELSE 0 END AS BIGINT)
         AS stopped
FROM dec LEFT JOIN frst ON TRUE
"""


# ---------------------------------------------------------------------------
# quantile_normalize — map each source's lengths onto the global quantiles
# ---------------------------------------------------------------------------


def q_quantile_normalize(sf_dir: str):
    """Quantile normalization of document length across sources: each
    doc's n_chars is replaced by the GLOBAL length at the same relative
    rank its doc holds WITHIN its source — after which every source has
    (up to rank rounding) the identical length distribution. The
    rank-transform used to kill per-source covariate shift before
    mixing corpora (and the microarray-normalization classic).

    Exactness: within-source rank rn and count c come from integer
    window logic; the global index is the exact integer
    (rn·(N−1)) // (c−1); the looked-up value is an integer. No floats
    anywhere.

    Distributed shape: the within-source ranks ride the global ranker
    (the source_percent_rank plan); the global quantile TABLE is the
    (value, global-rank) histogram — broadcast as a cumulative array,
    O(|distinct lengths|), not O(rows).
    """
    from ..stages.rank import ranked_by_key

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "n_chars"]
    )

    def keyed(batch: pa.Table) -> pa.Table:
        srcs = batch.column("source").to_pylist()
        ncs = batch.column("n_chars").to_pylist()
        ids = batch.column("doc_id").to_pylist()
        return pa.table(
            {
                "id": pa.array(ids, pa.int64()),
                "source": pa.array(srcs, pa.string()),
                "n_chars": pa.array(ncs, pa.int64()),
                "key": pa.array(
                    [
                        f"{s}|{c:012d}|{i:012d}"
                        for s, c, i in zip(srcs, ncs, ids)
                    ],
                    pa.string(),
                ),
            }
        )

    ranked = ranked_by_key(
        docs.map_batches(keyed, batch_format="pyarrow"), "key", "id",
        num_buckets=8,
    ).materialize()

    counts = (
        ranked.groupby("source")
        .aggregate(
            ray.data.aggregate.Min("rank", alias_name="base"),
            ray.data.aggregate.Count(alias_name="cnt"),
        )
        .take_all()  # bounded: one row per source (bounded key domain)
    )
    bases = {r["source"]: (int(r["base"]), int(r["cnt"])) for r in counts}

    # global length histogram → expanded (global_rank → value) lookup,
    # built from |distinct lengths| rows
    hist = (
        docs.groupby("n_chars")
        .aggregate(ray.data.aggregate.Count(alias_name="c"))
        .take_all()  # bounded: distinct-length histogram (length domain ≤ max doc length)
    )
    hist.sort(key=lambda r: int(r["n_chars"]))
    vals = np.array([int(r["n_chars"]) for r in hist], np.int64)
    cnts = np.array([int(r["c"]) for r in hist], np.int64)
    cum = np.cumsum(cnts)  # first global rank AFTER each value block
    n_total = int(cum[-1])
    bref = ray.put((bases, vals, cum, n_total))

    def finish(batch: pa.Table) -> pa.Table:
        bm, v, cm, nt = ray.get(bref)
        srcs = batch.column("source").to_pylist()
        rank = batch.column("rank").to_numpy(zero_copy_only=False).astype(np.int64)
        base = np.fromiter((bm[s][0] for s in srcs), np.int64, count=len(srcs))
        cnt = np.fromiter((bm[s][1] for s in srcs), np.int64, count=len(srcs))
        rn = rank - base
        gidx = np.where(
            cnt > 1, (rn * (nt - 1)) // np.maximum(cnt - 1, 1), (nt - 1) // 2
        )
        norm = v[np.searchsorted(cm, gidx, side="right")]
        return pa.table(
            {
                "doc_id": batch.column("id").cast(pa.int64()),
                "source": pa.array(srcs, pa.string()),
                "n_chars": batch.column("n_chars").cast(pa.int64()),
                "n_chars_norm": pa.array(norm, pa.int64()),
            }
        )

    return ranked.map_batches(finish, batch_format="pyarrow")


SQL_QUANTILE_NORMALIZE = """
WITH r AS (
  SELECT doc_id, source, n_chars,
         row_number() OVER (PARTITION BY source ORDER BY n_chars, doc_id)
           - 1 AS rn,
         COUNT(*) OVER (PARTITION BY source) AS c
  FROM documents
),
g AS (
  SELECT n_chars AS v,
         row_number() OVER (ORDER BY n_chars, doc_id) - 1 AS gr
  FROM documents
),
nn AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM documents),
idx AS (
  SELECT r.doc_id, r.source, r.n_chars,
         CASE WHEN r.c > 1 THEN (r.rn * (nn.n - 1)) // (r.c - 1)
              ELSE (nn.n - 1) // 2 END AS gidx
  FROM r, nn
)
SELECT idx.doc_id, idx.source, idx.n_chars,
       CAST(g.v AS BIGINT) AS n_chars_norm
FROM idx JOIN g ON g.gr = idx.gidx
"""


# ---------------------------------------------------------------------------
# gate_order_opt — optimal short-circuit order of the quality gates
# ---------------------------------------------------------------------------

_GO_GATES = ("ok_word_count", "ok_mean_len", "ok_symbol", "ok_alpha", "ok_stop")


def q_gate_order_opt(sf_dir: str):
    """Filter-order optimization for the Gopher gate bundle: measure
    each rule's standalone rejection count on the corpus and rank the
    gates by rejection rate (uniform per-gate cost) — the greedy
    cheapest-first short-circuit order that minimizes expected gate
    evaluations per doc (the classic predicate-ordering result for
    independent filters). Output: (rank, gate, n_reject, reject_rate).

    Distributed shape: ONE map over documents computes the proven
    gopher_rules_batch flags, folds per-batch rejection partials; the
    5-row ranking is driver arithmetic. Oracle nests the gopher_rules
    SQL.
    """
    import functools

    from ..stages import textstats

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    gopher = functools.partial(textstats.gopher_rules_batch, min_stops=1)

    def partial(batch: pa.Table) -> pa.Table:
        flags = gopher(batch)
        rej = [
            int(
                (~flags.column(g).to_numpy(zero_copy_only=False)).sum()
            )
            for g in _GO_GATES
        ]
        return pa.table(
            {
                "gate": pa.array(list(_GO_GATES), pa.string()),
                "n_reject": pa.array(rej, pa.int64()),
                "n": pa.array([batch.num_rows] * len(_GO_GATES), pa.int64()),
            }
        )

    rows = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("gate")
        .aggregate(
            ray.data.aggregate.Sum("n_reject", alias_name="n_reject"),
            ray.data.aggregate.Sum("n", alias_name="n"),
        )
        .take_all()  # bounded: one row per gate
    )
    ranked = sorted(rows, key=lambda r: (-int(r["n_reject"]), r["gate"]))
    return pa.table(
        {
            "rank": pa.array(range(1, len(ranked) + 1), pa.int64()),
            "gate": pa.array([r["gate"] for r in ranked], pa.string()),
            "n_reject": pa.array(
                [int(r["n_reject"]) for r in ranked], pa.int64()
            ),
            "reject_rate": pa.array(
                [float(r["n_reject"]) / float(r["n"]) for r in ranked],
                pa.float64(),
            ),
        }
    )


def _sql_gate_order_opt(oracles: dict) -> str:
    cases = ",\n".join(
        f"""  SELECT '{g}' AS gate,
         CAST(SUM(CASE WHEN {g} THEN 0 ELSE 1 END) AS BIGINT) AS n_reject,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM gr"""
        for g in _GO_GATES
    ).replace(",\n  SELECT", "\n  UNION ALL\n  SELECT")
    return f"""
WITH gr AS MATERIALIZED ({oracles["gopher_rules"].strip()}),
agg AS (
{cases}
)
SELECT CAST(row_number() OVER (ORDER BY n_reject DESC, gate) AS BIGINT)
         AS rank,
       gate, n_reject,
       CAST(n_reject AS DOUBLE) / CAST(n AS DOUBLE) AS reject_rate
FROM agg
"""
