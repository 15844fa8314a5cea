"""Twenty-seventh-wave operators (round-3 continuation session,
2026-08-20).

Listed by name in ``queries.py``'s QUERIES/ORACLES.

- kcenter_coreset: greedy farthest-point (k-center / Gonzalez)
  representative selection over embeddings — the coreset primitive for
  "train on k diverse exemplars".
- isotonic_calibration: PAVA isotonic regression via the exact minimax
  closed form over a bucket histogram.
- cusum_alarm: CUSUM change-point detection on the daily event rate,
  exact-integer via the running-sum-minus-running-min identity.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# kcenter_coreset — greedy farthest-point selection (Gonzalez k-center)
# ---------------------------------------------------------------------------

_KC_K = 8


def q_kcenter_coreset(sf_dir: str):
    """Greedy k-center (Gonzalez) coreset selection over the embedding
    table: start from the lowest vec_id, then k−1 times pick the point
    FARTHEST from every already-chosen center (ties → lowest id) — the
    2-approximation to the k-center cover and the standard diversity-
    first exemplar selector for training-data curation. Output: the
    selection trajectory (t, vec_id, dist_fp) where dist_fp is the
    picked point's min squared distance to all earlier centers (its
    coverage radius at selection — non-increasing in t).

    Exactness: the fixed-point embedding quantization (2^20 scale, the
    cluster-stage discipline) makes every distance an exact int64.

    Distributed shape: k−1 passes; each broadcasts the (t, d) center
    matrix, computes per-batch min-distance + local argmax, and reduces
    #batches candidate rows on the driver. Linear scans, no shuffle; at
    north-star scale k passes of map-only work.
    """
    from ..stages.cluster import quantize_embeddings

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).materialize()  # k passes over the same table

    first = emb.min("vec_id")
    centers: list[int] = [int(first)]
    cvecs: list[np.ndarray] = []

    def vec_of(vid: int) -> np.ndarray:
        row = emb.filter(expr=f"vec_id == {vid}").take(1)[0]
        return quantize_embeddings(pa.Table.from_pylist([row]))[0]

    cvecs.append(vec_of(centers[0]))
    out_t, out_id, out_d = [0], [centers[0]], [0]

    for t in range(1, _KC_K):
        cmat = np.stack(cvecs)
        cref = ray.put(cmat)

        def far(batch: pa.Table) -> pa.Table:
            cm = ray.get(cref)
            ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
            x = quantize_embeddings(batch)
            diff = x[:, None, :] - cm[None, :, :]
            dist = np.einsum("nkd,nkd->nk", diff, diff).min(axis=1)
            best = np.lexsort((ids, -dist))[0]
            return pa.table(
                {
                    "vec_id": pa.array([int(ids[best])], pa.int64()),
                    "mind": pa.array([int(dist[best])], pa.int64()),
                }
            )

        cand = emb.map_batches(far, batch_format="pyarrow").take_all()  # bounded: one candidate row per batch (k-center argmax partials)
        cand.sort(key=lambda r: (-int(r["mind"]), int(r["vec_id"])))
        pick, d = int(cand[0]["vec_id"]), int(cand[0]["mind"])
        centers.append(pick)
        cvecs.append(vec_of(pick))
        out_t.append(t)
        out_id.append(pick)
        out_d.append(d)

    return pa.table(
        {
            "t": pa.array(out_t, pa.int64()),
            "vec_id": pa.array(out_id, pa.int64()),
            "dist_fp": pa.array(out_d, pa.int64()),
        }
    )


def _sql_kcenter_coreset() -> str:
    parts = [
        """xf AS MATERIALIZED (
  SELECT vec_id, generate_subscripts(embedding, 1) AS dim,
         CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1048576.0
                    + CAST(0.5 AS DOUBLE)) AS BIGINT) AS v
  FROM embeddings
),
d AS MATERIALIZED (
  SELECT a.vec_id AS a, b.vec_id AS b,
         CAST(SUM((a.v - b.v) * (a.v - b.v)) AS BIGINT) AS dist_fp
  FROM xf a JOIN xf b USING (dim)
  GROUP BY a.vec_id, b.vec_id
),
c0 AS (SELECT MIN(vec_id) AS id FROM embeddings),
m1 AS MATERIALIZED (
  SELECT d.b AS vec_id, d.dist_fp
  FROM d WHERE d.a = (SELECT id FROM c0)
)"""
    ]
    for t in range(1, _KC_K):
        parts.append(
            f"""p{t} AS MATERIALIZED (
  SELECT vec_id, dist_fp FROM m{t}
  ORDER BY dist_fp DESC, vec_id LIMIT 1
)"""
        )
        if t < _KC_K - 1:
            parts.append(
                f"""m{t + 1} AS MATERIALIZED (
  SELECT m.vec_id, LEAST(m.dist_fp, d.dist_fp) AS dist_fp
  FROM m{t} m JOIN d
    ON d.a = (SELECT vec_id FROM p{t}) AND d.b = m.vec_id
)"""
            )
    sel = "\nUNION ALL\n".join(
        ["SELECT CAST(0 AS BIGINT) AS t, id AS vec_id, CAST(0 AS BIGINT) AS dist_fp FROM c0"]
        + [
            f"SELECT CAST({t} AS BIGINT), vec_id, dist_fp FROM p{t}"
            for t in range(1, _KC_K)
        ]
    )
    return "WITH " + ",\n".join(parts) + "\n" + sel


# ---------------------------------------------------------------------------
# isotonic_calibration — PAVA isotonic fit via the minimax closed form
# ---------------------------------------------------------------------------

_ISO_BUCKET_W = 50
_ISO_TOKEN = "query"


def q_isotonic_calibration(sf_dir: str):
    """Isotonic (monotone non-decreasing) calibration of an empirical
    rate against a score: P(doc contains the token 'query') vs the
    doc-length bucket — the PAVA fit every probability calibrator
    (and every learned quality-score recalibration) runs. Computed via
    the exact minimax identity fit_i = max_{j≤i} min_{k≥i}
    mean(y[j..k]) — a closed form over the bucket histogram, so no
    iterative pooling has to be mirrored.

    Float discipline: every mean is the division of two exact int64
    cumulative sums; both engines evaluate min/max over the IDENTICAL
    set of doubles. Distributed shape: ONE aggregate → ≤ #buckets rows
    → O(B³) driver fold (B ≈ 16 — bounded by the bucket width, not the
    data).
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text", "n_chars"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        nc = batch.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64)
        y = np.fromiter(
            (
                1 if _ISO_TOKEN in (t or "").split() else 0
                for t in batch.column("text").to_pylist()
            ),
            dtype=np.int64,
            count=len(nc),
        )
        b = nc // _ISO_BUCKET_W
        ub, inv = np.unique(b, return_inverse=True)
        n = np.bincount(inv)
        pos = np.bincount(inv, weights=y).astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array(ub, pa.int64()),
                "n": pa.array(n.astype(np.int64), pa.int64()),
                "pos": pa.array(pos, pa.int64()),
            }
        )

    rows = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(
            ray.data.aggregate.Sum("n", alias_name="n"),
            ray.data.aggregate.Sum("pos", alias_name="pos"),
        )
        .take_all()  # bounded: one row per bucket (bounded key domain)
    )
    rows.sort(key=lambda r: int(r["bucket"]))
    buckets = [int(r["bucket"]) for r in rows]
    n = np.array([int(r["n"]) for r in rows], np.int64)
    pos = np.array([int(r["pos"]) for r in rows], np.int64)
    B = len(buckets)
    N = np.concatenate([[0], np.cumsum(n)])
    P = np.concatenate([[0], np.cumsum(pos)])
    fit = np.empty(B, np.float64)
    for i in range(B):
        best = -np.inf
        for j in range(i + 1):
            mn = np.inf
            for k in range(i, B):
                mn = min(
                    mn, float(P[k + 1] - P[j]) / float(N[k + 1] - N[j])
                )
            best = max(best, mn)
        fit[i] = best
    return pa.table(
        {
            "bucket": pa.array(buckets, pa.int64()),
            "n": pa.array(n, pa.int64()),
            "pos": pa.array(pos, pa.int64()),
            "rate": pa.array(
                pos.astype(np.float64) / n.astype(np.float64), pa.float64()
            ),
            "fit": pa.array(fit, pa.float64()),
        }
    )


SQL_ISOTONIC_CALIBRATION = rf"""
WITH y AS (
  SELECT n_chars // {_ISO_BUCKET_W} AS bucket,
         CASE WHEN list_contains(
                list_filter(regexp_split_to_array(text, '\s+'), x -> x <> ''),
                '{_ISO_TOKEN}')
              THEN 1 ELSE 0 END AS y
  FROM documents
),
bkt AS (
  SELECT bucket, CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(y) AS BIGINT) AS pos
  FROM y GROUP BY bucket
),
idx AS (
  SELECT bucket, n, pos,
         row_number() OVER (ORDER BY bucket) AS i
  FROM bkt
),
cum AS (
  SELECT i, bucket, n, pos,
         SUM(n) OVER (ORDER BY i) AS cn,
         SUM(pos) OVER (ORDER BY i) AS cp
  FROM idx
),
avgjk AS MATERIALIZED (
  SELECT j.i AS j, k.i AS k,
         CAST(k.cp - COALESCE(j0.cp, 0) AS DOUBLE)
           / CAST(k.cn - COALESCE(j0.cn, 0) AS DOUBLE) AS a
  FROM cum j
  JOIN cum k ON k.i >= j.i
  LEFT JOIN cum j0 ON j0.i = j.i - 1
),
mn AS (
  SELECT x.i, p.j, MIN(p.a) AS m
  FROM idx x JOIN avgjk p ON p.j <= x.i AND p.k >= x.i
  GROUP BY x.i, p.j
),
fit AS (SELECT i, MAX(m) AS fit FROM mn GROUP BY i)
SELECT c.bucket, c.n, c.pos,
       CAST(c.pos AS DOUBLE) / CAST(c.n AS DOUBLE) AS rate,
       f.fit
FROM idx c JOIN fit f ON f.i = c.i
"""


# ---------------------------------------------------------------------------
# cusum_alarm — CUSUM change-point detection on the daily event rate
# ---------------------------------------------------------------------------

_CU_DAY_US = 86_400_000_000


def q_cusum_alarm(sf_dir: str):
    """One-sided CUSUM monitoring of the daily event rate: with
    reference value k = ⌈mean daily count⌉, the statistic
    S_t = max(0, S_{t−1} + x_t − k) alarms when S_t > 2k — the control
    chart that flags a sustained rate increase (a crawler trap spewing
    URLs, a host gone hot) far earlier than any fixed threshold on x_t.

    Exactness: the recurrence is the closed form
    S_t = RS_t − min(0, min_{j≤t} RS_j) over the integer running sum
    RS of (x − k) — everything is exact int64 on both engines.

    Distributed shape: ONE daily aggregate; the scan fold is O(#days)
    on the driver (bounded by the calendar, not the data volume).
    """
    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["ts"])

    def daily(batch: pa.Table) -> pa.Table:
        ts_us = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        day = ts_us // _CU_DAY_US
        ub, cnt = np.unique(day, return_counts=True)
        return pa.table(
            {
                "day": pa.array(ub, pa.int64()),
                "x": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    rows = (
        ev.map_batches(daily, batch_format="pyarrow")
        .groupby("day")
        .aggregate(ray.data.aggregate.Sum("x", alias_name="x"))
        .take_all()  # bounded: one row per day (bounded key domain)
    )
    rows.sort(key=lambda r: int(r["day"]))
    days = np.array([int(r["day"]) for r in rows], np.int64)
    x = np.array([int(r["x"]) for r in rows], np.int64)
    nd = len(days)
    k = (int(x.sum()) + nd - 1) // nd
    rs = np.cumsum(x - k)
    run_min = np.minimum(np.minimum.accumulate(rs), 0)
    s = rs - run_min
    alarm = (s > 2 * k).astype(np.int64)
    return pa.table(
        {
            "day": pa.array(days, pa.int64()),
            "x": pa.array(x, pa.int64()),
            "s": pa.array(s, pa.int64()),
            "alarm": pa.array(alarm, pa.int64()),
        }
    )


SQL_CUSUM_ALARM = f"""
WITH daily AS (
  SELECT epoch_us(ts) // {_CU_DAY_US} AS day,
         CAST(COUNT(*) AS BIGINT) AS x
  FROM events GROUP BY 1
),
kk AS (
  SELECT (SUM(x) + COUNT(*) - 1) // COUNT(*) AS k FROM daily
),
w AS (
  SELECT day, x,
         SUM(x - kk.k) OVER (ORDER BY day) AS rs
  FROM daily, kk
),
st AS (
  SELECT day, x,
         rs - LEAST(0, MIN(rs) OVER (
           ORDER BY day ROWS UNBOUNDED PRECEDING)) AS s
  FROM w
)
SELECT st.day, st.x, CAST(st.s AS BIGINT) AS s,
       CAST(CASE WHEN st.s > 2 * kk.k THEN 1 ELSE 0 END AS BIGINT) AS alarm
FROM st, kk
"""
