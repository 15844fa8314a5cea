"""Fifty-seventh-wave operators (round-3 continuation session,
2026-08-21) — FDR control, overdispersion, Copeland fusion.

Listed by name in ``queries.py``'s QUERIES/ORACLES.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# bh_fdr — Benjamini-Hochberg step-up over empirical host p-values
# ---------------------------------------------------------------------------

_BH_ALPHA_NUM = 1  # alpha = 1/10
_BH_ALPHA_DEN = 10


def q_bh_fdr(sf_dir: str):
    """Benjamini–Hochberg FDR control over per-document anomaly
    p-values: each document carries an md5-uniform p-value (52-bit
    integer numerator over 2⁵²) under the null, except the planted
    anomalies (doc_id%97==0) whose p-values are divided by 1024; the
    BH step-up keeps the largest k with p_(k) ≤ k·α/m (α=0.1) — the
    multiple-testing discipline an anomaly dashboard needs (Bonferroni
    kills all power, raw α floods it at 10⁶ tests). Output: the
    discovery set — ranked rows with p-value numerator, the planted
    flag (audit) and the BH threshold numerator at that rank.

    Exactness: the step-up comparison cross-multiplies integers:
    p ≤ k·α/m ⇔ u52·α_den·m ≤ k·α_num·2⁵² — no division anywhere.
    Distributed shape: p-value generation is one map; ranking is one
    distributed sort; the step-up scan folds over the (small)
    candidate prefix — only rows with u52·α_den·m ≤ m·α_num·2⁵²
    (p ≤ α, a superset of any BH discovery) leave the sort.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )
    n_docs = docs.count()

    def pvals(batch: pa.Table) -> pa.Table:
        import hashlib

        ids = batch.column("doc_id").to_pylist()
        u, planted = [], []
        for d in ids:
            h = int(
                hashlib.md5(f"bh|{d}".encode()).hexdigest()[:13], 16
            )
            pl = int(d % 97 == 0)
            u.append(h // 1024 if pl else h)
            planted.append(pl)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "u52": pa.array(u, pa.int64()),
                "planted": pa.array(planted, pa.int64()),
            }
        )

    pv = docs.map_batches(pvals, batch_format="pyarrow")
    # prefix prune: any BH discovery has p <= alpha; only those rows
    # (tiny fraction) need the driver-side step-up
    cut = _BH_ALPHA_NUM * (1 << 52) // _BH_ALPHA_DEN

    def prune(batch: pa.Table) -> pa.Table:
        keep = (
            batch.column("u52").to_numpy(zero_copy_only=False) <= cut
        )
        return batch.filter(pa.array(keep))

    cand = sorted(
        pv.map_batches(prune, batch_format="pyarrow").take_all(),  # bounded: BH-pruned candidate set (p-value cut)
        key=lambda r: (int(r["u52"]), int(r["doc_id"])),
    )
    kstar = 0
    for k, r in enumerate(cand, start=1):
        if int(r["u52"]) * _BH_ALPHA_DEN * n_docs <= k * _BH_ALPHA_NUM * (
            1 << 52
        ):
            kstar = k
    out = cand[:kstar]
    return pa.table(
        {
            "rank": pa.array(
                list(range(1, len(out) + 1)), pa.int64()
            ),
            "doc_id": pa.array([int(r["doc_id"]) for r in out], pa.int64()),
            "u52": pa.array([int(r["u52"]) for r in out], pa.int64()),
            "planted": pa.array(
                [int(r["planted"]) for r in out], pa.int64()
            ),
            "m": pa.array([n_docs] * len(out), pa.int64()),
        }
    )


def _sql_bh_fdr(sql_pages: str) -> str:
    c52 = 1 << 52
    return f"""
WITH pv AS (
  SELECT doc_id,
         CASE WHEN doc_id % 97 = 0
              THEN CAST(('0x' || substr(md5('bh|' || doc_id), 1, 13))
                        AS BIGINT) // 1024
              ELSE CAST(('0x' || substr(md5('bh|' || doc_id), 1, 13))
                        AS BIGINT) END AS u52,
         CAST(CASE WHEN doc_id % 97 = 0 THEN 1 ELSE 0 END AS BIGINT)
           AS planted
  FROM documents
),
mm AS (SELECT CAST(COUNT(*) AS BIGINT) AS m FROM pv),
r AS (
  SELECT pv.*, CAST(row_number() OVER (ORDER BY u52, doc_id) AS BIGINT)
           AS rank
  FROM pv
),
ks AS (
  SELECT COALESCE(MAX(rank), 0) AS kstar
  FROM r, mm
  WHERE CAST(u52 AS HUGEINT) * {_BH_ALPHA_DEN} * mm.m
        <= CAST(rank AS HUGEINT) * {_BH_ALPHA_NUM} * {c52}
)
SELECT r.rank, r.doc_id, r.u52, r.planted, mm.m
FROM r, mm, ks WHERE r.rank <= ks.kstar
"""


# ---------------------------------------------------------------------------
# overdispersion — negative-binomial moment diagnostics per host
# ---------------------------------------------------------------------------

_OD_Q = 10**6
_OD_DAYS = 30


def q_overdispersion(sf_dir: str):
    """Overdispersion diagnostics of per-user daily event counts: for
    each user, the dispersion index D = var/mean over their 30 daily
    counts — D≈1 is Poisson, D>1 means bursty arrivals that a Poisson
    capacity model underestimates; the method-of-moments negative-
    binomial r = mean²/(var−mean) quantifies the burstiness. Output:
    per user the exact integer moment pieces, quantized D, and r (or
    the underdispersed flag when var ≤ mean).

    Exactness: daily counts, Σx, Σx² are exact integers;
    D_q = (T·S2−S²)·10⁶//(T·S·… one integer expression; r_q similar
    with a sign guard (no negative floor division anywhere).
    Distributed shape: one (user, day) partial count, one
    groupby(user) fold of the 30-bucket vectors map-side.
    """
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "user_id"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        us = batch.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        day = us // 86_400_000_000 - 19723
        uid = batch.column("user_id").to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        df = (
            pd.DataFrame({"user_id": uid, "day": day})
            .groupby(["user_id", "day"], sort=True)
            .size()
            .reset_index(name="c")
        )
        return pa.table(
            {
                "user_id": pa.array(
                    df["user_id"].to_numpy(np.int64), pa.int64()
                ),
                "day": pa.array(df["day"].to_numpy(np.int64), pa.int64()),
                "c": pa.array(df["c"].to_numpy(np.int64), pa.int64()),
            }
        )

    daily = (
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby(["user_id", "day"])
        .aggregate(ray.data.aggregate.Sum("c", alias_name="c"))
    )

    def moments(batch: pa.Table) -> pa.Table:
        import pandas as pd

        df = pd.DataFrame(
            {
                "user_id": batch.column("user_id").to_numpy(
                    zero_copy_only=False
                ),
                "c": batch.column("c").to_numpy(zero_copy_only=False),
            }
        )
        g = df.assign(c2=df["c"] * df["c"]).groupby("user_id").agg(
            s=("c", "sum"), s2=("c2", "sum")
        ).reset_index()
        return pa.table(
            {
                "user_id": pa.array(
                    g["user_id"].to_numpy(np.int64), pa.int64()
                ),
                "s": pa.array(g["s"].to_numpy(np.int64), pa.int64()),
                "s2": pa.array(g["s2"].to_numpy(np.int64), pa.int64()),
            }
        )

    T = _OD_DAYS

    def per_user_stats(batch: pa.Table) -> pa.Table:
        # per-user arithmetic stays WITH the rows (r4: the former
        # user-sized driver fold is now a streamed map; integer-exact)
        s = batch.column("s").to_numpy(zero_copy_only=False).astype(object)
        s2 = batch.column("s2").to_numpy(zero_copy_only=False).astype(object)
        d_q, nb_r_q, under = [], [], []
        for si, s2i in zip(s, s2):
            si, s2i = int(si), int(s2i)
            # D = var/mean = (T*S2 - S^2) / (T*S)  (biased var over T days)
            d_q.append((T * s2i - si * si) * _OD_Q // (T * si))
            vm_num = T * s2i - si * si - T * si  # var-mean sign carrier
            if vm_num > 0:
                nb_r_q.append(si * si * _OD_Q // vm_num)
                under.append(0)
            else:
                nb_r_q.append(-1)
                under.append(1)
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "s": batch.column("s"),
                "s2": batch.column("s2"),
                "d_q": pa.array([int(v) for v in d_q], pa.int64()),
                "nb_r_q": pa.array([int(v) for v in nb_r_q], pa.int64()),
                "under": pa.array(under, pa.int64()),
            }
        )

    return (
        daily.map_batches(moments, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(
            ray.data.aggregate.Sum("s", alias_name="s"),
            ray.data.aggregate.Sum("s2", alias_name="s2"),
        )
        .map_batches(per_user_stats, batch_format="pyarrow")
    )


SQL_OVERDISPERSION = f"""
WITH daily AS (
  SELECT user_id,
         epoch_us(ts) // 86400000000 AS day,
         CAST(COUNT(*) AS BIGINT) AS c
  FROM events GROUP BY user_id, day
),
m AS (
  SELECT user_id, CAST(SUM(c) AS BIGINT) AS s,
         CAST(SUM(c * c) AS BIGINT) AS s2
  FROM daily GROUP BY user_id
)
SELECT user_id, s, s2,
       ({_OD_DAYS} * s2 - s * s) * {_OD_Q} // ({_OD_DAYS} * s) AS d_q,
       CAST(CASE WHEN {_OD_DAYS} * s2 - s * s - {_OD_DAYS} * s > 0
                 THEN s * s * {_OD_Q}
                      // ({_OD_DAYS} * s2 - s * s - {_OD_DAYS} * s)
                 ELSE -1 END AS BIGINT) AS nb_r_q,
       CAST(CASE WHEN {_OD_DAYS} * s2 - s * s - {_OD_DAYS} * s > 0
                 THEN 0 ELSE 1 END AS BIGINT) AS under
FROM m
"""


# ---------------------------------------------------------------------------
# copeland_fusion — pairwise-majority fusion of three rankings
# ---------------------------------------------------------------------------

_CF_TOP = 20


def q_copeland_fusion(sf_dir: str):
    """Copeland rank fusion of three document rankings (BM25 score,
    QLD score, doc length): candidate A beats B if a MAJORITY of the
    rankers order A above B; Copeland score = wins − losses over all
    pairs — the Condorcet-consistent alternative to Borda (which the
    repo already has) that is immune to one ranker's scale. Runs over
    the union of each ranker's top-{t}. Output: fused ranking with
    per-candidate Copeland scores.

    Exactness: ranker orders reduce to integer rank positions
    (score-DESC, doc_id tie-break); majority comparisons and Copeland
    scores are pure integer counts. Distributed shape: the two
    retrieval rankings reuse their distributed plans; the ≤3t-candidate
    pairwise table is driver arithmetic (SQL: one self-join).
    """
    from .queries import _bm25_scored
    from .queries_wave55 import q_qld_topk

    bm = (
        _bm25_scored(sf_dir)
        .sort(["score", "doc_id"], descending=[True, False])
        .limit(_CF_TOP)
        .take_all()  # bounded: ≤ _CF_TOP rows (sort+limit)
    )
    qld = q_qld_topk(sf_dir).to_pylist()  # top-10
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    lens = (
        docs.sort(["n_chars", "doc_id"], descending=[True, False])
        .limit(_CF_TOP)
        .take_all()  # bounded: ≤ _CF_TOP rows (sort+limit)
    )
    cand = sorted(
        {int(r["doc_id"]) for r in bm}
        | {int(r["doc_id"]) for r in qld}
        | {int(r["doc_id"]) for r in lens}
    )
    # rank positions within each ranker; absent candidates rank last
    # (position = big sentinel, ties broken by doc_id for determinism)
    def positions(rows):
        pos = {}
        for i, r in enumerate(rows):
            pos[int(r["doc_id"])] = i + 1
        return pos

    ranks = [positions(bm), positions(qld), positions(lens)]
    big = 10**6

    def key(rk, d):
        return (rk.get(d, big), d)

    cop = {d: 0 for d in cand}
    for i, a in enumerate(cand):
        for b in cand[i + 1 :]:
            wins_a = sum(1 for rk in ranks if key(rk, a) < key(rk, b))
            if 2 * wins_a > len(ranks):
                cop[a] += 1
                cop[b] -= 1
            elif 2 * wins_a < len(ranks):
                cop[b] += 1
                cop[a] -= 1
    ordered = sorted(cand, key=lambda d: (-cop[d], d))
    return pa.table(
        {
            "doc_id": pa.array(ordered, pa.int64()),
            "copeland": pa.array([cop[d] for d in ordered], pa.int64()),
            "rank": pa.array(
                list(range(1, len(ordered) + 1)), pa.int64()
            ),
        }
    )


def _sql_copeland(bm25_top_sql: str, qld_sql: str) -> str:
    return f"""
WITH bmr AS (
  SELECT doc_id, row_number() OVER (ORDER BY score DESC, doc_id) AS pos
  FROM ({bm25_top_sql})
),
qldr AS (SELECT doc_id, rank AS pos FROM ({qld_sql})),
lenr AS (
  SELECT doc_id,
         row_number() OVER (ORDER BY n_chars DESC, doc_id) AS pos
  FROM documents QUALIFY pos <= {_CF_TOP}
),
cand AS (
  SELECT DISTINCT doc_id FROM (
    SELECT doc_id FROM bmr UNION ALL SELECT doc_id FROM qldr
    UNION ALL SELECT doc_id FROM lenr
  )
),
pos AS (
  SELECT c.doc_id,
         COALESCE(bmr.pos, 1000000) AS p1,
         COALESCE(qldr.pos, 1000000) AS p2,
         COALESCE(lenr.pos, 1000000) AS p3
  FROM cand c
  LEFT JOIN bmr ON bmr.doc_id = c.doc_id
  LEFT JOIN qldr ON qldr.doc_id = c.doc_id
  LEFT JOIN lenr ON lenr.doc_id = c.doc_id
),
duel AS (
  SELECT a.doc_id AS x, b.doc_id AS y,
         (CASE WHEN (a.p1, a.doc_id) < (b.p1, b.doc_id)
               THEN 1 ELSE 0 END
          + CASE WHEN (a.p2, a.doc_id) < (b.p2, b.doc_id)
                 THEN 1 ELSE 0 END
          + CASE WHEN (a.p3, a.doc_id) < (b.p3, b.doc_id)
                 THEN 1 ELSE 0 END) AS wins_x
  FROM pos a JOIN pos b ON a.doc_id <> b.doc_id
),
cop AS (
  SELECT x AS doc_id,
         CAST(SUM(CASE WHEN 2 * wins_x > 3 THEN 1
                       WHEN 2 * wins_x < 3 THEN -1 ELSE 0 END)
              AS BIGINT) AS copeland
  FROM duel GROUP BY x
)
SELECT doc_id, copeland,
       CAST(row_number() OVER (ORDER BY copeland DESC, doc_id)
            AS BIGINT) AS rank
FROM cop
ORDER BY copeland DESC, doc_id
"""
