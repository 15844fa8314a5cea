"""Twenty-second-wave operators (round-3 continuation session,
2026-08-20).

Listed by name in ``queries.py``'s QUERIES/ORACLES.

House rules throughout: integer accumulation (zipf_fit fixed-point
quantization for any sum of per-row float terms), scalar libm / POW
mirrored operand-for-operand, map-side partials before the one groupby.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# lsh_band_curve — measured vs theoretical LSH banding S-curve
# ---------------------------------------------------------------------------

_LBC_CONFIGS = ((8, 2), (4, 4), (2, 8))  # (bands, rows) over 16 perms


def q_lsh_band_curve(sf_dir: str):
    """The LSH banding S-curve, measured against its theory: for each
    (b bands × r rows) split of the 16-permutation signature, the
    MEASURED candidate count over the planted near-copy pair family vs
    the THEORETICAL expectation Σ_pairs 1 − (1 − J^r)^b (J = exact
    shingle Jaccard) — the chart every dedup-threshold choice is made
    from (more bands → recall at low J; more rows → precision). A
    measured count far from the expectation means the hash family is
    misbehaving.

    Float discipline: the per-pair theoretical probability is
    fixed-point-quantized (floor(p·1e9 + 0.5), POW/libm mirrored), so
    the cross-pair sum is an exact integer on both engines; the
    expectation is the one mirrored division.

    Distributed shape: signatures / band flags / exact J are pair-local
    (the minhash_lsh_eval map); per-batch (config, n_cand, sum_q)
    partials fold map-side, ONE groupby(config).
    """
    from .queries_wave10 import mh_est_coeffs, mh_shingle_hashes, mh_sig

    coeffs_a, coeffs_b = mh_est_coeffs()
    shingle_hashes = mh_shingle_hashes

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def partials(batch: pa.Table) -> pa.Table:
        n_pairs = 0
        n_cand = np.zeros(len(_LBC_CONFIGS), np.int64)
        sum_q = np.zeros(len(_LBC_CONFIGS), np.int64)
        for text in batch.column("text").to_pylist():
            toks = (text or "").split()
            xa = shingle_hashes(toks)
            xb = shingle_hashes(toks[1:])
            if len(xa) == 0 or len(xb) == 0:
                continue

            eq = mh_sig(xa, coeffs_a, coeffs_b) == mh_sig(xb, coeffs_a, coeffs_b)
            sa, sb = set(xa.tolist()), set(xb.tolist())
            j = float(len(sa & sb)) / float(len(sa | sb))
            n_pairs += 1
            for k, (b_, r_) in enumerate(_LBC_CONFIGS):
                n_cand[k] += bool(eq.reshape(b_, r_).all(axis=1).any())
                p = 1.0 - (1.0 - j**r_) ** b_
                sum_q[k] += math.floor(p * 1e9 + 0.5)
        return pa.table(
            {
                "bands": pa.array([c[0] for c in _LBC_CONFIGS], pa.int64()),
                "rows_per_band": pa.array(
                    [c[1] for c in _LBC_CONFIGS], pa.int64()
                ),
                "n_pairs": pa.array(
                    [n_pairs] * len(_LBC_CONFIGS), pa.int64()
                ),
                "n_cand": pa.array(n_cand, pa.int64()),
                "sum_q": pa.array(sum_q, pa.int64()),
            }
        )

    agg = (
        docs.map_batches(partials, batch_format="pyarrow")
        .groupby(["bands", "rows_per_band"])
        .aggregate(
            ray.data.aggregate.Sum("n_pairs", alias_name="n_pairs"),
            ray.data.aggregate.Sum("n_cand", alias_name="n_cand"),
            ray.data.aggregate.Sum("sum_q", alias_name="sum_q"),
        )
    )

    def finish(batch: pa.Table) -> pa.Table:
        sq = batch.column("sum_q").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "bands": batch.column("bands").cast(pa.int64()),
                "rows_per_band": batch.column("rows_per_band").cast(pa.int64()),
                "n_pairs": batch.column("n_pairs").cast(pa.int64()),
                "n_cand": batch.column("n_cand").cast(pa.int64()),
                "sum_q": pa.array(sq, pa.int64()),
                "expected_cand": pa.array(
                    sq.astype(np.float64) / 1e9, pa.float64()
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def _sql_lsh_band_curve() -> str:
    from .queries_wave10 import MH_PAIR_SQL_PREFIX, _MH_EST_PERMS, _MH_P

    cfg_rows = ", ".join(f"({b}, {r})" for b, r in _LBC_CONFIGS)
    return (
        (MH_PAIR_SQL_PREFIX
        + r""",
permmatch AS MATERIALIZED (
  SELECT p.a_id, sa.i,
         CASE WHEN sa.m = sb.m THEN 1 ELSE 0 END AS eq
  FROM pairs p
  JOIN sigs sa ON sa.id = p.a_id
  JOIN sigs sb ON sb.id = p.b_id AND sb.i = sa.i
),
cfg(bands, rows_per_band) AS (VALUES {CFGS}),
band_cand AS (
  SELECT pm.a_id, c.bands, c.rows_per_band,
         MAX(bandall) AS is_cand
  FROM (
    SELECT pm2.a_id, c2.bands, c2.rows_per_band,
           pm2.i // c2.rows_per_band AS band,
           MIN(pm2.eq) AS bandall
    FROM permmatch pm2, cfg c2
    GROUP BY pm2.a_id, c2.bands, c2.rows_per_band, pm2.i // c2.rows_per_band
  ) AS pm
  JOIN cfg c ON c.bands = pm.bands AND c.rows_per_band = pm.rows_per_band
  GROUP BY pm.a_id, c.bands, c.rows_per_band
),
ab AS (
  SELECT p.a_id, s.x,
         MAX(CASE WHEN s.id = p.a_id THEN 1 ELSE 0 END) AS ia,
         MAX(CASE WHEN s.id = p.b_id THEN 1 ELSE 0 END) AS ib
  FROM pairs p JOIN shh s ON s.id IN (p.a_id, p.b_id)
  GROUP BY p.a_id, s.x
),
exact AS MATERIALIZED (
  SELECT a_id,
         CAST(SUM(ia * ib) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE) AS j
  FROM ab GROUP BY a_id
),
theo AS (
  SELECT c.bands, c.rows_per_band,
         CAST(SUM(CAST(floor((1e0 - POW(1e0 - POW(e.j, CAST(c.rows_per_band AS DOUBLE)),
                                        CAST(c.bands AS DOUBLE))) * 1e9 + 5e-1)
                       AS HUGEINT)) AS BIGINT) AS sum_q,
         CAST(COUNT(*) AS BIGINT) AS n_pairs
  FROM exact e, cfg c
  GROUP BY c.bands, c.rows_per_band
)
SELECT t.bands, t.rows_per_band, t.n_pairs,
       CAST(bc.n_cand AS BIGINT) AS n_cand, t.sum_q,
       CAST(t.sum_q AS DOUBLE) / 1e9 AS expected_cand
FROM theo t
JOIN (
  SELECT bands, rows_per_band, SUM(is_cand) AS n_cand
  FROM band_cand GROUP BY bands, rows_per_band
) bc ON bc.bands = t.bands AND bc.rows_per_band = t.rows_per_band
""")
        .replace("{P}", str(_MH_P))
        .replace("{K}", str(_MH_EST_PERMS))
        .replace("{CFGS}", cfg_rows)
    )


# ---------------------------------------------------------------------------
# vocab_drift_chi2 — token-distribution drift between snapshot halves
# ---------------------------------------------------------------------------

_VD_TOP = 20


def q_vocab_drift_chi2(sf_dir: str):
    """Token-distribution drift monitor between two crawl snapshots
    (the deterministic even/odd doc_id split standing in for t vs t+1):
    per token seen in either half, the occurrence counts and the
    2-sample chi-square term (c_e − c_o)²/(c_e + c_o); output the
    top-20 movers by (term_q DESC, token ASC) plus each row carries the
    corpus-level chi2 totals — the textual sibling of embedding_drift.

    Float discipline: each per-token chi² term is fixed-point-quantized
    (exact integer numerators (c_e − c_o)² and the one division
    mirrored BEFORE quantizing), so the corpus total Σ term_q is an
    exact integer on both engines.

    Distributed shape: per-batch (token, half) Counter partials, ONE
    groupby(token) with two sums; the movers cut is the shared
    sort+limit; totals fold from the same aggregate.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        ce: dict[str, int] = {}
        co: dict[str, int] = {}
        for did, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            tgt = ce if did % 2 == 0 else co
            for tok in (t or "").split():
                tgt[tok] = tgt.get(tok, 0) + 1
        toks = sorted(set(ce) | set(co))
        return pa.table(
            {
                "tok": pa.array(toks, pa.string()),
                "c_even": pa.array([ce.get(t, 0) for t in toks], pa.int64()),
                "c_odd": pa.array([co.get(t, 0) for t in toks], pa.int64()),
            }
        )

    def term_chi2(batch: pa.Table) -> pa.Table:
        # per-token chi2 term rides with the rows (r4: the former
        # vocabulary-sized collect is gone — the total is ONE integer
        # aggregate, the movers cut ONE distributed sort+limit)
        ce_ = batch.column("c_even").to_numpy(zero_copy_only=False)
        co_ = batch.column("c_odd").to_numpy(zero_copy_only=False)
        q = np.floor(
            ((ce_ - co_).astype(np.float64) ** 2) / (ce_ + co_).astype(np.float64)
            * 1e9
            + 0.5
        ).astype(np.int64)
        return pa.table(
            {
                "tok": batch.column("tok"),
                "c_even": batch.column("c_even"),
                "c_odd": batch.column("c_odd"),
                "term_q": pa.array(q, pa.int64()),
            }
        )

    scored = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("tok")
        .aggregate(
            ray.data.aggregate.Sum("c_even", alias_name="c_even"),
            ray.data.aggregate.Sum("c_odd", alias_name="c_odd"),
        )
        .map_batches(term_chi2, batch_format="pyarrow")
        .materialize()
    )
    total_q = int(scored.sum("term_q"))
    top = [
        (r["tok"], int(r["c_even"]), int(r["c_odd"]), int(r["term_q"]))
        for r in scored.sort(["term_q", "tok"], descending=[True, False])
        .limit(_VD_TOP)
        .take_all()  # bounded: exactly the K mover rows
    ]
    chi2 = float(total_q) / 1e9
    n = len(top)
    return pa.table(
        {
            "tok": pa.array([t[0] for t in top], pa.string()),
            "c_even": pa.array([t[1] for t in top], pa.int64()),
            "c_odd": pa.array([t[2] for t in top], pa.int64()),
            "term_q": pa.array([t[3] for t in top], pa.int64()),
            "chi2_total_q": pa.array([total_q] * n, pa.int64()),
            "chi2_total": pa.array([chi2] * n, pa.float64()),
        }
    )


SQL_VOCAB_DRIFT_CHI2 = rf"""
WITH toks AS (
  SELECT doc_id % 2 AS half,
         unnest(list_filter(regexp_split_to_array(text, '\s+'),
                            x -> x <> '')) AS tok
  FROM documents
),
counts AS (
  SELECT tok,
         CAST(SUM(CASE WHEN half = 0 THEN 1 ELSE 0 END) AS BIGINT) AS c_even,
         CAST(SUM(CASE WHEN half = 1 THEN 1 ELSE 0 END) AS BIGINT) AS c_odd
  FROM toks GROUP BY tok
),
q AS (
  SELECT tok, c_even, c_odd,
         CAST(floor(CAST((c_even - c_odd) * (c_even - c_odd) AS DOUBLE)
                    / CAST(c_even + c_odd AS DOUBLE) * 1e9 + 5e-1)
              AS BIGINT) AS term_q
  FROM counts
),
tot AS (SELECT CAST(SUM(term_q) AS BIGINT) AS chi2_total_q FROM q),
r AS (
  SELECT tok, c_even, c_odd, term_q,
         row_number() OVER (ORDER BY term_q DESC, tok) AS rn
  FROM q
)
SELECT r.tok, r.c_even, r.c_odd, r.term_q,
       tot.chi2_total_q,
       CAST(tot.chi2_total_q AS DOUBLE) / 1e9 AS chi2_total
FROM r, tot WHERE r.rn <= {_VD_TOP}
"""
