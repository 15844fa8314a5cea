"""Twenty-eighth-wave operators (round-3 continuation session,
2026-08-20).

Listed by name in ``queries.py``'s QUERIES/ORACLES.

- priority_sample_est: Duffield–Lund–Thorup priority sampling WITH its
  subset-sum estimator (the part Efraimidis–Spirakis weighted_sample
  doesn't give you).
- lang_length_quantiles: exact per-group order statistics via counting
  histograms — no per-group sort, no per-group scheduling unit.
- facility_select: greedy facility-location (submodular coverage)
  selection over a bounded candidate pool — the coverage-max sibling
  of kcenter_coreset's diversity-max.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# priority_sample_est — DLT priority sampling + subset-sum estimator
# ---------------------------------------------------------------------------

_PS_K = 32
_PS_QBITS = 20  # fixed-point scale for the order-free estimator sum


def q_priority_sample_est(sf_dir: str):
    """Priority sampling (Duffield–Lund–Thorup): weight w = text bytes
    + 1, priority p = w / u with u the md5-slice uniform (the
    weighted_sample discipline); keep the k highest priorities, set the
    threshold τ to the (k+1)-th, and estimate each kept item's weight
    as ŵ = max(w, τ) — the estimator with E[ŵ] = w that makes a
    k-row sample answer arbitrary subset-sum queries. Output: the k
    sampled rows with (w, priority, w_hat_q) plus the corpus-total
    estimate beside the true total on every row — the accuracy readout.

    Float discipline: priorities and τ are mirrored double divisions;
    ŵ is quantized to fixed-point BEFORE summation, so the estimator
    total is an exact integer fold on both engines (NOTES rule: never
    aggregate-SUM an ordered float fold).

    Distributed shape: map-side per-batch top-(k+1) prune, ONE global
    sort+limit over ≤ k+1 rows per block.
    """
    import pyarrow.compute as pc

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def keyed(batch: pa.Table) -> pa.Table:
        import hashlib

        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        w = (
            pc.binary_length(batch.column("text")).cast(pa.int64()).to_numpy(
                zero_copy_only=False
            )
            + 1
        )
        h = np.array(
            [
                int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16)
                for i in ids
            ],
            dtype=np.int64,
        )
        u = (h.astype(np.float64) + 1.0) / 4294967296.0
        p = w.astype(np.float64) / u
        # local prune: only the top k+1 priorities of this batch can
        # influence the global top k or the threshold
        order = np.lexsort((ids, -p))[: _PS_K + 1]
        return pa.table(
            {
                "doc_id": pa.array(ids[order], pa.int64()),
                "w": pa.array(w[order], pa.int64()),
                "priority": pa.array(p[order], pa.float64()),
                # negated sort key: one ascending multi-key sort replaces
                # the unsupported per-key direction list
                "neg_p": pa.array(-p[order], pa.float64()),
            }
        )

    pruned = docs.map_batches(keyed, batch_format="pyarrow")
    top = pruned.sort(["neg_p", "doc_id"]).limit(_PS_K + 1)
    rows = top.take_all()  # bounded: ≤ K+1 rows (sort+limit)
    tau = float(rows[_PS_K]["priority"]) if len(rows) > _PS_K else 0.0
    kept = rows[:_PS_K]
    true_total = int(
        docs.map_batches(
            lambda b: pa.table(
                {
                    "s": pa.array(
                        [
                            int(
                                (
                                    pc.binary_length(b.column("text"))
                                    .cast(pa.int64())
                                    .to_numpy(zero_copy_only=False)
                                    + 1
                                ).sum()
                            )
                        ],
                        pa.int64(),
                    )
                }
            ),
            batch_format="pyarrow",
        ).sum("s")
    )
    scale = float(1 << _PS_QBITS)
    whq = [
        int(np.floor(max(float(r["w"]), tau) * scale + 0.5)) for r in kept
    ]
    est_q = sum(whq)
    return pa.table(
        {
            "doc_id": pa.array([r["doc_id"] for r in kept], pa.int64()),
            "w": pa.array([r["w"] for r in kept], pa.int64()),
            "priority": pa.array(
                [r["priority"] for r in kept], pa.float64()
            ),
            "w_hat_q": pa.array(whq, pa.int64()),
            "est_total": pa.array([est_q / scale] * len(kept), pa.float64()),
            "true_total": pa.array([true_total] * len(kept), pa.int64()),
        }
    )


SQL_PRIORITY_SAMPLE_EST = f"""
WITH w AS (
  SELECT doc_id, CAST(strlen(text) + 1 AS BIGINT) AS w,
         CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
              AS BIGINT) AS h
  FROM documents
),
pr AS (
  SELECT doc_id, w,
         CAST(w AS DOUBLE)
           / ((CAST(h AS DOUBLE) + CAST(1.0 AS DOUBLE))
              / CAST(4294967296.0 AS DOUBLE)) AS priority
  FROM w
),
r AS (
  SELECT doc_id, w, priority,
         row_number() OVER (ORDER BY priority DESC, doc_id) AS rn
  FROM pr
),
tau AS (
  SELECT COALESCE(MAX(CASE WHEN rn = {_PS_K + 1} THEN priority END), 0e0)
           AS tau
  FROM r
),
kept AS (
  SELECT r.doc_id, r.w, r.priority,
         CAST(floor(GREATEST(CAST(r.w AS DOUBLE), tau.tau)
                    * {float(1 << _PS_QBITS)!r} + 5e-1) AS BIGINT) AS w_hat_q
  FROM r, tau WHERE r.rn <= {_PS_K}
),
tot AS (SELECT CAST(SUM(w) AS BIGINT) AS true_total FROM w),
est AS (SELECT CAST(SUM(w_hat_q) AS BIGINT) AS eq FROM kept)
SELECT k.doc_id, k.w, k.priority, k.w_hat_q,
       CAST(est.eq AS DOUBLE) / {float(1 << _PS_QBITS)!r} AS est_total,
       tot.true_total
FROM kept k, tot, est
"""


# ---------------------------------------------------------------------------
# lang_length_quantiles — exact per-group order statistics, no sort
# ---------------------------------------------------------------------------

_LQ_PCTS = ((50, "p50"), (90, "p90"))


def q_lang_length_quantiles(sf_dir: str):
    """Exact per-language median and p90 of document length — the
    grouped order statistic (value at 1-based rank ⌈p·n/100⌉ under
    n_chars order), computed from a (lang, n_chars) counting histogram:
    no global or per-group sort, no per-group scheduling unit; the
    driver folds ≤ |langs|·|distinct lengths| count rows.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        df = (
            pd.DataFrame(
                {
                    "lang": batch.column("lang").to_pylist(),
                    "n_chars": batch.column("n_chars").to_numpy(
                        zero_copy_only=False
                    ),
                }
            )
            .groupby(["lang", "n_chars"], sort=True)
            .size()
            .reset_index(name="c")
        )
        return pa.table(
            {
                "lang": pa.array(df["lang"], pa.string()),
                "n_chars": pa.array(
                    df["n_chars"].to_numpy(np.int64), pa.int64()
                ),
                "c": pa.array(df["c"].to_numpy(np.int64), pa.int64()),
            }
        )

    rows = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "n_chars"])
        .aggregate(ray.data.aggregate.Sum("c", alias_name="c"))
        .take_all()  # bounded: (lang × distinct length) cells — length domain ≤ max doc length
    )
    hist: dict[str, list] = {}
    for r in rows:
        hist.setdefault(r["lang"], []).append((int(r["n_chars"]), int(r["c"])))
    out = {"lang": [], "n": [], "p50": [], "p90": []}
    for lang in sorted(hist):
        vals = sorted(hist[lang])
        n = sum(c for _, c in vals)
        out["lang"].append(lang)
        out["n"].append(n)
        for pct, name in _LQ_PCTS:
            target = -(-pct * n // 100)  # ceil(p*n/100), 1-based rank
            acc = 0
            for v, c in vals:
                acc += c
                if acc >= target:
                    out[name].append(v)
                    break
    return pa.table(
        {
            "lang": pa.array(out["lang"], pa.string()),
            "n": pa.array(out["n"], pa.int64()),
            "p50": pa.array(out["p50"], pa.int64()),
            "p90": pa.array(out["p90"], pa.int64()),
        }
    )


SQL_LANG_LENGTH_QUANTILES = """
WITH r AS (
  SELECT lang, n_chars,
         row_number() OVER (PARTITION BY lang ORDER BY n_chars) AS rn,
         COUNT(*) OVER (PARTITION BY lang) AS n
  FROM documents
)
SELECT lang, CAST(MAX(n) AS BIGINT) AS n,
       CAST(MAX(CASE WHEN rn = (50 * n + 99) // 100 THEN n_chars END)
            AS BIGINT) AS p50,
       CAST(MAX(CASE WHEN rn = (90 * n + 99) // 100 THEN n_chars END)
            AS BIGINT) AS p90
FROM r GROUP BY lang
"""


# ---------------------------------------------------------------------------
# facility_select — greedy facility-location (submodular coverage)
# ---------------------------------------------------------------------------

_FS_ROUNDS = 4
_FS_POOL_MOD = 10  # candidate pool: vec_id % 10 == 0


def q_facility_select(sf_dir: str):
    """Greedy facility-location selection: from a bounded candidate
    pool (vec_id % 10 == 0), pick the _FS_ROUNDS candidates that
    maximize total coverage Σ_d max_{c ∈ S} sim(d, c) — the submodular
    coverage-max data-selection primitive (CRAIG-style), the
    complementary objective to kcenter_coreset's diversity-max.
    sim = max(0, ⟨x_d, x_c⟩) over fixed-point embeddings — exact
    int64, so every round's gain comparison is integer-exact.

    Distributed shape: the pool matrix broadcasts once per round
    (bounded by the pool, not the data); each round is one map over the
    embedding table emitting per-candidate partial gains + ONE
    groupby(candidate); argmax on ≤ |pool| rows. The direct n·|pool|
    form — lazy-greedy is the known acceleration at larger pools.
    """
    from ..stages.cluster import quantize_embeddings

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).materialize()

    # NOTES gotcha: filter(expr=...) cannot parse modulo — mask in a map
    def pool_mask(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids % _FS_POOL_MOD == 0))

    pool_rows = emb.map_batches(pool_mask, batch_format="pyarrow").take_all()  # scale-note: fixed-rate sampled pool (shrink the rate with corpus size at web scale)
    pool_rows.sort(key=lambda r: r["vec_id"])
    pool_ids = np.array([r["vec_id"] for r in pool_rows], np.int64)
    pool_fp = quantize_embeddings(pa.Table.from_pylist(pool_rows))
    pool_ref = ray.put((pool_ids, pool_fp))

    selected: list[int] = []
    out_t, out_id, out_gain = [], [], []
    for t in range(_FS_ROUNDS):
        sel_idx = np.array(
            [int(np.nonzero(pool_ids == s)[0][0]) for s in selected],
            np.int64,
        )
        sel_ref = ray.put(sel_idx)

        def gains(batch: pa.Table) -> pa.Table:
            pids, pfp = ray.get(pool_ref)
            sidx = ray.get(sel_ref)
            x = quantize_embeddings(batch)
            sim = np.maximum(x @ pfp.T, 0)  # (n, pool) int64
            cov = (
                sim[:, sidx].max(axis=1)
                if len(sidx)
                else np.zeros(len(x), np.int64)
            )
            gain = np.maximum(sim - cov[:, None], 0).sum(axis=0)
            return pa.table(
                {
                    "cand": pa.array(pids, pa.int64()),
                    "g": pa.array(gain.astype(np.int64), pa.int64()),
                }
            )

        agg = (
            emb.map_batches(gains, batch_format="pyarrow")
            .groupby("cand")
            .aggregate(ray.data.aggregate.Sum("g", alias_name="g"))
            .take_all()  # scale-note: fixed-rate sampled pool (shrink the rate with corpus size at web scale)
        )
        agg = [r for r in agg if int(r["cand"]) not in selected]
        if not agg:
            break  # pool exhausted before _FS_ROUNDS (SQL mirrors: the
            # NOT IN empties g{t} and the pick CTE contributes no row)
        agg.sort(key=lambda r: (-int(r["g"]), int(r["cand"])))
        pick, g = int(agg[0]["cand"]), int(agg[0]["g"])
        selected.append(pick)
        out_t.append(t)
        out_id.append(pick)
        out_gain.append(g)
    return pa.table(
        {
            "t": pa.array(out_t, pa.int64()),
            "vec_id": pa.array(out_id, pa.int64()),
            "gain": pa.array(out_gain, pa.int64()),
        }
    )


def _sql_facility_select() -> str:
    parts = [
        f"""xf AS MATERIALIZED (
  SELECT vec_id, generate_subscripts(embedding, 1) AS dim,
         CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1048576.0
                    + CAST(0.5 AS DOUBLE)) AS BIGINT) AS v
  FROM embeddings
),
sim AS MATERIALIZED (
  SELECT d.vec_id AS d, c.vec_id AS c,
         GREATEST(CAST(SUM(d.v * c.v) AS BIGINT), 0) AS s
  FROM xf d JOIN xf c USING (dim)
  WHERE c.vec_id % {_FS_POOL_MOD} = 0
  GROUP BY d.vec_id, c.vec_id
)"""
    ]
    for t in range(_FS_ROUNDS):
        if t == 0:
            parts.append(
                """g0 AS MATERIALIZED (
  SELECT c, CAST(SUM(s) AS BIGINT) AS g FROM sim GROUP BY c
),
p0 AS MATERIALIZED (SELECT c, g FROM g0 ORDER BY g DESC, c LIMIT 1),
cov0 AS MATERIALIZED (
  SELECT sim.d, MAX(sim.s) AS cov
  FROM sim WHERE sim.c = (SELECT c FROM p0) GROUP BY sim.d
)"""
            )
            continue
        prev_picks = " ,".join(f"(SELECT c FROM p{i})" for i in range(t))
        parts.append(
            f"""g{t} AS MATERIALIZED (
  SELECT sim.c,
         CAST(SUM(GREATEST(sim.s - cov{t - 1}.cov, 0)) AS BIGINT) AS g
  FROM sim JOIN cov{t - 1} ON cov{t - 1}.d = sim.d
  WHERE sim.c NOT IN ({prev_picks})
  GROUP BY sim.c
),
p{t} AS MATERIALIZED (SELECT c, g FROM g{t} ORDER BY g DESC, c LIMIT 1),
cov{t} AS MATERIALIZED (
  SELECT cov{t - 1}.d,
         GREATEST(cov{t - 1}.cov,
                  COALESCE(s2.s, 0)) AS cov
  FROM cov{t - 1}
  LEFT JOIN sim s2 ON s2.d = cov{t - 1}.d AND s2.c = (SELECT c FROM p{t})
)"""
        )
    sel = "\nUNION ALL\n".join(
        f"SELECT CAST({t} AS BIGINT) AS t, c AS vec_id, g AS gain FROM p{t}"
        for t in range(_FS_ROUNDS)
    )
    return "WITH " + ",\n".join(parts) + "\n" + sel
