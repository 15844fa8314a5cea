"""Fifty-second-wave operators (round-3 continuation session,
2026-08-21) — optimal transport, local DP, queueing.

Listed by name in ``queries.py``'s QUERIES/ORACLES.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# wasserstein_1d — exact 1-D earth-mover distance between length dists
# ---------------------------------------------------------------------------

_W1_Q = 10**6


def q_wasserstein_1d(sf_dir: str):
    """Exact 1-D Wasserstein (earth-mover) distance between the
    document-length distributions of English vs non-English docs —
    in 1-D, W₁ = ∫|F_A − F_B| dx, the modern distribution-shift
    metric that (unlike KS) weighs HOW FAR mass moved, not just the
    largest CDF gap. Output: one row with both sizes and W₁ quantized
    (units: characters, ×10⁶).

    Exactness: over the sorted distinct-value support, W₁·n_A·n_B =
    Σ |cumA·n_B − cumB·n_A|·Δv — pure integers with ONE final
    division. Distributed shape: one (value, is_en) histogram
    aggregate; the fold over the bounded distinct-length support is
    driver arithmetic (at open-web scale the support would first be
    compacted by the KLL sketch stage).
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        df = (
            pd.DataFrame(
                {
                    "v": batch.column("n_chars")
                    .to_numpy(zero_copy_only=False)
                    .astype(np.int64),
                    "is_en": np.array(
                        [l == "en" for l in batch.column("lang").to_pylist()],
                        np.int64,
                    ),
                }
            )
            .groupby(["v", "is_en"], sort=True)
            .size()
            .reset_index(name="c")
        )
        return pa.table(
            {
                "v": pa.array(df["v"].to_numpy(np.int64), pa.int64()),
                "is_en": pa.array(
                    df["is_en"].to_numpy(np.int64), pa.int64()
                ),
                "c": pa.array(df["c"].to_numpy(np.int64), pa.int64()),
            }
        )

    parts = docs.map_batches(partial, batch_format="pyarrow").take_all()  # bounded: histogram cells
    ca: dict = {}
    cb: dict = {}
    for r in parts:
        d = ca if r["is_en"] == 1 else cb
        d[int(r["v"])] = d.get(int(r["v"]), 0) + int(r["c"])
    vals = sorted(set(ca) | set(cb))
    na, nb = sum(ca.values()), sum(cb.values())
    s = 0
    cuma = cumb = 0
    for i, v in enumerate(vals[:-1]):
        cuma += ca.get(v, 0)
        cumb += cb.get(v, 0)
        s += abs(cuma * nb - cumb * na) * (vals[i + 1] - v)
    w1_q = s * _W1_Q // (na * nb)
    return pa.table(
        {
            "n_en": pa.array([na], pa.int64()),
            "n_other": pa.array([nb], pa.int64()),
            "w1_q": pa.array([w1_q], pa.int64()),
        }
    )


SQL_WASSERSTEIN_1D = f"""
WITH h AS (
  SELECT CAST(n_chars AS BIGINT) AS v,
         CAST(SUM(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS BIGINT)
           AS ca,
         CAST(SUM(CASE WHEN lang <> 'en' THEN 1 ELSE 0 END) AS BIGINT)
           AS cb
  FROM documents GROUP BY n_chars
),
tot AS (
  SELECT CAST(SUM(ca) AS BIGINT) AS na, CAST(SUM(cb) AS BIGINT) AS nb
  FROM h
),
cum AS (
  SELECT v,
         CAST(CAST(SUM(ca) OVER (ORDER BY v) AS HUGEINT) AS BIGINT)
           AS cuma,
         CAST(CAST(SUM(cb) OVER (ORDER BY v) AS HUGEINT) AS BIGINT)
           AS cumb,
         lead(v) OVER (ORDER BY v) AS nv
  FROM h
),
terms AS (
  SELECT abs(cum.cuma * tot.nb - cum.cumb * tot.na) * (cum.nv - cum.v)
           AS t
  FROM cum, tot WHERE cum.nv IS NOT NULL
)
SELECT tot.na AS n_en, tot.nb AS n_other,
       CAST(CAST((SELECT SUM(t) FROM terms) AS HUGEINT) * {_W1_Q}
            // (tot.na * tot.nb) AS BIGINT) AS w1_q
FROM tot
"""


# ---------------------------------------------------------------------------
# randomized_response — local-DP frequency estimation of the lang mix
# ---------------------------------------------------------------------------

_RR_P_NUM = 3  # report truth with p = 3/4
_RR_P_DEN = 4
_RR_TRUTH_CUT = (_RR_P_NUM * (1 << 52)) // _RR_P_DEN


def q_randomized_response(sf_dir: str):
    """Generalized randomized response over the language column — the
    LOCAL differential-privacy mechanism (each record privatizes
    itself before aggregation, no trusted curator): every doc reports
    its true lang with p=3/4, otherwise an md5-uniform class; the
    collector then inverts the noise with the unbiased estimator
    n̂_l = (O_l − n·(1−p)/L)/(p − (1−p)/L·0 …) = (4·L·O_l − n)/(3·L).
    Complements dp_host_counts (central model) with the local model.
    Output: per class the true count (audit), the observed privatized
    count and the debiased estimate.

    Exactness: draws are integer md5 threshold/modulo; O_l are
    integer counts; the estimator is ONE mirrored double division.
    Distributed shape: one map-side (true, reported) count partial;
    the L-row inversion is driver arithmetic.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    classes = sorted(
        r["lang"]
        for r in docs.groupby("lang")
        .aggregate(ray.data.aggregate.Count(alias_name="c"))
        .take_all()  # bounded: one row per lang (bounded key domain)
    )
    L = len(classes)

    def partial(batch: pa.Table) -> pa.Table:
        cnt: dict = {}
        for d, lang in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("lang").to_pylist(),
        ):
            h = int(
                hashlib.md5(f"rr|{d}".encode()).hexdigest()[:13], 16
            )
            if h < _RR_TRUTH_CUT:
                rep = lang
            else:
                pick = int(
                    hashlib.md5(f"rrpick|{d}".encode()).hexdigest()[:13],
                    16,
                )
                rep = classes[pick % L]
            k = (lang, rep)
            cnt[k] = cnt.get(k, 0) + 1
        items = sorted(cnt.items())
        return pa.table(
            {
                "true_lang": pa.array([k[0] for k, _ in items], pa.string()),
                "rep_lang": pa.array([k[1] for k, _ in items], pa.string()),
                "c": pa.array([v for _, v in items], pa.int64()),
            }
        )

    parts = docs.map_batches(partial, batch_format="pyarrow").take_all()  # bounded: (class × class) cells
    true_n = {c: 0 for c in classes}
    obs_n = {c: 0 for c in classes}
    n = 0
    for r in parts:
        true_n[r["true_lang"]] += int(r["c"])
        obs_n[r["rep_lang"]] += int(r["c"])
        n += int(r["c"])
    return pa.table(
        {
            "lang": pa.array(classes, pa.string()),
            "true_n": pa.array([true_n[c] for c in classes], pa.int64()),
            "observed_n": pa.array(
                [obs_n[c] for c in classes], pa.int64()
            ),
            "est": pa.array(
                [
                    float(4 * L * obs_n[c] - n) / float(3 * L)
                    for c in classes
                ],
                pa.float64(),
            ),
        }
    )


SQL_RANDOMIZED_RESPONSE = f"""
WITH cls AS (
  SELECT lang, CAST(row_number() OVER (ORDER BY lang) - 1 AS BIGINT)
           AS idx
  FROM (SELECT DISTINCT lang FROM documents)
),
ll AS (SELECT CAST(COUNT(*) AS BIGINT) AS l FROM cls),
rep AS (
  SELECT d.lang AS true_lang,
         CASE WHEN CAST(('0x' || substr(md5('rr|' || d.doc_id), 1, 13))
                        AS BIGINT) < {_RR_TRUTH_CUT}
              THEN d.lang
              ELSE (SELECT c2.lang FROM cls c2, ll
                    WHERE c2.idx =
                      CAST(('0x' || substr(md5('rrpick|' || d.doc_id),
                                           1, 13)) AS BIGINT) % ll.l)
         END AS rep_lang
  FROM documents d
),
tot AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM rep)
SELECT cls.lang,
       CAST((SELECT COUNT(*) FROM rep WHERE rep.true_lang = cls.lang)
            AS BIGINT) AS true_n,
       CAST((SELECT COUNT(*) FROM rep WHERE rep.rep_lang = cls.lang)
            AS BIGINT) AS observed_n,
       CAST(4 * ll.l
              * (SELECT COUNT(*) FROM rep WHERE rep.rep_lang = cls.lang)
            - tot.n AS DOUBLE)
         / CAST(3 * ll.l AS DOUBLE) AS est
FROM cls, ll, tot
"""


# ---------------------------------------------------------------------------
# mm1_politeness — M/M/1 queueing model of per-host fetch latency
# ---------------------------------------------------------------------------

_MM1_MU_PER_DAY = 43200  # politeness: one fetch slot per 2 s
_MM1_DAYS = 30
_MM1_Q = 10**6


def q_mm1_politeness(sf_dir: str):
    """M/M/1 queueing read on per-host recrawl pressure: with arrival
    rate λ_h = pages_h/{days} per day against a politeness service
    rate of μ = {mu}/day (one slot per 2 s), utilization ρ = λ/μ,
    queue length L_q = ρ²/(1−ρ) and sojourn W = 1/(μ−λ) — the
    closed-form answer to "which hosts saturate their politeness
    budget?". Output: per host the count and the quantized ρ, L_q and
    W (days).

    Exactness: with integer counts, ρ_q = n·10⁶//(μ·days), L_q,q =
    n²·10⁶//(μ·days·(μ·days−n)) and W_q = days·10⁶//(μ·days−n) are
    pure integer multiply-divides (128-bit in SQL). Distributed
    shape: the pages_per_host partial count + an O(hosts) map.
    """
    from ..functions.urls import hosts_array
    from ..stages.agg import partial_count
    from .queries import _pages_ds

    pages = _pages_ds(sf_dir, columns=["url"])

    def add_host(batch: pa.Table) -> pa.Table:
        return pa.table({"host": hosts_array(batch.column("url"))})

    counts = partial_count(
        pages.map_batches(add_host, batch_format="pyarrow"), "host"
    ).take_all()  # bounded: one row per host
    cap = _MM1_MU_PER_DAY * _MM1_DAYS
    hosts = sorted(r["host"] for r in counts)
    byh = {r["host"]: int(r["n"]) for r in counts}
    return pa.table(
        {
            "host": pa.array(hosts, pa.string()),
            "n": pa.array([byh[h] for h in hosts], pa.int64()),
            "rho_q": pa.array(
                [byh[h] * _MM1_Q // cap for h in hosts], pa.int64()
            ),
            "lq_q": pa.array(
                [
                    byh[h] * byh[h] * _MM1_Q // (cap * (cap - byh[h]))
                    for h in hosts
                ],
                pa.int64(),
            ),
            "w_days_q": pa.array(
                [_MM1_DAYS * _MM1_Q // (cap - byh[h]) for h in hosts],
                pa.int64(),
            ),
        }
    )


def _sql_mm1(sql_pages: str) -> str:
    cap = _MM1_MU_PER_DAY * _MM1_DAYS
    return f"""
WITH {sql_pages},
c AS (SELECT host, CAST(COUNT(*) AS BIGINT) AS n FROM purl GROUP BY host)
SELECT host, n,
       n * {_MM1_Q} // {cap} AS rho_q,
       CAST(CAST(n AS HUGEINT) * n * {_MM1_Q}
            // (CAST({cap} AS HUGEINT) * ({cap} - n)) AS BIGINT) AS lq_q,
       CAST({_MM1_DAYS} AS BIGINT) * {_MM1_Q} // ({cap} - n) AS w_days_q
FROM c
"""
