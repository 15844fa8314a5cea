"""Sixty-sixth-wave operators (round-3 continuation session,
2026-08-21) — Holm step-down, MI feature ranking, shard affinity.

Listed by name in ``queries.py``'s QUERIES/ORACLES.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pyarrow as pa

import ray

_W66_Q = 10**9


# ---------------------------------------------------------------------------
# holm_bonferroni — FWER step-down on the planted p-value field
# ---------------------------------------------------------------------------

_HB_ALPHA_NUM = 1
_HB_ALPHA_DEN = 10


def q_holm_bonferroni(sf_dir: str):
    """Holm–Bonferroni step-down over the SAME planted per-document
    p-value field as bh_fdr: reject sequentially while p_(k) ≤
    α/(m−k+1), stop at the first failure — the family-wise-error
    control that guarantees (unlike BH's FDR) no false discovery at
    all with probability 1−α, at the price of fewer discoveries; the
    pair of queries exhibits the FWER-vs-FDR power gap on identical
    data. Output: the rejected prefix with the planted audit flags.

    Exactness: the step-down comparison cross-multiplies
    u52·α_den·(m−k+1) ≤ α_num·2⁵² — pure integers; the STOP-at-first-
    failure semantics (vs BH's largest-k) is mirrored. Distributed
    shape: p-value map + the α-threshold prune (any Holm rejection has
    p ≤ α), then the driver step-down over the tiny candidate prefix.
    """
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )
    n_docs = docs.count()

    def pvals(batch: pa.Table) -> pa.Table:
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

    cut = _HB_ALPHA_NUM * (1 << 52) // _HB_ALPHA_DEN

    def prune(batch: pa.Table) -> pa.Table:
        keep = batch.column("u52").to_numpy(zero_copy_only=False) <= cut
        return batch.filter(pa.array(keep))

    cand = sorted(
        docs.map_batches(pvals, batch_format="pyarrow")
        .map_batches(prune, batch_format="pyarrow")
        .take_all(),  # bounded: BH-pruned candidate set (p-value cut)
        key=lambda r: (int(r["u52"]), int(r["doc_id"])),
    )
    out = []
    for k, r in enumerate(cand, start=1):
        if (
            int(r["u52"]) * _HB_ALPHA_DEN * (n_docs - k + 1)
            <= _HB_ALPHA_NUM * (1 << 52)
        ):
            out.append(r)
        else:
            break  # step-DOWN: stop at the first failure
    return pa.table(
        {
            "rank": pa.array(list(range(1, len(out) + 1)), pa.int64()),
            "doc_id": pa.array(
                [int(r["doc_id"]) for r in out], pa.int64()
            ),
            "u52": pa.array([int(r["u52"]) for r in out], pa.int64()),
            "planted": pa.array(
                [int(r["planted"]) for r in out], pa.int64()
            ),
            "m": pa.array([n_docs] * len(out), pa.int64()),
        }
    )


def _sql_holm() -> str:
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
flags AS (
  SELECT r.*, mm.m,
         CASE WHEN CAST(u52 AS HUGEINT) * {_HB_ALPHA_DEN}
                     * (mm.m - rank + 1)
                   <= CAST({_HB_ALPHA_NUM} AS HUGEINT) * {c52}
              THEN 1 ELSE 0 END AS ok
  FROM r, mm
),
stopk AS (
  SELECT COALESCE(MIN(rank) - 1,
                  (SELECT MAX(rank) FROM flags)) AS kstop
  FROM flags WHERE ok = 0
)
SELECT f.rank, f.doc_id, f.u52, f.planted, f.m
FROM flags f, stopk WHERE f.rank <= stopk.kstop
"""


# ---------------------------------------------------------------------------
# mi_feature_ranking — mutual-information feature selection vs C4 keep
# ---------------------------------------------------------------------------

_MI_FEATS = ("len_b", "types_b", "maxrun_b")


def _mi_features(text: str, n_chars: int) -> dict:
    toks = text.split()
    n = max(len(toks), 1)
    types = len(set(toks))
    # longest single-token run (the repetition signal C4 gates on)
    maxrun = run = 1 if toks else 0
    for i in range(1, len(toks)):
        run = run + 1 if toks[i] == toks[i - 1] else 1
        maxrun = max(maxrun, run)
    return {
        "len_b": min(n_chars // 200, 4),
        "types_b": min(types * 5 // n, 4),
        "maxrun_b": min(maxrun, 4),
    }


def q_mi_feature_ranking(sf_dir: str):
    """Mutual-information feature ranking against the C4 keep flag:
    three cheap lexical features (length bucket, type/token bucket,
    longest token-run bucket) scored by I(feature; keep) — the
    filter-method feature selection that tells a gate designer WHICH
    signal carries the rule's information (the run-length feature
    should dominate: C4's repetition rule is driven by it). Output:
    per feature its quantized MI and rank.

    Exactness: contingency counts are integers; each cell term
    c·⌊ln((c·N)/(r·s))·10⁹⌋ quantizes ONE mirrored ln before the
    integer sum — no float fold; ranking ties break feature ASC.
    Distributed shape: one gate-kernel map emits the ≤5·2 cell
    partials per feature; one aggregate closes all three tables.
    """
    from ..stages import textstats

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = [t or "" for t in batch.column("text").to_pylist()]
        structured = pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(
                    [
                        textstats.derive_structured_page(i, t)
                        for i, t in zip(ids, texts)
                    ],
                    pa.string(),
                ),
            }
        )
        keep = (
            textstats.c4_rules_batch(structured)
            .column("keep")
            .to_numpy(zero_copy_only=False)
        )
        rows = {"feat": [], "b": [], "k": [], "c": []}
        from collections import Counter

        cnt: Counter = Counter()
        for t, kp in zip(texts, keep):
            f = _mi_features(t, len(t))
            for name in _MI_FEATS:
                cnt[(name, f[name], int(kp))] += 1
        for (name, b, k), c in sorted(cnt.items()):
            rows["feat"].append(name)
            rows["b"].append(b)
            rows["k"].append(k)
            rows["c"].append(c)
        return pa.table(
            {
                "feat": pa.array(rows["feat"], pa.string()),
                "b": pa.array(rows["b"], pa.int64()),
                "k": pa.array(rows["k"], pa.int64()),
                "c": pa.array(rows["c"], pa.int64()),
            }
        )

    parts = docs.map_batches(partial, batch_format="pyarrow").take_all()  # bounded: histogram cells
    cells: dict = {}
    for r in parts:
        key = (r["feat"], int(r["b"]), int(r["k"]))
        cells[key] = cells.get(key, 0) + int(r["c"])
    out = []
    for name in _MI_FEATS:
        sub = {
            (b, k): c for (f, b, k), c in cells.items() if f == name
        }
        N = sum(sub.values())
        rb = {}
        sk = {}
        for (b, k), c in sub.items():
            rb[b] = rb.get(b, 0) + c
            sk[k] = sk.get(k, 0) + c
        mi_q = 0
        for (b, k), c in sorted(sub.items()):
            mi_q += c * math.floor(
                math.log(
                    float(c * N) / float(rb[b] * sk[k])
                )
                * float(_W66_Q)
            )
        out.append((name, mi_q))
    out.sort(key=lambda t: (-t[1], t[0]))
    return pa.table(
        {
            "feat": pa.array([t[0] for t in out], pa.string()),
            "mi_q": pa.array([t[1] for t in out], pa.int64()),
            "rank": pa.array(
                list(range(1, len(out) + 1)), pa.int64()
            ),
        }
    )


def _sql_mi(oracles: dict) -> str:
    c4_sql = oracles["c4_rules"].strip()
    return f"""
WITH c4 AS ({c4_sql}),
f AS (
  SELECT d.doc_id,
         CASE WHEN c4.keep THEN 1 ELSE 0 END AS k,
         LEAST(length(d.text) // 200, 4) AS len_b,
         LEAST(CAST(len(list_distinct(regexp_extract_all(d.text,
                                                          '\\S+')))
                    AS BIGINT) * 5
               // GREATEST(len(regexp_extract_all(d.text, '\\S+')), 1),
               4) AS types_b,
         LEAST((SELECT COALESCE(MAX(run_len), CASE WHEN
                  len(regexp_extract_all(d.text, '\\S+')) > 0
                  THEN 1 ELSE 0 END)
                FROM (
                  SELECT CAST(COUNT(*) AS BIGINT) AS run_len
                  FROM (
                    SELECT tok, seq,
                           seq - row_number()
                             OVER (PARTITION BY tok ORDER BY seq) AS grp
                    FROM (
                      SELECT unnest(regexp_extract_all(d.text, '\\S+'))
                               AS tok,
                             CAST(unnest(range(len(regexp_extract_all(
                               d.text, '\\S+')))) AS BIGINT) AS seq
                    )
                  ) GROUP BY tok, grp
                )), 4) AS maxrun_b
  FROM documents d JOIN c4 ON c4.doc_id = d.doc_id
),
longf AS (
  SELECT 'len_b' AS feat, len_b AS b, k FROM f
  UNION ALL SELECT 'types_b', types_b, k FROM f
  UNION ALL SELECT 'maxrun_b', maxrun_b, k FROM f
),
cellsx AS (
  SELECT feat, b, k, CAST(COUNT(*) AS BIGINT) AS c
  FROM longf GROUP BY feat, b, k
),
nn AS (
  SELECT feat, CAST(SUM(c) AS BIGINT) AS n FROM cellsx GROUP BY feat
),
rb AS (
  SELECT feat, b, CAST(SUM(c) AS BIGINT) AS r
  FROM cellsx GROUP BY feat, b
),
sk AS (
  SELECT feat, k, CAST(SUM(c) AS BIGINT) AS s
  FROM cellsx GROUP BY feat, k
),
mi AS (
  SELECT cellsx.feat,
         CAST(SUM(cellsx.c
                  * CAST(floor(ln(CAST(cellsx.c * nn.n AS DOUBLE)
                                  / CAST(rb.r * sk.s AS DOUBLE))
                               * {float(_W66_Q)!r}) AS BIGINT))
              AS BIGINT) AS mi_q
  FROM cellsx
  JOIN nn ON nn.feat = cellsx.feat
  JOIN rb ON rb.feat = cellsx.feat AND rb.b = cellsx.b
  JOIN sk ON sk.feat = cellsx.feat AND sk.k = cellsx.k
  GROUP BY cellsx.feat
)
SELECT feat, mi_q,
       CAST(row_number() OVER (ORDER BY mi_q DESC, feat) AS BIGINT)
         AS rank
FROM mi
"""


# ---------------------------------------------------------------------------
# affinity_gain — host-locality benefit of affine vs random sharding
# ---------------------------------------------------------------------------

_AF_SHARDS = 8


def q_affinity_gain(sf_dir: str):
    """Locality gain of host-affine sharding: assign pages to {s}
    shards either by hash(host) (affine — a host's pages co-locate)
    or by doc_id (random), and count within-shard same-host pairs
    Σ C(c_sh,2) — the connection-reuse/cache-hit proxy that justifies
    host-partitioned fetch pools (rendezvous_assign gives the
    assignment; this measures what it buys). Output: one row per
    scheme with the pair count and its fraction of all same-host
    pairs.

    Exactness: pure integer pair counting; the fraction is one
    division against the scheme-independent total Σ C(c_h,2).
    Distributed shape: two (shard, host) count aggregates + bounded
    folds.
    """
    from ..functions.urls import hosts_array
    from .queries import _pages_ds

    pages = _pages_ds(sf_dir, columns=["url"])

    def tag(batch: pa.Table) -> pa.Table:
        import pandas as pd

        hosts = hosts_array(batch.column("url")).to_pylist()
        ids = [
            int(u.rsplit("/", 1)[1])
            for u in batch.column("url").to_pylist()
        ]
        df = pd.DataFrame(
            {
                "host": hosts,
                "aff": [
                    int(
                        hashlib.md5(f"af|{h}".encode()).hexdigest()[:8],
                        16,
                    )
                    % _AF_SHARDS
                    for h in hosts
                ],
                "rnd": [d % _AF_SHARDS for d in ids],
            }
        )
        g = (
            df.groupby(["host", "aff", "rnd"], sort=True)
            .size()
            .reset_index(name="c")
        )
        return pa.table(
            {
                "host": pa.array(g["host"], pa.string()),
                "aff": pa.array(g["aff"].to_numpy(np.int64), pa.int64()),
                "rnd": pa.array(g["rnd"].to_numpy(np.int64), pa.int64()),
                "c": pa.array(g["c"].to_numpy(np.int64), pa.int64()),
            }
        )

    parts = pages.map_batches(tag, batch_format="pyarrow").take_all()  # bounded: (round × outcome) cells
    aff: dict = {}
    rnd: dict = {}
    tot: dict = {}
    for r in parts:
        h, c = r["host"], int(r["c"])
        aff[(h, int(r["aff"]))] = aff.get((h, int(r["aff"])), 0) + c
        rnd[(h, int(r["rnd"]))] = rnd.get((h, int(r["rnd"])), 0) + c
        tot[h] = tot.get(h, 0) + c

    def pairs(d: dict) -> int:
        return sum(c * (c - 1) // 2 for c in d.values())

    total_pairs = pairs(tot)
    rows = [
        ("affine", pairs(aff)),
        ("random", pairs(rnd)),
    ]
    return pa.table(
        {
            "scheme": pa.array([r[0] for r in rows], pa.string()),
            "within_pairs": pa.array([r[1] for r in rows], pa.int64()),
            "total_pairs": pa.array(
                [total_pairs] * 2, pa.int64()
            ),
            "frac_q": pa.array(
                [r[1] * 10**6 // total_pairs for r in rows], pa.int64()
            ),
        }
    )


def _sql_affinity_md5(sql_pages: str) -> str:
    return f"""
WITH {sql_pages},
t AS (
  SELECT host, doc_id,
         CAST(('0x' || substr(md5('af|' || host), 1, 8)) AS BIGINT)
           % {_AF_SHARDS} AS aff,
         doc_id % {_AF_SHARDS} AS rnd
  FROM purl
),
ca AS (
  SELECT host, aff, CAST(COUNT(*) AS BIGINT) AS c
  FROM t GROUP BY host, aff
),
cr AS (
  SELECT host, rnd, CAST(COUNT(*) AS BIGINT) AS c
  FROM t GROUP BY host, rnd
),
ct AS (
  SELECT host, CAST(COUNT(*) AS BIGINT) AS c FROM t GROUP BY host
),
tp AS (SELECT CAST(SUM(c * (c - 1) // 2) AS BIGINT) AS p FROM ct)
SELECT 'affine' AS scheme,
       (SELECT CAST(SUM(c * (c - 1) // 2) AS BIGINT) FROM ca)
         AS within_pairs,
       tp.p AS total_pairs,
       (SELECT CAST(SUM(c * (c - 1) // 2) AS BIGINT) FROM ca)
         * 1000000 // tp.p AS frac_q
FROM tp
UNION ALL
SELECT 'random',
       (SELECT CAST(SUM(c * (c - 1) // 2) AS BIGINT) FROM cr),
       tp.p,
       (SELECT CAST(SUM(c * (c - 1) // 2) AS BIGINT) FROM cr)
         * 1000000 // tp.p
FROM tp
"""
