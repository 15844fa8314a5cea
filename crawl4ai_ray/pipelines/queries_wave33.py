"""Thirty-third-wave operators (round-3 continuation session,
2026-08-20).

Listed by name in ``queries.py``'s QUERIES/ORACLES. kendall_tau nests the
bm25_topk oracle; ring_rebalance_eval shares wave 29's ring-point
derivation.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pyarrow as pa

import ray


# ---------------------------------------------------------------------------
# kendall_tau — rank correlation between two document orderings
# ---------------------------------------------------------------------------


def q_kendall_tau(sf_dir: str):
    """Kendall τ-a between the BM25 ranking of its top-10 documents and
    the document-length ranking of the same ten — the rank-correlation
    readout (concordant vs discordant pairs) that says whether a cheap
    signal (length) could stand in for the expensive one (BM25). The
    rank-family completion next to logreg_auc's Mann–Whitney.

    Exactness: both orderings are integer-keyed (BM25 rank is the
    proven sort; length ranked by (n_chars, doc_id)); concordant /
    discordant are exact integer counts over the 45 pairs; τ is the
    one mirrored division.

    Distributed shape: the BM25 ranking is the existing distributed
    query; attaching n_chars to ten ids is a broadcast filter map; the
    45-pair fold is O(k²) driver math, bounded by k.
    """
    from .queries import QUERIES

    top = QUERIES["bm25_topk"](sf_dir)
    if not isinstance(top, pa.Table):
        top = top.to_pandas()  # bounded: k-row query output
    else:
        top = top.to_pandas()  # bounded: k-row query output
    top = top.sort_values(["score", "doc_id"], ascending=[False, True])
    ids = [int(x) for x in top["doc_id"]]
    bm_rank = {d: i for i, d in enumerate(ids)}
    id_ref = ray.put(np.array(sorted(ids), np.int64))

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )

    def pick(batch: pa.Table) -> pa.Table:
        d = batch.column("doc_id").to_numpy(zero_copy_only=False)
        keep = np.isin(d, ray.get(id_ref))
        return batch.filter(pa.array(keep))

    rows = docs.map_batches(pick, batch_format="pyarrow").take_all()  # bounded: broadcast candidate id set only
    lens = {int(r["doc_id"]): int(r["n_chars"]) for r in rows}
    len_order = sorted(ids, key=lambda d: (lens[d], d))
    ln_rank = {d: i for i, d in enumerate(len_order)}
    conc = disc = 0
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            a, b = ids[i], ids[j]
            s1 = bm_rank[a] - bm_rank[b]
            s2 = ln_rank[a] - ln_rank[b]
            if s1 * s2 > 0:
                conc += 1
            else:
                disc += 1
    n = len(ids)
    n_pairs = n * (n - 1) // 2
    tau = float(conc - disc) / float(n_pairs)
    return pa.table(
        {
            "n_docs": pa.array([n], pa.int64()),
            "concordant": pa.array([conc], pa.int64()),
            "discordant": pa.array([disc], pa.int64()),
            "tau": pa.array([tau], pa.float64()),
        }
    )


def _sql_kendall_tau(oracles: dict) -> str:
    return f"""
WITH bm AS MATERIALIZED ({oracles["bm25_topk"].strip()}),
r1 AS (
  SELECT doc_id,
         row_number() OVER (ORDER BY score DESC, doc_id) - 1 AS br
  FROM bm
),
r2 AS (
  SELECT r1.doc_id,
         row_number() OVER (ORDER BY d.n_chars, d.doc_id) - 1 AS lr,
         r1.br
  FROM r1 JOIN documents d ON d.doc_id = r1.doc_id
),
prs AS (
  SELECT CASE WHEN (a.br - b.br) * (a.lr - b.lr) > 0 THEN 1 ELSE 0 END AS c
  FROM r2 a JOIN r2 b ON a.doc_id < b.doc_id
),
s AS (
  SELECT CAST(SUM(c) AS BIGINT) AS conc,
         CAST(COUNT(*) - SUM(c) AS BIGINT) AS disc,
         CAST(COUNT(*) AS BIGINT) AS np
  FROM prs
)
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM r1) AS n_docs,
       conc AS concordant, disc AS discordant,
       CAST(conc - disc AS DOUBLE) / CAST(np AS DOUBLE) AS tau
FROM s
"""


# ---------------------------------------------------------------------------
# bloom_fpr_curve — measured Bloom false-positive rate vs theory
# ---------------------------------------------------------------------------

_BF_M = 2048  # bits
_BF_K = 4  # hash functions


def _bf_positions(key: str) -> list[int]:
    return [
        int(hashlib.md5(f"{j}|{key}".encode()).hexdigest()[:12], 16) % _BF_M
        for j in range(_BF_K)
    ]


def q_bloom_fpr_curve(sf_dir: str):
    """Measured vs theoretical Bloom-filter false-positive rate at the
    URL-seen operating point: the 500 corpus URLs are inserted into a
    2048-bit / 4-hash filter (md5-slice positions, so both engines
    rebuild the identical bit set), then 500 known-absent probe keys
    are tested; beside the measured FPR sits the standard theory
    (1 − (1 − 1/m)^{kn})^k — the lsh_band_curve-style
    measurement-vs-model audit for the crawl's dedup front door. (The
    production seen-filter uses the pinned FNV spec in state/bloom.py,
    deliberately not SQL-expressible; the md5 construction here makes
    the MEASUREMENT oracle-checkable — FPR behavior depends only on
    hash uniformity, not the family.)

    Distributed shape: per-batch partial bit sets + probe-position
    rows fold through ONE groupby each; the 2048-bit membership test
    is a broadcast of the folded bit array.
    """
    from .queries import _pages_ds

    pages = _pages_ds(sf_dir, columns=["url"]).materialize()
    n = pages.count()

    def bits_partial(batch: pa.Table) -> pa.Table:
        pos = set()
        for u in batch.column("url").to_pylist():
            pos.update(_bf_positions(u))
        return pa.table({"pos": pa.array(sorted(pos), pa.int64())})

    bit_rows = (
        pages.map_batches(bits_partial, batch_format="pyarrow")
        .groupby("pos")
        .aggregate(ray.data.aggregate.Count(alias_name="c"))
        .take_all()  # bounded: one row per bit position (≤ 64)
    )
    bits = np.zeros(_BF_M, bool)
    for r in bit_rows:
        bits[int(r["pos"])] = True
    bref = ray.put(bits)

    probes = ray.data.range(n)

    def probe(batch: pa.Table) -> pa.Table:
        bt = ray.get(bref)
        fp = 0
        cnt = 0
        for i in batch.column("id").to_pylist():
            cnt += 1
            ps = _bf_positions(f"absent|{i}")
            if all(bt[p] for p in ps):
                fp += 1
        return pa.table(
            {
                "fp": pa.array([fp], pa.int64()),
                "n": pa.array([cnt], pa.int64()),
            }
        )

    rows = probes.map_batches(probe, batch_format="pyarrow").take_all()  # bounded: one partial row per probe batch
    n_fp = sum(int(r["fp"]) for r in rows)
    n_probe = sum(int(r["n"]) for r in rows)
    n_bits_set = int(bits.sum())
    # math.pow on BOTH levels — python's ``**`` may route differently;
    # DuckDB POW is libm pow, so mirror with the same entry point
    theory = math.pow(
        1.0 - math.pow(1.0 - 1.0 / float(_BF_M), float(_BF_K) * float(n)),
        float(_BF_K),
    )
    return pa.table(
        {
            "n_inserted": pa.array([n], pa.int64()),
            "n_bits_set": pa.array([n_bits_set], pa.int64()),
            "n_probes": pa.array([n_probe], pa.int64()),
            "n_fp": pa.array([n_fp], pa.int64()),
            "fpr": pa.array(
                [float(n_fp) / float(n_probe)], pa.float64()
            ),
            "theory_q": pa.array(
                [math.floor(theory * 1e12 + 0.5)], pa.int64()
            ),
        }
    )


def _sql_bloom_fpr_curve(sql_pages: str) -> str:
    return f"""
WITH {sql_pages},
nn AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM purl),
ins AS (
  SELECT DISTINCT
         CAST(('0x' || substr(md5(CAST(j.j AS VARCHAR) || '|' || purl.url),
                              1, 12)) AS BIGINT) % {_BF_M} AS pos
  FROM purl, range({_BF_K}) j(j)
),
probes AS (
  SELECT doc_id AS i FROM purl
),
pp AS (
  SELECT p.i, j.j,
         CAST(('0x' || substr(md5(CAST(j.j AS VARCHAR) || '|absent|'
                                  || CAST(p.i AS VARCHAR)), 1, 12))
              AS BIGINT) % {_BF_M} AS pos
  FROM probes p, range({_BF_K}) j(j)
),
hit AS (
  SELECT pp.i,
         MIN(CASE WHEN ins.pos IS NULL THEN 0 ELSE 1 END) AS all_set
  FROM pp LEFT JOIN ins ON ins.pos = pp.pos
  GROUP BY pp.i
),
meas AS (
  SELECT CAST(SUM(all_set) AS BIGINT) AS n_fp,
         CAST(COUNT(*) AS BIGINT) AS n_probes
  FROM hit
)
SELECT nn.n AS n_inserted,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM ins) AS n_bits_set,
       meas.n_probes, meas.n_fp,
       CAST(meas.n_fp AS DOUBLE) / CAST(meas.n_probes AS DOUBLE) AS fpr,
       CAST(floor(POW(1e0 - POW(1e0 - 1e0 / CAST({_BF_M} AS DOUBLE),
                                CAST({_BF_K} AS DOUBLE) * CAST(nn.n AS DOUBLE)),
                      CAST({_BF_K} AS DOUBLE)) * 1e12 + 5e-1) AS BIGINT)
         AS theory_q
FROM meas, nn
"""


# ---------------------------------------------------------------------------
# ring_rebalance_eval — disruption when a ring worker leaves
# ---------------------------------------------------------------------------


def q_ring_rebalance_eval(sf_dir: str):
    """The minimal-disruption property of consistent hashing, measured:
    reassign every host after worker 7 leaves the ring (its 16 vnodes
    vanish) and count who moved. Hosts on surviving workers should
    almost never move (that is the whole point of the ring vs mod-N
    hashing, where removal reshuffles nearly everyone); hosts on the
    removed worker must all move. Output: one row with the counts and
    the two mirrored fractions.

    Distributed shape: both ring tables broadcast; one map computes
    both assignments per host; ONE tiny fold.
    """
    from ..functions.urls import hosts_array
    from .queries import _pages_ds
    from .queries_wave29 import _RING_VNODES, _RING_WORKERS

    def ring_points(workers: range) -> tuple[np.ndarray, np.ndarray]:
        pts = []
        for w in workers:
            for v in range(_RING_VNODES):
                h = int(
                    hashlib.md5(f"ring|{w}|{v}".encode()).hexdigest()[:8], 16
                )
                pts.append((h, w))
        pts.sort()
        return (
            np.array([h for h, _ in pts], np.int64),
            np.array([w for _, w in pts], np.int64),
        )

    before = ring_points(range(_RING_WORKERS))
    after = ring_points(range(_RING_WORKERS - 1))
    rref = ray.put((before, after))
    removed = _RING_WORKERS - 1

    pages = _pages_ds(sf_dir, columns=["url"])

    def assign(batch: pa.Table) -> pa.Table:
        (bh, bw), (ah, aw) = ray.get(rref)
        hosts = sorted(set(hosts_array(batch.column("url")).to_pylist()))
        hh = np.array(
            [int(hashlib.md5(h.encode()).hexdigest()[:8], 16) for h in hosts],
            np.int64,
        )
        i1 = np.searchsorted(bh, hh, side="left")
        i1 = np.where(i1 == len(bh), 0, i1)
        i2 = np.searchsorted(ah, hh, side="left")
        i2 = np.where(i2 == len(ah), 0, i2)
        w1, w2 = bw[i1], aw[i2]
        return pa.table(
            {
                "host": pa.array(hosts, pa.string()),
                "on_removed": pa.array(
                    (w1 == removed).astype(np.int64), pa.int64()
                ),
                "moved": pa.array((w1 != w2).astype(np.int64), pa.int64()),
            }
        )

    rows = (
        pages.map_batches(assign, batch_format="pyarrow")
        .groupby("host")
        .aggregate(
            ray.data.aggregate.Max("on_removed", alias_name="on_removed"),
            ray.data.aggregate.Max("moved", alias_name="moved"),
        )
        .take_all()  # bounded: one row per host (bounded key domain)
    )
    n_hosts = len(rows)
    n_removed = sum(int(r["on_removed"]) for r in rows)
    n_moved = sum(int(r["moved"]) for r in rows)
    n_moved_other = sum(
        int(r["moved"]) for r in rows if not int(r["on_removed"])
    )
    return pa.table(
        {
            "n_hosts": pa.array([n_hosts], pa.int64()),
            "n_on_removed": pa.array([n_removed], pa.int64()),
            "n_moved": pa.array([n_moved], pa.int64()),
            "n_moved_other": pa.array([n_moved_other], pa.int64()),
            "moved_frac": pa.array(
                [float(n_moved) / float(n_hosts)], pa.float64()
            ),
            "collateral_frac": pa.array(
                [float(n_moved_other) / float(n_hosts)], pa.float64()
            ),
        }
    )


def _sql_ring_rebalance_eval(sql_pages: str) -> str:
    from .queries_wave29 import _RING_VNODES, _RING_WORKERS

    def ring_vals(workers: range) -> str:
        pts = []
        for w in workers:
            for v in range(_RING_VNODES):
                h = int(
                    hashlib.md5(f"ring|{w}|{v}".encode()).hexdigest()[:8], 16
                )
                pts.append((h, w))
        pts.sort()
        return ", ".join(f"({h}, {w})" for h, w in pts)

    removed = _RING_WORKERS - 1
    return f"""
WITH {sql_pages},
r1(h, w) AS (VALUES {ring_vals(range(_RING_WORKERS))}),
r2(h, w) AS (VALUES {ring_vals(range(_RING_WORKERS - 1))}),
hosts AS (SELECT DISTINCT host FROM purl),
hh AS (
  SELECT host,
         CAST(('0x' || substr(md5(host), 1, 8)) AS BIGINT) AS hv
  FROM hosts
),
asg AS (
  SELECT hh.host,
         COALESCE((SELECT r.w FROM r1 r WHERE r.h >= hh.hv
                   ORDER BY r.h LIMIT 1),
                  (SELECT r.w FROM r1 r ORDER BY r.h LIMIT 1)) AS w1,
         COALESCE((SELECT r.w FROM r2 r WHERE r.h >= hh.hv
                   ORDER BY r.h LIMIT 1),
                  (SELECT r.w FROM r2 r ORDER BY r.h LIMIT 1)) AS w2
  FROM hh
),
s AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n_hosts,
         CAST(SUM(CASE WHEN w1 = {removed} THEN 1 ELSE 0 END) AS BIGINT)
           AS n_on_removed,
         CAST(SUM(CASE WHEN w1 <> w2 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_moved,
         CAST(SUM(CASE WHEN w1 <> w2 AND w1 <> {removed} THEN 1 ELSE 0 END)
              AS BIGINT) AS n_moved_other
  FROM asg
)
SELECT n_hosts, n_on_removed, n_moved, n_moved_other,
       CAST(n_moved AS DOUBLE) / CAST(n_hosts AS DOUBLE) AS moved_frac,
       CAST(n_moved_other AS DOUBLE) / CAST(n_hosts AS DOUBLE)
         AS collateral_frac
FROM s
"""
