"""Dataset-native frontier "pending" store — the priority queue at scale.

The reference holds its frontier in an in-process asyncio.PriorityQueue
(bfs_strategy.py:124-131, bff_strategy.py:129-213). Round 1 kept the
pending set as a driver-resident Arrow table — fine at wave ≤1e6, the
scale-killer at the north rule's 10^10-URL frontier (r1 VERDICT #2). This
store makes the frontier a first-class distributed object:

- **Large frontiers** live as a ``ray.data.Dataset``. Each wave runs ONE
  distributed sort, materialized into ordered plasma blocks: the admitted
  slice is the first ``budget`` rows (zero-copy gets, budget-bounded on
  the driver) and the REMAINDER is the rest of those same blocks —
  plasma-resident (spillable), flat lineage, never touching the driver.
  Parquet spills happen only for checkpoint durability.
- **Small frontiers** (≤ ``small_threshold`` rows) short-circuit to a
  driver-side Arrow ``sort_by`` — identical keys, identical total order
  (url_norm is unique, so the sort is a total order and both paths are
  byte-deterministic; tested for equality in tests/test_frontier_store.py).

Sort keys per strategy (SURVEY.md §2.6), with queue aging: the effective
score is ``score + aging_rate * (wave - enqueued_wave)`` — the per-wave
analogue of the reference dispatcher's −wait_time fairness boost
(async_dispatcher.py:189-198) so politeness-deferred hosts cannot starve.

    bfs        (depth asc,  eff_score desc, url asc)
    dfs        (depth desc, eff_score desc, url asc)
    best_first (eff_score desc, depth asc,  url asc)
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray

FRONTIER_SCHEMA = pa.schema(
    [
        ("url_norm", pa.string()),
        ("host", pa.string()),
        ("depth", pa.int32()),
        ("parent_url", pa.string()),
        ("score", pa.float64()),
        ("enqueued_wave", pa.int32()),
        # memory-pressure requeue accounting (reference
        # async_dispatcher.py:229-258: requeued tasks carry
        # retry_count+1); producers may omit it — conform() zero-fills
        ("retry_count", pa.int32()),
    ]
)


def conform_frontier(tbl: pa.Table) -> pa.Table:
    """Project onto FRONTIER_SCHEMA, zero-filling a missing retry_count
    (pre-r4 checkpoints and the seen-shard spill path don't carry it)."""
    if "retry_count" not in tbl.column_names:
        tbl = tbl.append_column(
            "retry_count", pa.array(np.zeros(tbl.num_rows, np.int32))
        )
    return tbl.select(FRONTIER_SCHEMA.names).cast(FRONTIER_SCHEMA)

_SORT_SPECS = {
    # (key, ascending) triples; _negeff = -(score + aging) so "ascending"
    # on it means score-descending
    "bfs": [("depth", "ascending"), ("_negeff", "ascending"), ("url_norm", "ascending")],
    "dfs": [("depth", "descending"), ("_negeff", "ascending"), ("url_norm", "ascending")],
    "best_first": [("_negeff", "ascending"), ("depth", "ascending"), ("url_norm", "ascending")],
}


def empty_frontier() -> pa.Table:
    return FRONTIER_SCHEMA.empty_table()


def _drop_negeff(tbl: pa.Table) -> pa.Table:
    if "_negeff" in tbl.column_names:
        return tbl.drop_columns(["_negeff"])
    return tbl


def _with_sort_key(tbl: pa.Table, wave: int, aging_rate: float) -> pa.Table:
    """Append the _negeff column = -(score + aging_rate * age)."""
    tbl = _drop_negeff(tbl)
    score = tbl.column("score").to_numpy(zero_copy_only=False)
    if aging_rate:
        age = wave - tbl.column("enqueued_wave").to_numpy(zero_copy_only=False)
        eff = score + aging_rate * np.maximum(age, 0)
    else:
        eff = score
    return tbl.append_column("_negeff", pa.array(-eff, pa.float64()))


def sort_frontier(tbl: pa.Table, strategy: str, wave: int = 0, aging_rate: float = 0.0) -> pa.Table:
    """Driver-side total-order sort (small-frontier fast path)."""
    if tbl.num_rows == 0:
        return tbl.cast(FRONTIER_SCHEMA) if tbl.schema != FRONTIER_SCHEMA else tbl
    keyed = _with_sort_key(tbl, wave, aging_rate)
    out = keyed.sort_by(_SORT_SPECS[strategy])
    return out.drop_columns(["_negeff"])


class FrontierStore:
    """Pending-frontier priority queue with a driver fast path and a
    Dataset-native scale path (mode switches on ``small_threshold``)."""

    def __init__(
        self,
        strategy: str = "bfs",
        aging_rate: float = 0.0,
        spill_dir: str | None = None,
        small_threshold: int = 200_000,
    ):
        if strategy not in _SORT_SPECS:
            raise ValueError(f"unknown strategy {strategy!r}")
        self.strategy = strategy
        self.aging_rate = aging_rate
        self.spill_dir = spill_dir
        self.small_threshold = small_threshold
        self._table: pa.Table = empty_frontier()  # driver mode storage
        self._ds = None  # Dataset mode storage (parquet-backed, lineage ≤ 1)
        self._count = 0
        self._spill_seq = 0
        self.last_pop_pruned = False  # observability: which pop path ran

    # ------------------------------------------------------------------ sizing
    def __len__(self) -> int:
        return self._count

    @property
    def dataset_mode(self) -> bool:
        return self._ds is not None

    # ------------------------------------------------------------------ insert
    def push(self, tbl: pa.Table) -> None:
        """Add rows (FRONTIER_SCHEMA, enqueued_wave already stamped)."""
        if tbl.num_rows == 0:
            return
        tbl = conform_frontier(tbl)
        self._count += tbl.num_rows
        if self._ds is not None:
            self._ds = self._ds.union(ray.data.from_arrow(tbl))
        else:
            self._table = (
                pa.concat_tables([self._table, tbl]) if self._table.num_rows else tbl
            )

    def push_parquet(self, paths: list[str]) -> int:
        """Add rows spilled to parquet by the seen shards — the new-frontier
        path that never routes candidate rows through the driver."""
        paths = [p for p in paths if os.path.exists(p)]
        if not paths:
            return 0
        n = sum(pq.read_metadata(p).num_rows for p in paths)
        if n == 0:
            return 0
        self._count += n
        if self._ds is None and self._count <= self.small_threshold:
            tbls = [conform_frontier(pq.read_table(p)) for p in paths]
            self._table = pa.concat_tables([self._table, *tbls])
            return n
        if self._ds is None:
            self._to_dataset_mode()
        self._ds = self._ds.union(
            ray.data.read_parquet(paths).map_batches(
                conform_frontier, batch_format="pyarrow"
            )
        )
        return n

    def _to_dataset_mode(self) -> None:
        self._ds = ray.data.from_arrow(self._table if self._table.num_rows else empty_frontier())
        self._table = empty_frontier()

    def _to_driver_mode(self) -> None:
        parts = [ray.get(r) for r in self._ds.to_arrow_refs()]
        parts = [
            conform_frontier(_drop_negeff(p)) for p in parts if p.num_rows
        ]
        self._table = pa.concat_tables(parts) if parts else empty_frontier()
        self._ds = None

    # ------------------------------------------------------------------ pop
    def pop_wave(self, budget: int, wave: int) -> pa.Table:
        """Admit the top-``budget`` rows in strategy order; remove them from
        pending. Driver holds only the returned (budget-bounded) slice."""
        if self._count == 0 or budget <= 0:
            return empty_frontier()
        # mode normalization at the pop boundary
        if self._ds is None and self._count > self.small_threshold:
            self._to_dataset_mode()
        elif self._ds is not None and self._count <= self.small_threshold:
            self._to_driver_mode()

        if self._ds is None:  # driver fast path
            s = sort_frontier(self._table, self.strategy, wave, self.aging_rate)
            admitted = s.slice(0, budget)
            self._table = s.slice(budget)
            self._count = self._table.num_rows
            return admitted

        # Threshold-pruned path when the frontier dwarfs the budget: the
        # remainder of a pop does NOT need to be sorted (the next wave
        # re-sorts under new aging anyway), so sorting all n rows to admit
        # `budget` of them is wasted work. Sample the sort key, pick a
        # conservative threshold, sort ONLY the ~budget candidates above
        # it, and keep the below-threshold rows unsorted. The admitted set
        # is the exact global top-budget either way (the threshold only
        # prunes; on sampling undershoot we fall back to the full sort),
        # so both paths are byte-identical — tested.
        # Gate: pruning pays off when the frontier dwarfs the budget —
        # below ~32x the single sort is comparable to the prune's 3 scans
        # (measured: 1e8/1e6 pop 256 s → 30 s pruned; 1e7/1e6 the two paths
        # are within noise of each other, full sort wins quiet windows).
        self.last_pop_pruned = False
        if self._count >= max(32 * budget, 2 * self.small_threshold):
            admitted = self._pop_pruned(budget, wave)
            if admitted is not None:
                self.last_pop_pruned = True
                return admitted

        # Dataset path: ONE distributed sort, materialized; the admitted
        # slice is the first `budget` rows across the ordered plasma blocks
        # (zero-copy gets, budget-bounded on the driver) and the REMAINDER
        # is the rest of those same blocks — no second execution, no
        # anti-join scan, and the remainder never touches the driver.
        rate, w = self.aging_rate, wave
        keyed = self._ds.map_batches(
            lambda b: _with_sort_key(b, w, rate), batch_format="pyarrow"
        )
        keys = [k for k, _ in _SORT_SPECS[self.strategy]]
        desc = [d == "descending" for _, d in _SORT_SPECS[self.strategy]]
        sorted_ds = keyed.sort(keys, descending=desc).materialize()
        admitted, rem_refs = self._slice_sorted(sorted_ds, budget, wave)
        if rem_refs:
            # remainder blocks stay plasma-resident (spillable); lineage is
            # flat, so per-wave parquet spills are only needed for
            # CHECKPOINT durability. The helper column drops lazily (one
            # shallow map at the next consumption).
            self._ds = ray.data.from_arrow_refs(rem_refs).map_batches(
                _drop_negeff, batch_format="pyarrow"
            )
        else:
            self._ds = ray.data.from_arrow(empty_frontier())
        self._count -= admitted.num_rows
        return admitted

    def _slice_sorted(
        self, sorted_ds, budget: int, wave: int
    ) -> tuple[pa.Table, list]:
        """Walk the ordered plasma blocks of a materialized sorted Dataset:
        first ``budget`` rows → driver (zero-copy gets), rest → refs."""
        admitted_parts: list[pa.Table] = []
        rem_refs = []
        taken = 0
        for ref in sorted_ds.to_arrow_refs():  # ordered blocks
            if taken >= budget:
                rem_refs.append(ref)
                continue
            tbl = ray.get(ref)  # zero-copy from plasma
            if tbl.num_rows == 0:
                continue
            if taken + tbl.num_rows <= budget:
                admitted_parts.append(tbl)
                taken += tbl.num_rows
            else:
                k = budget - taken
                admitted_parts.append(tbl.slice(0, k))
                rem_refs.append(ray.put(tbl.slice(k).combine_chunks()))
                taken = budget
        admitted = (
            pa.concat_tables(admitted_parts)
            if admitted_parts
            else _with_sort_key(empty_frontier(), wave, self.aging_rate)
        )
        # re-assert total order on the (budget-bounded) driver slice — block
        # order from to_arrow_refs is the sorted order, this is a cheap guard
        admitted = admitted.sort_by(_SORT_SPECS[self.strategy]).drop_columns(
            ["_negeff"]
        )
        return admitted, rem_refs

    def _pop_pruned(self, budget: int, wave: int) -> pa.Table | None:
        """Sample → threshold → filter → sort-only-candidates pop.
        Returns None on sampling undershoot (caller falls back to the full
        sort — exactness never depends on the sample)."""
        rate, w = self.aging_rate, wave
        keyed = self._ds.map_batches(
            lambda b: _with_sort_key(b, w, rate), batch_format="pyarrow"
        )
        specs = _SORT_SPECS[self.strategy]
        key_cols = [k for k, _ in specs]
        n = self._count
        # 1. deterministic strided sample of the sort-key columns
        target = 200_000
        step = max(1, n // target)

        def sample(b: pa.Table) -> pa.Table:
            return b.select(key_cols).take(list(range(0, b.num_rows, step)))

        samp_parts = [
            ray.get(r)
            for r in keyed.map_batches(sample, batch_format="pyarrow").to_arrow_refs()
        ]
        samp = pa.concat_tables([p for p in samp_parts if p.num_rows])
        if samp.num_rows == 0:
            return None
        samp = samp.sort_by(specs)
        # conservative rank: 1.5x the proportional rank + slack
        rank = min(
            samp.num_rows - 1,
            int(budget / n * samp.num_rows * 1.5) + 16,
        )
        thr = tuple(samp.column(c)[rank].as_py() for c in key_cols)

        def le_mask(b: pa.Table) -> np.ndarray:
            """Vectorized lexicographic (strategy order) row <= thr. String
            tiebreak evaluated only on the (tiny) still-equal subset."""
            m_lt = np.zeros(b.num_rows, bool)
            m_eq = np.ones(b.num_rows, bool)
            for (col, direction), tv in zip(specs, thr):
                if col == "url_norm":
                    idx = np.nonzero(m_eq)[0]
                    if len(idx):
                        urls = pa.compute.take(b.column(col), pa.array(idx))
                        le = pa.compute.less_equal(urls, pa.scalar(tv)).to_numpy(
                            zero_copy_only=False
                        )
                        m_lt[idx[le]] = True
                    m_eq[:] = False
                    break
                v = b.column(col).to_numpy(zero_copy_only=False)
                lt = (v > tv) if direction == "descending" else (v < tv)
                m_lt |= m_eq & lt
                m_eq &= v == tv
            return m_lt | m_eq

        def above(b: pa.Table) -> pa.Table:
            return b.filter(pa.array(le_mask(b)))

        def below(b: pa.Table) -> pa.Table:
            return _drop_negeff(b.filter(pa.array(~le_mask(b))))

        cands = keyed.map_batches(above, batch_format="pyarrow").materialize()
        n_cand = cands.count()
        if n_cand < budget:  # sampling undershoot — exact fallback
            return None
        keys = [k for k, _ in specs]
        desc = [d == "descending" for _, d in specs]
        sorted_c = cands.sort(keys, descending=desc).materialize()
        admitted, over_refs = self._slice_sorted(sorted_c, budget, wave)
        rest = keyed.map_batches(below, batch_format="pyarrow")
        if over_refs:
            rest = rest.union(
                ray.data.from_arrow_refs(over_refs).map_batches(
                    _drop_negeff, batch_format="pyarrow"
                )
            )
        # flatten the filter lineage now: the below-threshold scan runs
        # exactly once, remainder blocks go plasma-resident like the
        # full-sort path's (spill() still writes checkpoints as before)
        self._ds = rest.materialize()
        self._count -= admitted.num_rows
        return admitted

    # ------------------------------------------------------------------ spill
    def spill(self, path: str | None = None) -> str | None:
        """End-of-wave: persist pending and reset lineage. In Dataset mode
        this writes partitioned parquet (the checkpoint artifact) and re-reads
        it lazily; in driver mode it writes a single file if a path is given.
        Returns the written path."""
        if path is None and self.spill_dir is not None:
            path = os.path.join(self.spill_dir, f"pending_{self._spill_seq:05d}")
            self._spill_seq += 1
        if self._ds is not None:
            if path is None:
                return None
            shutil.rmtree(path, ignore_errors=True)
            os.makedirs(path, exist_ok=True)
            self._ds.map_batches(_drop_negeff, batch_format="pyarrow").write_parquet(path)
            # refresh the exact count from the written files (cheap metadata)
            # and read back only the parts that hold rows: Ray's size
            # estimate over row-less parts averages an empty array
            rows = {
                os.path.join(path, f): pq.read_metadata(os.path.join(path, f)).num_rows
                for f in sorted(os.listdir(path))
                if f.endswith(".parquet")
            }
            parts = [p for p, n in rows.items() if n]
            self._count = sum(rows.values())
            self._ds = (
                ray.data.read_parquet(parts)
                if parts
                else ray.data.from_arrow(empty_frontier())
            )
            return path
        if path is not None:
            if path.endswith(".parquet"):
                os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
                target = path
            else:
                os.makedirs(path, exist_ok=True)
                target = os.path.join(path, "part-0.parquet")
            pq.write_table(
                sort_frontier(self._table, self.strategy, 0, 0.0), target
            )
            return path
        return None

    # ------------------------------------------------------------------ views
    def to_table(self) -> pa.Table:
        """Materialize the full pending set on the driver, sorted. ONLY for
        end-of-run views / tests / adaptive continuation — never called in
        the wave loop (driver-bound by definition)."""
        if self._ds is not None:
            parts = [ray.get(r) for r in self._ds.to_arrow_refs()]
            parts = [
                _drop_negeff(p).select(FRONTIER_SCHEMA.names).cast(FRONTIER_SCHEMA)
                for p in parts
                if p.num_rows
            ]
            tbl = pa.concat_tables(parts) if parts else empty_frontier()
        else:
            tbl = self._table
        return sort_frontier(tbl, self.strategy, 0, 0.0)
