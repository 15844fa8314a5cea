"""Sharded URL-seen set: Bloom fast-path + 128-bit exact arbitration.

The reference keeps one in-process ``visited: Set[str]`` per deep crawl
(bfs_strategy.py:105-121) and prototypes a Bloom filter for scale
(deep_crawling/crazy.py). Here the seen set is S hash-partitioned
``UrlSeenShard`` actors, each holding

- a BloomFilter over the shard's primary key hashes (answers "definitely
  new" without touching the exact store), and
- an exact store keyed on a **128-bit combined key** — two seeded
  FNV-1a-64 families (functions/hashing.hash64 / hash64_alt) — that
  arbitrates Bloom positives.

Collision bound: for two INDEPENDENT ideal 64-bit hashes the birthday
expectation at the north rule's 10^10 urls would be ~(10^10)^2 / 2^129 ≈
1.5e-19 conflations. Our two families share the FNV multiplier and differ
only in initial basis (hash64_alt seed derivation, hashing.ALT_SEED_XOR), so
they are NOT provably independent and that figure is a heuristic, not a
guarantee — no structural correlation is known for FNV-1a under distinct
bases, but none is proven absent either (round-2 ADVICE). The practical
claim: far fewer conflations than the handful expected from a single 64-bit
key, at 16 bytes/url. We
store 16 bytes/url instead of full url strings (10^10 urls ≈ 160 GB across
the cluster, spillable; the Bloom keeps the common negative probe cheap).
This is "exact up to 128-bit collisions"; byte-exact string arbitration
would triple memory for no observable gain.

Checkpoint dumps embed hashing.HASH_SPEC and fail loudly on mismatch, so a
resume can never silently mix hash functions.

Calls from inside map_batches tasks are plain actor RPCs — this is the one
place the Dataset API can't express the semantics (shared mutable index),
per SURVEY.md §2.3.
"""

from __future__ import annotations

import numpy as np

import ray

from ..functions.hashing import HASH_SPEC, hash64, hash64_alt


def _combine(h1: np.ndarray, h2: np.ndarray) -> list[int]:
    """(uint64, uint64) → python int 128-bit keys."""
    return [(int(a) << 64) | int(b) for a, b in zip(h1, h2)]


@ray.remote(num_cpus=0)  # lightweight state actor: never reserve CPUs —
# reserving would deadlock placement on small sessions (probes are bursty
# and short; at cluster scale, shard count is sized to nodes, not cores)
class UrlSeenShard:
    """One partition of the URL-seen set.

    Doubles as the per-wave candidate-dedup partition: ``offer`` accumulates
    a wave's candidate links for this hash range; ``finalize_wave`` picks a
    deterministic canonical row per unique unseen url (max score, then min
    parent), marks them seen (the reference marks visited at discovery,
    before any capacity trim — bfs_strategy.py:113-122), and spills them to
    parquet.
    Routing by hash(url_norm) means the dedup "groupby" needs no extra
    shuffle: the seen-check and the dedup share one partitioning.
    """

    def __init__(self, capacity: int = 1_000_000, error_rate: float = 0.01,
                 approx_filter: str = "bloom"):
        # import inside actor; both filters expose add_hashes /
        # contains_hashes / estimated_cardinality / to_bytes / from_bytes.
        # "bloom" = append-only, cheapest writes (default crawl path);
        # "cuckoo" = deletable (recrawl / retraction), ~80x lower fpp at
        # ~2x the bytes/key (state/cuckoo.py docstring has the numbers).
        if approx_filter == "cuckoo":
            from .cuckoo import CuckooFilter

            self.bloom = CuckooFilter(capacity)
        elif approx_filter == "bloom":
            from .bloom import BloomFilter

            self.bloom = BloomFilter(capacity, error_rate)
        else:
            raise ValueError(f"unknown approx_filter {approx_filter!r}")
        self.approx_filter = approx_filter
        self.exact: set[int] = set()  # 128-bit combined keys
        # wave accumulation: key128 -> (url_norm, host, depth, parent, score, h1)
        self.wave: dict[int, tuple] = {}
        # wave discovery telemetry: candidate rows offered to this shard and
        # links the offering batches skipped (invalid, filtered, low score)
        self.n_offered = 0
        self.n_skipped = 0

    def offer(self, h1, h2, url_norms, hosts, depths, parents, scores,
              n_skipped: int) -> int:
        """Accumulate wave candidates (already partially deduped per batch).
        Deterministic canonical pick regardless of arrival order.
        ``n_skipped`` is the offering batch's count of skipped links."""
        self.n_offered += len(url_norms)
        self.n_skipped += int(n_skipped)
        for a, b, u, ho, d, p, s in zip(h1, h2, url_norms, hosts, depths, parents, scores):
            k = (int(a) << 64) | int(b)
            cur = self.wave.get(k)
            # canonical: higher score wins, then smaller depth, then smaller parent
            cand = (u, ho, int(d), p, float(s), int(a))
            if cur is None or (-cand[4], cand[2], cand[3]) < (-cur[4], cur[2], cur[3]):
                self.wave[k] = cand
        return len(self.wave)

    def finalize_wave(self, out_path: str, enqueued_wave: int) -> dict:
        """Seen-anti-join the accumulated wave, mark new urls seen, and
        write the canonical new candidates (sorted by url for determinism)
        to ``out_path`` as FRONTIER_SCHEMA parquet, so the new-frontier rows
        never touch the driver. Clears the accumulator and the discovery
        counters; the one reply carries the new-row count, the counters and
        the shard's ``stats()``."""
        items = sorted(self.wave.items(), key=lambda kv: kv[1][0])  # by url_norm
        new = [(k, v) for k, v in items if k not in self.exact]
        out = {"new": len(new), "offered": self.n_offered, "skipped": self.n_skipped}
        self.wave = {}
        self.n_offered = self.n_skipped = 0
        if new:
            import pyarrow as pa
            import pyarrow.parquet as pq

            h1 = np.fromiter((v[5] for _, v in new), dtype=np.uint64, count=len(new))
            self._filter_add(h1)
            self.exact.update(k for k, _ in new)
            tbl = pa.table(
                {
                    "url_norm": pa.array([v[0] for _, v in new], pa.string()),
                    "host": pa.array([v[1] for _, v in new], pa.string()),
                    "depth": pa.array([v[2] for _, v in new], pa.int32()),
                    "parent_url": pa.array([v[3] for _, v in new], pa.string()),
                    "score": pa.array([v[4] for _, v in new], pa.float64()),
                    "enqueued_wave": pa.array(
                        [enqueued_wave] * len(new), pa.int32()
                    ),
                }
            )
            pq.write_table(tbl, out_path)
        out["stats"] = self.stats()
        return out

    def check(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        """True where the key was already seen. Read-only."""
        maybe = self.bloom.contains_hashes(h1)
        out = np.zeros(len(h1), dtype=bool)
        idx = np.nonzero(maybe)[0]
        for i in idx:  # bloom positives arbitrated against the 128-bit store
            out[i] = ((int(h1[i]) << 64) | int(h2[i])) in self.exact
        return out

    def _filter_add(self, h1_new: np.ndarray) -> None:
        """Insert into the approx filter, growing a full cuckoo table in
        place: the exact store's 128-bit keys carry h1 in their high half,
        so the shard can always rebuild a doubled table (a Bloom never
        raises; review finding — over-capacity must degrade, not kill the
        crawl)."""
        from .cuckoo import CuckooFilter, CuckooFilterFull

        while True:
            try:
                self.bloom.add_hashes(h1_new)
                return
            except CuckooFilterFull:
                bigger = CuckooFilter(max(self.bloom.capacity * 2, 1024))
                keys = np.fromiter(
                    (k >> 64 for k in self.exact),
                    dtype=np.uint64,
                    count=len(self.exact),
                )
                bigger.add_hashes(keys)
                self.bloom = bigger
                # retry h1_new against the doubled table

    def add(self, h1: np.ndarray, h2: np.ndarray) -> int:
        """Mark keys seen; returns number newly added. Idempotent under
        BOTH filters: only keys absent from the exact store touch the
        approx filter — re-adding a seen url must never accumulate
        duplicate cuckoo fingerprints (review finding: repeated adds of
        the same batch previously filled the table to CuckooFilterFull)."""
        keys = _combine(h1, h2)
        new_idx = [i for i, k in enumerate(keys) if k not in self.exact]
        if not new_idx:
            return 0
        self._filter_add(np.asarray(h1, dtype=np.uint64)[new_idx])
        self.exact.update(keys[i] for i in new_idx)
        return len(new_idx)

    def check_and_add(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        seen = self.check(h1, h2)
        new = ~seen
        if new.any():
            self.add(h1[new], h2[new])
        return seen

    def forget(self, h1: np.ndarray, h2: np.ndarray) -> int:
        """Un-see keys (recrawl scheduling / retraction); returns how many
        were actually present. Correct under BOTH filters: ``check``
        arbitrates approx positives against the exact 128-bit store, so
        removing the exact key suffices — a stale Bloom bit is harmless.
        With the cuckoo filter the fingerprint is deleted too, reclaiming
        occupancy (the capability the Bloom lacks)."""
        removed = 0
        present = np.zeros(len(h1), dtype=bool)
        for i, k in enumerate(_combine(h1, h2)):
            if k in self.exact:
                self.exact.discard(k)
                present[i] = True
                removed += 1
        if removed and self.approx_filter == "cuckoo":
            self.bloom.delete_hashes(np.asarray(h1, dtype=np.uint64)[present])
        return removed

    def stats(self) -> dict:
        return {
            "exact_size": len(self.exact),
            "bloom_estimate": self.bloom.estimated_cardinality(),
            "bloom_bits": getattr(self.bloom, "num_bits",
                                  getattr(self.bloom, "num_buckets", 0) * 4 * 16),
        }

    def dump(self) -> bytes:
        """Checkpoint payload: hash-spec header + bloom bytes + sorted
        128-bit exact keys (as h1,h2 uint64 pairs)."""
        keys = sorted(self.exact)
        h1 = np.fromiter((k >> 64 for k in keys), dtype=np.uint64, count=len(keys))
        h2 = np.fromiter((k & 0xFFFFFFFFFFFFFFFF for k in keys), dtype=np.uint64, count=len(keys))
        # the filter kind rides inside the spec header so a resume can
        # never silently swap bloom<->cuckoo any more than it can swap
        # hash functions
        spec = f"{HASH_SPEC};filter={self.approx_filter}".encode("utf-8")
        bloom_b = self.bloom.to_bytes()
        return (
            len(spec).to_bytes(2, "little")
            + spec
            + len(bloom_b).to_bytes(8, "little")
            + bloom_b
            + h1.tobytes()
            + h2.tobytes()
        )

    def load(self, data: bytes) -> int:
        from .bloom import BloomFilter
        from .cuckoo import CuckooFilter

        ns = int.from_bytes(data[0:2], "little")
        spec = data[2 : 2 + ns].decode("utf-8")
        hash_spec, _, filt = spec.partition(";filter=")
        filt = filt or "bloom"  # pre-cuckoo dumps carried no filter tag
        if hash_spec != HASH_SPEC:
            raise ValueError(
                f"seen-shard checkpoint was written with hash spec {hash_spec!r}, "
                f"engine uses {HASH_SPEC!r} — refusing to resume with a "
                "mismatched hash function (would silently re-crawl / skip urls)"
            )
        if filt != self.approx_filter:
            raise ValueError(
                f"seen-shard checkpoint holds a {filt!r} filter, shard was "
                f"constructed with {self.approx_filter!r} — refusing to resume "
                "with a mismatched filter structure"
            )
        off = 2 + ns
        n = int.from_bytes(data[off : off + 8], "little")
        off += 8
        cls = CuckooFilter if filt == "cuckoo" else BloomFilter
        self.bloom = cls.from_bytes(data[off : off + n])
        off += n
        rest = data[off:]
        half = len(rest) // 2
        h1 = np.frombuffer(rest[:half], dtype=np.uint64)
        h2 = np.frombuffer(rest[half:], dtype=np.uint64)
        self.exact = set(_combine(h1, h2))
        return len(self.exact)


class SeenSet:
    """Driver-side handle over the shard pool."""

    def __init__(self, num_shards: int = 16, capacity_per_shard: int = 1_000_000,
                 error_rate: float = 0.01, approx_filter: str = "bloom"):
        self.num_shards = num_shards
        self.shards = [
            UrlSeenShard.remote(capacity_per_shard, error_rate, approx_filter)
            for _ in range(num_shards)
        ]

    def _route(self, h1: np.ndarray):
        return (h1 % np.uint64(self.num_shards)).astype(np.int64)

    def _scatter_gather(self, h1, h2, method: str) -> np.ndarray:
        """Partition a hash batch by shard, issue one RPC per shard, and
        stitch results back into input order."""
        if len(h1) == 0:
            return np.zeros(0, dtype=bool)
        shard_ids = self._route(h1)
        refs, idxs = [], []
        for s in range(self.num_shards):
            idx = np.nonzero(shard_ids == s)[0]
            if len(idx) == 0:
                continue
            refs.append(getattr(self.shards[s], method).remote(h1[idx], h2[idx]))
            idxs.append(idx)
        out = np.zeros(len(h1), dtype=bool)
        for idx, res in zip(idxs, ray.get(refs)):
            if res is not None and not np.isscalar(res):
                out[idx] = res
        return out

    def check(self, keys) -> np.ndarray:
        return self._scatter_gather(*self._as_hashes(keys), "check")

    def add(self, keys) -> None:
        h1, h2 = self._as_hashes(keys)
        if len(h1) == 0:
            return
        shard_ids = self._route(h1)
        refs = []
        for s in range(self.num_shards):
            idx = np.nonzero(shard_ids == s)[0]
            if len(idx):
                refs.append(self.shards[s].add.remote(h1[idx], h2[idx]))
        ray.get(refs)

    def check_and_add(self, keys) -> np.ndarray:
        return self._scatter_gather(*self._as_hashes(keys), "check_and_add")

    def forget(self, keys) -> int:
        """Un-see urls across shards (recrawl / retraction); returns the
        number that were present."""
        h1, h2 = self._as_hashes(keys)
        if len(h1) == 0:
            return 0
        shard_ids = self._route(h1)
        refs = []
        for s in range(self.num_shards):
            idx = np.nonzero(shard_ids == s)[0]
            if len(idx):
                refs.append(self.shards[s].forget.remote(h1[idx], h2[idx]))
        return sum(ray.get(refs))

    @staticmethod
    def _as_hashes(keys) -> tuple[np.ndarray, np.ndarray]:
        keys = list(keys)
        return hash64(keys), hash64_alt(keys)

    def offer_candidates(self, url_norms, hosts, depths, parents, scores,
                         n_skipped: int) -> None:
        """Partition one batch of candidates across shards (used inside
        map_batches tasks; blocks until the shards acked). The batch's
        ``n_skipped`` rides on its first offer (on shard 0 when the batch
        has no candidates), so the counts reach ``finalize_wave`` exactly."""
        h1, h2 = self._as_hashes(url_norms)
        shard_ids = self._route(h1)
        groups = [(s, np.nonzero(shard_ids == s)[0]) for s in range(self.num_shards)]
        groups = [(s, idx) for s, idx in groups if len(idx)]
        if not groups and n_skipped:
            groups = [(0, np.zeros(0, np.int64))]
        ray.get(
            [
                self.shards[s].offer.remote(
                    h1[idx],
                    h2[idx],
                    [url_norms[i] for i in idx],
                    [hosts[i] for i in idx],
                    [int(depths[i]) for i in idx],
                    [parents[i] for i in idx],
                    [float(scores[i]) for i in idx],
                    n_skipped if j == 0 else 0,
                )
                for j, (s, idx) in enumerate(groups)
            ]
        )

    def finalize_wave_parquet(
        self, spill_dir: str, enqueued_wave: int
    ) -> tuple[list[str], dict]:
        """Shard-parallel finalize with direct-to-parquet spill: each shard
        writes its own partition file; the driver only sees paths + counts.
        Returns the written paths and the wave's totals:
        ``candidates_offered``, ``candidates_skipped`` and ``seen`` (the
        same figures as ``stats()``, taken after the wave's urls were
        marked)."""
        import os

        os.makedirs(spill_dir, exist_ok=True)
        paths = [
            os.path.join(spill_dir, f"shard_{i:03d}.parquet")
            for i in range(self.num_shards)
        ]
        res = ray.get(
            [
                s.finalize_wave.remote(out_path=p, enqueued_wave=enqueued_wave)
                for s, p in zip(self.shards, paths)
            ]
        )
        totals = {
            "candidates_offered": sum(r["offered"] for r in res),
            "candidates_skipped": sum(r["skipped"] for r in res),
            "seen": self._merge_stats([r["stats"] for r in res]),
        }
        return [p for p, r in zip(paths, res) if r["new"]], totals

    def _merge_stats(self, per: list[dict]) -> dict:
        return {
            "num_shards": self.num_shards,
            "exact_size": sum(p["exact_size"] for p in per),
            "bloom_estimate": sum(p["bloom_estimate"] for p in per),
        }

    def stats(self) -> dict:
        return self._merge_stats(ray.get([s.stats.remote() for s in self.shards]))

    def dump_all(self) -> list[bytes]:
        return ray.get([s.dump.remote() for s in self.shards])

    def load_all(self, payloads: list[bytes]) -> None:
        ray.get([s.load.remote(p) for s, p in zip(self.shards, payloads)])

    def shutdown(self):
        for s in self.shards:
            ray.kill(s)
        self.shards = []
