"""Bloom filter, URL-seen shards, politeness — the stateful layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crawl4ai_ray.functions.hashing import hash64
from crawl4ai_ray.state.bloom import BloomFilter, splitmix64


def test_bloom_no_false_negatives():
    bf = BloomFilter(capacity=10_000, error_rate=0.01)
    keys = hash64([f"https://x.com/{i}" for i in range(5_000)])
    bf.add_hashes(keys)
    assert bf.contains_hashes(keys).all()


def test_bloom_fpp_reasonable():
    bf = BloomFilter(capacity=10_000, error_rate=0.01)
    bf.add_hashes(hash64([f"https://x.com/{i}" for i in range(10_000)]))
    other = hash64([f"https://y.com/{i}" for i in range(10_000)])
    fpp = bf.contains_hashes(other).mean()
    assert fpp < 0.03  # ~1% designed, generous bound


def test_bloom_cardinality_estimate():
    bf = BloomFilter(capacity=50_000, error_rate=0.01)
    bf.add_hashes(hash64([str(i) for i in range(20_000)]))
    est = bf.estimated_cardinality()
    assert 18_000 < est < 22_000


def test_bloom_popcount_matches_bit_strings():
    """The byte-table popcount behind the cardinality estimate counts the
    same set bits as ``bin(w).count("1")`` on an empty, a random and a full
    filter."""
    import math

    def reference_estimate(bf):
        set_bits = sum(bin(int(w)).count("1") for w in bf.words)
        if set_bits == 0:
            return 0.0
        if set_bits >= bf.num_bits:
            return float("inf")
        return -(bf.num_bits / bf.num_hashes) * math.log(1 - set_bits / bf.num_bits)

    empty = BloomFilter(capacity=5_000, error_rate=0.01)
    rand = BloomFilter(capacity=5_000, error_rate=0.01)
    rand.words = np.frombuffer(
        np.random.RandomState(7).bytes(8 * len(rand.words)), dtype=np.uint64
    ).copy()
    full = BloomFilter(capacity=5_000, error_rate=0.01)
    full.words[:] = np.uint64(0xFFFFFFFFFFFFFFFF)
    for bf in (empty, rand, full):
        assert bf.estimated_cardinality() == reference_estimate(bf)
    assert empty.estimated_cardinality() == 0.0
    assert full.estimated_cardinality() == float("inf")
    assert 0.0 < rand.estimated_cardinality() < float("inf")


def test_bloom_roundtrip():
    bf = BloomFilter(capacity=1000, error_rate=0.01)
    keys = hash64(["a", "b", "c"])
    bf.add_hashes(keys)
    bf2 = BloomFilter.from_bytes(bf.to_bytes())
    assert bf2.contains_hashes(keys).all()
    assert bf2.num_bits == bf.num_bits and bf2.num_hashes == bf.num_hashes


def test_splitmix_deterministic():
    x = np.array([1, 2, 3], dtype=np.uint64)
    assert (splitmix64(x) == splitmix64(x.copy())).all()


def test_hash64_matches_pinned_spec():
    """hash64 is a frozen spec (fnv1a64-seeded-v1) — independent of any
    library version, verified against the pure-python reference impl."""
    from crawl4ai_ray.functions.hashing import fnv1a64_py, hash64_alt

    import pyarrow as pa

    cases = ["", "a", "https://example.com/path?q=1", "ünïcødé ✓", "x" * 500]
    got = hash64(cases)
    assert list(got) == [fnv1a64_py(s) for s in cases]
    # pinned value: if this changes, every persisted artifact breaks
    assert int(hash64(["https://example.com/"])[0]) == fnv1a64_py("https://example.com/")
    # EXACT literal pins (not derived): persisted artifacts carry these
    assert int(hash64(["https://example.com/path?q=1"])[0]) == 2276084662989381247
    assert int(hash64([""])[0]) == 14696009626648994939
    # arrow input (sliced, offset ≠ 0) hashes identically
    arr = pa.array(["pad"] + cases).slice(1)
    assert list(hash64(arr)) == list(got)
    # second family: derivation is frozen (seed ^ ALT_SEED_XOR) and its
    # output is pinned EXACTLY (round-2 ADVICE — a "fix" to the seed
    # derivation must trip this, not silently change persisted 128-bit keys)
    from crawl4ai_ray.functions.hashing import ALT_SEED_XOR, HASH_SEED

    assert ALT_SEED_XOR == 0x7F4A7C15
    assert list(hash64_alt(cases)) == [
        fnv1a64_py(s, seed=HASH_SEED ^ ALT_SEED_XOR) for s in cases
    ]
    assert int(hash64_alt(["https://example.com/path?q=1"])[0]) == 2289636238017913144
    assert int(hash64_alt([""])[0]) == 9335578559163612200
    assert not (hash64_alt(cases) == got).any()


def _seen_members(seen) -> set[tuple[int, int]]:
    """A SeenSet's keys, read through its ``dump_all`` payloads."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    keys = set()
    for payload in seen.dump_all():
        t = pq.read_table(pa.BufferReader(payload))
        keys.update(zip(t.column("h1").to_pylist(), t.column("h2").to_pylist()))
    return keys


def _url_members(urls) -> set[tuple[int, int]]:
    from crawl4ai_ray.state.seen import url_keys

    return set(zip(*(k.tolist() for k in url_keys(urls))))


def test_seen_checkpoint_rejects_wrong_hash_spec(tmp_path):
    """A seen run or payload written under another hash spec is refused in
    the driver, before any task runs."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from crawl4ai_ray.state.seen import SeenSet

    s = SeenSet(num_shards=1)
    s.add(["u1"], str(tmp_path / "seeds"))
    payload = s.dump_all()[0]
    tbl = pq.read_table(pa.BufferReader(payload))
    bad_tbl = tbl.replace_schema_metadata({b"hash_spec": b"oops"})
    sink = pa.BufferOutputStream()
    pq.write_table(bad_tbl, sink)
    with pytest.raises(ValueError, match="hash spec"):
        SeenSet(num_shards=1).load_all([sink.getvalue().to_pybytes()], str(tmp_path / "l"))
    bad_path = str(tmp_path / "bad.parquet")
    pq.write_table(bad_tbl, bad_path)
    with pytest.raises(ValueError, match="hash spec"):
        SeenSet(num_shards=1, runs=[[bad_path]])
    # the untampered payload loads
    s2 = SeenSet(num_shards=1)
    s2.load_all([payload], str(tmp_path / "ok"))
    assert _seen_members(s2) == _url_members(["u1"])


def test_hash64_stable_and_vectorized():
    a = hash64(["abc", "def"])
    b = hash64(["abc", "def"])
    assert (a == b).all()
    assert a[0] != a[1]


def test_seen_set_check_add(tmp_path):
    from crawl4ai_ray.state.seen import SeenSet

    seen = SeenSet(num_shards=2)
    urls = [f"https://a.com/{i}" for i in range(50)]
    assert _seen_members(seen) == set()
    # duplicated seeds are marked once, as one run per partition
    seen.add(urls + urls[:10], str(tmp_path / "a"))
    assert _seen_members(seen) == _url_members(urls)
    assert seen.stats()["exact_size"] == 50
    assert seen.stats()["runs"] == 2
    # seeds go only into an empty set; later waves go through the reduce
    with pytest.raises(ValueError, match="empty"):
        seen.add(urls, str(tmp_path / "b"))


def test_seen_set_dump_load(tmp_path):
    from crawl4ai_ray.state.seen import SeenSet

    seen = SeenSet(num_shards=2)
    seen.add(["u1", "u2", "u3"], str(tmp_path / "a"))
    payloads = seen.dump_all()
    seen2 = SeenSet(num_shards=2)
    seen2.load_all(payloads, str(tmp_path / "b"))
    assert _seen_members(seen2) == _url_members(["u1", "u2", "u3"])
    assert seen2.stats()["exact_size"] == 3
    with pytest.raises(ValueError, match="partitions"):
        SeenSet(num_shards=3).load_all(payloads, str(tmp_path / "c"))


_U64 = st.integers(min_value=0, max_value=2**64 - 1)
# h1 values drawn from a few fixed ones force keys with equal h1 and
# different h2 (64-bit collisions the runs must still tell apart)
_H1 = st.one_of(st.sampled_from([3, 7, 2**63 + 1, 2**64 - 1]), _U64)
_H2 = st.one_of(st.integers(min_value=0, max_value=3), _U64)
_ROW = st.tuples(_H1, _H2, st.integers(0, 3), st.integers(0, 2), st.sampled_from("ab"))


@given(
    waves=st.lists(
        st.tuples(st.lists(_ROW, max_size=24), st.integers(0, 5)),
        min_size=1, max_size=14,
    ),
    num_partitions=st.integers(1, 3),
)
@settings(max_examples=25, deadline=None)
def test_seen_runs_match_python_set(waves, num_partitions):
    """The partitioned sorted-run anti-join, wave after wave and through
    run compaction, keeps exactly the keys a Python set keeps and emits
    exactly the canonical new rows (max score, min depth, min parent)."""
    import os
    import tempfile
    import types
    from unittest import mock

    import pyarrow as pa
    import pyarrow.parquet as pq

    from crawl4ai_ray.state import seen as seen_mod

    model: set[tuple[int, int]] = set()
    with tempfile.TemporaryDirectory() as root, mock.patch.object(
        seen_mod, "ray", types.SimpleNamespace(get=lambda refs: refs)
    ), mock.patch.object(
        seen_mod, "_reduce_task", types.SimpleNamespace(remote=seen_mod.reduce_partition)
    ):
        seen = seen_mod.SeenSet(num_shards=num_partitions)
        for w, (rows, n_skipped) in enumerate(waves):
            exchange = os.path.join(root, "x", str(w))
            # two map batches per wave; a key may appear in both
            for b, batch in enumerate((rows[::2], rows[1::2])):
                h1 = np.array([r[0] for r in batch], np.uint64)
                part = h1 % np.uint64(num_partitions)
                for p in range(num_partitions):
                    sel = [r for r, q in zip(batch, part) if q == p]
                    if not sel and not (b == 0 and p == 0):
                        continue
                    tbl = pa.table({
                        "url_norm": [f"u{r[0]}-{r[1]}" for r in sel],
                        "host": ["h"] * len(sel),
                        "depth": pa.array([r[3] for r in sel], pa.int32()),
                        "parent_url": [r[4] for r in sel],
                        "score": [float(r[2]) for r in sel],
                        "h1": pa.array([r[0] for r in sel], pa.uint64()),
                        "h2": pa.array([r[1] for r in sel], pa.uint64()),
                    }, schema=seen_mod.CANDIDATE_SCHEMA)
                    if b == 0 and p == 0:
                        tbl = tbl.replace_schema_metadata({b"n_skipped": str(n_skipped).encode()})
                    d = os.path.join(exchange, f"part-{p:03d}")
                    os.makedirs(d, exist_ok=True)
                    pq.write_table(tbl, os.path.join(d, f"batch{b}.parquet"))
            paths, totals = seen.finalize_wave_parquet(
                os.path.join(root, "spill", str(w)), w + 1, exchange,
                os.path.join(root, "runs", str(w)),
            )
            best = {}
            for h1, h2, score, depth, parent in rows:
                cur = best.get((h1, h2))
                if cur is None or (-score, depth, parent) < (-cur[0], cur[1], cur[2]):
                    best[(h1, h2)] = (score, depth, parent)
            expect = sorted(
                (f"u{k[0]}-{k[1]}", v[1], v[2], float(v[0]))
                for k, v in best.items() if k not in model
            )
            model.update(best)
            got = []
            for path in paths:
                t = pq.read_table(path)
                urls = t.column("url_norm").to_pylist()
                assert urls == sorted(urls)
                assert set(t.column("enqueued_wave").to_pylist()) == {w + 1}
                got += zip(urls, t.column("depth").to_pylist(),
                           t.column("parent_url").to_pylist(), t.column("score").to_pylist())
            assert sorted(got) == expect
            assert totals["candidates_offered"] == len(rows)
            assert totals["candidates_skipped"] == n_skipped
            assert totals["seen"]["exact_size"] == len(model)
            assert not os.path.exists(exchange)
            stored: set[tuple[int, int]] = set()
            for p, runs in enumerate(seen.runs):
                assert len(runs) <= seen_mod.MAX_RUNS
                for path in runs:
                    h1, h2 = seen_mod.read_run(path)
                    keys = list(zip(h1.tolist(), h2.tolist()))
                    assert keys == sorted(keys)  # sorted by (h1, h2)
                    assert not stored & set(keys)  # runs are disjoint
                    assert all(k[0] % num_partitions == p for k in keys)
                    stored.update(keys)
            assert stored == model


def test_contains_tells_equal_h1_apart():
    """Keys that share h1 differ only in h2; a probe matches only its own
    (h1, h2), including at the ends of the run."""
    from crawl4ai_ray.state.seen import contains, sort_keys

    h1 = np.array([5, 5, 5, 9, 0, 2**64 - 1, 2**64 - 1], np.uint64)
    h2 = np.array([3, 1, 7, 1, 4, 0, 2**64 - 1], np.uint64)
    r1, r2 = sort_keys(h1, h2)
    q1 = np.array([5, 5, 5, 5, 9, 9, 0, 0, 2**64 - 1, 2**64 - 1, 6], np.uint64)
    q2 = np.array([1, 3, 7, 2, 1, 3, 4, 5, 2**64 - 1, 1, 1], np.uint64)
    got = contains(r1, r2, q1, q2)
    assert got.tolist() == [True, True, True, False, True, False,
                            True, False, True, False, False]
    # an empty run and an empty probe set
    empty = np.zeros(0, np.uint64)
    assert not contains(empty, empty, q1, q2).any()
    assert contains(r1, r2, empty, empty).tolist() == []


def test_write_candidates_partitions_rows_and_skipped_count(tmp_path):
    """The map side writes each candidate to the file of partition
    h1 % n, puts the batch's skipped count on exactly one file, and a
    retried batch overwrites its own files."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from crawl4ai_ray.state import seen as seen_mod

    urls = [f"https://a.com/{i}" for i in range(40)]
    cand = pa.table({
        "url_norm": urls,
        "host": ["a.com"] * 40,
        "depth": pa.array([1] * 40, pa.int32()),
        "parent_url": ["https://a.com/"] * 40,
        "score": [0.5] * 40,
    })
    xdir = str(tmp_path / "x")
    for _ in range(2):  # the second call is a retry of the same batch
        seen_mod.write_candidates(xdir, 3, "b0", cand, n_skipped=7)
    h1, _ = seen_mod.url_keys(urls)
    got, skipped = {}, 0
    for part in sorted(os.listdir(xdir)):
        files = os.listdir(os.path.join(xdir, part))
        assert files == ["b0.parquet"]
        t = pq.read_table(os.path.join(xdir, part, files[0]))
        assert t.schema.remove_metadata() == seen_mod.CANDIDATE_SCHEMA
        skipped += int((t.schema.metadata or {}).get(b"n_skipped", 0))
        for u, k in zip(t.column("url_norm").to_pylist(), t.column("h1").to_pylist()):
            assert f"part-{k % 3:03d}" == part
            got[u] = part
    assert sorted(got) == sorted(urls)
    assert skipped == 7
    # a batch with no candidates still carries its skipped count
    seen_mod.write_candidates(str(tmp_path / "e"), 3, "b1",
                              cand.slice(0, 0), n_skipped=4)
    t = pq.read_table(str(tmp_path / "e" / "part-000" / "b1.parquet"))
    assert t.num_rows == 0 and t.schema.metadata[b"n_skipped"] == b"4"


def test_reduce_partition_merges_runs_past_max_runs(tmp_path):
    """A partition with MAX_RUNS runs writes its next delta merged with
    them: one sorted run holding every key, and the set is unchanged."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from crawl4ai_ray.state import seen as seen_mod

    runs, keys = [], set()
    for i in range(seen_mod.MAX_RUNS):
        h1 = np.array([i, 100 + i], np.uint64)
        h2 = np.array([i, i], np.uint64)
        path = str(tmp_path / "runs" / f"r{i}.parquet")
        seen_mod.write_run(path, h1, h2)
        runs.append(path)
        keys |= set(zip(h1.tolist(), h2.tolist()))
    cand = pa.table({
        "url_norm": ["n", "old", "n2"],
        "host": ["h"] * 3,
        "depth": pa.array([1, 1, 1], pa.int32()),
        "parent_url": ["p"] * 3,
        "score": [0.0] * 3,
        "h1": pa.array([50, 3, 0], pa.uint64()),
        "h2": pa.array([50, 3, 9], pa.uint64()),  # (0, 9) shares h1 with (0, 0)
    }, schema=seen_mod.CANDIDATE_SCHEMA)
    xdir = tmp_path / "x"
    xdir.mkdir()
    pq.write_table(cand, str(xdir / "b.parquet"))
    out = seen_mod.reduce_partition(
        str(xdir), runs, str(tmp_path / "delta.parquet"),
        str(tmp_path / "front.parquet"), 4,
    )
    assert out["offered"] == 3 and out["new"] == 2 and out["merged"]
    h1, h2 = seen_mod.read_run(out["run"])
    merged = list(zip(h1.tolist(), h2.tolist()))
    assert merged == sorted(keys | {(50, 50), (0, 9)})
    assert out["run_rows"] == len(merged)
    front = pq.read_table(str(tmp_path / "front.parquet"))
    assert front.column("url_norm").to_pylist() == ["n", "n2"]
    # below the cap the delta holds only the new keys
    out = seen_mod.reduce_partition(
        str(xdir), runs[:2], str(tmp_path / "delta2.parquet"),
        str(tmp_path / "front2.parquet"), 4,
    )
    assert not out["merged"] and out["new"] == 3 and out["run_rows"] == 3


def test_seen_set_reopens_from_relative_runs(tmp_path):
    """The manifest form of the run list reopens the same set; a run list
    with another partition count is refused."""
    import os

    from crawl4ai_ray.state.seen import SeenSet

    root = str(tmp_path)
    seen = SeenSet(num_shards=3)
    urls = [f"https://b.com/{i}" for i in range(60)]
    seen.add(urls[:45], os.path.join(root, "w0"))
    rel = seen.relative_runs(root)
    assert all(not os.path.isabs(p) for paths in rel for p in paths)
    runs = [[os.path.join(root, p) for p in paths] for paths in rel]
    again = SeenSet(num_shards=3, runs=runs)
    assert again.stats() == seen.stats()
    assert again.stats()["exact_size"] == 45
    assert _seen_members(again) == _url_members(urls[:45])
    with pytest.raises(ValueError, match="seen_shards=2"):
        SeenSet(num_shards=2, runs=runs)
    seen.shutdown()
    assert seen.stats()["exact_size"] == 0 and _seen_members(seen) == set()


def test_politeness_admission_cap(ray_session):
    from crawl4ai_ray.state.politeness import PolitenessPool

    pool = PolitenessPool()
    try:
        hosts = ["a.com"] * 5 + ["b.com"] * 2
        mask = pool.admit(hosts, per_host_cap=3)
        assert mask[:3].all() and not mask[3:5].any()
        assert mask[5:].all()
        stats = pool.stats()
        assert stats["total_fetched"] == 5
    finally:
        pool.shutdown()


@given(
    st.lists(st.sampled_from(["a.com", "b.com", "c.com", "d.com"]), max_size=60),
    st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
)
@settings(max_examples=80, deadline=None)
def test_politeness_admit_is_rank_below_cap(hosts, cap):
    """A row is admitted iff its rank among its host's rows, in input
    order, is below the cap; every admitted row is one fetch."""
    from crawl4ai_ray.state.politeness import PolitenessPool

    pool = PolitenessPool()
    mask = pool.admit(hosts, per_host_cap=cap)
    ranks = [hosts[:i].count(h) for i, h in enumerate(hosts)]
    assert list(mask) == [cap is None or r < cap for r in ranks]
    assert pool.stats()["total_fetched"] == int(mask.sum())


def test_robots(ray_session):
    from crawl4ai_ray.state.politeness import PolitenessPool

    rules = {"a.com": "User-agent: *\nDisallow: /private/\n"}
    pool = PolitenessPool(robots_rules=rules)
    try:
        hosts = ["a.com", "a.com", "b.com"]
        urls = [
            "https://a.com/private/x",
            "https://a.com/public/x",
            "https://b.com/private/x",
        ]
        allowed = pool.robots_allowed(hosts, urls)
        assert list(allowed) == [False, True, True]
    finally:
        pool.shutdown()


# ---------------------------------------------------------------------------
# CacheMode / cached_extract (state/cache.py)
# ---------------------------------------------------------------------------

def _mini_pages(urls):
    import pyarrow as pa
    import ray

    return ray.data.from_arrow(
        pa.table({"url": urls, "html": [f"<p>{u}</p>" for u in urls]})
    )


def _tagged_extractor(tag):
    """Extractor that stamps each FRESHLY computed row with this run's tag
    (closure counters don't survive the worker boundary; counting rows
    where run_tag == tag measures what the extractor actually touched)."""
    import pyarrow as pa

    def fn(pages):
        def ex(batch: "pa.Table") -> "pa.Table":
            return pa.table(
                {
                    "url": batch.column("url"),
                    "text": [
                        h.replace("<p>", "").replace("</p>", "")
                        for h in batch.column("html").to_pylist()
                    ],
                    "run_tag": pa.array([tag] * batch.num_rows, pa.string()),
                }
            )

        return pages.map_batches(ex, batch_format="pyarrow")

    return fn


def test_cached_extract_modes(ray_session, tmp_path):
    from crawl4ai_ray.state.cache import CacheMode, cached_extract

    cache = str(tmp_path / "cache")
    urls = [f"https://h.example.com/p/{i}" for i in range(4)]

    def run(pages_urls, mode, tag):
        out = cached_extract(
            _mini_pages(pages_urls), cache, _tagged_extractor(tag), mode
        ).to_pandas()
        n_fresh = int((out["run_tag"] == tag).sum())
        return out, n_fresh

    # cold ENABLED run: everything extracted, cache written
    out, fresh = run(urls, CacheMode.ENABLED, "r1")
    assert sorted(out["url"]) == sorted(urls) and fresh == 4

    # warm ENABLED run over a superset: only the 2 new urls hit the extractor
    more = urls + [f"https://h.example.com/p/{i}" for i in (10, 11)]
    out2, fresh2 = run(more, CacheMode.ENABLED, "r2")
    assert sorted(out2["url"]) == sorted(more) and fresh2 == 2

    # cache rows OUTSIDE the request are not returned
    out3, fresh3 = run(urls[:1], CacheMode.ENABLED, "r3")
    assert out3["url"].tolist() == urls[:1] and fresh3 == 0

    # BYPASS: recompute everything, cache untouched
    out4, fresh4 = run(urls[:2], CacheMode.BYPASS, "r4")
    assert fresh4 == 2

    # READ_ONLY: hits served, misses computed but NOT written
    fresh_url = ["https://h.example.com/p/99"]
    out5, fresh5 = run(urls[:1] + fresh_url, CacheMode.READ_ONLY, "r5")
    assert fresh5 == 1
    out6, fresh6 = run(fresh_url, CacheMode.ENABLED, "r6")
    assert fresh6 == 1  # p/99 was not cached by the READ_ONLY run


def test_cached_extract_raw_urls_never_cached(ray_session, tmp_path):
    from crawl4ai_ray.state.cache import CacheMode, cached_extract

    cache = str(tmp_path / "cache")
    mixed = ["https://h.example.com/a", "raw:inline-html"]
    out = cached_extract(
        _mini_pages(mixed), cache, _tagged_extractor("r1"), CacheMode.ENABLED
    ).to_pandas()
    # raw: row IS in the result but NOT in the cache
    assert sorted(out["url"]) == sorted(mixed)
    out2 = cached_extract(
        _mini_pages(mixed), cache, _tagged_extractor("r2"), CacheMode.ENABLED
    ).to_pandas()
    assert int((out2["run_tag"] == "r2").sum()) == 1  # only raw: recomputes


def test_robots_rules_reference_semantics():
    """The reference's robots test matrix
    (tests/general/test_robot_parser.py, network parts elided): normal
    Allow/Disallow precedence, crawl-delay'd rules, malformed text
    handled without crashing (permissive), empty rules allow all, and a
    giant (10k-line) rules file still evaluates. Our RobotsFilterBatch
    wraps the same stdlib engine the reference's RobotsParser does
    (utils.py:313-365)."""
    import pyarrow as pa

    from crawl4ai_ray.state.politeness import RobotsFilterBatch

    normal = "User-agent: *\nDisallow: /private/\nAllow: /public/\n"
    host = "site0.example.com"

    def allowed(rules: str, path: str) -> bool:
        f = RobotsFilterBatch({host: rules})
        out = f(pa.table({"url": pa.array([f"https://{host}{path}"])}))
        return bool(out.column("allowed")[0].as_py())

    assert allowed(normal, "/public/page.html")
    assert not allowed(normal, "/private/secret.html")
    assert allowed(normal, "/other/page.html")  # undeclared → allowed

    # malformed: garbage lines must not crash; behavior is permissive
    malformed = "This is not\x00 a valid robots.txt\n<<<>>>\nDisallow run amok"
    assert allowed(malformed, "/anything")

    # empty rules → allow everything
    assert allowed("", "/private/secret.html")

    # giant rules file (the reference's 10k-line case): full deny wins
    giant = "User-agent: *\nDisallow: /\n" * 10_000
    assert not allowed(giant, "/any/path")

    # unknown host (no rules registered) → allowed
    f = RobotsFilterBatch({host: normal})
    out = f(pa.table({"url": pa.array(["https://other.example.com/private/x"])}))
    assert bool(out.column("allowed")[0].as_py())
