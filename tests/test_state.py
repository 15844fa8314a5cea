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


def test_seen_checkpoint_rejects_wrong_hash_spec(ray_session):
    from crawl4ai_ray.state.seen import SeenSet

    s = SeenSet(num_shards=1, capacity_per_shard=100)
    try:
        s.add(["u1"])
        payload = s.dump_all()[0]
        # corrupt the spec header
        bad = (4).to_bytes(2, "little") + b"oops" + payload[2 + len("fnv1a64-seeded-v1"):]
        import pytest as _pytest
        import ray as _ray

        with _pytest.raises(_ray.exceptions.RayTaskError):
            s.load_all([bad])
    finally:
        s.shutdown()


def test_hash64_stable_and_vectorized():
    a = hash64(["abc", "def"])
    b = hash64(["abc", "def"])
    assert (a == b).all()
    assert a[0] != a[1]


def test_seen_set_check_add(ray_session):
    from crawl4ai_ray.state.seen import SeenSet

    seen = SeenSet(num_shards=2, capacity_per_shard=10_000)
    try:
        urls = [f"https://a.com/{i}" for i in range(100)]
        assert not seen.check(urls).any()
        seen.add(urls[:50])
        mask = seen.check(urls)
        assert mask[:50].all() and not mask[50:].any()
        # check_and_add marks the rest
        m2 = seen.check_and_add(urls)
        assert m2[:50].all() and not m2[50:].any()
        assert seen.check(urls).all()
        assert seen.stats()["exact_size"] == 100
    finally:
        seen.shutdown()


def test_seen_set_dump_load(ray_session):
    from crawl4ai_ray.state.seen import SeenSet

    seen = SeenSet(num_shards=2, capacity_per_shard=1000)
    try:
        seen.add(["u1", "u2", "u3"])
        payloads = seen.dump_all()
    finally:
        seen.shutdown()
    seen2 = SeenSet(num_shards=2, capacity_per_shard=1000)
    try:
        seen2.load_all(payloads)
        assert seen2.check(["u1", "u2", "u3"]).all()
        assert not seen2.check(["u4"]).any()
    finally:
        seen2.shutdown()


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


# -- cuckoo filter (state/cuckoo.py) --------------------------------------

def test_cuckoo_no_false_negatives():
    from crawl4ai_ray.state.cuckoo import CuckooFilter

    cf = CuckooFilter(capacity=10_000)
    keys = hash64([f"https://x.com/{i}" for i in range(10_000)])
    cf.add_hashes(keys)
    assert cf.contains_hashes(keys).all()
    assert cf.count == 10_000


def test_cuckoo_fpp_much_lower_than_bloom():
    from crawl4ai_ray.state.cuckoo import CuckooFilter

    cf = CuckooFilter(capacity=20_000)
    cf.add_hashes(hash64([f"https://x.com/{i}" for i in range(20_000)]))
    other = hash64([f"https://y.com/{i}" for i in range(50_000)])
    fpp = cf.contains_hashes(other).mean()
    assert fpp < 0.002  # design point ~1.2e-4; 80x below bloom's 1%


def test_cuckoo_delete_then_absent():
    from crawl4ai_ray.state.cuckoo import CuckooFilter

    cf = CuckooFilter(capacity=1_000)
    keys = hash64([f"k{i}" for i in range(500)])
    cf.add_hashes(keys)
    found = cf.delete_hashes(keys[:100])
    assert found.all()
    assert cf.count == 400
    # deleted keys gone (no false negatives for the survivors)
    assert cf.contains_hashes(keys[100:]).all()
    # the deleted 100 should mostly read absent (fp collisions with the
    # 400 survivors are possible but rare at 16-bit fingerprints)
    assert cf.contains_hashes(keys[:100]).mean() < 0.05
    # deleting an absent key reports not-found
    assert not cf.delete_hashes(hash64(["never-added"])).any()


def test_cuckoo_high_load_and_kicks():
    """Push to the 0.95 design load: vectorized placement alone can't do
    this — the kick loop must engage — and membership must stay exact."""
    from crawl4ai_ray.state.cuckoo import CuckooFilter

    cf = CuckooFilter(capacity=5_000)
    keys = hash64([f"hot/{i}" for i in range(5_000)])
    for i in range(0, 5_000, 250):  # staggered batches age the table
        cf.add_hashes(keys[i : i + 250])
    assert cf.contains_hashes(keys).all()
    assert cf.load_factor() > 0.55  # 5000 keys in the pow2-rounded table


def test_cuckoo_roundtrip():
    from crawl4ai_ray.state.cuckoo import CuckooFilter

    cf = CuckooFilter(capacity=1_000)
    keys = hash64(["a", "b", "c"])
    cf.add_hashes(keys)
    cf2 = CuckooFilter.from_bytes(cf.to_bytes())
    assert cf2.contains_hashes(keys).all()
    assert cf2.count == 3 and cf2.num_buckets == cf.num_buckets
    with pytest.raises(ValueError):
        CuckooFilter.from_bytes(b"XXXX" + cf.to_bytes()[4:])


def test_seen_set_cuckoo_forget_and_checkpoint(ray_session):
    """The cuckoo-backed seen set: same wave semantics as bloom, plus
    forget() actually un-sees, and checkpoints refuse filter mismatches."""
    from crawl4ai_ray.state.seen import SeenSet

    seen = SeenSet(num_shards=2, capacity_per_shard=10_000,
                   approx_filter="cuckoo")
    try:
        urls = [f"https://a.com/{i}" for i in range(200)]
        assert not seen.check(urls).any()
        seen.add(urls)
        assert seen.check(urls).all()
        assert seen.forget(urls[:50]) == 50
        mask = seen.check(urls)
        assert not mask[:50].any() and mask[50:].all()
        # forgotten urls can be re-seen (recrawl)
        m2 = seen.check_and_add(urls[:50])
        assert not m2.any() and seen.check(urls).all()
        payloads = seen.dump_all()
    finally:
        seen.shutdown()
    # resume into a matching filter works…
    s2 = SeenSet(num_shards=2, capacity_per_shard=10_000,
                 approx_filter="cuckoo")
    try:
        s2.load_all(payloads)
        assert s2.check(urls).all()
    finally:
        s2.shutdown()
    # …a mismatched filter kind is refused loudly
    import ray as _ray

    s3 = SeenSet(num_shards=2, capacity_per_shard=10_000)
    try:
        with pytest.raises(_ray.exceptions.RayTaskError):
            s3.load_all(payloads)
    finally:
        s3.shutdown()


def test_seen_set_bloom_forget_still_correct(ray_session):
    """forget() under the bloom filter: stale bloom bits are arbitrated
    away by the exact store, so check() flips to unseen regardless."""
    from crawl4ai_ray.state.seen import SeenSet

    seen = SeenSet(num_shards=1, capacity_per_shard=1000)
    try:
        seen.add(["u1", "u2"])
        assert seen.forget(["u1", "u404"]) == 1
        mask = seen.check(["u1", "u2"])
        assert not mask[0] and mask[1]
    finally:
        seen.shutdown()


def test_cuckoo_seen_add_idempotent_and_grows(ray_session):
    """Review findings: (a) re-adding seen urls must NOT accumulate
    duplicate cuckoo fingerprints (add is exact-store-gated); (b) pushing
    past the filter's capacity rebuilds a doubled table from the exact
    store instead of killing the shard."""
    from crawl4ai_ray.state.seen import SeenSet

    seen = SeenSet(num_shards=1, capacity_per_shard=256,
                   approx_filter="cuckoo")
    try:
        urls = [f"https://r.com/{i}" for i in range(200)]
        for _ in range(12):  # would overflow 256-cap table if not gated
            seen.add(urls)
        assert seen.stats()["exact_size"] == 200
        assert seen.check(urls).all()
        # now genuinely exceed capacity: the shard must grow, not crash
        more = [f"https://r.com/more/{i}" for i in range(2000)]
        seen.add(more)
        assert seen.stats()["exact_size"] == 2200
        assert seen.check(urls).all() and seen.check(more).all()
        assert not seen.check(["https://r.com/never"]).any()
    finally:
        seen.shutdown()


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
