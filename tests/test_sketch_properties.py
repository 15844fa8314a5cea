"""Property tests for the deterministic KLL-style quantile sketch
(stages/sketch.py). No Ray — these pin the pure kernel under adversarial
inputs."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from crawl4ai_ray.stages.sketch import DQSketch

_floats = st.lists(
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
    min_size=1,
    max_size=3000,
)


@given(_floats)
@settings(max_examples=60, deadline=None)
def test_dqsketch_rank_error_bounded(vals):
    """For any input, every quantile answer is an element of the input and
    its true (lower) rank is within 0.1 of the requested q. (k=64 on
    n ≤ 3000 gives far tighter error in practice; 0.1 is the hard bar.)"""
    arr = np.asarray(vals, dtype=np.float64)
    sk = DQSketch(k=64)
    sk.add_values(arr)
    n = len(arr)
    srt = np.sort(arr)
    for q in (0.01, 0.25, 0.5, 0.75, 0.99):
        est = sk.quantiles([q])[0]
        assert est in arr
        # true rank band of the estimate (handles duplicates)
        lo = np.searchsorted(srt, est, side="left") / n
        hi = np.searchsorted(srt, est, side="right") / n
        dist = 0.0 if lo <= q <= hi else min(abs(lo - q), abs(hi - q))
        assert dist <= 0.1, (q, est, lo, hi)


@given(_floats, st.integers(min_value=2, max_value=5))
@settings(max_examples=40, deadline=None)
def test_dqsketch_chunked_fold_matches_rank_bound(vals, parts):
    """Splitting the stream into chunks and left-folding partial sketches
    (the distributed plan) stays within the same rank tolerance."""
    arr = np.asarray(vals, dtype=np.float64)
    acc = None
    for chunk in np.array_split(arr, parts):
        sk = DQSketch(k=64)
        sk.add_values(chunk)
        acc = sk if acc is None else acc.merge(sk)
    n = len(arr)
    srt = np.sort(arr)
    for q in (0.25, 0.5, 0.9):
        est = acc.quantiles([q])[0]
        lo = np.searchsorted(srt, est, side="left") / n
        hi = np.searchsorted(srt, est, side="right") / n
        dist = 0.0 if lo <= q <= hi else min(abs(lo - q), abs(hi - q))
        assert dist <= 0.12, (q, est, lo, hi)
