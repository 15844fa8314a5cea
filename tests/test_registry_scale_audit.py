"""Registry-wide scale-plan audit (r3 VERDICT task #2).

Every driver-side collect (``take_all()`` / ``to_pandas()``) in the
query registry must carry an explicit bound marker so a reviewer can
tell a bounded driver fold from an unbounded materialization at a
glance, and so new unbounded collects can't land silently:

- ``bounded:`` / ``≤ … rows`` / ``exactly … rows`` — the collect is
  bounded by construction (group-key domain, sort+limit k, per-batch
  partials, broadcast id set …), independent of corpus size.
- ``scale-note:`` — the collect grows with SOME corpus dimension
  (vocabulary types, graph nodes, distinct users); the marker names the
  dimension and the web-scale replacement plan. These are the
  explicitly-labeled driver-local plans; everything load-bearing
  (stages/, the flagship pipelines) has a distributed form instead.

No test-only escape hatch: the marker must be in the source, within the
collect's statement or the 5 lines above it.
"""

from __future__ import annotations

import glob
import os
import re

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MARKER = re.compile(r"bounded|≤|exactly|driver-local|scale-note")


def _sites():
    for f in sorted(
        glob.glob(os.path.join(REPO, "crawl4ai_ray/pipelines/queries*.py"))
    ):
        lines = open(f).readlines()
        for i, line in enumerate(lines):
            if ".take_all()" in line or ".to_pandas()" in line:
                # window: 5 lines above through 1 below (closing-paren
                # trailing comments land on the next line)
                ctx = "".join(lines[max(0, i - 5) : i + 2])
                yield f"{os.path.basename(f)}:{i + 1}", ctx


def test_every_registry_collect_is_bound_annotated():
    missing = [site for site, ctx in _sites() if not MARKER.search(ctx)]
    assert not missing, (
        "driver-side collects without a bound marker (annotate with "
        "'# bounded: <why>' or '# scale-note: <dimension + scale path>'): "
        f"{missing}"
    )


def test_scale_note_census_is_intentional():
    """scale-note sites are the consciously-accepted driver-local tail;
    keep the census explicit so additions show up in review. Sites may
    be REMOVED freely (that's a distribution win)."""
    noted = sorted(
        {site for site, ctx in _sites() if "scale-note" in ctx}
    )
    ACCEPTED = {
        # each surviving site is a named, documented driver-state class:
        # fixed-rate sampled pools (w9, w28), iterative algorithm-state
        # broadcasts (w31 onion peel ids), the
        # SHARDS full-rate oracle variant (w47), and w40's
        # quantized-rank moment fold (rank ties make a value-histogram
        # no smaller). r5: the three vocabulary-sized model folds
        # (w35 negative-sampling CDF, w37 deleted-interpolation train
        # tables, w60 NB class-conditional counts) were distributed
        # through _select_vocab / bucketed_lookup_join and left the
        # census.
        "queries_wave28.py",
        "queries_wave31.py",
        "queries_wave40.py",
        "queries_wave47.py",
        "queries_wave9.py",
    }
    offenders = [s for s in noted if s.split(":")[0] not in ACCEPTED]
    assert not offenders, (
        "new scale-note sites outside the accepted census — either "
        f"distribute them or extend the census consciously: {offenders}"
    )
