"""Host speed probe: a fixed single-thread Python kernel timed around every
job and every set-up.

On a shared virtual machine the speed of a core drifts with the load of
other tenants, over seconds to minutes. On a shared 4-vCPU Intel Xeon VM at
2.1 GHz the same 200-page extraction, repeated for 90 s and taken as medians of 10
consecutive runs, ranged from 0.22 to 0.33 s, while its time divided by
``slowdown()`` measured next to it stayed within 0.23-0.26. ``run.py``
divides every measured time by the slowdown around it, and keeps the raw
figures in the run record.
"""

from __future__ import annotations

import hashlib
import json
import re
import time

# probe time on a quiet 4-vCPU Intel Xeon VM at 2.1 GHz; it only sets the
# scale of the reported figures (slowdown 1 = that machine when quiet)
REFERENCE_S = 0.010
_WORD = re.compile(r"\w+")
_TEXT = " ".join(f"w{(i * 7919) % 1009} page{i % 97} link{i % 13}" for i in range(6000))


def probe_s() -> float:
    """Seconds for one run of the reference kernel: regex scan, dict
    counting, sorted JSON, hashing and a sort, as the extraction path does."""
    t0 = time.perf_counter()
    counts: dict[str, int] = {}
    for w in _WORD.findall(_TEXT):
        counts[w] = counts.get(w, 0) + 1
    json.dumps(counts, sort_keys=True)
    hashlib.blake2b(_TEXT.encode()).digest()
    sorted(_TEXT.split())
    return time.perf_counter() - t0


def slowdown() -> float:
    """Current host slowdown against REFERENCE_S (median of 5 probes)."""
    return sorted(probe_s() for _ in range(5))[2] / REFERENCE_S
