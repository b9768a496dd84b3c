"""Host-speed probe: a fixed piece of benchmark-owned work, timed.

The benchmark runs on a few cores of a shared host whose speed drifts by
a quarter and more over minutes (other tenants' load, hypervisor steal).
Every timed sample is bracketed by two probes, and :meth:`HostClock.scale`
turns them into the factor that converts the sample's host seconds into
reference-host seconds: ``REFERENCE_S`` over the mean of the two.  The
host's speed wobbles within seconds as well as over minutes, and
samples scaled by their own neighbouring probes vary less within one
execution than the raw samples do.  The probe mixes the kinds of work
the pipeline does (numpy sorts, uniques and searches over int64 keys,
and a Python loop over a set and a dict), so a host state that slows
the pipeline slows the probe alike.  The probe never touches the program, so a change to
the program moves the scaled figures exactly as it moves the raw ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median probe wall time on the reference host (see README.md).  It
#: only sets the unit of the scaled figures; any constant would do.
REFERENCE_S = 0.25

_KEYS = np.random.default_rng(20161).integers(
    0, 1 << 62, 800_000, dtype=np.int64
)


def probe() -> float:
    """Wall seconds of one run of the fixed probe work."""
    t0 = time.perf_counter()
    keys = np.sort(_KEYS)
    buckets, counts = np.unique(keys >> 44, return_counts=True)
    ranks = np.searchsorted(buckets, _KEYS[::3] >> 44)
    seen: set[int] = set()
    tally: dict[int, int] = {}
    for rank in ranks.tolist():
        if rank in seen:
            tally[rank] = tally.get(rank, 0) + int(counts[rank])
        else:
            seen.add(rank)
    return time.perf_counter() - t0


class HostClock:
    """Probes taken between consecutive timed samples."""

    def __init__(self) -> None:
        probe()  # warm-up: page faults and cold caches of the first call
        self.probes = [probe()]

    def scale(self) -> float:
        """Reference-host seconds per host second for the sample that
        ended just now, from the probes just before and just after it."""
        self.probes.append(probe())
        return REFERENCE_S / statistics.fmean(self.probes[-2:])
