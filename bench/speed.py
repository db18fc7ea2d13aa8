"""Machine-speed reference used to normalize the benchmark's wall times.

The benchmark runs on shared two-vCPU hosts whose speed drifts by up to 2x
over tens of seconds, so that raw wall times of identical runs can differ
by more than any useful regression bound.  Between every two timed samples
the run times a fixed reference kernel that shares no code with fusionring:
products of sparse exponent -> Fraction maps, the same kind of Python
dict-and-Fraction work as the engine's accumulation loops, over a working
set of a few megabytes.  Timed samples of every kind are spread over the
whole run, so a run's normalized time is its mean wall time times
``REFERENCE_S`` over the run's mean kernel time: the wall time on a machine
where the kernel takes ``REFERENCE_S``.  The kernel is identical on every
commit, so a change to the package moves the normalized times exactly as it
moves wall times.
"""

from __future__ import annotations

import gc
import random
from fractions import Fraction
from time import perf_counter

# Typical kernel time on the machine the bounds were set on (2 vCPUs,
# Python 3.11.7); it only fixes the scale of the normalized times.
REFERENCE_S = 0.175
_MAPS, _TERMS, _ORDER, _PRODUCTS = 4000, 12, 1000, 250


class SpeedProbe:
    def __init__(self):
        rng = random.Random(20261017)
        self.maps = [{rng.randrange(_ORDER): Fraction(rng.randrange(1, 50), rng.randrange(1, 50))
                      for _ in range(_TERMS)} for _ in range(_MAPS)]

    def _kernel(self) -> int:
        maps = self.maps
        size = 0
        for i in range(_PRODUCTS):
            a = maps[(i * 7919) % _MAPS]
            b = maps[(i * 104729 + 13) % _MAPS]
            acc: dict[int, Fraction] = {}
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    e = (e1 + e2) % _ORDER
                    acc[e] = acc.get(e, 0) + c1 * c2
            size += len(acc)
        return size

    def measure(self) -> float:
        """Wall time of one kernel run, with the collector off so that objects
        the package keeps alive cannot slow it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            self._kernel()
            return perf_counter() - start
        finally:
            if enabled:
                gc.enable()


class Timeline:
    """Timed samples by kind, with a reference-kernel run between every two."""

    def __init__(self):
        self.probe = SpeedProbe()
        self.samples: dict[str, list[float]] = {}
        self.probes = [self.probe.measure()]

    def record(self, kind: str, seconds: float) -> None:
        self.samples.setdefault(kind, []).append(seconds)
        self.probes.append(self.probe.measure())

    def speed_factor(self) -> float:
        """REFERENCE_S over the run's mean kernel time."""
        return REFERENCE_S * len(self.probes) / sum(self.probes)
