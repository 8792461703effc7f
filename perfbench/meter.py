"""Machine-speed meter for the timed passes.

The benchmark runs on shared virtual machines whose speed changes from
second to second and from minute to minute with the load of other
tenants: a fixed loop takes anywhere from 0.65x to 1.3x its median time.
A wall-clock pass time carries that change with it.  On the machine the
benchmark was built on, the middle half of 10 runs of the same code
spread over 14% (ledger-core), 13 to 17% (orbit-wide) and 16 to 27%
(module-split) of the median.

The meter samples the machine's speed while a pass runs.  A timer signal
interrupts the pass every INTERVAL seconds, and the handler times a fixed
probe that does not touch rank3.  A pass is then reported as

    (wall seconds - seconds spent in the handler) * REF_PROBE_S / mean probe

that is, its wall time scaled to a machine on which the probe takes
REF_PROBE_S.  When the machine slows down, the probe and the pass slow
together and the ratio stays put; a change to rank3 moves the pass and
not the probe.  The raw wall times are printed beside the scaled ones.

The probe has two halves of about equal time, because rank3's work comes
in two kinds that the machine's load slows by different amounts: pure
Python (the MeatAxe and exact linear algebra over Python ints), and numpy
array work (the GF(3) orbit scans).  Scaled by the Python half alone,
module-split's spread fell to 4 to 5% but orbit-wide's stayed at 11 to
16%; scaled by a numpy probe alone, orbit-wide's fell to 1 to 5% and
module-split's only to 5 to 10%.  Scaled by both, the middle half of 10
runs spread over 2% (ledger-core), 4% (orbit-wide) and 4 to 10%
(module-split, two sets), where their wall times spread over 2%, 8% and
14 to 29%.

Python runs signal handlers between bytecodes, so a probe that falls due
inside a long numpy call runs when the call returns.  Probes are also
taken at the start and end of every pass, so a pass always has two.
"""

import signal
import time

import numpy as np

# Seconds between probes.  A probe takes about 4.5 ms, so the meter costs
# about 2% of a pass, and that time is taken out of the pass's wall time.
INTERVAL = 0.25

# The probe's time on the reference machine (2-vCPU Intel Xeon VM shared
# with other tenants, Python 3.11.7, numpy 2.4.6 on one BLAS thread): the
# median of 400 probes in a row, 4.4 ms, rounded.  Scaled times are
# seconds on a machine where the probe takes this long.  It is a fixed
# constant so that runs, and commits, are scaled alike; changing it
# rescales every scaled time.
REF_PROBE_S = 0.0045

# The Python half: iterations of a loop of integer arithmetic mod 3 and
# list traffic.  Its values stay below 256, which Python keeps as shared
# objects, so it allocates nothing that outlives a step.
PROBE_N = 12000
_TABLE = [0] * 291

# The numpy half: one step of an orbit scan over GF(3)^21 on a fixed
# frontier of 4096 points, as rank3.groups does it: float32 product, mod 3,
# packed int64 codes.  The entries come from a multiplicative hash of their
# index; numpy.random is not imported, since loading it would add 8 MB to
# the peak RSS the benchmark reports.  Every step writes into buffers made
# once, so a probe allocates no memory.  Probes that allocated arrays, or
# that sorted the codes, made the ledger's peak RSS vary between runs by
# up to 18%; this probe moves it from 241.7 MB to 244.1 MB, the same in
# every run.
def _entries(rows, cols):
    h = (np.arange(rows * cols, dtype=np.int64) * 2654435761) & 0xFFFFFFFF
    return ((h >> 16) % 3).reshape(rows, cols).astype(np.float32)


_FRONTIER = _entries(4096, 21)
_GEN = _entries(21, 21)
_POWERS = 3 ** np.arange(20, -1, -1, dtype=np.int64)
_THREE = np.float32(3)
_IMAGE = np.empty((4096, 21), dtype=np.float32)
_VECS = np.empty((4096, 21), dtype=np.int64)
_CODES = np.empty(4096, dtype=np.int64)


def probe():
    table = _TABLE
    acc = 0
    for i in range(PROBE_N):
        key = (i % 97) * 3 + (i * 7) % 3
        acc = (acc + table[key] * 2 + i) % 3
        table[key] = (acc + i) % 251
    np.matmul(_FRONTIER, _GEN, out=_IMAGE)
    np.remainder(_IMAGE, _THREE, out=_IMAGE)
    np.copyto(_VECS, _IMAGE, casting="unsafe")
    np.matmul(_VECS, _POWERS, out=_CODES)
    return acc + int(_CODES[-1])


def probe_seconds():
    t0 = time.perf_counter()
    probe()
    return time.perf_counter() - t0


def scaled(seconds, mean_probe_s):
    """Seconds measured while a probe took mean_probe_s on average, scaled
    to the reference machine."""
    return seconds * REF_PROBE_S / mean_probe_s


class Meter:
    """Probes the machine's speed while one call runs; see the module
    docstring.  It keeps running sums, not lists, so it allocates nothing
    that lives on through the call."""

    def __init__(self):
        self.probes = 0
        self.probe_s = 0.0
        self.paused_s = 0.0     # seconds the timer's probes took from the call

    def _on_timer(self, _signum, _frame):
        t0 = time.perf_counter()
        self._probe()
        self.paused_s += time.perf_counter() - t0

    def _probe(self):
        self.probe_s += probe_seconds()
        self.probes += 1

    def timed(self, fn, *args):
        """Run fn(*args) with probes; returns (its result, wall seconds
        without the probes, those seconds scaled to the reference)."""
        self.probes, self.probe_s, self.paused_s = 0, 0.0, 0.0
        self._probe()
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()
        wall -= self.paused_s
        return result, wall, scaled(wall, self.probe_s / self.probes)
