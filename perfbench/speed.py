"""Host-speed probe for timing on a machine whose speed drifts.

On the shared host this benchmark was built on (2-vCPU x86-64 VM), the
same pure-Python job ran up to 2x slower in some stretches of seconds to
minutes than in others, and a short probe run next to it slowed by the
same factor: scaled by the probes taken right before and after it, the
job's 5-second means spread 3% (IQR over median) where the raw ones spread
29%.  So the benchmark probes right before and right after every interval
it times, and reports

    scaled = (raw duration - probe time inside it) * PROBE_REF_S / probe

where ``probe`` is the mean of the probes from the one just before the
interval to the one just after it.  The probe is a fixed piece of
interpreter and small-array work that shares no code with fomcert, so a
change to fomcert cannot change it.  It tracks interpreter-bound work only:
BLAS-bound work is reported as measured.
"""

import bisect
import gc
import statistics
import time

import numpy as np

# Sets the unit only: scaled times read as seconds on a host where the probe
# takes 1 ms (about its median on the host above).
PROBE_REF_S = 1.0e-3


class HostSpeed:
    """Records probe timings and rescales durations by them."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._a = np.linspace(0.0, 1.0, 20)
        self._b = np.linspace(1.0, 2.0, 20)

    def probe(self):
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            acc, x = 0.0, 12345
            for _ in range(400):
                v = self._a * 0.5 + self._b
                acc += float(v @ v)
                x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
            t1 = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.starts.append(t0)
        self.durations.append(t1 - t0)

    def normalize(self, t0, t1):
        """The duration of [t0, t1], less the probes inside it, at reference
        speed.  Call it after the probe that follows t1."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        spent = sum(self.durations[i:j])
        probe = statistics.fmean(self.durations[max(i - 1, 0):])
        return (t1 - t0 - spent) * PROBE_REF_S / probe
