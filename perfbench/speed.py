"""A fixed piece of numpy work that measures how fast the machine runs now.

On a shared machine the speed of a core drifts by 20% and more over
minutes, and every wall time drifts with it.  The probe does the same
kinds of work as whlab's hot paths (masked gathers, elementwise powers and
sums over 2^18 nodes, an FFT of 2^17 nodes, and many small-array
operations) but calls no whlab code, so a change to the library cannot
change it.  Times are reported as seconds at reference speed: each measured
time is multiplied by ``REFERENCE_S / median of the probe times taken right
beside it`` before the median over a run is taken.
"""

from time import perf_counter

import numpy as np

#: Nodes of the probe's large arrays, the grid size of ``kappa-1d``.
NODES = 2 ** 18
#: Median probe time on the 2-core Intel Xeon machine where the benchmark
#: was defined; it only fixes the scale of the reported seconds.
REFERENCE_S = 0.027


class SpeedProbe:
    """Call it to get the wall time of one fixed batch of numpy work."""

    def __init__(self):
        rng = np.random.default_rng(20240917)
        self.z = rng.random(NODES)
        self.p = 2.0 + 0.5 * rng.random(NODES)
        self.mask = rng.random(NODES) < 0.3
        self.u = rng.standard_normal(NODES // 2) + 1j * rng.standard_normal(NODES // 2)
        self.small_z = rng.random(1024)
        self.small_p = 2.0 + rng.random(1024)

    def __call__(self) -> float:
        t0 = perf_counter()
        for lam in (1.1, 1.3, 1.7, 2.3):
            float(((self.z[self.mask] / lam) ** self.p[self.mask]).sum())
        np.fft.fft(self.u)
        for lam in np.linspace(0.5, 2.0, 400):
            float(((self.small_z / lam) ** self.small_p).sum())
        return perf_counter() - t0
