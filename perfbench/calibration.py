"""Host-speed calibration for the end-to-end times.

The benchmark runs on shared hosts whose speed drifts by 20-30% over
minutes.  A fixed numpy FFT kernel, timed in each experiment process just
before and after the experiment, measures the host's current speed.  Each
experiment's wall time is rescaled to the speed at which the kernel takes
CAL_REF_S, ``wall * CAL_REF_S / cal``; the set-up samples are rescaled by
the run's median ``cal``.  The kernel does not call torusflow, so no
change to the program moves it.
"""

import time

import numpy as np

CAL_REF_S = 0.1  # about the kernel's time on a quiet 2-core Xeon host (2.1 GHz)


def calibrate() -> float:
    """Seconds a fixed kernel takes: 24 forward/inverse pairs of 3x32^3 transforms.

    Of the kernels tried (3x64^3, 3x32^3 and 3x4^3 transforms, and sums of
    them), this one followed the host's slowdowns best across run-n64,
    verify-n16 and unify-n32 together.
    """
    field = np.random.default_rng(0).standard_normal((3, 32, 32, 32))
    start = time.perf_counter()
    for _ in range(24):
        field = np.fft.ifftn(0.5 * np.fft.fftn(field, axes=(1, 2, 3)), axes=(1, 2, 3)).real * 2.0
    return time.perf_counter() - start
