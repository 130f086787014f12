"""Machine-speed calibration for job and set-up times.

On a shared host a vCPU runs the same code up to 1.7 times slower for
stretches of a few seconds, when other guests load the physical core under
it, and the stretches of different vCPUs do not line up.  A fixed kernel
(sparse LU and solve, a small GEMM and a Python loop: the kinds of work a
lapbasis job does) is timed on each usable CPU before every job; the job
runs pinned to the CPU that was fastest, and the kernel is timed again on
that CPU after the job.  The job's wall time is then scaled by
``REFERENCE_S`` over the mean of the two kernel times: the time the job
would take on a CPU that runs the kernel in ``REFERENCE_S``.

The kernel is the benchmark's own code and does not call lapbasis, so a
change to the program moves the scaled time as much as the wall time.
"""

import os
import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Median kernel time on an unloaded vCPU of the machine the bounds were set
# on (Intel Xeon KVM guest, Python 3.11, OpenBLAS on one thread).  It fixes
# only the scale of the reported times.
REFERENCE_S = 0.012

USABLE_CPUS = sorted(os.sched_getaffinity(0))


class Calibration:
    """The kernel's inputs: a 3600-vertex grid Laplacian and a 150 x 150
    matrix, built once per run."""

    def __init__(self):
        n = 60
        T = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(n, n))
        S = sp.diags([-1.0, -1.0], [-1, 1], shape=(n, n))
        self.A = (sp.kron(sp.eye(n), T) + sp.kron(S, sp.eye(n))).tocsc()
        self.b = np.ones(n * n)
        self.M = np.random.default_rng(0).random((150, 150))

    def kernel_s(self):
        """Median of three wall times of the kernel on the current CPU."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            spla.splu(self.A).solve(self.b)
            self.M @ self.M
            s = 0
            for i in range(50000):
                s += i
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def pin_fastest(self):
        """Pin the process to the usable CPU where the kernel now runs
        fastest; returns that kernel time."""
        times = {}
        for cpu in USABLE_CPUS:
            os.sched_setaffinity(0, {cpu})
            times[cpu] = self.kernel_s()
        best = min(times, key=times.get)
        os.sched_setaffinity(0, {best})
        return times[best]
