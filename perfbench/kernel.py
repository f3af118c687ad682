"""Fixed reference kernel used to normalise operation times to the host.

The kernel is not part of jacksonq. It mixes the three kinds of work the
program does, in roughly the program's proportions: a pure-Python complex
arithmetic loop (like the coefficient ladders and lattice products), NumPy
ufuncs on 4096 complex points (like circle quadrature and Horner
evaluation) and small dense eigenvalue solves (like companion-matrix root
finding). When the host runs slower, for instance because another tenant
shares the cores, the kernel slows with it, and an operation time
multiplied by NOMINAL_S / (kernel time around it) stays put.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on the reference host (2-vCPU x86-64 VM, Python
# 3.11, NumPy 2.4 on scipy-openblas, one BLAS thread). Normalised times
# read as "seconds on the reference host".
NOMINAL_S = 0.0045

_NODES = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False))
_RNG_COEFFS = np.random.default_rng(20240501).standard_normal((12, 16))


def reference_kernel() -> float:
    """One pass of the fixed work mix; returns a checksum so that no part
    of the work can be skipped."""
    acc = 0.0
    w = 1.0 + 0.0j
    z = 0.37 + 0.11j
    for i in range(6000):
        w = w * z + 1.0
        acc += abs(w) * (i & 3)
    pts = 3.0 * _NODES + 0.5
    for k in range(6):
        v = pts * (1.0 - pts / (k + 2.7))
        acc += float(np.mean(np.log(np.abs(v) + 1.0)))
        acc += float(np.sum(np.angle(np.roll(v, -1) / v)))
    for i, deg in enumerate(range(4, 16)):
        comp = np.zeros((deg, deg), dtype=np.complex128)
        comp[1:, :-1] = np.eye(deg - 1)
        comp[0, :] = _RNG_COEFFS[i, :deg]
        acc += float(np.sum(np.abs(np.linalg.eigvals(comp))))
    return acc


class KernelClock:
    """Times the reference kernel between operations and turns wall times
    into host-normalised times."""

    REPS = 3

    def sample(self) -> list[float]:
        """Run the kernel REPS times and return the times."""
        out = []
        for _ in range(self.REPS):
            t0 = time.perf_counter()
            reference_kernel()
            out.append(time.perf_counter() - t0)
        return out

    @staticmethod
    def scale(around: list[float]) -> float:
        """Factor that maps a wall time measured between these kernel
        samples onto the reference host."""
        return NOMINAL_S / statistics.median(around)
