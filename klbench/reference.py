"""Fixed reference kernels that measure the host's speed beside the program.

The benchmark's host is a few virtual cores on a shared machine whose speed
drifts by a quarter or more over seconds to minutes, for interpreter-bound
code most of all. A kernel that never changes, timed after each experiment
of a run, sees the same drift; dividing the run's time by the kernel's
typical time cancels it, while a change to klsmooth still moves the ratio
in full. The benchmark reports that ratio times ``NOMINAL_S``: seconds on a
host where the kernel takes its nominal time.

The kernel runs in a block after each experiment, for a tenth of the
experiment's time, and the typical time is the median over the run of the
blocks' mean kernel times, the same kind of figure as an experiment's
median time. Single kernel runs are too short for that: the host switches
between fast and slow phases more often than an experiment lasts, so an
experiment averages over both while a single kernel run sees one, and a
run's kernel times split into two groups whose median follows whichever is
larger. A block averages over the phases as an experiment does, and the
median over blocks ignores the rare block in which a thread lost its core.

Code of different kinds drifts by different amounts, so each workload names
the kernel that shares its bottleneck: ``interpreter`` (a diagonal Landweber
loop in plain numpy over short vectors, with a float per iteration and the
trace formatted as CSV, as the canned figure runs spend their time),
``diagonal`` (the Landweber iteration of the long-horizon run at its own
size, 200 modes with sigma_i = 1/i, logging the residual, gradient and error
norms) or ``dense`` (Landweber sweeps of a 1024 x 1024 matrix, BLAS-bound
like the validation-heavy runs). The kernels use no klsmooth code, so no
change to the program can move them.
"""

from __future__ import annotations

import io
import time

import numpy as np

# Round figures near the kernels' median times on a 2-vCPU Xeon VM (Python 3.11,
# numpy with OpenBLAS, 2 threads); they only set the scale of the reported seconds.
NOMINAL_S = {"interpreter": 0.020, "diagonal": 0.035, "dense": 0.035}

# Set-up is mostly starting an interpreter and importing numpy, which drifts
# with the host's process start-up and file access rather than with any
# kernel above; set-up is divided instead by the time a fresh interpreter
# takes to import numpy alone, and reported at this nominal time.
SPAWN_NOMINAL_S = 0.210


class Reference:
    """One of the fixed kernels, with its inputs built once."""

    def __init__(self, kind: str):
        if kind not in NOMINAL_S:
            raise ValueError(f"unknown reference kernel {kind!r}")
        self.kind = kind
        self.nominal_s = NOMINAL_S[kind]
        rng = np.random.default_rng(12345)
        if kind == "interpreter":
            self._d = rng.uniform(0.01, 1.0, 1000)
            self._y = rng.standard_normal(1000)
            self._run = self._interpreter
        elif kind == "diagonal":
            self._d = 1.0 / np.arange(1, 201)
            self._x_true = self._d ** 1.5
            self._y = self._d * self._x_true
            self._run = self._diagonal
        else:
            self._a = rng.standard_normal((1024, 1024)) / 32.0
            self._y = rng.standard_normal(1024)
            self._run = self._dense
        self._run()

    def _interpreter(self) -> int:
        x = np.zeros_like(self._y)
        norms = []
        for _ in range(1500):
            r = self._d * x - self._y
            x = x - 0.5 * (self._d * r)
            norms.append(float(np.linalg.norm(r)))
        buf = io.StringIO()
        buf.write("k,residual\n")
        for k, v in enumerate(norms):
            buf.write(f"{k},{v:.17g}\n")
        return len(buf.getvalue())

    def _diagonal(self) -> float:
        iters = 2000
        x = np.zeros_like(self._y)
        norms = np.empty((iters, 3))
        g = self._d * (self._d * x - self._y)
        for k in range(iters):
            x = x - g
            r = self._d * x - self._y
            g = self._d * r
            rn, gn = float(np.linalg.norm(r)), float(np.linalg.norm(g))
            if not (np.isfinite(rn) and np.isfinite(gn)):
                raise RuntimeError("reference kernel diverged")
            norms[k] = rn, gn, float(np.linalg.norm(x - self._x_true))
        return float(norms[-1, 0])

    def _dense(self) -> float:
        x = np.zeros_like(self._y)
        for _ in range(80):
            x = x - 0.5 * (self._a.T @ (self._a @ x - self._y))
        return float(x[0])

    def time(self) -> float:
        """Seconds one run of the kernel takes now."""
        t0 = time.perf_counter()
        self._run()
        return time.perf_counter() - t0
