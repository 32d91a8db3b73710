"""Host pace: fixed reference work timed beside the measured work.

The benchmark runs on a few virtual cores of a shared host whose speed drifts
by a quarter or more within minutes, and a single-threaded Python process
slows with it whether it is busy or idle (CPU time tracks wall time, so the
drift is not time-slicing).  So each timing is taken together with a fixed
reference of the same kind of work, run just before and just after it and
outside the timed section:

* jobs: a kernel of complex scalar arithmetic in the interpreter, as in the
  frame integrator, and numpy calls on 2x2 arrays, as in the diagnostics;
* set-up: a fresh interpreter that imports numpy, the program's only
  dependency, and reports ready.

The pace of one timing is the mean of the two reference samples around it
over the reference's median on the baseline host:

    pace = (reference_before + reference_after) / (2 * reference_s)

and a timing "at reference pace" is the raw timing divided by its pace.  The
host's slow drift and most of its faster swings move the reference and the
measured work alike, so they cancel.  The references run nothing from
lightcone, so no change to the program can move them; a change that makes
the program slower shows in full.
"""

from __future__ import annotations

import cmath
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

# medians on the host the baseline was recorded on (2 vCPUs, Intel Xeon at
# 2.1 GHz, CPython 3.11, numpy 2.4); only the unit depends on them
KERNEL_REFERENCE_S = 0.20
STARTUP_REFERENCE_S = 0.10

_M = np.array([[1.0 + 0.5j, 0.25 - 1.0j], [-0.75j, 2.0 + 0.0j]])


def _scalar_rk4(steps: int) -> complex:
    """RK4 on dF/dw = F A(w) for 2x2 F held as four complex scalars."""
    f = (1.0 + 0j, 0j, 0j, 1.0 + 0j)
    w, h = 0.1 + 0.2j, 0.001 + 0.0005j

    def rhs(f, w):
        e = cmath.exp(2j * w)
        a, b, c = 0.5 * e, -0.25 * e * e, 0.5 / e
        return (f[0] * a + f[1] * c, f[0] * b - f[1] * a,
                f[2] * a + f[3] * c, f[2] * b - f[3] * a)

    for _ in range(steps):
        k1 = rhs(f, w)
        k2 = rhs(tuple(x + 0.5 * h * k for x, k in zip(f, k1)), w + 0.5 * h)
        k3 = rhs(tuple(x + 0.5 * h * k for x, k in zip(f, k2)), w + 0.5 * h)
        k4 = rhs(tuple(x + h * k for x, k in zip(f, k3)), w + h)
        f = tuple(x + h / 6.0 * (p + 2.0 * q + 2.0 * r + s)
                  for x, p, q, r, s in zip(f, k1, k2, k3, k4))
        w += h
    return f[0]


def _small_arrays(n: int) -> float:
    """numpy dispatch on 2x2 complex arrays, as in the per-node diagnostics."""
    m, acc = _M, 0.0
    for _ in range(n):
        p = m @ m.conj().T
        acc += float(np.real(np.linalg.det(p))) + float(np.abs(np.trace(p)))
        m = 0.5 * (p / np.sqrt(abs(acc) + 1.0)) + _M
    return acc


def kernel_seconds() -> float:
    """One timed pass of the job reference kernel.  A short untimed pass
    first brings the kernel's code and data back into the caches, so that a
    job that leaves the caches cold does not slow its own reference."""
    _scalar_rk4(300)
    _small_arrays(300)
    t0 = perf_counter()
    _scalar_rk4(6000)
    _small_arrays(6000)
    return perf_counter() - t0


def time_to_ready(cmd, cwd=None) -> float:
    """Seconds from starting cmd until it prints "ready"; the process is
    then waited for, and killed if anything goes wrong first."""
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=cwd) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=60)
        except BaseException:
            proc.kill()
            raise
    if line.strip() != "ready" or rc != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} failed with exit code {rc}")
    return elapsed


def startup_seconds() -> float:
    """One fresh interpreter that imports numpy: the set-up reference."""
    return time_to_ready([sys.executable, "-c", "import numpy; print('ready', flush=True)"])


class Pace:
    """Reference samples of one phase of a run, in the order taken."""

    def __init__(self, measure=kernel_seconds, reference_s=KERNEL_REFERENCE_S):
        self.measure = measure
        self.reference_s = reference_s
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(self.measure())

    def around_last(self) -> float:
        """Pace over the last timed interval: the mean of the two latest
        samples, taken just before and just after it."""
        return (self.samples[-2] + self.samples[-1]) / (2.0 * self.reference_s)

    def median(self) -> float:
        return statistics.median(self.samples) / self.reference_s
