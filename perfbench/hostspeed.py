"""Host speed: a fixed reference computation, timed in the same process.

On a shared host the same computation runs up to twice as slow from one
second to the next, and the mix of fast and slow seconds drifts over
minutes.  CPU time moves with wall time, so no clock of the process can
tell a slow host from a slow program.  The benchmark therefore runs this
kernel every SAMPLE_PERIOD_S (run.py) while a round runs, from a timer
signal in the main thread, takes the kernel's time out of the round's,
and divides the round's time by the kernel's mean CPU time.  CPU time,
not wall time, because in a threaded round the kernel also waits for the
GIL, and that wait is not host speed.

The kernel does not touch prehyp.  It is a fixed mix of the two kinds of
work a prehyp round does: RK4 steps of a second-order wave equation with
numpy stencils on a small grid, and Python calls into closures evaluated
point by point.  It takes about 10 ms.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

NODES = 256
STEPS = 100
POINTS = 5000


def _rhs(u, v, c2, h):
    uxx = np.empty_like(u)
    uxx[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)
    uxx[0] = uxx[-1] = 0.0
    return v, c2 * uxx


def kernel() -> float:
    """One fixed unit of work; returns a checksum so that it is not idle."""
    x = np.linspace(-1.0, 1.0, NODES)
    h = x[1] - x[0]
    c2 = (1.0 + 0.3 * np.cos(2.0 * x)) ** 2
    u = np.exp(-50.0 * x * x)
    v = np.zeros_like(u)
    dt = 0.4 * h
    for _ in range(STEPS):
        k1u, k1v = _rhs(u, v, c2, h)
        k2u, k2v = _rhs(u + 0.5 * dt * k1u, v + 0.5 * dt * k1v, c2, h)
        k3u, k3v = _rhs(u + 0.5 * dt * k2u, v + 0.5 * dt * k2v, c2, h)
        k4u, k4v = _rhs(u + dt * k3u, v + dt * k3v, c2, h)
        u = u + dt / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        v = v + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)

    alpha = lambda t, y: 1.0 + 0.1 * math.sin(t)  # noqa: E731
    beta = lambda t, y: 1.0 + 0.3 * math.cos(2.0 * y)  # noqa: E731
    acc = 0.0
    for i in range(POINTS):
        t = -0.3 + 0.6 * i / POINTS
        y = -1.0 + 2.0 * ((7 * i) % POINTS) / POINTS
        acc += alpha(t, y) * beta(t, y) - math.sqrt(beta(t, y) / alpha(t, y))
    return float(u.sum()) + acc


def sample(repeats: int = 5) -> list:
    """CPU times, in seconds, of `repeats` back-to-back kernel runs."""
    times = []
    for _ in range(repeats):
        c0 = time.thread_time()
        kernel()
        times.append(time.thread_time() - c0)
    return times


class Sampler:
    """Times the kernel every `period` seconds while a round runs, from a
    SIGALRM handler in the main thread, so that the host speed is sampled
    all through the round and not only around it.  The wall and CPU time
    the handler takes are booked, to be taken out of the round's times."""

    def __init__(self, period: float):
        self.period = period
        self.times: list = []
        self.wall = 0.0
        self.cpu = 0.0

    def _tick(self, signum, frame):
        t0, c0 = time.perf_counter(), time.thread_time()
        kernel()
        cpu = time.thread_time() - c0
        self.times.append(cpu)
        self.wall += time.perf_counter() - t0
        self.cpu += cpu

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False
