"""Machine-speed meter: CPU seconds at a fixed reference speed.

The benchmark shares a few cores of a host with other tenants.  How fast
those cores run changes by up to 2x within a second and for minutes at a
time, and no statistic over one run's samples removes a slow spell that
covers the whole run.  The meter samples the speed instead: every
PERIOD_S of wall time a SIGALRM handler runs a small fixed pure-Python
kernel and records the CPU time it took.  A stage that used ``cpu_s``
CPU seconds (user + system) did the work of

    cpu_s * mean(REFERENCE_PROBE_S / d_i)  -  n * REFERENCE_PROBE_S

seconds at the reference speed, where d_i are the probe times recorded
during the stage and n of them ran inside it (each probe's own work is
REFERENCE_PROBE_S at the reference speed, so it is taken out again).
CPU time leaves out the time the process waited for a core, so other
processes on the machine do not count either.  REFERENCE_PROBE_S is a
fixed constant, the probe's time on the 2-core machine the benchmark was
tuned on when it ran fast, so the figures read as seconds on that
machine; for the single-threaded program measured here they equal its
wall time there.  The probe code never changes with the program, so a
change to relaytomo moves the figures and a change of machine speed does
not.

A subprocess records its own probes: ``hook/sitecustomize.py`` starts a
meter in every Python process that has PERFBENCH_SPEED_LOG set and
writes the probe times to that file when the process exits.
"""

from __future__ import annotations

import math
import signal
import time

PERIOD_S = 0.01
REFERENCE_PROBE_S = 2.0e-4
WARM_UP_RUNS = 3
LOG_ENV = "PERFBENCH_SPEED_LOG"


def kernel() -> float:
    """The probe's fixed work: float arithmetic, calls and a loop."""
    acc = 0.0
    for i in range(1, 300):
        x = i * 0.01
        term = s = 1.0
        for k in range(1, 6):
            term *= x / (1.0 + k)
            s += term
        acc += math.exp(-x) * s
    return acc


class Meter:
    """Probes taken every PERIOD_S of wall time while started."""

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []  # (perf_counter at start, CPU seconds)
        self._previous = None

    def _probe(self, signum=None, frame=None) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        kernel()
        self.probes.append((t0, time.process_time() - c0))

    def start(self) -> "Meter":
        for _ in range(WARM_UP_RUNS):  # a fresh kernel runs slower until specialized
            kernel()
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    @staticmethod
    def mark() -> tuple[float, float]:
        return time.perf_counter(), time.process_time()

    def since(self, mark: tuple[float, float]) -> float:
        """This process's CPU seconds since `mark`, at the reference speed."""
        (t0, c0), (t1, c1) = mark, self.mark()
        # widen the window by a period on each side, so that a stage
        # shorter than a period still has probes
        window = [d for t, d in self.probes if t0 - PERIOD_S <= t <= t1 + PERIOD_S]
        inside = sum(1 for t, _ in self.probes if t0 <= t <= t1)
        return scaled(c1 - c0, window, inside)


def scaled(cpu_s: float, durations: list[float], inside: int) -> float:
    if not durations:
        raise RuntimeError("no speed probe near a timed stage")
    rate = math.fsum(REFERENCE_PROBE_S / d for d in durations) / len(durations)
    return cpu_s * rate - inside * REFERENCE_PROBE_S


def read_log(path) -> list[float]:
    """Probe times a metered subprocess wrote."""
    with open(path, encoding="ascii") as fh:
        return [float(line) for line in fh if line.strip()]
