"""Host-speed meter: turns the seconds a job takes into reference seconds.

On a shared host the CPU time that a fixed piece of work takes wanders by a
third or more within seconds, and differs between the CPUs of one machine
at the same moment. A run's median over a few jobs cannot average that out.
So while the meter runs, every process of the job (the benchmark process
and any pool worker it forks) stops after each ``PERIOD_S`` seconds of its
own CPU and times a fixed calibration loop, ``calibrate``. The loop uses
nothing from ``profile_null``, so a change to the package does not move it.

A job's speed factor is ``REF_S`` times the mean of ``1 / c`` over the
calibration times ``c`` taken during the job, and two taken just before and
after it. Each timer-driven sample stands for the same amount of CPU, so
this is the CPU-weighted ratio of reference speed to the host's speed at
the time. A job's reference seconds are its seconds, less the calibration
CPU, times that factor: the seconds it would have taken on a host where
``calibrate`` takes ``REF_S``.
"""

from __future__ import annotations

import math
import os
import signal
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PERIOD_S = 0.05      # CPU seconds of a process between two calibrations
REPS = 6
REF_S = 0.0035       # CPU time of calibrate() at the reference speed

_SMALL = np.random.default_rng(20220715).normal(size=212)
_LARGE = np.random.default_rng(20220716).normal(size=8192)
_ERFC = np.frompyfunc(math.erfc, 1, 1)


def calibrate() -> float:
    """Fixed work of the kinds the workloads do: small-array numpy calls
    dominated by per-call overhead, the object-dtype erfc ufunc, one
    large-array pass and float formatting. Returns its thread CPU time."""
    t0 = time.thread_time()
    acc = 0.0
    for _ in range(REPS):
        for j in range(40):
            y = np.exp(-0.5 * _SMALL * _SMALL) / (1.0 + 0.01 * j)
            acc += float(np.sum(np.log1p(y)))
        acc += float(np.sum(_ERFC(_SMALL[:50]).astype(float)))
        acc += float(np.dot(_LARGE, np.sqrt(np.abs(_LARGE))))
        acc += len(",".join(f"{v:.6f}" for v in _SMALL[:100]))
    return time.thread_time() - t0


@dataclass(frozen=True)
class Reading:
    """What the meter saw during one job."""

    factor: float        # reference speed / host speed
    calib_cpu: float     # CPU the timer-driven calibrations took, all processes
    samples: int


# the meter that forked children report to; None when no meter runs
_active: Meter | None = None


def _after_fork_in_child() -> None:
    if _active is not None:
        _active._start_in_child()


os.register_at_fork(after_in_child=_after_fork_in_child)


class Meter:
    """Timer-driven calibration in this process and in the processes it
    forks while the meter runs. Children append their samples to files in
    ``log_dir``; ``take`` collects and removes them."""

    def __init__(self, log_dir: Path) -> None:
        self.log_dir = Path(log_dir)
        self.samples: list[float] = []
        self._fd: int | None = None       # set in a forked child
        self._busy = False

    def start(self) -> None:
        global _active
        self.log_dir.mkdir(parents=True, exist_ok=True)
        _active = self
        signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        global _active
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        _active = None

    def __enter__(self) -> Meter:
        self.start()
        return self

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    def _start_in_child(self) -> None:
        # the handler survives fork, the interval timer does not
        self.samples = []
        path = self.log_dir / f"child-{os.getpid()}.txt"
        self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def _on_tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            c = calibrate()
            if self._fd is None:
                self.samples.append(c)
            else:
                os.write(self._fd, f"{c!r}\n".encode())
        finally:
            self._busy = False

    def mark(self) -> int:
        return len(self.samples)

    def take(self, mark: int) -> list[float]:
        """Timer-driven samples of this process since ``mark``, and those of
        every child that has written any, whose files are then removed."""
        taken = self.samples[mark:]
        for path in sorted(self.log_dir.glob("child-*.txt")):
            taken += [float(line) for line in path.read_text().split()]
            path.unlink()
        return taken


class JobMeter:
    """Context manager around one job: a calibration just before and just
    after it, the timer-driven ones in between."""

    def __init__(self, meter: Meter) -> None:
        self.meter = meter

    def __enter__(self) -> JobMeter:
        self.first = calibrate()
        self.mark = self.meter.mark()
        return self

    def __exit__(self, *exc) -> bool:
        inside = self.meter.take(self.mark)
        self.last = calibrate()
        speeds = [self.first, *inside, self.last]
        self.reading = Reading(
            factor=REF_S * statistics.fmean(1.0 / c for c in speeds),
            calib_cpu=sum(inside), samples=len(speeds))
        return False
