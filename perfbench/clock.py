"""Time corrected for the drifting speed of a shared host.

On a shared host the speed of one core drifts.  On the 2-core x86-64 box
where this benchmark was defined, one fixed loop of Python code took
from 0.165 s to 0.30 s within a minute, with process CPU time equal to
wall time and no steal time; the slow spells lasted several seconds.
Wall times of the same work spread by more than any useful regression
bound, and two sets of runs half an hour apart differed by more than
25%.

SpeedClock samples the speed with a fixed calibration loop that never
calls toricgb, so no change to the program can change it.  It runs the
loop every PERIOD_S seconds from a SIGALRM handler, and whenever ref()
is called.  The time spent in the loop is left out of every reading.
ref() integrates work time weighted by the speed factor
REF_LOOP_S / (time of the loop), trapezoid-wise between samples: it
gives the seconds the same work would have taken on a machine on which
the loop takes REF_LOOP_S.

Use it as a context manager; the alarm runs while the block does, on the
main thread only.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.2
# About the median time of one calibration loop during runs on the box
# the benchmark was defined on: readings are in seconds of that machine.
REF_LOOP_S = 0.0030


def calibration_loop():
    """Fixed work in the idiom of the program: exact elimination over Fractions."""
    for _ in range(2):
        rows = [[Fraction((7 * r + 3 * c) % 11 - 5, 1 + (r + c) % 4) for c in range(7)]
                for r in range(6)]
        for c in range(6):
            p = next((r for r in range(c, 6) if rows[r][c] != 0), None)
            if p is None:
                continue
            rows[c], rows[p] = rows[p], rows[c]
            for r in range(6):
                if r != c and rows[r][c] != 0:
                    f = rows[r][c] / rows[c][c]
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return rows


class SpeedClock:
    """Wall time without calibration, and reference time, for one process."""

    def __init__(self):
        self.spent = 0.0      # seconds spent in the calibration loop
        self.ref_s = 0.0      # integrated reference seconds
        self.loops = []       # time of every calibration loop
        self._last = None     # (work time, speed factor) of the last sample
        self._busy = False
        self._old_handler = None

    def now(self):
        """Wall seconds from an arbitrary origin, calibration left out."""
        return perf_counter() - self.spent

    def sample(self):
        if self._busy:  # an alarm during a sample taken by ref()
            return
        self._busy = True
        try:
            t0 = perf_counter()
            calibration_loop()
            loop_s = perf_counter() - t0
            work = t0 - self.spent
            self.spent += loop_s
            self.loops.append(loop_s)
            factor = REF_LOOP_S / loop_s
            if self._last is not None:
                last_work, last_factor = self._last
                self.ref_s += (work - last_work) * (factor + last_factor) / 2
            self._last = (work, factor)
        finally:
            self._busy = False

    def ref(self):
        """Reference seconds from an arbitrary origin; takes a sample."""
        self.sample()
        return self.ref_s

    def _on_alarm(self, signum, frame):
        self.sample()

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        return False
