"""Wall time rescaled to a fixed reference CPU speed.

The benchmark was written on a 2-vCPU virtual machine whose cores change
speed by up to half again within seconds as other guests load the host
(the CPU time of a fixed loop swings with its wall time; steal time stays
near zero).  A 20 s verdict timed in wall seconds then mostly measures
the neighbours.  `SpeedClock` times a short fixed reference loop every
`PERIOD_S` seconds while the timed code runs (from a SIGALRM handler, so
on the same core and between the same bytecodes) and rescales each
stretch of wall time by how fast the reference loop ran at its two ends:

    ref_s = sum over stretches of  wall * REF_S / (reference loop time)

`ref_s` is the time the code would take at the speed where the reference
loop takes `REF_S`; a program change still moves it one for one.  The
assumption is that contention slows the program and the loop alike; on
the development host one fault_injection input timed 2.6-4.4 s wall but
2.2-2.5 s rescaled over 12 fresh processes.
"""

from __future__ import annotations

import signal
import time

LOOP_N = 6000
# The reference loop's time at the reference speed: close to its time on an
# uncontended core of the development host (2-vCPU Xeon VM, Python 3.11).
REF_S = 0.0008
PERIOD_S = 0.1


def reference_loop() -> int:
    """Fixed interpreter work: dict stores and lookups, integer arithmetic."""
    d: dict[int, int] = {}
    s = 0
    for i in range(LOOP_N):
        d[i & 127] = s
        s = (s + d.get((i * 7) & 127, i)) & 0xFFFF
    return s


for _ in range(3):  # warm the interpreter's specialised bytecode
    reference_loop()


def rescale(marks: list[tuple[float, float]]) -> tuple[float, float]:
    """(wall_s, ref_s) from (start, duration) of each reference loop run.

    Wall time between consecutive loops counts; the loops themselves do
    not.  Each stretch runs at the mean speed of the loops at its ends.
    """
    wall = ref = 0.0
    for (s0, c0), (s1, c1) in zip(marks, marks[1:]):
        stretch = s1 - (s0 + c0)
        wall += stretch
        ref += stretch * REF_S * (1 / c0 + 1 / c1) / 2
    return wall, ref


class SpeedClock:
    """`with SpeedClock() as clock: ...`, then `clock.wall_s`, `clock.ref_s`."""

    def __init__(self):
        self.marks: list[tuple[float, float]] = []
        self.wall_s = self.ref_s = 0.0

    def _mark(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        reference_loop()
        self.marks.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._mark)
        self._mark()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._mark()
        self.wall_s, self.ref_s = rescale(self.marks)
