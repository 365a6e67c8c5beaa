"""Host-speed calibration: every timing in a result is given at reference speed.

The benchmark host is a share of a busy machine.  Its speed switches between
two states, seconds to minutes apart: the same op takes about 1.8 times as
long in the slow state as in the fast one.  Which state a run lands in then
moves its medians by more than any bound a regression check could use.

So the timed loop runs a fixed calibration kernel between consecutive ops,
and every setup probe runs it after its timed part and reports it on stderr.
The kernel is this file's own code, not the program's: a Grassmann-style
term-pair loop on fixed dictionaries and a few small numpy products, the
same mix of interpreter and numpy work the program does.  A time at
reference speed is a wall time scaled by REFERENCE_S over the kernel time
beside it: for an op, the mean of the kernel runs just before and just after
it; for set-up, the median of the probes' reports, since one process's
report moves with its memory layout by more than the host state moves it.
A change to the program moves its times and not the kernel's, so it shows
in full.  A change in host speed moves both, so it cancels.  The wall-clock
values stay in the detail record.
"""

from __future__ import annotations

import sys
import time

import numpy as np

# The kernel's time on the reference host (2 vCPUs, Python 3.11.7,
# numpy 2.4.6) in its fast state: the mode of the fast-state samples of a
# 20 s back-to-back run there.  Slow-state samples spread over 0.32-0.42 ms.
REFERENCE_S = 225e-6

_rng = np.random.default_rng(20070611)
_LEFT = {int(m): float(c) for m, c in
         zip(_rng.choice(1 << 12, 48, replace=False), _rng.standard_normal(48))}
_RIGHT = {int(m): float(c) for m, c in
          zip(_rng.choice(1 << 12, 48, replace=False), _rng.standard_normal(48))}
_MATRIX = _rng.standard_normal((6, 6))


def _sign(p: int, q: int) -> int:
    s = 0
    rest = q
    while rest:
        low = rest & -rest
        s += (p >> low.bit_length()).bit_count()
        rest ^= low
    return -1 if s & 1 else 1


CHILD_LINE = b"perfbench-calibration "
CHILD_RUNS = 9


def kernel_s() -> float:
    """Run the calibration kernel once; return its wall time in seconds."""
    t0 = time.perf_counter_ns()
    acc: dict[int, float] = {}
    for p, a in _LEFT.items():
        for q, b in _RIGHT.items():
            if p & q:
                continue
            acc[p | q] = acc.get(p | q, 0.0) + _sign(p, q) * a * b
    m = _MATRIX
    for _ in range(20):
        m = np.tanh(m @ _MATRIX)
    return (time.perf_counter_ns() - t0) / 1e9


def at_reference(wall_s: float, kernel: float) -> float:
    """wall_s rescaled to reference speed, given the kernel time beside it."""
    return wall_s * REFERENCE_S / kernel


def report_from_child(timed_part_end: float) -> None:
    """Write a child's kernel median and the seconds since timed_part_end.

    The median of CHILD_RUNS kernel runs skips the first, cold runs.  The
    second number is the time this report itself took, so that the parent can
    take it out of a wall time that runs to the child's exit.
    """
    kernel = sorted(kernel_s() for _ in range(CHILD_RUNS))[CHILD_RUNS // 2]
    line = CHILD_LINE + f"{kernel!r} {time.perf_counter() - timed_part_end!r}\n".encode()
    sys.stderr.buffer.write(line)
    sys.stderr.flush()


def parse_child(stderr: bytes) -> tuple[float, float] | None:
    """The (kernel median, report time) a child wrote, or None."""
    for line in stderr.splitlines():
        if line.startswith(CHILD_LINE):
            kernel, spent = line[len(CHILD_LINE):].split()
            return float(kernel), float(spent)
    return None
