"""Host speed samples, so timings can be scaled to a reference speed.

The host's speed drifts by up to 2x within seconds while process CPU time
tracks wall time, so a timing alone says as much about the neighbours as
about pathguard. A short fixed pure-Python loop, of the kind the interpreter
runs (list push and pop, dict stores, slot attribute reads, branches on
small ints, comprehensions over tuples), is timed between transactions; a
stage's duration is divided by the mean slowdown sampled at and during the
stage. The loop uses no pathguard code, so a change to pathguard moves the
scaled figures exactly as it moves the raw ones.
"""

from __future__ import annotations

import statistics
import time

# Seconds ``_loop`` takes on the reference host.
REFERENCE_S = 0.005
# Least wall time between two samples taken by ``tick``.
TICK_S = 0.1


class _Ins:
    __slots__ = ("op", "imm")

    def __init__(self, op: int, imm: int):
        self.op = op
        self.imm = imm


_BODY = [_Ins(i % 5, i) for i in range(1000)]
_ITEMS = [(k, k * 7 % 61, k * 13 % 61) for k in range(8)]
_TABLE = [None] * 61


def _loop() -> float:
    """Half attribute dispatch as in the VM, half comprehensions as in MPHT."""
    t0 = time.perf_counter()
    for _ in range(16):
        stack: list[int] = []
        mem: dict[int, int] = {}
        acc = 0
        for ins in _BODY:
            op = ins.op
            if op == 0:
                stack.append(ins.imm & 0xFF)
            elif op == 1:
                stack.append(acc >> 3)
            elif op == 2:
                mem[ins.imm & 255] = stack.pop() + stack.pop() if len(stack) > 1 else acc
            else:
                acc ^= mem.get(op, 0) + ins.imm
    for d0 in range(700):
        bases = [(f1 + d0 * f2) % 61 for _, f1, f2 in _ITEMS]
        if len(set(bases)) == len(bases):
            positions = [(b + d0) % 61 for b in bases]
            all(_TABLE[p] is None for p in positions)
    return time.perf_counter() - t0


class HostClock:
    """Slowdown samples against ``REFERENCE_S``; above 1 is slower."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        self.samples.append(_loop() / REFERENCE_S)
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Sample if ``TICK_S`` has passed since the last sample."""
        if time.perf_counter() - self._last >= TICK_S:
            self.sample()

    def mark(self) -> int:
        """Sample now and return the index a later ``since`` starts from."""
        self.sample()
        return len(self.samples) - 1

    def since(self, mark: int) -> float:
        """Sample now; the mean slowdown from ``mark`` to here."""
        self.sample()
        return statistics.fmean(self.samples[mark:])
