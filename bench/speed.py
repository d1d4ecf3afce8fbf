"""Host speed references, to scale timings taken on a shared machine.

On a few cores of a shared host, the speed of this process drifts by up
to a fifth within a second and by more over minutes, in CPU time as much
as in wall time. Fixed reference loops, run right before and right after
every timed operation and, from a timer signal, every ``TICK_S`` during
it, track that drift. They run no blurbench code and allocate little, so
a change to the program cannot move them.

The drift is not the same for every kind of work, so there are two
loops: ``interpreter`` builds strings, dicts and lists, like the caption,
manifest and CSV code; ``array`` sweeps 4 MB integer arrays, like the
blur. A loop's speed is its reference time (in ``LOOPS``) / the median
of its times around and during the operation; the speed for the
operation's kind of work (``WORK``) weighs the loops closest to that
work. A timing is scaled to (seconds less the time the
timer's loops took) x that speed, that is, seconds on a host where every
loop takes its reference time.
"""

from __future__ import annotations

import signal
import statistics
import time

_WORDS = tuple(f"w{i}" for i in range(500))


def _interpreter_work() -> None:
    counts: dict[str, int] = {}
    for i in range(2000):
        key = _WORDS[i % 500] + " " + _WORDS[i * 7 % 500]
        counts[key] = counts.get(key, 0) + 1
        parts = key.split()
        _ = (parts[0], len(parts), [i, i + 1])


_arrays: list = []


def _array_work() -> None:
    import numpy as np  # here, so that timing an import can use the other loop

    # allocated once and swept in place: a loop that allocated its arrays
    # would take from one to four times as long, as the program's own
    # large allocations moved the allocator's mmap threshold
    if not _arrays:
        _arrays.extend([np.arange(500_000, dtype=np.int64),
                        np.empty(500_000, dtype=np.int64)])
    source, target = _arrays
    np.multiply(source, 3, out=target)
    np.add(target, 1, out=target)
    target.sum()


#: loop name -> (its work, its time on the reference host in seconds)
LOOPS = {"interpreter": (_interpreter_work, 0.0015),
         "array": (_array_work, 0.0008)}

#: Runs of each loop before and after an operation. A loop preempted by
#: the host reads several times too slow: the median over the ticks of a
#: long operation leaves it out, and the median over the samples of a run
#: leaves out the short operation it skews.
RUNS = 1
#: Period of the timer that runs the loops during an operation.
TICK_S = 0.25
#: kind of timed work -> weight of each loop's speed in the work's speed,
#: a weighted geometric mean. Interpreter-bound work also allocates and
#: fills memory, so the array loop has a share in it, and half of it in
#: ``bulk`` work, which builds and walks hundreds of MB of small objects
#: (planning a dataset, scoring a split). An import must not load numpy
#: before it is timed, so it uses the interpreter loop alone.
WORK = {"interpreter": {"interpreter": 0.8, "array": 0.2},
        "bulk": {"interpreter": 0.5, "array": 0.5},
        "array": {"array": 1.0},
        "import": {"interpreter": 1.0}}

LoopTimes = dict[str, list[float]]


def loop_seconds(loop: str) -> float:
    """Time of one run of the reference loop `loop`."""
    work = LOOPS[loop][0]
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def loop_times(work: str, runs: int = RUNS) -> LoopTimes:
    """Times of `runs` runs of each loop that sets the speed of `work`."""
    return {loop: [loop_seconds(loop) for _ in range(runs)] for loop in WORK[work]}


def speed(work: str, *times: LoopTimes) -> float:
    """Host speed for `work` relative to the reference host, from the
    loop times taken around and during it."""
    result = 1.0
    for loop, weight in WORK[work].items():
        seconds = statistics.median(t for sample in times for t in sample[loop])
        result *= (LOOPS[loop][1] / seconds) ** weight
    return result


def scaled(seconds: float, work: str, *times: LoopTimes) -> float:
    """`seconds` of `work` on the reference host."""
    return seconds * speed(work, *times)


class Ticks:
    """Runs the loops of `work` every `TICK_S` while the block runs.

    The timer's handler runs between two bytecodes of the main thread,
    like any Python signal handler, so a timed interval holds each tick
    that starts in it whole; `stolen` gives the time those ticks took,
    which the caller takes off the interval.
    """

    def __init__(self, work: str):
        self.work = work
        self.times: LoopTimes = {loop: [] for loop in WORK[work]}
        self._ticks: list[tuple[float, float]] = []  # (start, seconds)
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        for loop, seconds in loop_times(self.work, runs=1).items():
            self.times[loop] += seconds
        self._ticks.append((start, time.perf_counter() - start))

    def stolen(self, start: float, end: float) -> float:
        """Seconds the ticks took between `start` and `end`."""
        return sum(seconds for at, seconds in self._ticks if start <= at < end)

    def __enter__(self) -> "Ticks":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
