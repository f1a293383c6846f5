"""Reference kernel for scaling op times to a nominal CPU speed.

The host's CPU speed drifts by tens of percent within seconds (a shared
machine, turbo and SMT contention), far more than the changes the
benchmark must resolve.  A fixed pure-Python kernel, timed in the same
process as the ops four times a second, measures the current speed; a
timer signal takes the samples, so long ops get samples from their own
duration.  Each op's time, less the time spent sampling, is multiplied
by NOMINAL_S / (median kernel time of the samples within ``window_s``
of the op): the time the op would take at the speed where the kernel
takes NOMINAL_S.  The kernel never touches rackq, so a change to rackq
moves the scaled times exactly as it moves the raw ones.
"""

import signal
import statistics
import time

NOMINAL_S = 0.0004
REPEATS = 3


class _Item:
    __slots__ = ("key", "terms")

    def __init__(self, key, terms):
        self.key = key
        self.terms = terms


def kernel():
    """Builds tuples, dicts and small objects, iterates them and sorts by
    key: the kind of work rackq's code does.  It tracks the host's speed
    for rackq better than a kernel of integer arithmetic alone."""
    acc, items = 0, []
    for i in range(100):
        key = tuple((i * k) % 17 for k in range(8))
        terms = {k: v for k, v in enumerate(key) if v}
        items.append(_Item(key, terms))
        acc += sum(terms.values())
    items.sort(key=lambda item: item.key)
    return acc + len(items)


def sample():
    """Median time of REPEATS kernel runs after one warm-up run."""
    kernel()
    runs = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


class Sampler:
    """Takes a kernel sample every ``every_s`` seconds from a SIGALRM
    timer while in use; ``spent`` is the time the samples took."""

    def __init__(self, every_s):
        self.every_s = every_s
        self.samples = []
        self.spent = 0.0

    def _take(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.samples.append((t0, sample()))
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._take)
        self._take()
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._take()
        return False


def scale(starts, raw_s, samples, window_s):
    """Op times at nominal speed.  ``samples`` are (time, kernel seconds),
    ``starts`` the ops' start times."""
    out = []
    for t0, raw in zip(starts, raw_s):
        near = [ref for at, ref in samples if t0 - window_s <= at <= t0 + raw + window_s]
        if len(near) < REPEATS:
            near = [ref for _, ref in sorted(samples, key=lambda s: abs(s[0] - t0))[:REPEATS]]
        out.append(raw * NOMINAL_S / statistics.median(near))
    return out
