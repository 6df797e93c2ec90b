"""Machine-speed calibration of the benchmark's times.

On a shared host the speed of a vCPU drifts by up to 2x within a minute,
and CPU time drifts with it, so the same pass can take 18 s or 31 s.  A
``Sampler`` measures that speed while a worker runs: a timer signal runs a
fixed pure-Python kernel (tuple, dict and set work, the kind of work
``pigraphs`` does) every ``INTERVAL_S`` seconds.  Times are then given at
a fixed reference speed, the speed at which one kernel sample takes
``REF_S`` seconds:

    calibrated = (measured - time spent sampling) * REF_S / mean sample

The speed drifts within a second too, between a fast and a slow state, so
a pass is calibrated by the mean of the samples the timer spread evenly
over it: the mean weighs each state by the time spent in it, as the pass
does.  An item is calibrated by the samples taken while it ran or within
``NEAR_S`` of it.  Set-up, which is too short for the timer, is calibrated
by a burst of ``BURST`` samples taken as soon as it ends.

The kernel is the benchmark's own code, so a change to ``pigraphs`` moves
the calibrated times exactly as it moves the measured ones.  The raw times
are kept in the report beside the calibrated ones.
"""

import gc
import signal
import statistics
import time

REF_S = 0.001        # seconds one sample takes at the reference speed
INTERVAL_S = 0.1     # seconds between samples while a worker runs
NEAR_S = 0.2         # seconds around an item whose samples calibrate it
BURST = 8            # samples taken at the end of set-up

_PERMS = [tuple((i * k + 3) % 11 for i in range(11)) for k in range(1, 11)]


def _kernel():
    table = {}
    for _ in range(3):
        for a in _PERMS:
            for b in _PERMS:
                c = tuple([b[i] for i in a])
                table[c] = table.get(c, 0) + 1
                {x ^ y for x, y in zip(a, c)}
    return len(table)


class Sampler:
    """Samples the kernel's duration on a timer; see the module docstring."""

    def __init__(self):
        self.samples = []    # timer samples: (perf_counter at start, seconds)
        self.spent = 0.0     # seconds spent sampling, signal entry to exit

    def sample(self):
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()         # never collect the worker's heap in a sample
        begin = time.perf_counter()
        _kernel()
        seconds = time.perf_counter() - begin
        if collecting:
            gc.enable()
        self.spent += time.perf_counter() - start
        return seconds

    def start(self):
        signal.signal(signal.SIGALRM, lambda *_: self.samples.append(
            (time.perf_counter(), self.sample())))
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def burst(self):
        """Mean of ``BURST`` samples taken now."""
        return statistics.fmean(self.sample() for _ in range(BURST))

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def sample_s(self, start=float("-inf"), end=float("inf")):
        """Mean timer sample within ``NEAR_S`` of [start, end], or None."""
        near = [s for t, s in self.samples
                if start - NEAR_S <= t <= end + NEAR_S]
        return statistics.fmean(near) if near else None


def factor(sample_s):
    """Multiplier from measured seconds to seconds at the reference speed."""
    return REF_S / sample_s
