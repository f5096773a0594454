"""Machine-speed calibration for timed runs.

The benchmark's host is shared: the same pure-Python work runs up to
about 1.6 times slower when neighbours are busy, and the share of slow
time drifts over minutes.  A ``Speedometer`` measures that speed while
the workload runs.  A ``SIGALRM`` timer interrupts the process every
``PERIOD`` seconds and runs one fixed calibration chunk, a small sparse
polynomial product with ``Fraction`` coefficients (the kind of work mfcat
does), in the process's own thread.  A timed interval is then

* freed of the chunks that ran inside it (``busy``), and
* scaled to the reference speed, at which a chunk takes ``REFERENCE_S``:
  its time times ``REFERENCE_S`` over the mean chunk time in a window of
  ``WINDOW`` seconds on either side of it (``at_reference``).

A change to mfcat moves the workload's time but not the chunk's, so the
scaled time follows the code; a slow stretch of the machine moves both.
"""

import bisect
import gc
import signal
from fractions import Fraction
from itertools import accumulate
from time import perf_counter

PERIOD = 0.01        # seconds between calibration chunks
WINDOW = 0.05        # seconds of chunks either side of an interval
REFERENCE_S = 3e-4   # a chunk's time at the reference speed

_LEFT = {(i, 3 - i, j % 2): Fraction(i + 1, j + 2) for i in range(4) for j in range(3)}
_RIGHT = {(j % 3, i, 1): Fraction(2 * i - 3, j + 1) for i in range(3) for j in range(4)}


def chunk():
    """The calibration work: one product of two sparse polynomials."""
    out = {}
    zero = Fraction(0)
    for e1, c1 in _LEFT.items():
        for e2, c2 in _RIGHT.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, zero) + c1 * c2
            if s == zero:
                out.pop(e, None)
            else:
                out[e] = s
    return out


class Speedometer:
    """Calibration chunks on a timer; see the module docstring.

    Use as a context manager around the timed work, then ask
    ``busy``/``at_reference`` about intervals inside it.
    """

    def __init__(self):
        self.stamps = []   # start of each chunk
        self.costs = []    # its duration
        self._running = False
        self._previous = None
        self._sums = None

    def _tick(self, signum, frame):
        if self._running:  # a late signal during a chunk: skip it
            return
        self._running = True
        collecting = gc.isenabled()
        gc.disable()  # a collection here would be the workload's garbage
        t0 = perf_counter()
        chunk()
        self.costs.append(perf_counter() - t0)
        self.stamps.append(t0)
        if collecting:
            gc.enable()
        self._running = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)  # so that work shorter than PERIOD has a chunk near it
        self._sums = [0.0] + list(accumulate(self.costs))
        return False

    def _span(self, t0, t1):
        return bisect.bisect_left(self.stamps, t0), bisect.bisect_right(self.stamps, t1)

    def busy(self, t0, t1):
        """Time from t0 to t1 minus the chunks that ran in between."""
        i, j = self._span(t0, t1)
        return (t1 - t0) - (self._sums[j] - self._sums[i])

    def scale(self, t0, t1):
        """REFERENCE_S over the mean chunk time within WINDOW of [t0, t1]."""
        i, j = self._span(t0 - WINDOW, t1 + WINDOW)
        if j == i:
            raise RuntimeError("no calibration chunk ran near the interval")
        return REFERENCE_S * (j - i) / (self._sums[j] - self._sums[i])

    def at_reference(self, t0, t1):
        """busy(t0, t1) at the reference speed."""
        return self.busy(t0, t1) * self.scale(t0, t1)
