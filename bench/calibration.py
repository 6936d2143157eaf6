"""Host-speed calibration shared by run.py and child.py.

The host this benchmark was built on runs the same interpreter-bound job up
to 2x slower from one minute to the next, with nothing else running in the
container, and by up to 1.5x from one tenth of a second to the next.  Every
timed query is therefore reported scaled to a reference speed by a fixed
stdlib-only job, run before and after each turn of queries and every 0.2 s
in between, inside queries too (the job's own time is not counted):

    scaled = wall time * CALIBRATION_REF_S / median(job times from the
             last one before the query to the first one after it)

The median, not the mean: a job of 15 ms that is preempted reads far
slower than the host is, a query of a second hardly.

Over ten runs per workload on a 2-core host, the spread (interquartile
range over median) of the answer-time medians was 2-8% scaled and 3-14%
raw; in hours when the host drifted more, raw spreads reached 18-37%.  Raw
wall times are printed and kept in results.json as well.
"""

import gc
import statistics
import time

# The job's time on the reference host (2 cores, Python 3.11, idle); scaled
# times read as seconds on that host.
CALIBRATION_REF_S = 0.0165


def calibrate(tries: int = 3) -> float:
    """Seconds a fixed job of dict and tuple work takes now, the median
    of `tries`; it uses nothing from the program under test.  The cyclic
    garbage collector is off while it runs, so that it does not collect the
    program's garbage on the job's time."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_job() for _ in range(tries))
    finally:
        if was_enabled:
            gc.enable()


# The job's table is built once, so that the job, which also runs inside
# queries, allocates nothing that outlives it and leaves their peak resident
# size alone.
_TABLE = {(i & 255, i >> 8): 0 for i in range(20000)}


def _job() -> float:
    t0 = time.perf_counter()
    d = _TABLE
    for _ in range(3):
        for i in range(20000):
            k = (i & 255, i >> 8)
            d[k] = d[k] + 1
    max(d)
    return time.perf_counter() - t0


def scale(jobs: "list[float]") -> float:
    """Factor from wall time to reference time, given the job times
    measured around (and during) the timed work."""
    return CALIBRATION_REF_S / statistics.median(jobs)
