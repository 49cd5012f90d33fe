"""Reference kernels that scale timings to a fixed machine speed.

On a shared host the speed a core gives one process drifts, by up to a
factor of two over minutes, as other tenants load the machine; the drift
shows in CPU time as well as wall time. The benchmark times fixed
pure-Python kernels beside the work and multiplies each measured time by
``NOMINAL_S / kernel time at that moment``. A reported second is then a
second on a host where the kernel takes ``NOMINAL_S``.

Contention slows different instruction mixes by different amounts, so
there are two kernels: integer arithmetic, and tuple building with dict
updates. Each workload names the one that tracked it best when the
benchmark was defined (measured on a 2-core shared host: residual spread
0.035 against 0.095 for dense_lift, 0.041 against 0.093 for small_sweep,
over twelve 15-second windows whose raw spread was 0.17 and 0.31). The
scale depends only on the host's state, never on the program, so the
choice changes noise, not the comparison between two commits. The garbage
collector is paused while a kernel runs, so the program's heap cannot
change a kernel's speed. Raw times and both scales stay in every record.
"""

import gc
import statistics
import time

# Kernel time the scaled figures are expressed against. Fixed: changing it
# rescales every end-to-end time.
NOMINAL_S = 0.002

_TABLE = tuple(range(3, 64))


def _arith():
    total = 0
    table = _TABLE
    for step in range(30000):
        total += table[step % 61] * (step & 7)
    return total


def _dicts():
    counts = {}
    state = (0,) * 6
    for step in range(4500):
        raised = list(state)
        raised[step % 6] += 1
        state = tuple(raised)
        counts[state] = counts.get(state, 0j) + 1.5j
        if step % 7 == 0:
            state = (0,) * 6
    return len(counts)


KERNELS = {"arith": _arith, "dicts": _dicts}


def sample(repeats=3):
    """Median time of each kernel over ``repeats`` runs, keyed by kernel name."""
    clock = time.perf_counter
    paused = gc.isenabled()
    gc.disable()
    try:
        result = {}
        for name, kernel in KERNELS.items():
            times = []
            for _ in range(repeats):
                start = clock()
                kernel()
                times.append(clock() - start)
            result[name] = statistics.median(times)
        return result
    finally:
        if paused:
            gc.enable()


def scale(before, after, kernel):
    """Factor that converts a time measured between two samples to nominal speed."""
    return NOMINAL_S / ((before[kernel] + after[kernel]) / 2)
