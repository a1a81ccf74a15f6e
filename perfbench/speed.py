"""Machine-speed calibration for the timed figures.

The benchmark runs on shared machines whose speed drifts. On the 2-core Xeon
virtual machine where it was defined, one and the same alg1 solve took from
165 ms to 316 ms (medians of ten) within 80 seconds. Over the same time its
ratio to a fixed loop of dict and set work, timed just before and after it,
stayed within about 10 per cent. So the timed loop runs the loop below
every EVERY_S seconds of solving, and each solve's wall time is rescaled by
REFERENCE_S over the loop's time around it: the figures read as seconds at
a fixed machine speed.
"""

from __future__ import annotations

import gc
import time

# The loop's usual time on the machine named above; it only fixes the scale.
REFERENCE_S = 0.0027
EVERY_S = 0.25


def calibrate() -> float:
    """Fastest of three runs of a fixed loop of dict, set, list and sort work.

    The cyclic garbage collector is off during the loop: its collections
    would cost time in proportion to the whole live heap, so the factor
    would depend on what the package and the run hold.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            seen = {}
            order = []
            for i in range(6000):
                key = i * 7919 % 100003
                seen[key] = i
                order.append((key, i & 7))
            for key, low in order:
                if low and key in seen:
                    seen[key] += 1
            order.sort()
            best = min(best, time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return best


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to seconds at the reference speed."""
    return REFERENCE_S / ((before + after) / 2)


def scales(points: list[tuple[int, float]]) -> list[float]:
    """One factor per solve from (solves done, calibration seconds) points.

    The points start at 0 solves and end at the last solve; each solve gets
    the factor of the two calibrations around it.
    """
    out = []
    for (a, before), (b, after) in zip(points, points[1:]):
        out.extend([scale(before, after)] * (b - a))
    return out
