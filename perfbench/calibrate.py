"""Host-speed calibration: a fixed unit of work timed next to every job.

The benchmark runs on a few cores of a shared host whose speed swings by
2x and more for seconds to minutes at a time.  Such a swing slows the
calibration unit much as it slows the job timed next to it, so a job's wall
time times REFERENCE_UNIT_S over the local unit time is its wall time at
the reference speed, and those times spread far less from run to run than
the raw ones.  The match is not exact: in slow periods the short CLI jobs of
reports-mixed slow down somewhat more than the unit.

The unit is the same kind of work as the package's hot paths: small complex
matrix products driven from a Python loop, plus scalar Python arithmetic.
It shares no code with the package, so a change to the package moves the
normalized times and leaves the unit alone.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Typical seconds of one unit on the reference host (Intel Xeon, 2 vCPU,
#: Python 3.11.7, numpy 2.4.6, one BLAS thread), whose unit time ranged from
#: 66 to 156 microseconds as its load changed.  Normalized times are seconds
#: on that host at that speed.
REFERENCE_UNIT_S = 1.07e-4

_SIZES = (3, 5)
_TAYLOR = 8
_MATRICES = {
    m: (np.random.default_rng(m).normal(size=(m, m)) * (0.5j / m)).astype(np.complex128) for m in _SIZES
}
_EYES = {m: np.eye(m, dtype=np.complex128) for m in _SIZES}


def unit() -> complex:
    """One unit of work: Horner Taylor exponentials of two small matrices."""
    acc = 0j
    for m in _SIZES:
        a, eye = _MATRICES[m], _EYES[m]
        result = eye.copy()
        for k in range(_TAYLOR, 0, -1):
            result = eye + (a / k) @ result
        acc += complex(result[0, m - 1])
    x = 0.0
    for i in range(40):
        x += (i + acc.real) * 0.5
    return acc + x


def run_slice(seconds: float, min_units: int = 2) -> tuple[int, float]:
    """Whole units until `seconds` have passed (at least min_units): (units, seconds)."""
    start = perf_counter()
    units = 0
    while True:
        unit()
        units += 1
        elapsed = perf_counter() - start
        if units >= min_units and elapsed >= seconds:
            return units, elapsed
