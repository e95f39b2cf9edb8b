"""Oracle: the closed-form solution of the coupled two-level system."""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray


def two_state_closed_form(
    e1: float,
    e2: float,
    v: complex,
    t: float | NDArray[np.float64],
) -> dict[str, float | NDArray[np.float64]]:
    """Closed-form solution of the coupled two-level system.

    For H = [[e1, v], [conj(v), e2]] with e2 > e1 the exact level energies
    split symmetrically about the mean by the dressed frequency
    sqrt(4|v|^2 + (e2-e1)^2), and the 1 -> 2 transition probability is the
    textbook oscillation at that frequency.

    Returns a dict with keys "e1", "e2" (exact level energies, ascending),
    "omega" (dressed frequency), and "p12" (transition probability at t,
    scalar or array matching t).
    """
    omega0 = e2 - e1
    if omega0 <= 0:
        raise ValueError(f"requires e2 > e1, got e1={e1}, e2={e2}")
    vv = abs(v)
    omega = float(np.sqrt(4.0 * vv * vv + omega0 * omega0))
    mean = 0.5 * (e1 + e2)
    ts = np.asarray(t, dtype=np.float64)
    p = vv * vv * np.sin(omega * ts / 2.0) ** 2 / (omega / 2.0) ** 2
    if ts.ndim == 0:
        p = float(p)
    return {
        "e1": mean - 0.5 * omega,
        "e2": mean + 0.5 * omega,
        "omega": omega,
        "p12": p,
    }
