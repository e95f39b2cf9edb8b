"""Scalar divided-difference kernel: one node set per call.

The package evaluates node sets as a stack (`perturbseries.ddkernel._dd_value`);
this is the same route for one set at a time, with its own (m, m) matrix,
scaling and squarings.  It stays here as the reference that the stacked
kernel and the path-sum oracles are checked against.
"""

from __future__ import annotations

from math import factorial

import numpy as np
from numpy.typing import NDArray

from perturbseries.ddkernel import _SCALE_LIMIT, _TAYLOR_ORDER


def _dd_value(nodes: NDArray[np.float64], t: float) -> complex:
    """Divided difference of e^{-i*x*t} over the given nodes (array form)."""
    m = nodes.shape[0]
    if m == 1:
        return complex(np.exp(-1j * nodes[0] * t))

    mu = float(nodes.mean())
    centered = nodes - mu
    phase = complex(np.exp(-1j * mu * t))

    if np.ptp(centered) == 0.0:
        # All nodes equal: the confluent limit is the (m-1)-th derivative
        # of the phase function over (m-1)!.
        return phase * (-1j * t) ** (m - 1) / factorial(m - 1)

    a = np.zeros((m, m), dtype=np.complex128)
    idx = np.arange(m)
    a[idx, idx] = -1j * t * centered
    a[idx[:-1], idx[:-1] + 1] = -1j * t

    norm = float(np.max(np.sum(np.abs(a), axis=1)))
    squarings = 0
    if norm > _SCALE_LIMIT:
        squarings = int(np.ceil(np.log2(norm / _SCALE_LIMIT)))

    # Horner's rule in coefficient form, X <- A X + I/k!, on the scaled
    # transpose A = a.T / 2^squarings, lower bidiagonal: each step scales
    # row j by A's diagonal entry j, adds A's subdiagonal entry times row
    # j - 1, and adds 1/k! on the diagonal.  The divided difference is entry
    # (m, 1) of the transposed exponential.
    step = -1j * t / 2.0**squarings
    scaled = step * centered
    degree = _TAYLOR_ORDER + max(0, m - 5)
    x = np.zeros((m, m), dtype=np.complex128)
    x[idx, idx] = 1 / factorial(degree)
    for k in range(degree - 1, -1, -1):
        shifted = x[:-1] * step
        x = x * scaled[:, None]
        x[1:] += shifted
        x[idx, idx] += 1 / factorial(k)
    for _ in range(squarings):
        x = x @ x
    return phase * complex(x[m - 1, 0])
