"""Order-by-order evaluation of the exact time-evolution expansion.

Each order-l amplitude matrix is a sum over length-l index paths of a
coupling product times a confluent divided difference of the phase
function over the energies visited.  Summed over all paths, it is one block
of a matrix exponential: block (0, l) of exp(-i*t*M), where M is block
upper-bidiagonal with diag(E') on the diagonal and g above it.  All orders
0..L at all requested times come from one batched evaluation of that
exponential, so the cost is polynomial in the order instead of growing
with the number of paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

# The kernel's batched entry point, bound to the name the scalar kernel had
# here; perfbench/spans.py wraps ``series._dd_value`` as the ddkernel layer.
from .ddkernel import _dd_blocks as _dd_value
from .ddkernel import _finite_time, _integer
from .model import SplitSystem

__all__ = [
    "DEFAULT_L_MAX",
    "AmplitudeMatrix",
    "amplitude_order",
]

#: Highest expansion order supported by default.  Closed-form cross-checks
#: exist up to l = 4 and label catalogs up to l = 6, so this is the range
#: the implementation is validated on.
DEFAULT_L_MAX = 6


@dataclass(frozen=True)
class AmplitudeMatrix:
    """One order of the evolution expansion at a fixed time.

    ``values[a, b]`` is the order-`order` amplitude connecting initial
    level ``b`` to final level ``a`` (matrix convention: rows are final).
    """

    order: int
    t: float
    values: NDArray[np.complex128]

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.complex128, copy=True)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise ValueError(f"values must be a square matrix, got shape {vals.shape}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "order", _integer(self.order, "order must be an integer"))
        object.__setattr__(self, "t", _finite_time(self.t))

    @property
    def dimension(self) -> int:
        return int(self.values.shape[0])


def _amplitude_blocks(sys: SplitSystem, L: int, ts: NDArray[np.float64]) -> NDArray[np.complex128]:
    """Amplitude matrices of orders 0..L at each time, shape (L + 1, T, N, N)."""
    return _dd_value(sys.energies_redivided, sys.g, L, np.asarray(ts, dtype=np.float64))


def _check_order(l: int) -> int:
    l = _integer(l, "order must be an integer")
    if l < 0 or l > DEFAULT_L_MAX:
        raise ValueError(f"order {l} outside supported range 0..{DEFAULT_L_MAX}")
    return l


def amplitude_order(sys: SplitSystem, l: int, t: float) -> AmplitudeMatrix:
    """Order-l amplitude matrix of the evolution expansion at time t.

    Entry (a, b) sums, over all index paths a = p_1, ..., p_{l+1} = b, the
    divided difference of e^{-i*x*t} over the path energies times the
    product of coupling elements along the path.
    """
    l = _check_order(l)
    t = _finite_time(t)
    values = _amplitude_blocks(sys, l, np.array([t]))[l, 0]
    return AmplitudeMatrix(order=l, t=t, values=values)


def _truncated_sum_grid(
    sys: SplitSystem, L: int, ts: NDArray[np.float64]
) -> NDArray[np.complex128]:
    """Sum of orders 0..L over a time grid, shape (T, N, N).

    Internal helper for grid consumers (the command-line front end): all times
    go through one batched block exponential.
    """
    return _amplitude_blocks(sys, _check_order(L), ts).sum(axis=0)
