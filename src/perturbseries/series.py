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
from .model import SplitSystem

__all__ = [
    "DEFAULT_L_MAX",
    "AmplitudeMatrix",
    "StateVector",
    "amplitude_order",
    "evolve_truncated",
    "transition_amplitude",
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
        object.__setattr__(self, "order", int(self.order))
        object.__setattr__(self, "t", float(self.t))

    @property
    def dimension(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True)
class StateVector:
    """Expansion coefficients of a state in the working level basis."""

    coefficients: NDArray[np.complex128]

    def __post_init__(self) -> None:
        coeff = np.atleast_1d(np.array(self.coefficients, dtype=np.complex128, copy=True))
        if coeff.ndim != 1 or coeff.shape[0] < 1:
            raise ValueError(f"coefficients must be a non-empty vector, got shape {coeff.shape}")
        if not np.all(np.isfinite(coeff)):
            raise ValueError("state coefficients contain non-finite entries")
        coeff.setflags(write=False)
        object.__setattr__(self, "coefficients", coeff)

    @property
    def dimension(self) -> int:
        return int(self.coefficients.shape[0])

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coefficients))


def _amplitude_blocks(sys: SplitSystem, L: int, ts: NDArray[np.float64]) -> NDArray[np.complex128]:
    """Amplitude matrices of orders 0..L at each time, shape (L + 1, T, N, N)."""
    energies = np.asarray(sys.energies_redivided, dtype=np.float64)
    g = np.asarray(sys.g, dtype=np.complex128)
    return _dd_value(energies, g, L, np.asarray(ts, dtype=np.float64))


def _check_order(l: int, l_max: int) -> None:
    if not isinstance(l, (int, np.integer)) or isinstance(l, bool):
        raise ValueError(f"order must be an integer, got {l!r}")
    if l < 0 or l > l_max:
        raise ValueError(f"order {l} outside supported range 0..{l_max}")


def amplitude_order(
    sys: SplitSystem,
    l: int,
    t: float,
    *,
    l_max: int = DEFAULT_L_MAX,
) -> AmplitudeMatrix:
    """Order-l amplitude matrix of the evolution expansion at time t.

    Entry (a, b) sums, over all index paths a = p_1, ..., p_{l+1} = b, the
    divided difference of e^{-i*x*t} over the path energies times the
    product of coupling elements along the path.
    """
    _check_order(l, l_max)
    values = _amplitude_blocks(sys, l, np.array([float(t)]))[l, 0]
    return AmplitudeMatrix(order=l, t=float(t), values=values)


def evolve_truncated(
    sys: SplitSystem,
    psi0: StateVector,
    t: float,
    L: int,
    *,
    l_max: int = DEFAULT_L_MAX,
) -> StateVector:
    """Apply the expansion truncated at order L to an initial state."""
    _check_order(L, l_max)
    if psi0.dimension != sys.dimension:
        raise ValueError(
            f"state dimension {psi0.dimension} does not match system dimension {sys.dimension}"
        )
    if psi0.norm == 0.0:
        raise ValueError("initial state has zero norm")
    total = _truncated_sum_grid(sys, L, np.array([float(t)]))[0]
    return StateVector(coefficients=total @ psi0.coefficients)


def transition_amplitude(
    sys: SplitSystem,
    from_level: int,
    to_level: int,
    t: float,
    L: int,
    *,
    l_max: int = DEFAULT_L_MAX,
) -> complex:
    """Truncated amplitude for the transition from_level -> to_level."""
    _check_order(L, l_max)
    n = sys.dimension
    for name, idx in (("from_level", from_level), ("to_level", to_level)):
        if not 0 <= idx < n:
            raise ValueError(f"{name} {idx} outside 0..{n - 1}")
    total = _truncated_sum_grid(sys, L, np.array([float(t)]))[0]
    return complex(total[to_level, from_level])


def _truncated_sum_grid(
    sys: SplitSystem, L: int, ts: NDArray[np.float64]
) -> NDArray[np.complex128]:
    """Sum of orders 0..L over a time grid, shape (T, N, N).

    Internal helper for grid consumers (the command-line front end): all times
    go through one batched block exponential.
    """
    return _amplitude_blocks(sys, L, ts).sum(axis=0)
