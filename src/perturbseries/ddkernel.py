"""Confluent divided differences of the phase function f(x) = exp(-i*x*t).

Every amplitude in the truncated evolution series is a sum of coupling
products weighted by a divided difference of the phase function over the
energies visited along an index path.  Repeated energies are the rule, not
the exception (paths revisit levels, and spectra may carry exact
degeneracies with decoupled partners), so the kernel must take the
confluent limit exactly rather than by epsilon-nudging nodes apart.

The evaluation route is the matrix-function identity: for the m x m
upper-bidiagonal matrix Z with the nodes on the diagonal and ones on the
superdiagonal, the divided difference over the m nodes equals entry
(1, m) of f(Z).  Computing exp(-i*t*Z) by scaling-and-squaring therefore
yields all confluent limits for free, with no branching on node gaps.
A mean-shift is applied first (f factors into a scalar phase times the
exponential of the centered matrix), which keeps the scaled norm small.

`_dd_blocks` is the batched form the series uses: the divided differences
over every index path through a set of levels, weighted by the coupling
products along the path and summed, for all orders up to L and a grid of
times at once.  It is the same route applied to the block upper-bidiagonal
matrix with the level energies on the diagonal and the coupling above.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

__all__ = ["NodeList", "dd_exp", "dd_exp_parts"]

#: Taylor truncation order for the scaled exponential.  With the scaled
#: norm at or below 0.5 the series remainder is 0.5^14/14! ~ 7e-17, far
#: below the 1e-13 kernel budget.
_TAYLOR_ORDER = 13
_SCALE_LIMIT = 0.5


@dataclass(frozen=True)
class NodeList:
    """An ordered multiset of energy nodes together with the time argument."""

    nodes: NDArray[np.float64]
    t: float

    def __post_init__(self) -> None:
        arr = np.atleast_1d(np.array(self.nodes, dtype=np.float64, copy=True))
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise ValueError(f"nodes must be a non-empty 1-d array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("nodes contain non-finite entries")
        arr.setflags(write=False)
        object.__setattr__(self, "nodes", arr)
        object.__setattr__(self, "t", float(self.t))

    @property
    def order(self) -> int:
        """Number of nodes m; the divided difference has order m - 1."""
        return int(self.nodes.shape[0])


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
        a /= 2.0**squarings

    # Horner form of the truncated Taylor series for exp(a).
    eye = np.eye(m, dtype=np.complex128)
    result = eye.copy()
    for k in range(_TAYLOR_ORDER, 0, -1):
        result = eye + (a / k) @ result
    for _ in range(squarings):
        result = result @ result
    return phase * complex(result[0, m - 1])


def _dd_blocks(
    energies: NDArray[np.float64], g: NDArray[np.complex128], L: int, ts: NDArray[np.float64]
) -> NDArray[np.complex128]:
    """Path-summed divided differences of orders 0..L, shape (L + 1, T, N, N).

    Entry [l, k, a, b] sums, over all index paths a = p_1, ..., p_{l+1} = b,
    the divided difference of e^{-i*x*ts[k]} over the energies visited times
    the product of coupling elements g along the path.

    Block (0, l) of exp(-i*t*M), for the block upper-bidiagonal M with
    diag(energies) on the diagonal and g above it, is block l of the result
    (Van Loan 1978).  M is block Toeplitz, and block upper-triangular
    Toeplitz matrices multiply like polynomials in the block shift taken
    modulo its (L+1)-th power, so only the first block row is carried: block
    l of a product x*y is sum_{i+j=l} x_i @ y_j.  Block 0 stays diagonal and
    is carried as a vector.

    The exponential is the scalar kernel's mean-shifted Taylor scaling and
    squaring, with the scaling chosen per time.  Block l is homogeneous of
    degree l in g, so only the diagonal part sets the scaling, and the
    Taylor degree grows with L so that block L is truncated at the same
    relative order as block 0.
    """
    n, times = energies.shape[0], ts.shape[0]
    mu = float(energies.mean())
    centered = energies - mu
    reach = np.abs(ts) * float(np.max(np.abs(centered)))
    squarings = np.zeros(times, dtype=np.int64)
    over = reach > _SCALE_LIMIT
    squarings[over] = np.ceil(np.log2(reach[over] / _SCALE_LIMIT))
    # Times sorted by squaring count, so each squaring pass works on a
    # trailing slice; an increasing grid of |t| is already in this order.
    order = np.argsort(squarings, kind="stable")
    squarings, ts = squarings[order], ts[order]
    step = -1j * ts / 2.0**squarings
    diag = step[:, None] * centered

    # Horner form of the truncated Taylor series of the scaled matrix, whose
    # first block row is (diag(diag), step * g).  Highest block first: the
    # new block l reads the old blocks l and l - 1.
    out = np.zeros((L + 1, times, n, n), dtype=np.complex128)
    r0 = np.ones((times, n), dtype=np.complex128)
    for k in range(_TAYLOR_ORDER + L, 0, -1):
        for l in range(L, 0, -1):
            if l == 1:
                below = r0[:, :, None] * g
            else:
                below = (out[l - 1].reshape(-1, n) @ g).reshape(times, n, n)
            out[l] *= diag[:, None, :]
            out[l] += step[:, None, None] * below
            out[l] /= k
        r0 = 1.0 + r0 * diag / k

    for done in range(int(squarings.max(initial=0))):
        first = int(np.searchsorted(squarings, done, side="right"))
        a0, blocks = r0[first:], out[:, first:]
        # Block l of the square is sum_{i+j=l} r_i @ r_j; highest block first.
        for l in range(L, 0, -1):
            acc = a0[:, :, None] * blocks[l] + blocks[l] * a0[:, None, :]
            for i in range(1, l):
                acc += blocks[i] @ blocks[l - i]
            blocks[l] = acc
        r0[first:] = a0 * a0

    out[1:] *= np.exp(-1j * mu * ts)[:, None, None]
    idx = np.arange(n)
    out[0][:, idx, idx] = np.exp(-1j * np.outer(ts, energies))
    if not np.array_equal(order, np.arange(times)):
        out = out[:, np.argsort(order)]
    return out


def dd_exp(node_list: NodeList) -> complex:
    """Confluent divided difference f[x_1, ..., x_m] of f(x) = e^{-i*x*t}.

    Total function: repeated and clustered nodes are handled by the same
    matrix-exponential route, and the value is independent of node order
    (divided differences are symmetric in their nodes).
    """
    return _dd_value(node_list.nodes, node_list.t)


def _phi_derivatives(y: float, others: list[tuple[float, int]], up_to: int) -> list[float]:
    """Derivatives phi^(0..up_to) at y of phi(x) = prod (x - z)^(-mu_z).

    Uses the logarithmic-derivative recursion: with L = log(phi),
    phi^(n) = sum_{k<n} C(n-1, k) phi^(k) L^(n-k), and
    L^(m)(y) = -sum_z mu_z * (-1)^(m-1) * (m-1)! / (y - z)^m.
    """
    phi0 = 1.0
    for z, mult in others:
        phi0 *= (y - z) ** (-mult)
    log_derivs = [0.0]  # placeholder for m = 0 (unused)
    for m in range(1, up_to + 1):
        val = 0.0
        sign = -1.0 if (m - 1) % 2 else 1.0
        for z, mult in others:
            val -= mult * sign * factorial(m - 1) / (y - z) ** m
        log_derivs.append(val)
    phi = [phi0]
    for n in range(1, up_to + 1):
        acc = 0.0
        for k in range(n):
            acc += comb(n - 1, k) * phi[k] * log_derivs[n - k]
        phi.append(acc)
    return phi


def dd_exp_parts(nodes: NDArray[np.float64] | Sequence[float]) -> list[tuple[int, float, float]]:
    """Exact decomposition of the divided difference into t-power terms.

    Returns triples (p, y, a) such that for every t

        dd_exp(nodes, t) = sum over triples of  a * (-i*t)^p * e^{-i*y*t}.

    This is the Hermite partial-fraction form of the divided difference:
    each distinct node y of multiplicity mu contributes powers p < mu with
    real coefficients built from derivatives of prod (x - z)^(-mu_z).

    The coefficients grow like inverse powers of the node gaps, so this
    route is for structural analysis (splitting amplitudes by t-power),
    not for evaluation at clustered nodes — dd_exp handles that regime.
    """
    arr = np.atleast_1d(np.asarray(nodes, dtype=np.float64))
    values: list[float] = []
    counts: list[int] = []
    for x in arr:
        x = float(x)
        if values and x == values[-1]:
            counts[-1] += 1
            continue
        # group by exact value; nodes come from a finite energy alphabet
        found = False
        for i, v in enumerate(values):
            if x == v:
                counts[i] += 1
                found = True
                break
        if not found:
            values.append(x)
            counts.append(1)

    parts: list[tuple[int, float, float]] = []
    for i, (y, mult) in enumerate(zip(values, counts)):
        others = [(v, c) for j, (v, c) in enumerate(zip(values, counts)) if j != i]
        phi = _phi_derivatives(y, others, mult - 1)
        for p in range(mult):
            coeff = phi[mult - 1 - p] / (factorial(p) * factorial(mult - 1 - p))
            parts.append((p, y, coeff))
    return parts
