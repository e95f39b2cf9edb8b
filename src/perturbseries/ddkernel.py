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

`_dd_value` runs a stack of node sets at once.  `_dd_blocks` is the form
the series uses: the divided differences over every index path through a
set of levels, weighted by the coupling products along the path and
summed, for all orders up to L and a grid of times at once.  It is the
same route applied to the block upper-bidiagonal matrix with the level
energies on the diagonal and the coupling above.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np
from numpy.typing import NDArray

__all__ = ["NodeList", "dd_exp"]

#: Taylor truncation order for the scaled exponential of five or fewer
#: nodes.  With the scaled norm at or below 0.5 the series remainder is
#: 0.5^14/14! ~ 7e-17, far below the 1e-13 kernel budget.  The divided
#: difference over m nodes is itself of order m - 1 in the scaled matrix,
#: so `_dd_value` adds one degree per node beyond five to keep its relative
#: truncation error where it is at five nodes.
_TAYLOR_ORDER = 13
_SCALE_LIMIT = 0.5

#: Bytes of block array that `_dd_blocks` carries per chunk of times.  The
#: chunk's block-sized buffers then stay in a 2 MB L2 cache; with all 101
#: times in one chunk, the whole-array updates ran about 10% slower than
#: per-order updates at N = 12 and about 20% slower at N = 48.
_CHUNK_BYTES = 1 << 19


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


def _dd_value(nodes: NDArray[np.float64], t: float) -> NDArray[np.complex128]:
    """Divided differences of e^{-i*x*t} over each row of nodes (K, m), shape (K,).

    Each row is the phase of its mean times entry (1, m) of the exponential
    of its centered bidiagonal matrix.  The matrices run as one stack sorted
    by squaring count, so each squaring pass works on a trailing slice.
    """
    m = nodes.shape[1]
    mu = nodes.mean(axis=1)
    centered = nodes - mu[:, None]
    phase = np.exp(-1j * mu * t)
    a = -1j * t * (centered[:, :, None] * np.eye(m) + np.eye(m, k=1))
    norm = np.max(np.sum(np.abs(a), axis=2), axis=1)
    squarings = np.ceil(np.log2(np.maximum(norm / _SCALE_LIMIT, 1.0))).astype(np.int64)
    order = np.argsort(squarings, kind="stable")
    a, squarings = a[order] / (2.0 ** squarings[order])[:, None, None], squarings[order]

    # Horner form of the truncated Taylor series for exp(a).
    eye = np.eye(m, dtype=np.complex128)
    result = eye
    for k in range(_TAYLOR_ORDER + max(0, m - 5), 0, -1):
        result = eye + (a / k) @ result
    for first in np.searchsorted(squarings, np.arange(squarings.max(initial=0)), side="right"):
        result[first:] = result[first:] @ result[first:]
    out = phase * result[np.argsort(order), 0, m - 1]
    # All nodes equal: the confluent limit is the (m-1)-th derivative of the
    # phase function over (m-1)!.
    equal = np.ptp(centered, axis=1) == 0.0
    out[equal] = phase[equal] * (-1j * t) ** (m - 1) / factorial(m - 1)
    return out


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

    The exponential is `_dd_value`'s mean-shifted Taylor scaling and
    squaring, with the scaling chosen per time.  Block l is homogeneous of
    degree l in g, so only the diagonal part sets the scaling, and the
    Taylor degree grows with L so that block L is truncated at the same
    relative order as block 0.  Times are independent, so long grids run in
    chunks of at most `_CHUNK_BYTES` of blocks.
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
    phase = np.exp(-1j * mu * ts)[:, None, None]

    out = np.zeros((L + 1, times, n, n), dtype=np.complex128)
    span = max(1, _CHUNK_BYTES // (16 * max(L, 1) * n * n))
    for lo in range(0, times, span):
        chunk = slice(lo, lo + span)
        blocks = _centered_blocks(diag[chunk], step[chunk], squarings[chunk], g, L)
        np.multiply(blocks, phase[chunk], out=out[1:, chunk])
    idx = np.arange(n)
    out[0][:, idx, idx] = np.exp(-1j * np.outer(ts, energies))
    if not np.array_equal(order, np.arange(times)):
        out = out[:, np.argsort(order)]
    return out


def _centered_blocks(
    diag: NDArray[np.complex128],
    step: NDArray[np.complex128],
    squarings: NDArray[np.int64],
    g: NDArray[np.complex128],
    L: int,
) -> NDArray[np.complex128]:
    """Blocks 1..L of the first block row of the mean-shifted exponential.

    One chunk of times, sorted by squaring count: ``diag[k]`` is the scaled
    centered diagonal and ``step[k]`` the scaled coupling factor at time k.
    A Taylor step updates all L blocks with a fixed number of whole-array
    operations, whatever L is, and a squaring adds its block products with
    one batched product per left factor.  Each entry still goes through the
    same floating-point operations, in the same order, as under a loop over
    the orders (`tests/test_dd_blocks.py` holds the two equal bit for bit).
    """
    times, n = diag.shape
    upper = np.zeros((L, times, n, n), dtype=np.complex128)
    below = np.empty_like(upper)
    # diag and step spread over each N x N block, so the per-step products
    # run as flat loops over the block array.
    cols = np.broadcast_to(diag[:, None, :], (times, n, n)).copy()
    steps = np.broadcast_to(step[:, None, None], (times, n, n)).copy()
    r0 = np.ones((times, n), dtype=np.complex128)

    # Horner form of the truncated Taylor series of the scaled matrix, whose
    # first block row is (diag(diag), step * g): new block l is
    # (old block l * diag + step * old block l - 1 @ g) / k.
    for k in range(_TAYLOR_ORDER + L, 0, -1):
        np.multiply(r0[:, :, None], g, out=below[:1])
        np.matmul(upper[:-1].reshape(-1, n), g, out=below[1:].reshape(-1, n))
        upper *= cols
        below *= steps
        upper += below
        upper /= k
        r0 = 1.0 + r0 * diag / k

    acc = np.empty_like(upper)
    passes = np.arange(squarings.max(initial=0))
    for first in np.searchsorted(squarings, passes, side="right"):
        a0, blocks, square, prod = r0[first:], upper[:, first:], acc[:, first:], below[:, first:]
        # Block l of the square is a0 r_l + r_l a0 + sum_{i=1}^{l-1} r_i @ r_{l-i},
        # the products added in increasing i.
        np.multiply(a0[:, :, None], blocks, out=square)
        np.multiply(blocks, a0[:, None, :], out=prod)
        square += prod
        for i in range(1, L):
            np.matmul(blocks[i - 1], blocks[: L - i], out=prod[: L - i])
            square[i:] += prod[: L - i]
        blocks[...] = square
        r0[first:] = a0 * a0
    return upper


def dd_exp(node_list: NodeList) -> complex:
    """Confluent divided difference f[x_1, ..., x_m] of f(x) = e^{-i*x*t}.

    Total function: repeated and clustered nodes are handled by the same
    matrix-exponential route, and the value is independent of node order
    (divided differences are symmetric in their nodes).
    """
    return complex(_dd_value(node_list.nodes[None, :], node_list.t)[0])
