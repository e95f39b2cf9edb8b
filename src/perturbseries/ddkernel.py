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

`_dd_value` runs a stack of node sets at once.  It never forms the
bidiagonal matrix: a Taylor step in coefficient form scales rows by the
nodes, adds each row's neighbour and adds the coefficient on the diagonal,
three elementwise updates and no matrix product.  `_dd_blocks` is the form
the series uses: the divided differences over every index path through a
set of levels, weighted by the coupling products along the path and
summed, for all orders up to L and a grid of times at once: the same
route on the block matrix with the level energies on the diagonal and the
coupling above, its Taylor polynomial in coefficient form (no division).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import factorial, frexp, isfinite, ldexp

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

#: 1/k! for k = 0..178, the first k at which it rounds to 0.0: the
#: coefficients of `_dd_value`'s Taylor polynomial.  A higher degree would
#: only add zero coefficients.
_INV_FACTORIALS = tuple(1 / factorial(k) for k in range(179))

#: Bytes of block array that `_dd_blocks` carries per chunk of rows (one
#: row per distinct scaled step).  The chunk's block-sized buffers then stay
#: in a 2 MB L2 cache; with all 101 times in one chunk, the whole-array
#: updates ran about 10% slower than per-order updates at N = 12 and about
#: 20% slower at N = 48.
_CHUNK_BYTES = 1 << 19


def _finite_time(t: float, name: str = "t") -> float:
    """``t`` as a float; a time that is not finite is refused."""
    value = float(t)
    if not isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {t!r}")
    return value


def _integer(value: object, message: str) -> int:
    """``value`` as an int; a bool or anything but an int or numpy integer is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{message}, got {value!r}")
    return int(value)


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
        object.__setattr__(self, "t", _finite_time(self.t))

    @property
    def order(self) -> int:
        """Number of nodes m; the divided difference has order m - 1."""
        return int(self.nodes.shape[0])


def _dd_value(nodes: NDArray[np.float64], t: float) -> NDArray[np.complex128]:
    """Divided differences of e^{-i*x*t} over each row of nodes (K, m), shape (K,).

    Each row is the phase of its mean times entry (m, 1) of the exponential
    of its centered matrix, transposed to lower bidiagonal (the centered
    nodes on the diagonal, ones below).  The matrices run as one stack
    sorted by squaring count, so each squaring pass works on a trailing
    slice.

    The scaled matrix A = step (diag(centered) + subdiagonal ones), with
    step = -i*t/2^s, is never formed: Horner's rule in coefficient form,
    X <- A X + I/k!, scales the rows of X by step * centered, adds step
    times each row's upper neighbour, and adds 1/k! on the diagonal.  In
    this orientation the row shift moves whole contiguous rows.
    """
    rows, m = nodes.shape
    mu = nodes.sum(axis=1) / m
    centered = nodes - mu[:, None]
    phase = np.exp(-1j * mu * t)
    # Infinity norm of the untransposed -i*t*(diag(centered) + superdiagonal
    # ones): row i sums |t c_i| and, above the last row, |t|.
    row_sums = np.abs(t * centered)
    row_sums[:, :-1] += abs(t)
    squarings = np.ceil(np.log2(np.maximum(row_sums.max(axis=1) / _SCALE_LIMIT, 1.0)))
    order = np.argsort(squarings, kind="stable")
    squarings = squarings[order].astype(np.int64)
    step = -1j * t / 2.0**squarings

    # The row scalings and the subdiagonal spread to the shapes they
    # update, so the updates run as flat loops.
    scale = np.repeat((step[:, None] * centered[order])[:, :, None], m, axis=2)
    lower = np.repeat(step, m * (m - 1)).reshape(rows, m - 1, m)
    x = np.zeros((rows, m, m), dtype=np.complex128)
    above, below, shifted = x[:, :-1], x[:, 1:], np.empty_like(lower)
    diagonal = x.reshape(rows, m * m)[:, :: m + 1]
    degree = min(_TAYLOR_ORDER + max(0, m - 5), len(_INV_FACTORIALS) - 1)
    diagonal += _INV_FACTORIALS[degree]
    for c in _INV_FACTORIALS[degree - 1 :: -1]:
        np.multiply(above, lower, out=shifted)
        x *= scale
        below += shifted
        diagonal += c
    for first in np.searchsorted(squarings, np.arange(squarings.max(initial=0)), side="right"):
        x[first:] = x[first:] @ x[first:]
    out = phase * x[np.argsort(order), m - 1, 0]
    # All nodes equal: the confluent limit is the (m-1)-th derivative of the
    # phase function over (m-1)!.
    equal = centered.max(axis=1) == centered.min(axis=1)
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
    squaring, with the scaling chosen per time: time t is scaled to the step
    -i*t/2^s, and `_taylor` evaluates the polynomial of the step times the
    unscaled block matrix.  Block l is homogeneous of degree l in g, so only
    the diagonal part sets the scaling, and the Taylor degree grows with L so
    that block L is truncated at the same relative order as block 0.

    Times whose scaled steps agree bit for bit share one row: the Taylor
    phase runs once per row, the squaring passes square the row up to the
    count of its deepest time, and every other time of the row takes the
    row's blocks at the pass that reaches its own count.  A time belongs to
    the row keyed by the bytes of its step, so 0.0 and -0.0 stay apart.
    Doubling |t| doubles the reach and adds one squaring, so t and 2t share
    a row once t's reach exceeds a quarter, and exp(-2i*t*M) comes out as
    the square of exp(-i*t*M) bit for bit.  On a `linspace(0, T, K)` grid,
    where t_2k = 2 t_k, about half the times need their own row.  Long
    grids run in chunks of rows with at most `_CHUNK_BYTES` of blocks; a
    row never crosses a chunk.
    """
    n, times = energies.shape[0], ts.shape[0]
    mu = float(energies.mean())
    centered = energies - mu
    reach = np.abs(ts) * float(np.max(np.abs(centered)))
    squarings = np.zeros(times, dtype=np.int64)
    over = reach > _SCALE_LIMIT
    squarings[over] = np.ceil(np.log2(reach[over] / _SCALE_LIMIT))
    step = -1j * ts / 2.0**squarings
    phase = np.exp(-1j * mu * ts)[:, None, None]

    # The times of each distinct step as (squarings, index) pairs in squaring
    # order; rows sorted by the squaring count of their deepest time, so each
    # squaring pass works on a trailing slice.
    key = step.tobytes()
    shared: dict[bytes, list[tuple[int, int]]] = {}
    for k, s in enumerate(squarings.tolist()):
        shared.setdefault(key[16 * k : 16 * k + 16], []).append((s, k))
    rows = sorted((sorted(row) for row in shared.values()), key=lambda row: row[-1])

    out = np.zeros((L + 1, times, n, n), dtype=np.complex128)
    span = max(1, _CHUNK_BYTES // (16 * max(L, 1) * n * n))
    for lo in range(0, len(rows), span):
        chunk = rows[lo : lo + span]
        deepest = _slots([row[-1][1] for row in chunk])
        # The other times of a row take its blocks when the passes reach
        # their own squaring count: taps[s] lists them and their rows.
        taps: dict[int, tuple[list[int], list[int]]] = {}
        for r, row in enumerate(chunk):
            for s, k in row[:-1]:
                ks, rs = taps.setdefault(s, ([], []))
                ks.append(k)
                rs.append(r)
        passes = _centered_blocks(step[deepest], centered, squarings[deepest], g, L)
        for done, blocks in enumerate(passes):
            if done in taps:
                ks, rs = taps[done]
                out[1:, _slots(ks)] = blocks[:, _slots(rs)]
        out[1:, deepest] = blocks  # after the last pass, every row at its own depth
    out[1:] *= phase
    idx = np.arange(n)
    out[0][:, idx, idx] = np.exp(-1j * np.outer(ts, energies))
    return out


def _slots(idx: list[int]) -> slice | NDArray[np.intp]:
    """``idx`` as a slice where it counts up by one, else as an index array."""
    if idx == list(range(idx[0], idx[0] + len(idx))):
        return slice(idx[0], idx[0] + len(idx))
    return np.array(idx)


def _taylor(
    step: NDArray[np.complex128], centered: NDArray[np.float64], g: NDArray[np.complex128], L: int
) -> tuple[NDArray[np.complex128], NDArray[np.complex128]]:
    """Taylor polynomial of the mean-shifted block matrix B times each step.

    B has first block row (diag(centered), g).  Row r is the degree-(13 + L)
    polynomial of ``step[r] * B``: block 0 of its first block row as a
    vector (rows, N) and blocks 1..L as an (L, rows, N, N) array.  Horner's
    rule runs in coefficient form, X <- X B + (step^j / j!) I: per step one
    GEMM against g and one scaling by the energies for all orders, and no
    division.  Each entry sees the same floating-point operations, in the
    same order, as under a loop over the orders (`tests/test_dd_blocks.py`).
    """
    # Steps over, and B times, a power of two above the largest (within
    # 2^+-1000): exact, and the coefficients stay below 1 in any units.
    unit = ldexp(1.0, min(max(frexp(float(np.max(np.abs(step))))[1], -1000), 1000))
    step, centered = (step.view(np.float64) / unit).view(np.complex128), unit * centered
    g = (unit * np.ascontiguousarray(g).view(np.float64)).view(np.complex128)
    rows, n, degree = step.shape[0], centered.shape[0], _TAYLOR_ORDER + L
    factorials = np.array([float(factorial(j)) for j in range(degree + 1)])[:, None, None]
    # The coefficients and energies spread to the shapes they update, so
    # those updates run as flat loops: broadcasting costs a few us a call.
    coef = np.repeat(step[:, None] ** np.arange(degree + 1)[:, None, None] / factorials, n, axis=2)
    upper = np.zeros((L, rows, n, n), dtype=np.complex128)
    below = np.empty_like(upper)
    cols = np.broadcast_to(centered.astype(np.complex128), upper.shape).copy()
    diag, r0 = np.broadcast_to(centered.astype(np.complex128), (rows, n)).copy(), coef[degree].copy()
    column, head = r0[:, :, None], below[:1]
    lower, shifted = upper[:-1].reshape(-1, n), below[1:].reshape(-1, n)
    # Block l of X B is upper_{l-1} @ g + upper_l centered, block 0 being r0.
    for c in coef[degree - 1 :: -1]:
        np.multiply(column, g, out=head)
        np.matmul(lower, g, out=shifted)
        upper *= cols
        upper += below
        r0 *= diag
        r0 += c
    return r0, upper


def _centered_blocks(
    step: NDArray[np.complex128],
    centered: NDArray[np.float64],
    depth: NDArray[np.int64],
    g: NDArray[np.complex128],
    L: int,
) -> Iterator[NDArray[np.complex128]]:
    """Blocks 1..L of the first block row of the mean-shifted exponential.

    One chunk of rows, sorted by squaring depth: row r is `_taylor`'s
    polynomial of ``step[r]`` times the block matrix, squared ``depth[r]``
    times, in place.  Each pass works on the trailing slice of rows still
    short of their depth.  Yields the (L, rows, N, N) block array before the
    first pass and after every pass: after pass p, every row of depth p or
    more holds p squarings.  A squaring adds its block products with one
    batched product per left factor, in the order of the per-order loop.
    """
    r0, upper = _taylor(step, centered, g, L)
    acc, prod = np.empty_like(upper), np.empty_like(upper)
    yield upper
    for first in np.searchsorted(depth, np.arange(depth[-1]), side="right"):
        a0, blocks, square, part = r0[first:], upper[:, first:], acc[:, first:], prod[:, first:]
        # Block l of the square is a0 r_l + r_l a0 = r_l * (a0_a + a0_b) plus
        # sum_{i=1}^{l-1} r_i @ r_{l-i}, the products added in increasing i.
        np.multiply(blocks, a0[:, :, None] + a0[:, None, :], out=square)
        for i in range(1, L):
            np.matmul(blocks[i - 1], blocks[: L - i], out=part[: L - i])
            square[i:] += part[: L - i]
        blocks[...] = square
        r0[first:] = a0 * a0
        yield upper


def dd_exp(node_list: NodeList) -> complex:
    """Confluent divided difference f[x_1, ..., x_m] of f(x) = e^{-i*x*t}.

    Total function: repeated and clustered nodes are handled by the same
    matrix-exponential route, and the value is independent of node order
    (divided differences are symmetric in their nodes).
    """
    return complex(_dd_value(node_list.nodes[None, :], node_list.t)[0])
