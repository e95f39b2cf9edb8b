"""The path-summed block kernel as a loop over the orders: the bit-level oracle.

This is `perturbseries.ddkernel._dd_blocks` with each Taylor step and each
squaring written out order by order.  Each Taylor step walks the orders
from L down to 1 with a few numpy calls per order, and each squaring builds
block l as its own sum.  The oracle takes the block matrix as it is, while
the kernel rescales it and the steps by a power of two.  The batched kernel
must reproduce the oracle bit for bit (`tests/test_dd_blocks.py`), which
pins that every entry still sees the same floating-point operations in the
same order, and that the rescaling is exact.
"""

from __future__ import annotations

from math import factorial

import numpy as np
from numpy.typing import NDArray

from perturbseries.ddkernel import _SCALE_LIMIT, _TAYLOR_ORDER


def dd_blocks_loop(
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

    The exponential is a mean-shifted Taylor scaling and squaring, with the
    scaling chosen per time: time t is scaled to the step -i*t/2^s.  Block l
    is homogeneous of degree l in g, so only the diagonal part sets the
    scaling, and the Taylor degree grows with L so that block L is truncated
    at the same relative order as block 0.  The Taylor polynomial of step * B,
    for the mean-shifted block matrix B, runs in coefficient form:
    X <- X B + (step^j / j!) I.
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
    degree = _TAYLOR_ORDER + L
    factorials = np.array([float(factorial(j)) for j in range(degree + 1)])
    coef = step[:, None] ** np.arange(degree + 1) / factorials

    # Horner's rule in coefficient form.  The first block row of X B is
    # (r0 * centered, r0 g + block 1 * centered, ..., block l - 1 @ g +
    # block l * centered, ...), the centered energies scaling the columns.
    # Highest block first: the new block l reads the old blocks l and l - 1.
    out = np.zeros((L + 1, times, n, n), dtype=np.complex128)
    r0 = np.repeat(coef[:, degree, None], n, axis=1)
    for j in range(degree - 1, -1, -1):
        for l in range(L, 0, -1):
            if l == 1:
                below = r0[:, :, None] * g
            else:
                below = (out[l - 1].reshape(-1, n) @ g).reshape(times, n, n)
            out[l] *= centered
            out[l] += below
        r0 = r0 * centered + coef[:, j, None]

    for done in range(int(squarings.max(initial=0))):
        first = int(np.searchsorted(squarings, done, side="right"))
        a0, blocks = r0[first:], out[:, first:]
        # Block l of the square is sum_{i+j=l} r_i @ r_j, whose two terms
        # with block 0 scale entry (a, b) of r_l by a0_a + a0_b; highest
        # block first.
        # (Named, so that numpy cannot reuse the sum as the output of the
        # product, which would swap the factors' order.)
        pair = a0[:, :, None] + a0[:, None, :]
        for l in range(L, 0, -1):
            acc = blocks[l] * pair
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
