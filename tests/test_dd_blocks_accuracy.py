"""The block kernel against independent values: mpmath's expm, exact zeros, closed forms.

`tests/test_dd_blocks.py` pins the kernel to a loop oracle that shares its
arithmetic.  The checks here share none of it: a 40-digit exponential of
the block matrix where squarings run and the Taylor coefficients are far
from small, the exact values at t = 0, the closed form of a spectrum with
no spread, and the bits under a change of units by a power of two.
"""

from __future__ import annotations

import warnings
from math import factorial

import mpmath
import numpy as np
import pytest

from perturbseries.ddkernel import _dd_blocks
from perturbseries.model import SplitSystem
from perturbseries.series import _amplitude_blocks

from helpers import random_hermitian

#: Levels 1e-9 apart: one pair alone (no squaring at |t| <= 400, so the
#: Taylor polynomial runs at the whole step t, with t^j / j! up to 5e29 before
#: rescaling), two pairs at either end (six to ten squarings), and a triple
#: next to a far level.
CLUSTERS = {
    "pair": np.array([-5e-10, 5e-10]),
    "two-pairs": np.array([-0.6, -0.6 + 1e-9, 0.7, 0.7 + 1e-9]),
    "triple-and-far": np.array([-1.1, 0.3, 0.3 + 1e-9, 0.3 + 2e-9]),
}


def _mp_blocks(energies, g, L, t):
    """Blocks 0..L of the first block row of exp(-i*t*M) at 40 digits."""
    n = energies.shape[0]
    with mpmath.workdps(40):
        big = mpmath.zeros((L + 1) * n)
        for k in range(L + 1):
            for a in range(n):
                big[k * n + a, k * n + a] = -1j * mpmath.mpf(t) * mpmath.mpf(float(energies[a]))
                for b in range(n if k < L else 0):
                    z = complex(g[a, b])
                    big[k * n + a, (k + 1) * n + b] = -1j * mpmath.mpf(t) * mpmath.mpc(z.real, z.imag)
        exact = mpmath.expm(big)
        return np.array(
            [[[complex(exact[a, l * n + b]) for b in range(n)] for a in range(n)] for l in range(L + 1)]
        )


@pytest.mark.parametrize("L", [2, 4])
@pytest.mark.parametrize("cluster", CLUSTERS)
def test_blocks_against_mpmath_expm(rng, cluster, L):
    # Rounding t*x costs about eps*|t|*spread in each phase, so the bound
    # grows with it, as in the stacked kernel's mpmath test.
    energies = CLUSTERS[cluster]
    n = energies.shape[0]
    g = random_hermitian(rng, n, 0.3)
    ts = np.array([40.0, -40.0, 400.0, -400.0])
    got = _dd_blocks(energies, g, L, ts)
    for k, t in enumerate(ts.tolist()):
        ref = _mp_blocks(energies, g, L, t)
        bound = 1e-13 * (1.0 + abs(t) * float(np.ptp(energies)))
        for l in range(L + 1):
            err = float(np.max(np.abs(got[l, k] - ref[l])))
            assert err <= bound * float(np.max(np.abs(ref[l]))), (cluster, t, l)


def _assert_identity_then_zeros(blocks):
    n = blocks.shape[-1]
    assert np.array_equal(blocks[0], np.broadcast_to(np.eye(n), blocks[0].shape))
    assert not np.any(blocks[1:])


def _assert_tiny_past_block_zero(blocks):
    # t = 2.2e-311 is subnormal, and so are the step and its powers.
    assert np.all(np.isfinite(blocks))
    assert np.max(np.abs(blocks[1:]), initial=0.0) <= 1e-300


@pytest.mark.parametrize("L", range(7))
def test_blocks_are_exact_at_time_zero(rng, L):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in range(1, 9):
            e = np.sort(rng.uniform(-3.0, 3.0, size=n))
            g = random_hermitian(rng, n, 0.3)
            _assert_identity_then_zeros(_dd_blocks(e, g, L, np.array([0.0, -0.0])))
            _assert_tiny_past_block_zero(_dd_blocks(e, g, L, np.array([2.2e-311])))


def _no_spread(n, g):
    energies = np.full(n, 0.25)
    return SplitSystem(
        energies_redivided=energies, g=g, basis_rotation=np.eye(n), energies_original=energies
    )


@pytest.mark.parametrize("n", [1, 3])
def test_blocks_without_spread(rng, n):
    # All levels equal: block l is exactly e^{-iEt} (-i t g)^l / l!, with no
    # squaring, so the step is t itself at every time, 2^66 included.
    g = random_hermitian(rng, n, 0.3)
    ts = np.array([0.0, -0.0, 1.5, -40.0, 2.0**66])
    system = _no_spread(n, g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        blocks = _amplitude_blocks(system, 6, ts)
        _assert_identity_then_zeros(blocks[:, :2])
        _assert_tiny_past_block_zero(_amplitude_blocks(system, 6, np.array([2.2e-311])))
    for k, t in enumerate(ts.tolist()):
        power = np.eye(n, dtype=np.complex128)
        for l in range(7):
            ref = np.exp(-1j * 0.25 * t) * power / factorial(l)
            atol = 1e-14 * float(np.max(np.abs(ref)))
            np.testing.assert_allclose(blocks[l, k], ref, rtol=1e-14, atol=atol)
            power = power @ (-1j * t * g)


@pytest.mark.parametrize("k", [-70, -3, 5, 70])
def test_a_power_of_two_change_of_units_changes_no_bit(rng, k):
    # Energies and coupling times 2^k, times over 2^k: every step and every
    # product of step and matrix is the same number, so are the blocks.
    e = np.sort(rng.uniform(-2.0, 2.0, size=5))
    g = random_hermitian(rng, 5, 0.3)
    ts = np.array([0.0, 0.3, -2.7, 40.0, 400.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g_k = np.ldexp(g.view(np.float64), k).view(np.complex128)
        scaled = _dd_blocks(np.ldexp(e, k), g_k, 6, np.ldexp(ts, -k))
    assert scaled.tobytes() == _dd_blocks(e, g, 6, ts).tobytes()
