"""Order-by-order amplitude matrices against independent linear-algebra oracles."""

from __future__ import annotations

import mpmath
import numpy as np
import pytest
import scipy.linalg

from perturbseries.model import SplitSystem
from perturbseries.oracle import diagonalize
from perturbseries.series import (
    AmplitudeMatrix,
    _amplitude_blocks,
    _truncated_sum_grid,
    amplitude_order,
)

from helpers import random_hermitian, random_system, two_state
from pathsum import path_sum_amplitude


def corner_block_oracle(sys, order: int, t: float) -> np.ndarray:
    """Order-`order` amplitude via one big matrix exponential.

    Build the (order+1)-block upper-bidiagonal matrix with diag(E') in each
    diagonal block and the coupling g above; the top-right block of its
    exponential is exactly the order-`order` term of the expansion.
    """
    n = sys.dimension
    big = np.zeros(((order + 1) * n, (order + 1) * n), dtype=complex)
    diag = np.diag(sys.energies_redivided)
    for k in range(order + 1):
        big[k * n : (k + 1) * n, k * n : (k + 1) * n] = diag
    for k in range(order):
        big[k * n : (k + 1) * n, (k + 1) * n : (k + 2) * n] = sys.g
    return scipy.linalg.expm(-1j * t * big)[:n, order * n :]


def test_order_zero_is_bare_phases(rng):
    sys = random_system(rng, 4)
    t = 3.2
    got = amplitude_order(sys, 0, t).values
    expected = np.diag(np.exp(-1j * sys.energies_redivided * t))
    np.testing.assert_allclose(got, expected, atol=1e-15)


def test_order_one_two_state():
    sys = two_state(v=0.1)
    t = 2.0
    a1 = amplitude_order(sys, 1, t).values
    e0, e1 = sys.energies_redivided
    expected = 0.1 * (np.exp(-1j * e0 * t) - np.exp(-1j * e1 * t)) / (e0 - e1)
    assert a1[0, 1] == pytest.approx(expected, rel=1e-14)
    assert a1[1, 0] == pytest.approx(expected, rel=1e-14)  # symmetric coupling
    assert a1[0, 0] == 0.0 and a1[1, 1] == 0.0  # g has empty diagonal


def test_order_one_general(rng):
    sys = random_system(rng, 4)
    t = 1.7
    a1 = amplitude_order(sys, 1, t).values
    e = sys.energies_redivided
    for a in range(4):
        for b in range(4):
            if a == b:
                assert a1[a, b] == 0.0
                continue
            dd = (np.exp(-1j * e[a] * t) - np.exp(-1j * e[b] * t)) / (e[a] - e[b])
            assert a1[a, b] == pytest.approx(sys.g[a, b] * dd, rel=1e-13)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_matches_corner_block_exponential(rng, order):
    sys = random_system(rng, 3, norm=0.15)
    t = 2.7
    got = amplitude_order(sys, order, t).values
    expected = corner_block_oracle(sys, order, t)
    np.testing.assert_allclose(got, expected, rtol=1e-11, atol=1e-13)


def test_partial_sums_approach_exact_propagator(rng):
    sys = random_system(rng, 3, norm=0.05)
    t = 2.0
    exact = diagonalize(sys).propagator(t)
    total = sum(amplitude_order(sys, l, t).values for l in range(7))
    assert np.max(np.abs(total - exact)) < 1e-9


def test_truncation_error_shrinks_with_order(rng):
    sys = random_system(rng, 4, norm=0.1)
    t = 4.0
    exact = diagonalize(sys).propagator(t)
    total = np.zeros((4, 4), dtype=complex)
    errors = []
    for l in range(6):
        total += amplitude_order(sys, l, t).values
        errors.append(np.linalg.norm(total - exact))
    assert errors[-1] < errors[1] * 1e-3
    assert errors[-1] < errors[-3]


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_reversed_time_gives_adjoint(rng, order):
    sys = random_system(rng, 3)
    t = 3.9
    forward = amplitude_order(sys, order, t).values
    backward = amplitude_order(sys, order, -t).values
    np.testing.assert_allclose(backward, forward.conj().T, rtol=1e-10, atol=1e-14)


def test_coupling_power_scaling(rng):
    # Halving g must scale order l by exactly 2^-l (powers of two are exact
    # in float multiplication, so this is a bit-level structural check).
    base = random_system(rng, 3)
    scaled = SplitSystem(
        energies_redivided=base.energies_redivided,
        g=0.5 * base.g,
        basis_rotation=np.eye(3),
        energies_original=base.energies_original,
    )
    t = 2.4
    for order in range(5):
        full = amplitude_order(base, order, t).values
        half = amplitude_order(scaled, order, t).values
        np.testing.assert_allclose(half, full * 0.5**order, rtol=1e-13, atol=1e-16)


def test_entry_magnitude_bound(rng):
    # Each path contributes at most max|g|^l * |t|^l / l!, and there are at
    # most N^(l-1) paths between a fixed pair of levels.
    sys = random_system(rng, 4, norm=0.2)
    t = 6.0
    gmax = np.max(np.abs(sys.g))
    for order in range(1, 6):
        vals = amplitude_order(sys, order, t).values
        bound = 4 ** (order - 1) * gmax**order * abs(t) ** order
        for k in range(2, order + 1):
            bound /= k
        assert np.max(np.abs(vals)) <= bound * (1 + 1e-12)


def _assert_within(got, ref, rel=1e-12):
    """Entrywise |got - ref| <= rel * max(1, |ref|)."""
    bound = rel * np.maximum(1.0, np.abs(ref))
    assert np.all(np.abs(got - ref) <= bound), float(np.max(np.abs(got - ref) / bound))


def _blocks(sys, t: float, top: int = 6) -> np.ndarray:
    """Orders 0..top at time t, shape (top + 1, N, N)."""
    return _amplitude_blocks(sys, top, np.array([t]))[:, 0]


# n = 6 at one time only: its order-6 path sum walks 6^6 paths per start level
@pytest.mark.parametrize(
    ("n", "t"),
    [(n, t) for n in (2, 4) for t in (2.3, -3.1, 40.0, 200.0, -200.0)] + [(6, -200.0)],
)
def test_block_route_matches_path_sum_and_expm(rng, n, t):
    sys = random_system(rng, n, norm=0.1)
    for order, got in enumerate(_blocks(sys, t)):
        _assert_within(got, path_sum_amplitude(sys, order, t))
        _assert_within(got, corner_block_oracle(sys, order, t))


@pytest.mark.parametrize("gap", [1e-6, 1e-9])
@pytest.mark.parametrize("t", [3.0, 40.0, 200.0, -200.0])
def test_block_route_at_near_confluent_levels(rng, gap, t):
    # levels 2 and 3 sit `gap` apart at the top of the spectrum, where paths
    # bouncing between them put every node near the largest shifted energy
    energies = np.array([0.0, 0.9, 2.2, 2.2 + gap])
    sys = SplitSystem(
        energies_redivided=energies,
        g=random_hermitian(rng, 4, 0.1) * (1.0 - np.eye(4)),
        basis_rotation=np.eye(4),
        energies_original=energies,
    )
    for order, got in enumerate(_blocks(sys, t)):
        _assert_within(got, path_sum_amplitude(sys, order, t))
        _assert_within(got, corner_block_oracle(sys, order, t))


def test_block_route_relative_accuracy():
    # Two degenerate pairs, strongly coupled: paths inside a pair put every
    # node at one end of the spectrum, the worst case for truncating the
    # Taylor series, and at this t no squaring dilutes the truncation error.
    t = 0.99
    energies = np.array([0.0, 0.0, 1.0, 1.0])
    g = np.array(
        [[0, 1, 0.5, 0.3], [1, 0, 0.2, 0.4], [0.5, 0.2, 0, 1], [0.3, 0.4, 1, 0]], dtype=complex
    )
    sys = SplitSystem(
        energies_redivided=energies, g=g, basis_rotation=np.eye(4), energies_original=energies
    )
    top, n = 6, 4
    big = mpmath.zeros((top + 1) * n)
    for k in range(top + 1):
        for a in range(n):
            big[k * n + a, k * n + a] = -1j * t * energies[a]
            if k < top:
                for b in range(n):
                    big[k * n + a, (k + 1) * n + b] = -1j * t * complex(g[a, b])
    with mpmath.workdps(30):
        exact = mpmath.expm(big)
    for order, got in enumerate(_blocks(sys, t, top)):
        ref = np.array([[complex(exact[a, order * n + b]) for b in range(n)] for a in range(n)])
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("t", [0.0, 1.7, -9.3, 200.0])
def test_order_one_diagonal_is_exactly_zero(rng, t):
    sys = random_system(rng, 5)
    a1 = _amplitude_blocks(sys, 6, np.array([t]))[1, 0]
    assert np.all(np.diag(a1) == 0.0)


def test_grid_equals_sum_of_orders(rng):
    sys = random_system(rng, 4, norm=0.2)
    ts = np.array([0.0, 0.3, -1.1, 7.5, 40.0, 3.0])
    L = 4
    grid = _truncated_sum_grid(sys, L, ts)
    for i, t in enumerate(ts):
        total = sum(amplitude_order(sys, l, t).values for l in range(L + 1))
        np.testing.assert_allclose(grid[i], total, rtol=1e-13, atol=1e-15)


def test_order_validation(rng):
    sys = random_system(rng, 2)
    with pytest.raises(ValueError, match="outside supported range"):
        amplitude_order(sys, 7, 1.0)
    with pytest.raises(ValueError, match="outside supported range"):
        amplitude_order(sys, -1, 1.0)
    # the grid route that evolve and compare run keeps the same cap
    for L in (-1, 7):
        with pytest.raises(ValueError, match=f"^order {L} outside supported range 0..6$"):
            _truncated_sum_grid(sys, L, np.array([1.0]))
    with pytest.raises(TypeError, match="must be an integer"):
        amplitude_order(sys, 2.0, 1.0)
    with pytest.raises(TypeError, match="must be an integer"):
        amplitude_order(sys, True, 1.0)
    with pytest.raises(TypeError, match="^order must be an integer, got '2'$"):
        amplitude_order(sys, "2", 1.0)


def test_amplitude_blocks_reach_past_the_order_cap(rng):
    sys = random_system(rng, 2)
    with pytest.raises(ValueError):
        amplitude_order(sys, 7, 1.0)
    got = _amplitude_blocks(sys, 7, np.array([1.0]))[7, 0]
    np.testing.assert_allclose(got, corner_block_oracle(sys, 7, 1.0), rtol=1e-11, atol=1e-14)


def test_amplitude_matrix_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        AmplitudeMatrix(order=1, t=0.0, values=np.zeros((2, 3)))


def test_amplitude_matrix_refuses_a_fractional_order_and_a_non_finite_time():
    with pytest.raises(TypeError, match="^order must be an integer, got 2.9$"):
        AmplitudeMatrix(order=2.9, t=0.0, values=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="^t must be a finite number, got nan$"):
        AmplitudeMatrix(order=2, t=float("nan"), values=np.zeros((2, 2)))


def test_returned_values_are_frozen(rng):
    sys = random_system(rng, 2)
    mat = amplitude_order(sys, 2, 1.0)
    with pytest.raises(ValueError):
        mat.values[0, 0] = 0.0
