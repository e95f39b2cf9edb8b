"""Confluent divided differences of e^{-i*x*t}: values, limits, t-power parts."""

from __future__ import annotations

import cmath
import math

import mpmath
import numpy as np
import pytest
import scipy.linalg

from perturbseries.ddkernel import NodeList, dd_exp, dd_exp_parts


def naive_partial_fraction(nodes, t):
    """Textbook formula for pairwise-distinct nodes; unstable when clustered."""
    total = 0.0 + 0.0j
    for i, x in enumerate(nodes):
        denom = 1.0
        for j, y in enumerate(nodes):
            if j != i:
                denom *= x - y
        total += cmath.exp(-1j * x * t) / denom
    return total


def test_single_node_is_the_phase():
    assert dd_exp(NodeList(nodes=[1.3], t=2.0)) == pytest.approx(
        cmath.exp(-2.6j), abs=1e-15
    )


def test_two_distinct_nodes():
    x, y, t = 0.4, 1.9, 0.7
    expected = (cmath.exp(-1j * x * t) - cmath.exp(-1j * y * t)) / (x - y)
    assert dd_exp(NodeList(nodes=[x, y], t=t)) == pytest.approx(expected, rel=1e-14)


def test_repeated_pair_is_the_derivative():
    x, t = 0.8, 3.1
    expected = -1j * t * cmath.exp(-1j * x * t)
    assert dd_exp(NodeList(nodes=[x, x], t=t)) == pytest.approx(expected, rel=1e-13)


def test_three_distinct_nodes_partial_fraction():
    nodes = [0.1, 0.9, 2.0]
    t = 1.6
    assert dd_exp(NodeList(nodes=nodes, t=t)) == pytest.approx(
        naive_partial_fraction(nodes, t), rel=1e-13
    )


@pytest.mark.parametrize("m", [2, 3, 5, 7])
def test_permutation_invariance(rng, m):
    nodes = rng.uniform(-2.0, 2.0, size=m)
    t = 4.3
    ref = dd_exp(NodeList(nodes=nodes, t=t))
    for _ in range(4):
        perm = rng.permutation(nodes)
        assert dd_exp(NodeList(nodes=perm, t=t)) == pytest.approx(ref, rel=1e-12)


def test_leibniz_recurrence(rng):
    # dd over all nodes equals (dd(drop-last) - dd(drop-first)) / (x0 - xm).
    for m in (3, 4, 6):
        nodes = np.sort(rng.uniform(0.0, 3.0, size=m))
        nodes[-1] = nodes[0] + max(nodes[-1] - nodes[0], 0.5)  # endpoints distinct
        t = 2.2
        whole = dd_exp(NodeList(nodes=nodes, t=t))
        front = dd_exp(NodeList(nodes=nodes[:-1], t=t))
        back = dd_exp(NodeList(nodes=nodes[1:], t=t))
        assert whole == pytest.approx(
            (front - back) / (nodes[0] - nodes[-1]), rel=1e-11, abs=1e-15
        )


def test_matches_expm_of_bidiagonal(rng):
    # Independent route: entry (0, m-1) of expm(-i t Z) with the nodes on
    # the diagonal of Z and ones above it.
    for m in (2, 4, 6):
        nodes = rng.uniform(-1.5, 1.5, size=m)
        nodes[1] = nodes[0]  # force one exact tie
        t = 5.7
        z = np.diag(nodes).astype(complex)
        z[np.arange(m - 1), np.arange(1, m)] = 1.0
        expected = scipy.linalg.expm(-1j * t * z)[0, m - 1]
        assert dd_exp(NodeList(nodes=nodes, t=t)) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_all_equal_nodes_closed_form(m):
    x, t = -4.0, 11.0
    expected = (-1j * t) ** (m - 1) / math.factorial(m - 1) * cmath.exp(-1j * x * t)
    got = dd_exp(NodeList(nodes=[x] * m, t=t))
    assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("t", [-100.0, -1.0, 0.5, 100.0])
@pytest.mark.parametrize("e", [-10.0, 0.0, 3.0, 10.0])
def test_near_confluent_pair(t, e):
    eps = 1e-8
    got = dd_exp(NodeList(nodes=[e, e + eps], t=t))
    target = -1j * t * cmath.exp(-1j * e * t)
    assert abs(got - target) <= 1e-6 * abs(target)


def test_clustered_nodes_against_mpmath():
    # The naive formula loses ~10 digits here; a 50-digit evaluation of it
    # provides the reference the double-precision kernel must hit.
    nodes = [1.0, 1.0 + 3e-11, 1.0 + 7e-11, 2.0]
    t = 50.0
    with mpmath.workdps(50):
        total = mpmath.mpc(0)
        for i, x in enumerate(nodes):
            x = mpmath.mpf(x)
            denom = mpmath.mpf(1)
            for j, y in enumerate(nodes):
                if j != i:
                    denom *= x - mpmath.mpf(y)
            total += mpmath.exp(-1j * x * t) / denom
        expected = complex(total)
    got = dd_exp(NodeList(nodes=nodes, t=t))
    assert got == pytest.approx(expected, rel=1e-10)


def test_magnitude_bound(rng):
    # |f[x_1..x_m]| <= max|f^(m-1)|/(m-1)! = |t|^(m-1)/(m-1)! for real nodes.
    for m in (2, 3, 5, 7):
        nodes = rng.uniform(-3.0, 3.0, size=m)
        t = 7.9
        bound = abs(t) ** (m - 1) / math.factorial(m - 1)
        assert abs(dd_exp(NodeList(nodes=nodes, t=t))) <= bound * (1 + 1e-12)


def test_nodelist_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError, match="non-empty"):
        NodeList(nodes=[], t=1.0)
    with pytest.raises(ValueError, match="non-finite"):
        NodeList(nodes=[0.0, np.nan], t=1.0)


def test_nodelist_order():
    assert NodeList(nodes=[0.0, 1.0, 1.0], t=0.5).order == 3


# ---------------------------------------------------------------------------
# dd_exp_parts: the exact t-power decomposition


def test_parts_of_distinct_nodes_are_simple_poles():
    nodes = [0.2, 1.0, 2.5]
    parts = dd_exp_parts(nodes)
    assert sorted(p for p, _, _ in parts) == [0, 0, 0]
    for p, y, a in parts:
        denom = np.prod([y - z for z in nodes if z != y])
        assert a == pytest.approx(1.0 / denom, rel=1e-14)


def test_parts_of_confluent_pair_hand_derived():
    x, y = 0.7, 2.1
    parts = {(p, node): a for p, node, a in dd_exp_parts([x, x, y])}
    d = x - y
    assert parts[(1, x)] == pytest.approx(1.0 / d, rel=1e-14)
    assert parts[(0, x)] == pytest.approx(-1.0 / d**2, rel=1e-14)
    assert parts[(0, y)] == pytest.approx(1.0 / d**2, rel=1e-14)


def test_parts_reconstruct_the_divided_difference(rng):
    alphabet = np.array([0.3, 0.9, 1.7])
    for _ in range(6):
        m = int(rng.integers(2, 7))
        nodes = alphabet[rng.integers(0, 3, size=m)]
        for t in (0.8, 13.0):
            total = sum(
                a * (-1j * t) ** p * cmath.exp(-1j * y * t)
                for p, y, a in dd_exp_parts(nodes)
            )
            assert total == pytest.approx(
                dd_exp(NodeList(nodes=nodes, t=t)), rel=1e-11, abs=1e-13
            )


def test_parts_count_matches_multiplicities():
    parts = dd_exp_parts([1.0, 1.0, 1.0, 4.0, 4.0])
    powers = sorted((p, y) for p, y, _ in parts)
    assert powers == [(0, 1.0), (0, 4.0), (1, 1.0), (1, 4.0), (2, 1.0)]


def test_constant_function_annihilation(rng):
    # At t=0 the function is constant 1, whose m>=2 divided difference is 0,
    # so the p=0 coefficients of every decomposition must sum to zero.
    alphabet = np.array([-0.4, 0.6, 2.2, 2.9])
    for _ in range(5):
        m = int(rng.integers(2, 8))
        nodes = alphabet[rng.integers(0, 4, size=m)]
        zero_order = sum(a for p, _, a in dd_exp_parts(nodes) if p == 0)
        assert zero_order == pytest.approx(0.0, abs=1e-10)


def test_parts_grouping_is_by_exact_value():
    # 1e-9 apart is *distinct* for the decomposition (exact-value grouping);
    # the coefficients blow up accordingly, and that is the documented
    # contract: this route is structural, not a clustered-node evaluator.
    parts = dd_exp_parts([1.0, 1.0 + 1e-9])
    assert len(parts) == 2
    assert all(p == 0 for p, _, _ in parts)
    assert abs(parts[0][2]) == pytest.approx(1e9, rel=1e-5)
