"""Confluent divided differences of e^{-i*x*t}: values, limits, t-power parts."""

from __future__ import annotations

import cmath
import math

import mpmath
import numpy as np
import pytest
import scipy.linalg

from perturbseries.ddkernel import NodeList, _dd_value, dd_exp

from dd_scalar import _dd_value as scalar_dd_value
from tpower_paths import dd_exp_parts


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


@pytest.mark.parametrize("m", [5, 7, 9, 12])
def test_relative_accuracy_grows_no_worse_with_node_count(m):
    # The entry over m nodes is of order m - 1 in the scaled matrix, so a
    # fixed Taylor degree loses relative accuracy as nodes are added (it
    # reached 1.7e-6 at 12 nodes with degree 13).
    rng = np.random.default_rng(m)
    for _ in range(3):
        nodes = rng.uniform(-1.0, 1.0, size=m)
        for t in (0.05, 0.4, 1.3, 3.0):
            with mpmath.workdps(80):
                total = mpmath.mpc(0)
                for j, x in enumerate(nodes):
                    denom = mpmath.mpf(1)
                    for i, y in enumerate(nodes):
                        if i != j:
                            denom *= mpmath.mpf(float(x)) - mpmath.mpf(float(y))
                    total += mpmath.exp(-1j * mpmath.mpf(float(x)) * t) / denom
                expected = complex(total)
            got = dd_exp(NodeList(nodes, t))
            assert abs(got - expected) <= 1e-13 * abs(expected)


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


# ---------------------------------------------------------------------------
# The stacked kernel: many node sets of one size in one call


def _mixed_stack(rng, m):
    """Rows of m sorted nodes: all equal (the closed-form branch), clusters
    with gaps from 1e-10 to 1e-3, and spreads from 0.01 to 6, which need
    from zero to several squarings."""
    rows = [np.full(m, rng.uniform(-3.0, 3.0)) for _ in range(2)]
    for gap in (1e-10, 1e-8, 1e-5, 1e-3):
        rows.append(rng.uniform(-3.0, 3.0) + gap * np.arange(m))
    for width in (0.01, 0.5, 3.0, 6.0):
        rows.append(np.sort(rng.uniform(-width, width, size=m)))
    return rng.permutation(np.array(rows))


def _mp_divided_difference(nodes, t):
    """e^{-i*x*t} over the nodes at 120 digits: the closed form when all
    nodes are equal, else the partial-fraction formula, whose cancellation
    at gaps of 1e-10 costs at most 60 of those digits."""
    m = len(nodes)
    with mpmath.workdps(120):
        xs = [mpmath.mpf(float(x)) for x in nodes]
        if len(set(xs)) == 1:
            value = (-1j * mpmath.mpf(t)) ** (m - 1) / math.factorial(m - 1) * mpmath.exp(-1j * xs[0] * t)
        else:
            value = mpmath.mpc(0)
            for i, x in enumerate(xs):
                denom = mpmath.mpf(1)
                for j, y in enumerate(xs):
                    if j != i:
                        denom *= x - y
                value += mpmath.exp(-1j * x * t) / denom
        return complex(value)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_stacked_kernel_matches_the_scalar_kernel(m):
    rng = np.random.default_rng(100 + m)
    for t in (0.0, 0.3, -2.0, 37.0, -400.0):
        nodes = _mixed_stack(rng, m)
        got = _dd_value(nodes, t)
        ref = np.array([scalar_dd_value(row, t) for row in nodes])
        assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref)), t


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_stacked_kernel_against_mpmath(m):
    # Rounding x*t costs about eps*|x*t| in each phase, and spread nodes
    # whose phases nearly agree cancel in the value, so the bound grows with
    # the norm |t|(1 + max|x|) of the matrix that is exponentiated.  Over 20
    # seeds of these stacks the error stayed below 3e-14 of it.
    rng = np.random.default_rng(200 + m)
    for t in (0.7, -13.0, 400.0):
        nodes = _mixed_stack(rng, m)
        got = _dd_value(nodes, t)
        for row, value in zip(nodes, got):
            expected = _mp_divided_difference(row, t)
            scale = 1.0 + abs(t) * (1.0 + float(np.max(np.abs(row))))
            assert abs(value - expected) <= 1e-13 * scale * abs(expected), (row, t)


def _squarings(nodes, t):
    """The squaring count of each row, from the infinity norm of the full
    matrix -i t (diag(centered) + superdiagonal ones)."""
    out = []
    for row in nodes:
        centered = row - row.mean()
        m = row.shape[0]
        a = -1j * t * (np.diag(centered) + np.eye(m, k=1))
        norm = np.max(np.sum(np.abs(a), axis=1))
        out.append(int(np.ceil(np.log2(max(norm / 0.5, 1.0)))))
    return out


@pytest.mark.parametrize("m", [1, 5])
def test_empty_stack(m):
    got = _dd_value(np.empty((0, m)), 1.5)
    assert got.shape == (0,) and got.dtype == np.complex128


def test_single_node_rows_are_the_phases():
    nodes = np.array([[-3.0], [0.0], [0.7], [250.0]])
    for t in (0.0, 1.3, -40.0):
        assert np.array_equal(_dd_value(nodes, t), np.exp(-1j * nodes[:, 0] * t))


@pytest.mark.parametrize("m", [2, 4, 5, 7])
def test_stack_mixing_closed_forms_and_squaring_depths(m):
    # All-equal rows (closed form) next to rows from no squaring up to many:
    # every row must give the bits it gives alone, and the scalar kernel.
    rng = np.random.default_rng(300 + m)
    rows = [np.full(m, 1.25), np.full(m, -0.5)]
    rows += [rng.uniform(-1.0, 1.0) + np.linspace(-w, w, m) for w in (1e-3, 0.6, 2.0, 6.0, 25.0, 200.0)]
    nodes = rng.permutation(np.array(rows))
    t = 0.3
    assert len(set(_squarings(nodes, t))) >= 4
    got = _dd_value(nodes, t)
    alone = np.array([dd_exp(NodeList(row, t)) for row in nodes])
    assert np.array_equal(got, alone)
    ref = np.array([scalar_dd_value(row, t) for row in nodes])
    assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref))


@pytest.mark.parametrize("t", [0.0, -0.0])
def test_zero_time_is_exact(t):
    # f = 1 at t = 0: a single node gives 1 and every higher divided
    # difference vanishes, exactly.
    rng = np.random.default_rng(7)
    for m in (1, 2, 3, 5, 8):
        nodes = np.vstack([np.full(m, 0.3), np.sort(rng.uniform(-5.0, 5.0, size=(4, m)), axis=1)])
        assert np.array_equal(_dd_value(nodes, t), np.full(5, 1.0 if m == 1 else 0.0))
