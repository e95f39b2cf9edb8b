"""Exact-solution oracle: eigensolver, propagator, two-state closed form."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from helpers import random_hermitian, random_system, two_state
from jacobi import jacobi_eigh
from perturbseries.model import SystemSpec
from perturbseries.oracle import (
    ExactSolution,
    diagonalize,
    exact_transition_probability,
    hermitian_eigh,
)
from two_state_closed import two_state_closed_form


# hermitian_eigh is numpy's eigh, so these two check the Jacobi oracle that
# gates it (tests/test_oracle_jacobi.py) against numpy, and its eigenpairs
# against the eigenproblem itself.


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_eigenvalues_match_numpy(rng, n):
    h = random_hermitian(rng, n, 1.7)
    vals, _ = jacobi_eigh(h)
    np.testing.assert_allclose(vals, np.linalg.eigvalsh(h), atol=1e-12)


def test_eigenpairs_satisfy_the_eigenproblem(rng):
    h = random_hermitian(rng, 6, 2.0)
    for solver in (jacobi_eigh, hermitian_eigh):
        vals, vecs = solver(h)
        assert np.all(np.diff(vals) >= 0.0)
        np.testing.assert_allclose(h @ vecs, vecs * vals[np.newaxis, :], atol=1e-12)
        np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(6), atol=1e-12)


def test_diagonal_input_is_fixed_point():
    h = np.diag([3.0, -1.0, 0.5]).astype(complex)
    vals, vecs = hermitian_eigh(h)
    np.testing.assert_allclose(vals, [-1.0, 0.5, 3.0], atol=0.0)
    # columns are unit vectors up to phase
    np.testing.assert_allclose(np.abs(vecs), np.eye(3)[:, [1, 2, 0]], atol=1e-15)


def test_one_by_one():
    vals, vecs = hermitian_eigh(np.array([[2.5]], dtype=complex))
    assert vals[0] == pytest.approx(2.5, abs=0.0)
    assert abs(vecs[0, 0]) == pytest.approx(1.0, abs=0.0)


def test_propagator_unitary(rng):
    for n in (2, 5, 8):
        sol = diagonalize(random_hermitian(rng, n, 1.3))
        u = sol.propagator(2.37)
        defect = np.max(np.abs(u.conj().T @ u - np.eye(n)))
        assert defect < 1e-12


def test_propagator_group_law(rng):
    sol = diagonalize(random_hermitian(rng, 6, 1.1))
    u1 = sol.propagator(1.4)
    u2 = sol.propagator(0.9)
    u12 = sol.propagator(2.3)
    assert np.max(np.abs(u1 @ u2 - u12)) < 1e-11


def test_propagator_at_zero_is_identity(rng):
    sol = diagonalize(random_hermitian(rng, 4, 1.0))
    np.testing.assert_allclose(sol.propagator(0.0), np.eye(4), atol=1e-14)


def test_propagator_matches_scipy_expm(rng):
    h = random_hermitian(rng, 5, 0.8)
    t = 3.1
    u = diagonalize(h).propagator(t)
    np.testing.assert_allclose(u, scipy.linalg.expm(-1j * t * h), atol=1e-12)


def test_diagonalize_accepts_all_three_representations(rng):
    sys = random_system(rng, 3, norm=0.08)
    from_split = diagonalize(sys).eigenvalues
    from_spec = diagonalize(sys.as_spec()).eigenvalues
    from_raw = diagonalize(sys.hamiltonian()).eigenvalues
    np.testing.assert_allclose(from_split, from_raw, atol=1e-13)
    np.testing.assert_allclose(from_spec, from_raw, atol=1e-13)


def test_diagonalize_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_exact_transition_probability_scalar_and_grid(rng):
    sol = diagonalize(random_hermitian(rng, 3, 0.9))
    p = exact_transition_probability(sol, 0, 2, 1.7)
    assert isinstance(p, float) and 0.0 <= p <= 1.0
    grid = exact_transition_probability(sol, 0, 2, np.array([0.0, 1.7]))
    assert grid.shape == (2,)
    assert grid[0] == pytest.approx(0.0, abs=1e-15)
    assert grid[1] == pytest.approx(p, abs=1e-15)


def test_exact_transition_probability_rejects_bad_levels(rng):
    sol = diagonalize(random_hermitian(rng, 3, 0.9))
    with pytest.raises(ValueError, match="out of range"):
        exact_transition_probability(sol, 0, 3, 1.0)


def test_probabilities_over_a_basis_sum_to_one(rng):
    sol = diagonalize(random_hermitian(rng, 4, 1.2))
    total = sum(exact_transition_probability(sol, 1, f, 2.9) for f in range(4))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_two_state_closed_form_matches_diagonalization():
    e1, e2, v = 0.3, 1.1, 0.07
    h = np.array([[e1, v], [v, e2]], dtype=complex)
    sol = diagonalize(h)
    out = two_state_closed_form(e1, e2, v, 2.2)
    assert out["e1"] == pytest.approx(sol.eigenvalues[0], abs=1e-14)
    assert out["e2"] == pytest.approx(sol.eigenvalues[1], abs=1e-14)
    p_ref = exact_transition_probability(sol, 0, 1, 2.2)
    assert out["p12"] == pytest.approx(p_ref, abs=1e-14)


def test_two_state_closed_form_known_values():
    out = two_state_closed_form(0.0, 1.0, 0.1, 0.0)
    assert out["omega"] == pytest.approx(np.sqrt(1.04), rel=1e-15)
    assert out["e1"] == pytest.approx(0.5 * (1.0 - np.sqrt(1.04)), abs=1e-15)
    assert out["p12"] == 0.0


def test_two_state_closed_form_array_argument():
    ts = np.linspace(0.0, 12.0, 7)
    out = two_state_closed_form(0.0, 1.0, 0.1, ts)
    assert out["p12"].shape == ts.shape
    peak = 4 * 0.01 / 1.04
    assert np.all(out["p12"] <= peak + 1e-15)


def test_two_state_requires_positive_gap():
    with pytest.raises(ValueError, match="e2 > e1"):
        two_state_closed_form(1.0, 1.0, 0.1, 0.0)


def test_split_system_diagonalization_uses_working_basis():
    # The split system's eigenvalues must agree with the original spec's,
    # because redivision is a similarity transform.
    sys = two_state()
    spec = SystemSpec(
        energies=np.array([0.0, 1.0]),
        h1=np.array([[0.0, 0.1], [0.1, 0.0]], dtype=complex),
    )
    np.testing.assert_allclose(
        diagonalize(sys).eigenvalues, diagonalize(spec).eigenvalues, atol=1e-13
    )


def test_exact_solution_dimension():
    sol = ExactSolution(
        eigenvalues=np.array([0.0, 1.0]),
        eigenvectors=np.eye(2, dtype=complex),
    )
    assert sol.dimension == 2
