"""The LAPACK eigensolver and propagator against the cyclic Jacobi oracle.

Every report compares in absolute terms, so the gate is absolute:
eigenvalues and propagator entries agree within 1e-12 * max(1, ||H||_2).
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import chain_system, random_hermitian
from jacobi import fix_phases, jacobi_eigh
from perturbseries import model
from perturbseries.model import SystemSpec, redivide
from perturbseries.oracle import diagonalize, hermitian_eigh

TIMES = (0.7, 40.0, 200.0, -200.0)


def _bound(h: np.ndarray) -> float:
    return 1e-12 * max(1.0, float(np.linalg.norm(h, ord=2)))


def _chain(n: int) -> np.ndarray:
    """Nearest-neighbour chain on levels 0.1 apart, in closed form."""
    k = np.arange(n)
    energies = 0.1 * k + 0.02 * np.sin(1.7 * k)
    hop = 0.005 * (np.cos(0.9 * k[:-1]) + 1j * np.sin(1.3 * k[:-1]))
    return np.diag(energies).astype(complex) + np.diag(hop, 1) + np.diag(hop.conj(), -1)


def _near_degenerate_pair() -> np.ndarray:
    """Five levels whose middle pair sits 1e-9 apart and is coupled."""
    energies = np.array([0.0, 0.5, 1.0, 1.0 + 1e-9, 2.0])
    g = random_hermitian(np.random.default_rng(11), 5, 0.05)
    np.fill_diagonal(g, 0.0)
    return np.diag(energies).astype(complex) + g


CASES = {
    "dense-2": lambda: random_hermitian(np.random.default_rng(2), 2, 1.0),
    "dense-5": lambda: random_hermitian(np.random.default_rng(5), 5, 1.5),
    "dense-12": lambda: random_hermitian(np.random.default_rng(12), 12, 2.0),
    "dense-24": lambda: random_hermitian(np.random.default_rng(24), 24, 2.0),
    "dense-40": lambda: random_hermitian(np.random.default_rng(40), 40, 2.0),
    "chain_system-32": lambda: chain_system(32).hamiltonian(),
    "chain-40": lambda: _chain(40),
    "pair-gap-1e-9": lambda: np.array([[1.0, 1e-10], [1e-10, 1.0 + 1e-9]], dtype=complex),
    "coupled-gap-1e-9": _near_degenerate_pair,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_eigenvalues_match_jacobi(case):
    h = CASES[case]()
    vals, vecs = hermitian_eigh(h)
    ref, _ = jacobi_eigh(h)
    assert np.max(np.abs(vals - ref)) <= _bound(h)
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(h.shape[0]))) <= 1e-13


@pytest.mark.parametrize("case", sorted(CASES))
def test_propagator_matches_jacobi(case):
    h = CASES[case]()
    solution = diagonalize(h)
    ref_vals, ref_vecs = jacobi_eigh(h)
    for t in TIMES:
        ref = (ref_vecs * np.exp(-1j * ref_vals * t)[np.newaxis, :]) @ ref_vecs.conj().T
        assert np.max(np.abs(solution.propagator(t) - ref)) <= _bound(h), t


def test_phase_fix_is_bit_identical_to_the_column_loop():
    rng = np.random.default_rng(0)
    for _ in range(60):
        n = int(rng.integers(1, 41))
        h = random_hermitian(rng, n, float(rng.uniform(0.1, 5.0)))
        vals, vecs = hermitian_eigh(h)
        raw_vals, raw_vecs = np.linalg.eigh(h)
        assert np.array_equal(vals, raw_vals)
        expected = fix_phases(raw_vecs)
        assert np.array_equal(vecs.view(np.float64), expected.view(np.float64)), n


def test_planted_degenerate_group_matches_jacobi_rotations(monkeypatch):
    rng = np.random.default_rng(31)
    energies = np.array([0.0, 1.0, 1.0, 1.0, 2.5])
    spec = SystemSpec(energies=energies, h1=random_hermitian(rng, 5, 0.1))
    group = [1, 2, 3]
    with_eigh = redivide(spec)
    monkeypatch.setattr(model, "hermitian_eigh", jacobi_eigh)
    with_jacobi = redivide(spec)

    bound = _bound(spec.hamiltonian())
    assert np.max(np.abs(with_eigh.energies_redivided - with_jacobi.energies_redivided)) <= bound
    # The two rotations differ by a unitary acting on the group alone ...
    u = with_jacobi.basis_rotation.conj().T @ with_eigh.basis_rotation
    assert np.max(np.abs(u.conj().T @ u - np.eye(5))) <= 1e-13
    outside = np.ones((5, 5), dtype=bool)
    outside[np.ix_(group, group)] = False
    np.testing.assert_allclose(u[outside], np.eye(5)[outside], atol=1e-13)
    # ... which carries one working-basis Hamiltonian, and so g, into the other.
    moved = u.conj().T @ with_jacobi.hamiltonian() @ u
    assert np.max(np.abs(moved - with_eigh.hamiltonian())) <= bound
