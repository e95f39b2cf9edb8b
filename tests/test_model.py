"""System validation and the diagonal/degeneracy-absorbing redivision."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import random_hermitian, spaced_energies
from perturbseries.model import (
    IncompleteDegeneracyRemoval,
    SystemSpec,
    redivide,
)


def test_spaced_energies_refuses_levels_that_cannot_fit(rng):
    with pytest.raises(ValueError, match="do not fit"):
        spaced_energies(rng, 24)  # 23 gaps of 0.15 exceed the default span of 3
    with pytest.raises(ValueError, match="do not fit"):
        spaced_energies(rng, 3, min_gap=1.0, span=2.0)
    assert spaced_energies(rng, 1, min_gap=5.0, span=1.0).shape == (1,)


def _random_spec(rng, n, norm=0.1):
    return SystemSpec(
        energies=spaced_energies(rng, n),
        h1=random_hermitian(rng, n, norm),
    )


def test_rotation_reconstructs_hamiltonian(rng):
    spec = _random_spec(rng, 4)
    split = redivide(spec)
    q = split.basis_rotation
    rotated = q.conj().T @ spec.hamiltonian() @ q
    np.testing.assert_allclose(rotated, split.hamiltonian(), atol=1e-13)


def test_rotation_is_unitary(rng):
    split = redivide(_random_spec(rng, 5))
    q = split.basis_rotation
    np.testing.assert_allclose(q.conj().T @ q, np.eye(5), atol=1e-13)


def test_spectrum_is_preserved(rng):
    spec = _random_spec(rng, 4)
    split = redivide(spec)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(spec.hamiltonian()),
        np.linalg.eigvalsh(split.hamiltonian()),
        atol=1e-12,
    )


def test_residual_coupling_is_offdiagonal_hermitian(rng):
    split = redivide(_random_spec(rng, 4))
    assert np.max(np.abs(np.diag(split.g))) == 0.0
    np.testing.assert_allclose(split.g, split.g.conj().T, atol=1e-13)


def test_diagonal_moves_into_energies():
    spec = SystemSpec(
        energies=np.array([0.0, 1.0]),
        h1=np.array([[0.2, 0.1], [0.1, 0.0]], dtype=complex),
    )
    split = redivide(spec)
    np.testing.assert_allclose(split.energies_redivided, [0.2, 1.0], atol=1e-15)
    np.testing.assert_allclose(split.g, [[0.0, 0.1], [0.1, 0.0]], atol=1e-15)
    np.testing.assert_allclose(split.diagonal_shift, [0.2, 0.0], atol=1e-15)
    np.testing.assert_allclose(split.basis_rotation, np.eye(2), atol=1e-15)


def test_degenerate_pair_is_split_and_decoupled():
    spec = SystemSpec(
        energies=np.array([0.0, 0.0]),
        h1=np.array([[0.0, 0.3], [0.3, 0.0]], dtype=complex),
    )
    split = redivide(spec)
    np.testing.assert_allclose(split.energies_redivided, [-0.3, 0.3], atol=1e-14)
    assert np.max(np.abs(split.g)) < 1e-15


def test_coupling_scale_is_applied():
    spec = SystemSpec(
        energies=np.array([0.0, 1.0]),
        h1=np.array([[0.0, 0.1], [0.1, 0.0]], dtype=complex),
        coupling_scale=0.5,
    )
    split = redivide(spec)
    assert split.g[0, 1] == pytest.approx(0.05, abs=1e-16)


def test_disabled_redivision_is_the_trivial_split(rng):
    spec = _random_spec(rng, 3)
    split = redivide(spec, enabled=False)
    assert not split.redivided
    np.testing.assert_allclose(split.energies_redivided, spec.energies, atol=0.0)
    np.testing.assert_allclose(split.g, spec.coupling_scale * spec.h1, atol=0.0)
    np.testing.assert_allclose(split.basis_rotation, np.eye(3), atol=0.0)


def test_redivision_is_idempotent(rng):
    split = redivide(_random_spec(rng, 4))
    again = redivide(split.as_spec())
    np.testing.assert_allclose(
        again.energies_redivided, split.energies_redivided, atol=1e-13
    )
    np.testing.assert_allclose(again.g, split.g, atol=1e-13)


def test_second_pass_resolves_shift_created_tie():
    # Moving the diagonal into E lands both levels at 0.2; the pair is
    # still coupled, so a second rotation must split it.
    spec = SystemSpec(
        energies=np.array([0.0, 0.2]),
        h1=np.array([[0.2, 0.05], [0.05, 0.0]], dtype=complex),
    )
    split = redivide(spec)
    np.testing.assert_allclose(split.energies_redivided, [0.15, 0.25], atol=1e-14)
    assert np.max(np.abs(split.g)) < 1e-15


def test_unremovable_degeneracy_raises():
    # The diagonal shift ties levels 0 and 1 at 0.5; rotating them apart
    # lands the lower branch exactly on level 2 (0.4), which it couples to.
    spec = SystemSpec(
        energies=np.array([0.0, 0.5, 0.4]),
        h1=np.array(
            [[0.5, 0.1, 0.0], [0.1, 0.0, 0.02], [0.0, 0.02, 0.0]], dtype=complex
        ),
    )
    with pytest.raises(IncompleteDegeneracyRemoval, match="remain degenerate"):
        redivide(spec)


def test_decoupled_exact_tie_is_allowed():
    # Levels 0 and 1 stay tied but nothing couples them: fine.
    spec = SystemSpec(
        energies=np.array([0.0, 0.0, 1.0]),
        h1=np.array(
            [[0.0, 0.0, 0.1], [0.0, 0.0, 0.1], [0.1, 0.1, 0.0]], dtype=complex
        ),
    )
    split = redivide(spec)
    assert split.energies_redivided[0] == split.energies_redivided[1]


def test_validate_reports_non_hermitian():
    spec = SystemSpec(
        energies=np.array([0.0, 1.0]),
        h1=np.array([[0.0, 0.2], [0.1, 0.0]], dtype=complex),
    )
    message = r"^perturbation is not Hermitian: max \|H1 - H1\^dagger\| = 1\.000e-01 \(scale 2\.000e-01\)$"
    with pytest.raises(ValueError, match=message):
        redivide(spec)
    with pytest.raises(ValueError, match=message):
        redivide(spec, enabled=False)


def test_validate_rejects_malformed_shapes():
    # without energies the Hermitian test would fail on an empty maximum instead
    with pytest.raises(ValueError, match=r"^energies must be a non-empty 1-d array, got shape \(0,\)$"):
        redivide(SystemSpec(energies=np.zeros(0), h1=np.zeros((0, 0))))
    with pytest.raises(ValueError, match="square"):
        redivide(SystemSpec(energies=np.array([0.0, 1.0]), h1=np.zeros((2, 3))))
    with pytest.raises(ValueError, match="dimension mismatch"):
        redivide(SystemSpec(energies=np.array([0.0, 1.0, 2.0]), h1=np.zeros((2, 2))))
    with pytest.raises(ValueError, match="non-finite"):
        redivide(
            SystemSpec(energies=np.array([0.0, np.inf]), h1=np.zeros((2, 2)))
        )


def test_validate_rejects_negative_coupling_scale():
    spec = SystemSpec(
        energies=np.array([0.0, 1.0]), h1=np.zeros((2, 2)), coupling_scale=-1.0
    )
    with pytest.raises(ValueError, match=r"^coupling_scale must be a finite non-negative real, got -1\.0$"):
        redivide(spec)


def test_validate_accepts_clean_system(rng):
    split = redivide(_random_spec(rng, 3))
    assert split.redivided
    assert split.dimension == 3


def _rotated_pairs(split) -> set[tuple[int, int]]:
    """Level pairs that the basis rotation mixes."""
    q = split.basis_rotation
    return {(a, b) for a, b in np.argwhere(q != 0) if a < b}


def _all_coupled(n: int, v: float = 0.01) -> np.ndarray:
    return np.full((n, n), v, dtype=complex) - np.diag(np.full(n, v))


def test_find_degeneracies_groups_transitively():
    # Neighbour gaps of 1.5e-10 join under the threshold 1e-10 * max|E| =
    # 2e-10, so levels 1 and 3, 3e-10 apart, share one rotated block.
    spec = SystemSpec(
        energies=np.array([0.0, 1.0, 1.0 + 1.5e-10, 1.0 + 3e-10, 2.0]), h1=_all_coupled(5)
    )
    assert _rotated_pairs(redivide(spec)) == {(1, 2), (1, 3), (2, 3)}
    pair = SystemSpec(energies=np.array([0.0, 1.0, 1.0 + 5e-11, 2.0]), h1=_all_coupled(4))
    assert _rotated_pairs(redivide(pair)) == {(1, 2)}


def test_find_degeneracies_threshold_scales_with_spectrum():
    # 5e-7 apart: distinct for an O(1) spectrum, rotated as a tied pair when
    # max|E| ~ 1e4 (the threshold is tol * max(1, max|E|)).
    near = SystemSpec(energies=np.array([0.0, 5e-7]), h1=_all_coupled(2))
    assert _rotated_pairs(redivide(near, tol_deg=1e-10)) == set()
    large = SystemSpec(energies=np.array([0.0, 5e-7, 1e4]), h1=_all_coupled(3))
    assert _rotated_pairs(redivide(large, tol_deg=1e-10)) == {(0, 1)}
    # A gap exactly at the threshold still ties.
    edge = SystemSpec(energies=np.array([0.0, 0.5]), h1=_all_coupled(2))
    assert _rotated_pairs(redivide(edge, tol_deg=0.5)) == {(0, 1)}


def test_degeneracy_tolerance_flag():
    spec = SystemSpec(
        energies=np.array([0.0, 1e-6]),
        h1=np.array([[0.0, 0.01], [0.01, 0.0]], dtype=complex),
    )
    loose = redivide(spec, tol_deg=1e-4)  # treated as one degenerate block
    assert np.max(np.abs(loose.g)) < 1e-15
    tight = redivide(spec, tol_deg=1e-10)  # kept apart, coupling survives
    assert np.max(np.abs(tight.g)) == pytest.approx(0.01, rel=1e-12)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("tol, shown", [(-1.0, "-1.0"), (float("nan"), "nan"), (float("inf"), "inf")])
def test_redivide_refuses_a_tolerance_that_is_negative_or_not_finite(tol, shown, enabled):
    # [0, 0] coupled by 0.1: a NaN or negative tolerance would leave the
    # exact tie unrotated and coupled
    spec = SystemSpec(energies=np.zeros(2), h1=np.array([[0.0, 0.1], [0.1, 0.0]], dtype=complex))
    with pytest.raises(ValueError, match=rf"^tol_deg must be a finite non-negative real, got {shown}$"):
        redivide(spec, tol_deg=tol, enabled=enabled)


def test_redivide_accepts_a_zero_tolerance():
    # only exactly equal levels tie
    spec = SystemSpec(energies=np.zeros(2), h1=np.array([[0.0, 0.1], [0.1, 0.0]], dtype=complex))
    split = redivide(spec, tol_deg=0.0)
    np.testing.assert_allclose(split.energies_redivided, [-0.1, 0.1], atol=1e-15)
    assert np.max(np.abs(split.g)) < 1e-15


def test_spec_arrays_are_immutable(rng):
    spec = _random_spec(rng, 3)
    with pytest.raises((ValueError, RuntimeError)):
        spec.energies[0] = 99.0


def test_split_as_spec_round_trip(rng):
    split = redivide(_random_spec(rng, 3))
    spec2 = split.as_spec()
    np.testing.assert_allclose(spec2.energies, split.energies_redivided, atol=0.0)
    np.testing.assert_allclose(spec2.h1, split.g, atol=0.0)
