"""Builders shared across the test modules."""

from __future__ import annotations

import numpy as np

from perturbseries.model import SplitSystem, SystemSpec, redivide


def random_hermitian(rng: np.random.Generator, n: int, norm: float) -> np.ndarray:
    """Dense complex Hermitian matrix rescaled to the given spectral norm."""
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = 0.5 * (m + m.conj().T)
    spectral = float(np.linalg.norm(m, ord=2))
    if spectral > 0.0:
        m *= norm / spectral
    return m


def spaced_energies(
    rng: np.random.Generator,
    n: int,
    *,
    min_gap: float = 0.15,
    span: float = 3.0,
) -> np.ndarray:
    """Sorted level energies with every neighbour gap above min_gap.

    Draws are rejected until the gaps fit, so arguments with no such
    spectrum, (n - 1) * min_gap >= span, raise instead of looping forever.
    """
    if n > 1 and (n - 1) * min_gap >= span:
        raise ValueError(f"{n} levels with gaps above {min_gap} do not fit in a span of {span}")
    while True:
        e = np.sort(rng.uniform(0.0, span, size=n))
        if n == 1 or float(np.min(np.diff(e))) > min_gap:
            return e


def random_system(
    rng: np.random.Generator,
    n: int,
    *,
    norm: float = 0.1,
    min_gap: float = 0.15,
    span: float = 3.0,
) -> SplitSystem:
    spec = SystemSpec(
        energies=spaced_energies(rng, n, min_gap=min_gap, span=span),
        h1=random_hermitian(rng, n, norm),
    )
    return redivide(spec)


def two_state(v: complex = 0.1, e1: float = 0.0, e2: float = 1.0) -> SplitSystem:
    """The standard coupled pair used throughout: diag [e1, e2] plus v on the corner."""
    h1 = np.array([[0.0, v], [np.conjugate(v), 0.0]], dtype=complex)
    return redivide(SystemSpec(energies=np.array([e1, e2], dtype=float), h1=h1))
