"""Exact reference results for small Hermitian systems.

Everything downstream is compared against this module: a dense Hermitian
eigensolver (LAPACK ``zheevd`` through ``numpy.linalg.eigh``, with a
deterministic phase per eigenvector), the exact propagator built from the
spectral decomposition, and exact transition probabilities.  The eigensolver
shares no code with the series/kernel machinery it is checking; the tests
check it in turn against a cyclic Jacobi solver (``tests/jacobi.py``).
Every report compares in absolute terms, so Jacobi's high relative
accuracy on graded matrices (Demmel & Veselic, SIAM J. Matrix Anal. Appl.
13, 1992) buys nothing here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import NDArray

if TYPE_CHECKING:
    from .model import SplitSystem, SystemSpec

__all__ = [
    "ExactSolution",
    "hermitian_eigh",
    "diagonalize",
    "exact_transition_probability",
]


def _fix_phases(vecs: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Make each column's largest-magnitude component real positive (in place).

    Ties go to the first such row.  Eigenvector columns have unit norm, so
    every pivot is nonzero.  The pivot magnitude is taken with ``hypot``,
    as scalar ``abs`` does; numpy's vectorised complex ``abs`` can differ
    from it in the last bit.
    """
    cols = np.arange(vecs.shape[1])
    rows = np.argmax(np.abs(vecs), axis=0)
    pivots = vecs[rows, cols]
    vecs *= np.conj(pivots) / np.hypot(pivots.real, pivots.imag)
    vecs[rows, cols] = vecs[rows, cols].real
    return vecs


def hermitian_eigh(
    matrix: NDArray[np.complex128],
) -> tuple[NDArray[np.float64], NDArray[np.complex128]]:
    """Eigendecomposition of a Hermitian matrix by LAPACK (``numpy.linalg.eigh``).

    Only the lower triangle of the matrix is read.

    Args:
        matrix: Hermitian N x N array (not modified).

    Returns:
        (eigenvalues, eigenvectors): eigenvalues ascending, eigenvectors
        as unitary columns.  Each column is phase-fixed so its
        largest-magnitude component is real and positive, which makes the
        output bit-stable across runs.
    """
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    vals, vecs = np.linalg.eigh(a)
    return vals, _fix_phases(vecs) if vecs.size else vecs


@dataclass(frozen=True)
class ExactSolution:
    """Spectral decomposition of the full Hamiltonian.

    eigenvalues are ascending; eigenvectors holds the corresponding
    unitary columns in the same (working) basis the input used.
    """

    eigenvalues: NDArray[np.float64]
    eigenvectors: NDArray[np.complex128]

    @property
    def dimension(self) -> int:
        return int(self.eigenvalues.shape[0])

    def propagator(self, t: float) -> NDArray[np.complex128]:
        """The unitary e^{-iHt} assembled from the spectral form."""
        phases = np.exp(-1j * self.eigenvalues * t)
        return (self.eigenvectors * phases[np.newaxis, :]) @ self.eigenvectors.conj().T


def diagonalize(sys: SplitSystem | SystemSpec | NDArray[np.complex128]) -> ExactSolution:
    """Exactly diagonalize a system (or a raw Hermitian matrix).

    Accepts either representation of the system; a SplitSystem is
    diagonalized in its working basis, so the eigenvalues agree with the
    original representation while the eigenvector components refer to the
    rotated levels.
    """
    h = sys.hamiltonian() if hasattr(sys, "hamiltonian") else np.asarray(sys, dtype=np.complex128)
    herm_defect = float(np.max(np.abs(h - h.conj().T))) if h.size else 0.0
    h_scale = float(np.max(np.abs(h))) if h.size else 0.0
    if herm_defect > 1e-12 * max(h_scale, 1.0):
        raise ValueError(f"matrix is not Hermitian (max deviation {herm_defect:.3e})")
    vals, vecs = hermitian_eigh(h)
    return ExactSolution(eigenvalues=vals, eigenvectors=vecs)


def exact_transition_probability(
    sol: ExactSolution,
    initial: int,
    final: int,
    t: float | NDArray[np.float64],
) -> float | NDArray[np.float64]:
    """|<final| e^{-iHt} |initial>|^2 via the spectral form.

    t may be a scalar or an array; the return matches.
    """
    n = sol.dimension
    if not (0 <= initial < n and 0 <= final < n):
        raise ValueError(f"level indices ({initial}, {final}) out of range for N={n}")
    ts = np.asarray(t, dtype=np.float64)
    weights = sol.eigenvectors[final, :] * np.conj(sol.eigenvectors[initial, :])
    amp = np.exp(-1j * np.outer(np.atleast_1d(ts), sol.eigenvalues)) @ weights
    prob = np.abs(amp) ** 2
    if ts.ndim == 0:
        return float(prob[0])
    return prob
