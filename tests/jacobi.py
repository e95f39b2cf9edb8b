"""Cyclic complex Jacobi eigensolver: the oracle for the LAPACK route.

`perturbseries.oracle.hermitian_eigh` calls `numpy.linalg.eigh`.  This
module keeps the dependency-free Jacobi sweep it replaced, so the tests can
check eigenpairs and propagators against a route that shares no code with
LAPACK.  It imports only numpy.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

#: Stop sweeping when the off-diagonal Frobenius norm falls below this
#: multiple of the full Frobenius norm.
OFFDIAG_TOL = 1e-14

#: Jacobi converges quadratically; a well-conditioned Hermitian matrix of
#: desk scale (N <= 16) is done in well under ten sweeps.
MAX_SWEEPS = 60


class ConvergenceError(RuntimeError):
    """The Jacobi sweep hit its iteration cap without converging."""


def _rotate(a: NDArray[np.complex128], v: NDArray[np.complex128], p: int, q: int) -> None:
    """Apply one complex Jacobi rotation zeroing a[p, q], updating a and v in place."""
    apq = a[p, q]
    mag = abs(apq)
    if mag == 0.0:
        return
    phase = apq / mag
    tau = (a[p, p].real - a[q, q].real) / (2.0 * mag)
    if tau >= 0.0:
        t = 1.0 / (tau + np.hypot(1.0, tau))
    else:
        t = -1.0 / (-tau + np.hypot(1.0, tau))
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c

    # Column update: columns p, q of the unitary U = [[c, -s*phase], [s*conj(phase), c]].
    col_p = a[:, p].copy()
    col_q = a[:, q].copy()
    a[:, p] = c * col_p + s * np.conj(phase) * col_q
    a[:, q] = -s * phase * col_p + c * col_q
    row_p = a[p, :].copy()
    row_q = a[q, :].copy()
    a[p, :] = c * row_p + s * phase * row_q
    a[q, :] = -s * np.conj(phase) * row_p + c * row_q
    # Clamp the pivot pair exactly; roundoff would otherwise linger.
    a[p, q] = 0.0
    a[q, p] = 0.0
    a[p, p] = a[p, p].real
    a[q, q] = a[q, q].real

    vcol_p = v[:, p].copy()
    vcol_q = v[:, q].copy()
    v[:, p] = c * vcol_p + s * np.conj(phase) * vcol_q
    v[:, q] = -s * phase * vcol_p + c * vcol_q


def _offdiag_norm(a: NDArray[np.complex128]) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def fix_phases(vecs: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Column by column, make the largest-magnitude component real positive (in place)."""
    for k in range(vecs.shape[1]):
        col = vecs[:, k]
        idx = int(np.argmax(np.abs(col)))
        pivot = col[idx]
        if pivot != 0.0:
            vecs[:, k] = col * (np.conj(pivot) / abs(pivot))
            vecs[idx, k] = vecs[idx, k].real
    return vecs


def jacobi_eigh(
    matrix: NDArray[np.complex128],
    *,
    tol: float = OFFDIAG_TOL,
    max_sweeps: int = MAX_SWEEPS,
) -> tuple[NDArray[np.float64], NDArray[np.complex128]]:
    """Eigendecomposition of a Hermitian matrix by cyclic complex Jacobi.

    Args:
        matrix: Hermitian N x N array (not modified).
        tol: convergence threshold on the off-diagonal Frobenius norm,
            relative to the Frobenius norm of the input.
        max_sweeps: hard cap on full cyclic sweeps.

    Returns:
        (eigenvalues, eigenvectors): eigenvalues ascending, eigenvectors
        as unitary columns, phase-fixed by `fix_phases`.

    Raises:
        ConvergenceError: the sweep cap was reached first.
    """
    a = np.array(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    v = np.eye(n, dtype=np.complex128)
    if n == 1:
        return np.array([a[0, 0].real]), v

    scale = float(np.linalg.norm(a))
    if scale == 0.0:
        return np.zeros(n), v

    converged = False
    for _ in range(max_sweeps):
        if _offdiag_norm(a) <= tol * scale:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                _rotate(a, v, p, q)
    else:
        converged = _offdiag_norm(a) <= tol * scale
    if not converged:
        raise ConvergenceError(
            f"Jacobi sweep did not converge in {max_sweeps} sweeps "
            f"(off-diagonal residual {_offdiag_norm(a):.3e}, scale {scale:.3e})"
        )

    vals = np.real(np.diag(a)).copy()
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    vecs = v[:, order]
    return vals, fix_phases(vecs)

