"""Oracle: the straight-line redivision that the package's pass loop replaced.

``validate`` builds a report around a ``find_degeneracies`` partition,
``redivide`` rotates every tied group once, rescans for a coupled tie to
decide on one more pass, and scans a third time for the final refusal.
Only the ``tol_deg`` field of the returned ``SplitSystem`` is gone; the
rotation and split helpers are copied so that a change to the package's
copies shows up against this one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from perturbseries.model import (
    COUPLING_FLOOR,
    DEFAULT_DEGENERACY_TOL,
    IncompleteDegeneracyRemoval,
    SplitSystem,
    SystemSpec,
)
from perturbseries.oracle import hermitian_eigh


@dataclass(frozen=True)
class DegeneracyStructure:
    """Partition of level indices into maximal sets of (near-)equal energy."""

    groups: tuple[tuple[int, ...], ...]
    tol: float

    @property
    def degenerate_groups(self) -> tuple[tuple[int, ...], ...]:
        return tuple(grp for grp in self.groups if len(grp) > 1)

    @property
    def has_degeneracy(self) -> bool:
        return any(len(grp) > 1 for grp in self.groups)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate(): what is wrong, and by how much."""

    dimension: int
    hermiticity_violation: float
    degeneracies: DegeneracyStructure
    admissible: bool
    problems: tuple[str, ...]


def find_degeneracies(
    energies: NDArray[np.float64], tol: float = DEFAULT_DEGENERACY_TOL
) -> DegeneracyStructure:
    """Cluster levels whose energies agree within tol (absolute, scaled).

    Clustering is transitive along the sorted energy axis: adjacent gaps
    below the threshold merge.  The threshold is tol * max(1, max|E|) so
    the default behaves sensibly for both O(1) and large spectra.
    """
    e = np.asarray(energies, dtype=np.float64)
    n = e.shape[0]
    threshold = tol * max(1.0, float(np.max(np.abs(e))) if n else 1.0)
    order = np.argsort(e, kind="stable")
    groups: list[list[int]] = []
    for idx in order:
        if groups and abs(e[idx] - e[groups[-1][-1]]) <= threshold:
            groups[-1].append(int(idx))
        else:
            groups.append([int(idx)])
    # Report groups keyed by their lowest member so output is index-ordered.
    groups.sort(key=lambda grp: min(grp))
    return DegeneracyStructure(groups=tuple(tuple(sorted(g)) for g in groups), tol=tol)


def validate(spec: SystemSpec, *, tol_deg: float = DEFAULT_DEGENERACY_TOL) -> ValidationReport:
    """Check a SystemSpec for structural and physical admissibility.

    Raises ValueError for malformed shapes or non-finite entries; soft
    problems (Hermiticity violation, negative coupling scale) come back in
    the report with admissible=False.
    """
    e = spec.energies
    m = spec.h1
    if e.ndim != 1 or e.shape[0] < 1:
        raise ValueError(f"energies must be a non-empty 1-d array, got shape {e.shape}")
    if not np.all(np.isfinite(e)):
        raise ValueError("energies contain non-finite entries")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"perturbation matrix must be square, got shape {m.shape}")
    if m.shape[0] != e.shape[0]:
        raise ValueError(
            f"dimension mismatch: {e.shape[0]} energies vs {m.shape[0]}x{m.shape[1]} matrix"
        )
    if not np.all(np.isfinite(m)):
        raise ValueError("perturbation matrix contains non-finite entries")

    problems: list[str] = []
    scale = float(np.max(np.abs(m))) if m.size else 0.0
    violation = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if violation > 1e-12 * max(scale, 1e-300):
        problems.append(
            f"perturbation is not Hermitian: max |H1 - H1^dagger| = {violation:.3e} "
            f"(scale {scale:.3e})"
        )
    if not np.isfinite(spec.coupling_scale) or spec.coupling_scale < 0:
        problems.append(f"coupling_scale must be a finite non-negative real, got {spec.coupling_scale}")

    return ValidationReport(
        dimension=spec.dimension,
        hermiticity_violation=violation,
        degeneracies=find_degeneracies(e, tol_deg),
        admissible=not problems,
        problems=tuple(problems),
    )


def _group_rotation(
    energies: NDArray[np.float64],
    coupling: NDArray[np.complex128],
    groups: tuple[tuple[int, ...], ...],
) -> NDArray[np.complex128]:
    """Block-diagonal unitary diagonalizing diag(E)+coupling inside each group."""
    n = energies.shape[0]
    q = np.eye(n, dtype=np.complex128)
    for grp in groups:
        if len(grp) < 2:
            continue
        idx = np.asarray(grp)
        block = np.diag(energies[idx]).astype(np.complex128) + coupling[np.ix_(idx, idx)]
        _, vecs = hermitian_eigh(block)
        q[np.ix_(idx, idx)] = vecs
    return q


def _split(h_full: NDArray[np.complex128], q: NDArray[np.complex128]):
    w = q.conj().T @ h_full @ q
    w = 0.5 * (w + w.conj().T)  # symmetrize away rotation roundoff
    e_new = np.real(np.diag(w)).copy()
    g = w.copy()
    np.fill_diagonal(g, 0.0)
    return e_new, g


def redivide(
    spec: SystemSpec,
    *,
    tol_deg: float = DEFAULT_DEGENERACY_TOL,
    enabled: bool = True,
) -> SplitSystem:
    """Absorb the perturbation diagonal and degenerate-block eigenvalues into E.

    With enabled=False the split is the trivial one (E' = E, g = full
    scaled perturbation including its diagonal).

    Raises:
        ValueError: the spec fails validation.
        IncompleteDegeneracyRemoval: degenerate levels remain coupled
            after rotation.
    """
    report = validate(spec, tol_deg=tol_deg)
    if not report.admissible:
        raise ValueError("; ".join(report.problems))

    n = spec.dimension
    h_eff = spec.coupling_scale * spec.h1
    if not enabled:
        return SplitSystem(
            energies_redivided=spec.energies.copy(),
            g=h_eff.copy(),
            basis_rotation=np.eye(n, dtype=np.complex128),
            energies_original=spec.energies.copy(),
            redivided=False,
        )

    h_full = spec.hamiltonian()
    coupling_scale = float(np.max(np.abs(h_eff))) if h_eff.size else 0.0
    floor = COUPLING_FLOOR * max(coupling_scale, 1e-300)

    q = _group_rotation(spec.energies, h_eff, report.degeneracies.groups)
    e_new, g = _split(h_full, q)

    # Shifted energies may tie where the originals did not ("this procedure
    # can be repeated"): one more rotation pass over any newly tied group
    # that still carries coupling.
    second = find_degeneracies(e_new, tol_deg)
    needs_second = any(
        np.max(np.abs(g[np.ix_(np.asarray(grp), np.asarray(grp))])) > floor
        for grp in second.degenerate_groups
    )
    if needs_second:
        q2 = _group_rotation(e_new, g, second.groups)
        q = q @ q2
        e_new, g = _split(h_full, q)

    # Whatever still ties must be fully decoupled, else the expansion's
    # energy denominators for that pair are 0/nonzero.
    final = find_degeneracies(e_new, tol_deg)
    for grp in final.degenerate_groups:
        idx = np.asarray(grp)
        block = g[np.ix_(idx, idx)]
        worst = float(np.max(np.abs(block)))
        if worst > floor:
            pair = np.unravel_index(int(np.argmax(np.abs(block))), block.shape)
            raise IncompleteDegeneracyRemoval(
                f"levels {grp[pair[0]]} and {grp[pair[1]]} remain degenerate "
                f"(tol {tol_deg:g}) with residual coupling {worst:.3e}"
            )

    return SplitSystem(
        energies_redivided=e_new,
        g=g,
        basis_rotation=q,
        energies_original=spec.energies.copy(),
        redivided=True,
    )
