"""System container, validation, and the split into solvable + residual parts.

The full Hamiltonian is H = diag(E) + lambda * H1 in the eigenbasis of the
solvable part.  Before any series work we *redivide*: the diagonal of the
perturbation moves into the level energies, and inside every degenerate
group the perturbation block is diagonalized exactly so the residual
coupling between degenerate partners vanishes.  What remains is a strictly
off-diagonal coupling matrix g over shifted energies E' — the only form
the downstream expansion modules accept, because their energy denominators
are gaps of E'.

Degeneracy that survives redivision is allowed only when the surviving
partners are completely decoupled; anything else is flagged as
IncompleteDegeneracyRemoval rather than silently producing divergent
denominators later.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .oracle import hermitian_eigh

__all__ = [
    "DEFAULT_DEGENERACY_TOL",
    "IncompleteDegeneracyRemoval",
    "SystemSpec",
    "DegeneracyStructure",
    "ValidationReport",
    "SplitSystem",
    "find_degeneracies",
    "validate",
    "redivide",
]

DEFAULT_DEGENERACY_TOL = 1e-10

#: Residual couplings between degenerate partners below this multiple of
#: max|lambda*H1| count as "completely decoupled".
COUPLING_FLOOR = 1e-12


class IncompleteDegeneracyRemoval(RuntimeError):
    """Two levels stayed degenerate while still coupled.

    Redivision removes the coupling inside each degenerate group exactly,
    but shifted energies can collide across groups (or a collision can be
    present with nonzero coupling in raw mode).  Such systems are outside
    the supported scope: every later energy denominator for that pair
    would be a genuine 0/nonzero.
    """


@dataclass(frozen=True)
class SystemSpec:
    """Input system: level energies, perturbation matrix, coupling scale.

    energies: N real unperturbed level energies.
    h1: N x N Hermitian perturbation in the unperturbed eigenbasis.
    coupling_scale: dimensionless multiplier applied to h1 (default 1).
    """

    energies: NDArray[np.float64]
    h1: NDArray[np.complex128]
    coupling_scale: float = 1.0

    def __post_init__(self) -> None:
        e = np.atleast_1d(np.array(self.energies, dtype=np.float64, copy=True))
        m = np.array(self.h1, dtype=np.complex128, copy=True)
        e.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "h1", m)
        object.__setattr__(self, "coupling_scale", float(self.coupling_scale))

    @property
    def dimension(self) -> int:
        return int(self.energies.shape[0])

    def hamiltonian(self) -> NDArray[np.complex128]:
        """Full H = diag(E) + coupling_scale * h1."""
        return np.diag(self.energies).astype(np.complex128) + self.coupling_scale * self.h1


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


@dataclass(frozen=True)
class SplitSystem:
    """Redivided working representation: H = diag(E') + g in a rotated basis.

    energies_redivided: shifted level energies E' (perturbation diagonal
        and degenerate-block eigenvalues absorbed).
    g: residual coupling, exactly zero diagonal when redivided.
    basis_rotation: unitary Q (block-diagonal over degenerate groups,
        identity elsewhere) with Q^dagger H Q = diag(E') + g.
    energies_original: the unshifted E, kept for reporting.
    redivided: False when redivision was bypassed; then g is the full
        scaled perturbation, diagonal included, and E' = E.
    """

    energies_redivided: NDArray[np.float64]
    g: NDArray[np.complex128]
    basis_rotation: NDArray[np.complex128]
    energies_original: NDArray[np.float64]
    redivided: bool = True
    tol_deg: float = DEFAULT_DEGENERACY_TOL

    def __post_init__(self) -> None:
        dtypes = {
            "energies_redivided": np.float64,
            "g": np.complex128,
            "basis_rotation": np.complex128,
            "energies_original": np.float64,
        }
        for name, dtype in dtypes.items():
            arr = np.array(getattr(self, name), dtype=dtype, copy=True)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dimension(self) -> int:
        return int(self.energies_redivided.shape[0])

    @property
    def diagonal_shift(self) -> NDArray[np.float64]:
        """E' - E: the energy absorbed into each level at redivision."""
        return self.energies_redivided - self.energies_original

    def hamiltonian(self) -> NDArray[np.complex128]:
        """Working-basis Hamiltonian diag(E') + g."""
        return np.diag(self.energies_redivided).astype(np.complex128) + self.g

    def as_spec(self) -> SystemSpec:
        """Re-express as a SystemSpec (unit coupling scale)."""
        return SystemSpec(
            energies=self.energies_redivided.copy(), h1=self.g.copy(), coupling_scale=1.0
        )


def _refuse_coupled_ties(
    energies: NDArray[np.float64],
    g: NDArray[np.complex128],
    hops: int,
    *,
    level: int | None = None,
    diagonal: bool = False,
    why: str = "",
) -> None:
    """Refuse exact ties that a route would divide by.

    Routes drop the inverse gap of two exactly tied levels, which is exact
    only while no term links them: two distinct tied levels joined by a
    chain of at most ``hops`` nonzero couplings are refused.  With
    ``diagonal``, so is a diagonal coupling left by skipping redivision (a
    tie of a level with itself).  Given ``level``, only ties with that
    level count.  ``why`` ends the message.
    """
    n = energies.shape[0]
    rows = np.arange(n) if level is None else np.array([level])
    kept = rows[np.diagonal(g)[rows] != 0]
    if diagonal and kept.size:
        raise IncompleteDegeneracyRemoval(f"level {kept[0]} keeps a diagonal coupling{why}")
    ties = (energies[rows, np.newaxis] == energies) & (rows[:, np.newaxis] != np.arange(n))
    if not ties.any():
        return
    coupled = g != 0
    np.fill_diagonal(coupled, False)
    reach = rows[:, np.newaxis] == np.arange(n)
    for _ in range(hops):
        reach |= reach @ coupled
    hits = np.argwhere(ties & reach)
    if hits.size:
        a, b = rows[hits[0, 0]], hits[0, 1]
        if coupled[a, b]:
            pair = f"levels {a} and {b} are exactly degenerate and directly coupled"
        else:
            pair = f"level {b} is exactly degenerate with level {a} and still coupled"
        raise IncompleteDegeneracyRemoval(pair + why)


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
    scaled perturbation including its diagonal); the series kernel handles
    the resulting repeated energy nodes exactly, which is occasionally
    useful for cross-checks, but none of the improved-scheme machinery
    accepts such a system.

    Raises:
        ValueError: the spec fails validation.
        IncompleteDegeneracyRemoval: degenerate levels remain coupled
            after rotation (see class docstring).
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
            tol_deg=tol_deg,
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
        tol_deg=tol_deg,
    )
