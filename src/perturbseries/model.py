"""System container, validation, and the split into solvable + residual parts.

The full Hamiltonian is H = diag(E) + lambda * H1 in the eigenbasis of the
solvable part.  Before any series work we *redivide*: the diagonal of the
perturbation moves into the level energies, and inside every degenerate
group the perturbation block is diagonalized exactly so the residual
coupling between degenerate partners vanishes.  What remains is a strictly
off-diagonal coupling matrix g over shifted energies E' — the only form
the downstream expansion modules accept, because their energy denominators
are gaps of E'.

The shift can tie levels that were apart, so "this procedure can be
repeated": each later pass rotates again while a tie still carries
coupling.  Degeneracy that survives the last pass is allowed only when the
surviving partners are completely decoupled; anything else is flagged as
IncompleteDegeneracyRemoval rather than silently producing divergent
denominators later.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .ddkernel import _read_only
from .oracle import hermitian_eigh

__all__ = [
    "DEFAULT_DEGENERACY_TOL",
    "IncompleteDegeneracyRemoval",
    "SystemSpec",
    "SplitSystem",
    "redivide",
]

DEFAULT_DEGENERACY_TOL = 1e-10

#: Residual couplings between degenerate partners below this multiple of
#: max|lambda*H1| count as "completely decoupled".
COUPLING_FLOOR = 1e-12

#: Rotation passes redivision runs before refusing a tie that stays coupled.
_PASSES = 2


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
        _read_only(self, "energies", np.float64, at_least_1d=True)
        _read_only(self, "h1", np.complex128)
        object.__setattr__(self, "coupling_scale", float(self.coupling_scale))

    @property
    def dimension(self) -> int:
        return int(self.energies.shape[0])

    def hamiltonian(self) -> NDArray[np.complex128]:
        """Full H = diag(E) + coupling_scale * h1."""
        return np.diag(self.energies).astype(np.complex128) + self.coupling_scale * self.h1


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

    def __post_init__(self) -> None:
        for name, dtype in (("energies_redivided", np.float64), ("g", np.complex128),
                            ("basis_rotation", np.complex128), ("energies_original", np.float64)):
            _read_only(self, name, dtype)

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
    level count.  ``why`` ends the message on a tie.
    """
    n = energies.shape[0]
    rows = np.arange(n) if level is None else np.array([level])
    kept = rows[np.diagonal(g)[rows] != 0]
    if diagonal and kept.size:
        raise IncompleteDegeneracyRemoval(
            f"level {kept[0]} keeps a diagonal coupling, which redivision absorbs into its energy"
        )
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


def _validate(spec: SystemSpec) -> None:
    """Raise ValueError unless spec is well-formed, finite and admissible.

    Admissible means a Hermitian perturbation (to 1e-12 of its largest
    entry) and a finite non-negative coupling scale; every such problem
    found goes into one message.
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
    scale = float(np.max(np.abs(m)))
    violation = float(np.max(np.abs(m - m.conj().T)))
    if violation > 1e-12 * max(scale, 1e-300):
        problems.append(
            f"perturbation is not Hermitian: max |H1 - H1^dagger| = {violation:.3e} "
            f"(scale {scale:.3e})"
        )
    if not np.isfinite(spec.coupling_scale) or spec.coupling_scale < 0:
        problems.append(f"coupling_scale must be a finite non-negative real, got {spec.coupling_scale}")
    if problems:
        raise ValueError("; ".join(problems))


def _ties(energies: NDArray[np.float64], tol: float) -> list[NDArray[np.intp]]:
    """Groups of (near-)equal levels as ascending indices, lowest index first.

    Levels tie transitively along the sorted energy axis: neighbour gaps
    up to tol * max(1, max|E|) join, so the threshold suits both O(1) and
    large spectra.  Levels that tie with none are left out.
    """
    threshold = tol * max(1.0, float(np.max(np.abs(energies))))
    order = np.argsort(energies, kind="stable")
    joined = np.diff(energies[order]) <= threshold
    if not joined.any():
        return []
    runs = np.split(order, np.flatnonzero(~joined) + 1)
    return sorted((np.sort(run) for run in runs if run.size > 1), key=lambda idx: idx[0])


def _group_rotation(
    energies: NDArray[np.float64],
    coupling: NDArray[np.complex128],
    groups: list[NDArray[np.intp]],
) -> NDArray[np.complex128]:
    """Block-diagonal unitary diagonalizing diag(E)+coupling inside each group."""
    n = energies.shape[0]
    q = np.eye(n, dtype=np.complex128)
    for idx in groups:
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

    Pass 0 rotates every group of tied input levels.  Each later pass scans
    the shifted energies once and, while some tied group still carries
    coupling, rotates all tied groups again; after ``_PASSES`` passes such
    a group is refused.

    With enabled=False the split is the trivial one (E' = E, g = full
    scaled perturbation including its diagonal); the series kernel handles
    the resulting repeated energy nodes exactly, which is occasionally
    useful for cross-checks, but none of the improved-scheme machinery
    accepts such a system.

    Raises:
        ValueError: the spec is malformed or not admissible, or tol_deg is
            negative or not finite (checked also with enabled=False).
        IncompleteDegeneracyRemoval: degenerate levels remain coupled
            after the last pass (see class docstring).
    """
    _validate(spec)
    if not (np.isfinite(tol_deg) and tol_deg >= 0):
        # a NaN or negative tolerance would tie no levels, not even equal ones
        raise ValueError(f"tol_deg must be a finite non-negative real, got {tol_deg}")
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
    floor = COUPLING_FLOOR * max(float(np.max(np.abs(h_eff))), 1e-300)
    q = _group_rotation(spec.energies, h_eff, _ties(spec.energies, tol_deg))
    e_new, g = _split(h_full, q)
    for done in range(1, _PASSES + 1):  # rotation passes run so far
        ties = _ties(e_new, tol_deg)
        coupled = [idx for idx in ties if np.max(np.abs(g[np.ix_(idx, idx)])) > floor]
        if not coupled:
            break
        if done == _PASSES:
            # A coupled tie makes the expansion's denominators 0/nonzero.
            idx = coupled[0]
            block = np.abs(g[np.ix_(idx, idx)])
            i, j = np.unravel_index(int(np.argmax(block)), block.shape)
            raise IncompleteDegeneracyRemoval(
                f"levels {idx[i]} and {idx[j]} remain degenerate "
                f"(tol {tol_deg:g}) with residual coupling {float(np.max(block)):.3e}"
            )
        q = q @ _group_rotation(e_new, g, ties)
        e_new, g = _split(h_full, q)

    return SplitSystem(
        energies_redivided=e_new,
        g=g,
        basis_rotation=q,
        energies_original=spec.energies.copy(),
        redivided=True,
    )
