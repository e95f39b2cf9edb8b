"""Level-energy revisions and the improved perturbative solutions built on them.

The truncated series of :mod:`perturbseries.series` carries secular terms
(powers of ``t`` multiplying oscillatory factors).  Those terms can be
resummed into shifted level energies: each level picks up a hierarchy of
real corrections, here called revision energies, and the low-order
amplitudes are rewritten with the shifted energies in every exponent while
keeping the original energy denominators.  This module computes the
revision hierarchy through fifth order, evaluates the rewritten amplitudes
of orders zero through three from residue weights of the resolvent
expansion (built once per system and order, then one matrix product per
time), and exposes the derived quantities that make
the scheme useful: an improved two-level transition probability, a revised
golden-rule transition rate for a tabulated continuum, and stationary
perturbed energies/states.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .model import SplitSystem, _refuse_coupled_ties
from .series import AmplitudeMatrix

__all__ = [
    "GoldenRuleInput",
    "RevisionEnergies",
    "golden_rule",
    "improved_amplitude",
    "improved_perturbed_energy",
    "improved_perturbed_state",
    "improved_transition_probability",
    "revision_energies",
]


def simpson(y: NDArray[np.float64], *, x: NDArray[np.float64]) -> float:
    """Composite Simpson quadrature (``scipy.integrate.simpson``).

    SciPy is imported on the first call: only the golden-rule revision
    integrates, and ``scipy.integrate`` takes most of the package's import time.
    """
    from scipy.integrate import simpson as scipy_simpson

    return scipy_simpson(y, x=x)


# sin^2(x)/x^2 falls below 1e-4 of its peak for |x| > 100, i.e. for
# detunings beyond 200/T.  The quadrature window must reach at least
# that far on both sides of the resonance.
_WINDOW_FACTOR = 200.0

# Which revision orders enter the shifted exponents of each rewritten
# amplitude.  The hierarchy is staggered: the lowest amplitude order
# absorbs the deepest revisions.
_LITERAL_G_ORDERS: dict[int, tuple[int, ...]] = {
    0: (2, 3, 4, 5),
    1: (2, 3, 4),
    2: (2, 3),
    3: (2,),
}


@dataclass(frozen=True)
class RevisionEnergies:
    """Per-level energy revisions of orders two through five.

    ``energies`` are the redivided level energies (diagonal perturbation
    already absorbed, recorded in ``h1``).  ``g2`` .. ``g5`` hold one real
    revision per level; orders above ``max_order`` were not computed and
    are stored as zeros.  ``imag_residual`` is the largest imaginary part
    discarded when realifying the third- through fifth-order sums — the
    sums are provably real for Hermitian couplings, so this is a
    round-off diagnostic.
    """

    energies: NDArray[np.float64]
    h1: NDArray[np.float64]
    g2: NDArray[np.float64]
    g3: NDArray[np.float64]
    g4: NDArray[np.float64]
    g5: NDArray[np.float64]
    max_order: int
    imag_residual: float

    def __post_init__(self) -> None:
        energies = np.array(self.energies, dtype=float, copy=True)
        if energies.ndim != 1 or energies.shape[0] == 0:
            raise ValueError("energies must be a non-empty one-dimensional array")
        energies.setflags(write=False)
        object.__setattr__(self, "energies", energies)
        for name in ("h1", "g2", "g3", "g4", "g5"):
            arr = np.array(getattr(self, name), dtype=float, copy=True)
            if arr.shape != energies.shape:
                raise ValueError(f"{name} must hold one value per level")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not 2 <= self.max_order <= 5:
            raise ValueError("max_order must lie in 2..5")

    @property
    def dimension(self) -> int:
        return self.energies.shape[0]

    def revision(self, order: int) -> NDArray[np.float64]:
        """The per-level revision array for one order in 2..max_order."""
        if order not in (2, 3, 4, 5):
            raise ValueError("revision order must lie in 2..5")
        if order > self.max_order:
            raise ValueError(f"revision order {order} was not computed (max_order={self.max_order})")
        return {2: self.g2, 3: self.g3, 4: self.g4, 5: self.g5}[order]

    def e_tilde(self, orders: Sequence[int] = (2, 3, 4, 5)) -> NDArray[np.float64]:
        """Shifted level energies: E' plus the requested revision orders."""
        chosen = tuple(orders)
        if len(set(chosen)) != len(chosen):
            raise ValueError("revision orders must not repeat")
        out = self.energies.copy()
        for order in chosen:
            out += self.revision(order)
        return out


def revision_energies(sys: SplitSystem, max_order: int = 5) -> RevisionEnergies:
    """Compute the per-level revision hierarchy up to ``max_order``.

    Order two is the familiar second-order level shift
    ``sum_i |g[gamma, i]|^2 / (E'_gamma - E'_i)``.  Orders three to five
    sum longer closed coupling chains that start and end at the same
    level, with products of inverse gaps measured from that level, minus
    the disconnected-product corrections that remove the reducible part.
    Row gamma of every array below belongs to reference level gamma, so
    each sum runs for all levels at once.  All four are real for a
    Hermitian coupling matrix; the tiny imaginary round-off actually
    discarded is reported in ``imag_residual``.
    """
    if isinstance(max_order, bool) or not isinstance(max_order, (int, np.integer)):
        raise TypeError("max_order must be an integer")
    if not 2 <= max_order <= 5:
        raise ValueError("max_order must lie in 2..5")
    energies = sys.energies_redivided
    g = sys.g
    n = sys.dimension
    why = "; the fourth- and fifth-order revision sums would divide by zero" if max_order >= 4 else ""
    # An order-m chain visits only levels within m // 2 couplings of gamma.
    _refuse_coupled_ties(energies, g, max_order // 2, why=why)
    q = _reduced_resolvents(energies)
    absq = np.abs(g) ** 2
    s1 = np.sum(absq * q, axis=1)
    sums = {order: np.zeros(n, dtype=np.complex128) for order in (3, 4, 5)}
    if max_order >= 3:
        v_out = g * q  # leave gamma, one inverse gap per step
        v_in = g.T * q  # return to gamma, one inverse gap
        hop1 = v_out @ g
        sums[3] = np.sum(hop1 * v_in, axis=1)
    if max_order >= 4:
        hop3 = ((hop1 * q) @ g) * q  # three steps out of gamma
        s2 = np.sum(absq * (q * q), axis=1)
        sums[4] = np.sum(hop3 * g.T, axis=1) - s2 * s1
    if max_order >= 5:
        c21 = np.sum(((g * (q * q)) @ g) * v_in, axis=1)
        c12 = np.sum(hop1 * (g.T * (q * q)), axis=1)
        chain5 = np.sum(((hop3 @ g) * q) * g.T, axis=1)
        sums[5] = chain5 - (s2 * sums[3] + s1 * (c21 + c12))
    return RevisionEnergies(
        energies=energies,
        h1=sys.diagonal_shift,
        g2=s1,
        g3=sums[3].real,
        g4=sums[4].real,
        g5=sums[5].real,
        max_order=int(max_order),
        imag_residual=max(float(np.max(np.abs(v.imag))) for v in sums.values()),
    )


def _resolve_g_orders(order: int, g_orders: Sequence[int] | None) -> tuple[int, ...]:
    if g_orders is None:
        return _LITERAL_G_ORDERS[order]
    chosen = tuple(int(a) for a in g_orders)
    for a in chosen:
        if not 2 <= a <= 5:
            raise ValueError("revision orders must lie in 2..5")
    if len(set(chosen)) != len(chosen):
        raise ValueError("revision orders must not repeat")
    return chosen


def _reduced_resolvents(e: NDArray[np.float64]) -> NDArray[np.float64]:
    """Inverse gaps q[k, j] = 1/(E'_k - E'_j), zero wherever the levels tie.

    Row k is the diagonal of Q_k, the reduced resolvent at the pole E'_k.
    """
    diff = e[:, np.newaxis] - e[np.newaxis, :]
    q = np.zeros(diff.shape)
    np.divide(1.0, diff, out=q, where=diff != 0.0)
    return q


def _compositions(total: int, slots: int) -> Iterator[tuple[int, ...]]:
    """Tuples of ``slots`` non-negative integers summing to ``total``, in lexicographic order."""
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first, *rest)


def _residue_factors(
    e: NDArray[np.float64], g: NDArray[np.complex128], order: int, power: int = 0
) -> tuple[NDArray[np.complex128], NDArray[np.complex128]]:
    """Rank-one factors of one Laurent coefficient of an amplitude order.

    The factors hold the u^-(power+1) Laurent coefficient at z = E'_k of
    R (g R)^order, with R = diag(1/(z - E')) and u = z - E'_k; divided by
    power!, it is the weight of (-i t)^power exp(-i E'_k t) in the
    order-``order`` amplitude (power 0 gives the residue).  Near E'_k,
    R = P_k / u + sum_{p>=1} (-u)^(p-1) Q_k^p, where P_k projects on level
    k and Q_k = diag(1/(E'_k - E'_j)), zero wherever E'_j = E'_k (Kato's
    reduced-resolvent expansion).  The coefficient sums the products of
    one Laurent term per R slot whose u-powers add up to -(power+1): in
    slot powers p_i = (u-power + 1), the compositions of
    ``order - power`` into ``order + 1`` slots, where p_i = 0 selects P_k.

    Every such product is rank one in each k: the slots before the first
    P_k give a column C[:, k] and the slots after the last give a row
    R[k, :].  Between consecutive poles the pole of a tie group projects
    on every level of the group, so each closed loop is a matrix over the
    tied levels, applied to the row; for distinct levels it is diagonal.
    Products sharing a column are summed.  Returns the columns and rows
    stacked, (n, K*n) and (K*n, n), so that the coefficient matrix for
    phases phi is (C * tile(phi, K)) @ R.
    """
    q = _reduced_resolvents(e)
    ties = e[:, np.newaxis] == e[np.newaxis, :]
    # Slot factor of power p for level k, indexed [k, j].
    slot = {p: (-1.0) ** (p - 1) * q**p for p in range(1, order + 1)}
    eye = np.eye(e.shape[0], dtype=np.complex128)
    columns: dict[tuple[int, ...], NDArray[np.complex128]] = {(): eye}
    rows: dict[tuple[int, ...], NDArray[np.complex128]] = {(): eye}
    loops: dict[tuple[int, ...], NDArray[np.complex128]] = {}

    def column(powers: tuple[int, ...]) -> NDArray[np.complex128]:
        # (D_p0 g D_p1 g ... D_pm g)[:, k] for every k at once.
        if powers not in columns:
            columns[powers] = slot[powers[0]].T * (g @ column(powers[1:]))
        return columns[powers]

    def row(powers: tuple[int, ...]) -> NDArray[np.complex128]:
        # (g D_p0 g D_p1 ... g D_pm)[k, :] for every k at once.
        if powers not in rows:
            rows[powers] = (row(powers[:-1]) @ g) * slot[powers[-1]]
        return rows[powers]

    def loop(powers: tuple[int, ...]) -> NDArray[np.complex128]:
        # (g D_p0 ... g D_pm g)[k, k'] for tied k, k'; zero elsewhere.
        if powers not in loops:
            loops[powers] = (row(powers) @ g) * ties
        return loops[powers]

    summed: dict[tuple[int, ...], NDArray[np.complex128]] = {}
    for powers in _compositions(order - power, order + 1):
        poles = [i for i, p in enumerate(powers) if p == 0]
        right = row(powers[poles[-1] + 1 :])
        for a, b in reversed(list(zip(poles, poles[1:]))):
            right = loop(powers[a + 1 : b]) @ right
        left = powers[: poles[0]]
        summed[left] = summed[left] + right if left in summed else right
    return (
        np.hstack([column(left) for left in summed]),
        np.vstack(list(summed.values())),
    )


def _improved_sum_grid(
    sys: SplitSystem,
    orders: Sequence[int],
    ts: NDArray[np.float64],
    g_orders: Sequence[int] | None = None,
) -> NDArray[np.complex128]:
    """Sum of the improved amplitudes of the given orders, shape (T, n, n).

    The revisions are computed once, at the deepest order any amplitude
    order absorbs, and the residue weights once per order; each time then
    costs one matrix product.
    """
    chosen = [_resolve_g_orders(l, g_orders) for l in orders]
    e = sys.energies_redivided
    deepest = max((max(c) for c in chosen if c), default=0)
    revisions = revision_energies(sys, deepest) if deepest else None
    # Phases and revisions are per level, so no tie may sit on an amplitude's chain.
    _refuse_coupled_ties(e, sys.g, max(orders), diagonal=max(orders) >= 2)
    columns, rows, shifted = [], [], []
    for l, c in zip(orders, chosen):
        col, row = _residue_factors(e, sys.g, l)
        columns.append(col)
        rows.append(row)
        shifted.append(np.tile(revisions.e_tilde(c) if c else e, col.shape[1] // e.shape[0]))
    columns_all, rows_all, energies_all = np.hstack(columns), np.vstack(rows), np.concatenate(shifted)
    out = np.empty((len(ts), e.shape[0], e.shape[0]), dtype=np.complex128)
    for i, t in enumerate(ts):
        out[i] = (columns_all * np.exp(-1j * energies_all * float(t))) @ rows_all
    return out


def improved_amplitude(
    sys: SplitSystem,
    order: int,
    t: float,
    *,
    g_orders: Sequence[int] | None = None,
) -> AmplitudeMatrix:
    """One rewritten amplitude matrix of the improved scheme.

    The rewritten forms replace every oscillatory exponent by the shifted
    energies while the algebraic denominators keep the plain redivided
    energies: the weight of each shifted phase is a residue of the
    order-``order`` resolvent product (see ``_residue_factors``).  By
    default each amplitude order absorbs the revision orders it can
    support: order 0 uses revisions 2-5, order 1 uses 2-4, order 2 uses
    2-3 and order 3 uses only 2.  Pass ``g_orders`` to override (an empty
    sequence turns the scheme off, which reproduces the non-secular part
    of the plain truncated series).
    """
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)):
        raise TypeError("order must be an integer")
    if not 0 <= order <= 3:
        raise ValueError("improved amplitudes are available for orders 0..3")
    tt = float(t)
    values = _improved_sum_grid(sys, (int(order),), np.array([tt]), g_orders)[0]
    return AmplitudeMatrix(order=int(order), t=tt, values=values)


def _check_level(sys: SplitSystem, level: int, name: str) -> int:
    if isinstance(level, bool) or not isinstance(level, (int, np.integer)):
        raise TypeError(f"{name} must be an integer level index")
    if not 0 <= level < sys.dimension:
        raise ValueError(f"{name} {level} outside 0..{sys.dimension - 1}")
    return int(level)


def _transition_probabilities(
    sys: SplitSystem,
    from_level: int,
    to_level: int,
    durations: Sequence[float],
    shifted: NDArray[np.float64] | None = None,
) -> list[dict[str, float]]:
    """``improved_transition_probability`` at each duration.

    ``shifted`` (the energies shifted by revisions 2-4) is computed here
    unless given, so a time grid computes the revisions once.  The
    arithmetic per duration is scalar, so every grid gives the same bits.
    """
    beta = _check_level(sys, from_level, "from_level")
    gamma = _check_level(sys, to_level, "to_level")
    if beta == gamma:
        raise ValueError("transition requires two distinct levels")
    e = sys.energies_redivided
    omega = float(e[gamma] - e[beta])
    if omega == 0.0:
        raise ValueError("transition pair is exactly degenerate")
    if shifted is None:
        shifted = revision_energies(sys, 4).e_tilde((2, 3, 4))
    omega_shifted = float(shifted[gamma] - shifted[beta])
    gsq = float(abs(sys.g[gamma, beta]) ** 2)
    half = 0.5 * omega
    out = []
    for duration in durations:
        tt = float(duration)
        p_improved = gsq * math.sin(0.5 * omega_shifted * tt) ** 2 / (half * half)
        p_usual = gsq * math.sin(0.5 * omega * tt) ** 2 / (half * half)
        delta_p = 2.0 * gsq * (math.cos(omega * tt) - math.cos(omega_shifted * tt)) / (omega * omega)
        out.append({"p_improved": p_improved, "p_usual": p_usual, "delta_p": delta_p})
    return out


def improved_transition_probability(
    sys: SplitSystem,
    from_level: int,
    to_level: int,
    duration: float,
) -> dict[str, float]:
    """First-order transition probability with shifted oscillation frequency.

    Returns ``p_improved`` (squared coupling times a sinc-squared factor
    whose frequency uses energies shifted by revisions 2-4, while the
    amplitude prefactor keeps the bare gap), ``p_usual`` (the textbook
    first-order result) and ``delta_p``, the difference written in the
    cosine form.  ``p_improved == p_usual + delta_p`` holds identically.
    """
    return _transition_probabilities(sys, from_level, to_level, (duration,))[0]


@dataclass(frozen=True)
class GoldenRuleInput:
    """Tabulated continuum data for the revised golden-rule rate.

    ``energy_grid`` samples the final-state energy axis (strictly
    increasing); ``density_of_states`` and ``coupling_profile`` give the
    state density and the squared coupling magnitude at those energies.
    Both are interpolated linearly between samples.  ``duration`` is the
    elapsed time of the first-order transition, ``initial_level`` the
    index of the decaying level.
    """

    energy_grid: NDArray[np.float64]
    density_of_states: NDArray[np.float64]
    coupling_profile: NDArray[np.float64]
    duration: float
    initial_level: int

    def __post_init__(self) -> None:
        grid = np.array(self.energy_grid, dtype=float, copy=True)
        if grid.ndim != 1 or grid.shape[0] < 3:
            raise ValueError("energy grid needs at least three one-dimensional samples")
        if not np.all(np.isfinite(grid)):
            raise ValueError("energy grid must be finite")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("energy grid must be strictly increasing")
        density = np.array(self.density_of_states, dtype=float, copy=True)
        coupling = np.array(self.coupling_profile, dtype=float, copy=True)
        for name, arr in (("density_of_states", density), ("coupling_profile", coupling)):
            if arr.shape != grid.shape:
                raise ValueError(f"{name} must match the energy grid shape")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            if np.any(arr < 0.0):
                raise ValueError(f"{name} must be non-negative")
        duration = float(self.duration)
        if not math.isfinite(duration) or duration <= 0.0:
            raise ValueError("duration must be a positive time")
        level = self.initial_level
        if isinstance(level, bool) or not isinstance(level, (int, np.integer)):
            raise TypeError("initial_level must be an integer index")
        if level < 0:
            raise ValueError("initial_level must be non-negative")
        for name, arr in (
            ("energy_grid", grid),
            ("density_of_states", density),
            ("coupling_profile", coupling),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "duration", duration)
        object.__setattr__(self, "initial_level", int(level))

    def density_at(self, energy: float) -> float:
        return float(np.interp(energy, self.energy_grid, self.density_of_states))

    def coupling_sq_at(self, energy: float) -> float:
        return float(np.interp(energy, self.energy_grid, self.coupling_profile))


def _second_order_map(
    sys: SplitSystem, beta: int, final_level: int
) -> Callable[[NDArray[np.float64]], NDArray[np.float64]]:
    """Detuning map: bare detuning plus the difference of level shifts.

    The continuum state is modelled on ``final_level``: its coupling row
    supplies the second-order shift of a final state parked at energy
    ``E'_beta + omega``, from which the (fixed) shift of the initial
    level is subtracted.
    """
    e = sys.energies_redivided
    e_beta = float(e[beta])
    _refuse_coupled_ties(e, sys.g, 1, level=beta, diagonal=True)
    absq_beta = np.abs(sys.g[beta, :]) ** 2
    mask_b = absq_beta > 0.0
    gaps_b = e_beta - e[mask_b]
    shift_beta = float(np.sum(absq_beta[mask_b] / gaps_b))
    absq_final = np.abs(sys.g[final_level, :]) ** 2
    mask_f = absq_final > 0.0
    poles = e[mask_f]
    weights = absq_final[mask_f]

    def omega_map(omega: NDArray[np.float64]) -> NDArray[np.float64]:
        om = np.asarray(omega, dtype=float)
        denom = (e_beta + om)[..., np.newaxis] - poles[np.newaxis, :]
        if np.any(denom == 0.0):
            raise ValueError(
                "detuning grid hits an intermediate resonance of the second-order map"
            )
        return om + np.sum(weights / denom, axis=-1) - shift_beta

    return omega_map


def golden_rule(
    inp: GoldenRuleInput,
    sys: SplitSystem,
    *,
    final_level: int | None = None,
    omega_tilde: Callable[[NDArray[np.float64]], NDArray[np.float64]] | None = None,
) -> dict[str, float]:
    """Golden-rule rate plus its finite-time revision for a tabulated continuum.

    ``w_fermi`` is the familiar ``2*pi*rho*|g|^2`` evaluated at the
    resonance energy of the initial level.  ``delta_w`` integrates the
    cosine-difference correction over the tabulated grid with composite
    Simpson quadrature, using a detuning map that shifts the oscillation
    frequency to second order.  The map is built from ``final_level``'s
    coupling row unless an explicit ``omega_tilde`` callable is supplied
    (it must accept and return arrays of detunings).

    The grid, recentred on the initial level, must extend past
    ``200/duration`` on both sides so the neglected tails of the
    underlying sinc-squared kernel are below 1e-4 of its peak.
    """
    beta = _check_level(sys, inp.initial_level, "initial_level")
    e_beta = float(sys.energies_redivided[beta])
    tt = inp.duration
    omega = inp.energy_grid - e_beta
    needed = _WINDOW_FACTOR / tt
    if omega[0] > -needed or omega[-1] < needed:
        raise ValueError(
            "integration window too narrow: the grid must reach past "
            f"±{needed:.6g} around the resonance energy {e_beta:.6g}"
        )
    if omega_tilde is None:
        if final_level is None:
            raise ValueError("either final_level or an explicit omega_tilde map is required")
        mapped = _second_order_map(sys, beta, _check_level(sys, final_level, "final_level"))
    else:
        mapped = omega_tilde
    w_fermi = 2.0 * math.pi * inp.density_at(e_beta) * inp.coupling_sq_at(e_beta)
    weight = inp.density_of_states * inp.coupling_profile
    integrand = np.zeros_like(omega)
    nonzero = omega != 0.0
    om_nz = omega[nonzero]
    shifted = np.asarray(mapped(om_nz), dtype=float)
    if shifted.shape != om_nz.shape:
        raise ValueError("omega_tilde must return one detuning per input detuning")
    if not np.all(np.isfinite(shifted)):
        raise ValueError("omega_tilde produced non-finite detunings on the grid")
    integrand[nonzero] = (
        weight[nonzero]
        * (np.cos(om_nz * tt) - np.cos(shifted * tt))
        / (tt * om_nz * om_nz)
    )
    for idx in np.nonzero(~nonzero)[0]:
        if weight[idx] == 0.0:
            continue  # the tabulated weight removes the pole
        at_zero = float(np.asarray(mapped(np.array([0.0])), dtype=float)[0])
        if not math.isfinite(at_zero) or 1.0 - math.cos(at_zero * tt) != 0.0:
            raise ValueError(
                "integrand is singular at zero detuning; taper the coupling "
                "profile (or density) to zero at the resonance"
            )
    delta_w = 2.0 * float(simpson(integrand, x=omega))
    return {"w_fermi": w_fermi, "delta_w": delta_w, "w": w_fermi + delta_w}


def improved_perturbed_energy(
    sys: SplitSystem,
    level: int,
    *,
    g_orders: Sequence[int] = (2, 3, 4),
) -> dict[str, float]:
    """Stationary perturbed energy of one level in the improved scheme.

    The zeroth-order value is the shifted level energy itself; the first
    and second corrections vanish identically because the revisions they
    would produce are already inside the shift.
    """
    beta = _check_level(sys, level, "level")
    chosen = tuple(int(a) for a in g_orders)
    if chosen:
        e0 = float(revision_energies(sys, max(chosen)).e_tilde(chosen)[beta])
    else:
        e0 = float(sys.energies_redivided[beta])
    return {"e0": e0, "e1": 0.0, "e2": 0.0, "e_total": e0}


def improved_perturbed_state(
    sys: SplitSystem, level: int
) -> dict[str, NDArray[np.complex128]]:
    """Expansion coefficients of one perturbed eigenstate, orders 0..2.

    The zeroth order is the unit vector on the chosen level.  The first
    and second orders are the off-diagonal textbook coefficients (no
    normalization correction): the improved scheme moves all diagonal
    information into the shifted energies, so the diagonal entries of
    the corrections are exactly zero.
    """
    beta = _check_level(sys, level, "level")
    e = sys.energies_redivided
    g = sys.g
    n = sys.dimension
    # q drops the levels tied with beta: exact unless one reaches beta in one or two hops.
    _refuse_coupled_ties(e, g, 2, level=beta)
    q_beta = _reduced_resolvents(e)[beta]
    a0 = np.zeros(n, dtype=np.complex128)
    a0[beta] = 1.0
    a1 = q_beta * g[:, beta]
    a2 = q_beta * (g @ a1)
    return {"a0": a0, "a1": a1, "a2": a2}
