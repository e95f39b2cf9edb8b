"""Level-energy revisions and the improved perturbative solutions built on them.

The truncated series of :mod:`perturbseries.series` carries secular terms
(powers of ``t`` multiplying oscillatory factors).  Those terms can be
resummed into shifted level energies: each level picks up a hierarchy of
real corrections, here called revision energies, and the low-order
amplitudes are rewritten with the shifted energies in every exponent while
keeping the original energy denominators.  This module computes the
revision hierarchy through fifth order, evaluates the rewritten amplitudes
of orders zero through three, and exposes the derived quantities that make
the scheme useful: an improved two-level transition probability, a revised
golden-rule transition rate for a tabulated continuum, and stationary
perturbed energies/states.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .model import IncompleteDegeneracyRemoval, SplitSystem
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


def _gap(energies: NDArray[np.float64], a: int, b: int) -> float:
    """Energy difference ``E'_a - E'_b``, refusing an exact tie.

    Callers only ask for gaps that multiply a nonzero coupling product,
    so a vanishing gap means the redivision step failed to remove a
    degeneracy that the closed forms cannot tolerate.
    """
    d = float(energies[a] - energies[b])
    if d == 0.0:
        raise IncompleteDegeneracyRemoval(
            f"levels {a} and {b} are exactly degenerate inside a coupled chain"
        )
    return d


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


def _inverse_gaps(
    energies: NDArray[np.float64],
    g: NDArray[np.complex128],
    gamma: int,
    max_order: int,
) -> NDArray[np.float64]:
    """Vector of 1/(E'_gamma - E'_i) with excluded levels zeroed.

    The reference level itself gets weight zero, which silently drops
    every sum term that the index-inequality factors exclude.  An exact
    energy tie with another level is tolerated only while that level
    cannot enter a nonzero numerator: through third order the tied level
    would need a direct coupling to ``gamma`` (forbidden after
    redivision), while the fourth- and fifth-order chains reach
    non-adjacent levels, so there any coupling at all on the tied level
    is refused.
    """
    diff = energies[gamma] - energies
    q = np.zeros_like(diff)
    for i in range(diff.shape[0]):
        if i == gamma:
            continue
        if diff[i] == 0.0:
            if g[gamma, i] != 0:
                raise IncompleteDegeneracyRemoval(
                    f"levels {gamma} and {i} are exactly degenerate and directly coupled"
                )
            if max_order >= 4 and np.any(g[i, :] != 0):
                raise IncompleteDegeneracyRemoval(
                    f"level {i} is exactly degenerate with level {gamma} and still coupled; "
                    "the fourth- and fifth-order revision sums would divide by zero"
                )
            continue
        q[i] = 1.0 / diff[i]
    return q


def revision_energies(sys: SplitSystem, max_order: int = 5) -> RevisionEnergies:
    """Compute the per-level revision hierarchy up to ``max_order``.

    Order two is the familiar second-order level shift
    ``sum_i |g[gamma, i]|^2 / (E'_gamma - E'_i)``.  Orders three to five
    sum longer closed coupling chains that start and end at the same
    level, with products of inverse gaps measured from that level, minus
    the disconnected-product corrections that remove the reducible part.
    All four are real for a Hermitian coupling matrix; the tiny imaginary
    round-off actually discarded is reported in ``imag_residual``.
    """
    if isinstance(max_order, bool) or not isinstance(max_order, (int, np.integer)):
        raise TypeError("max_order must be an integer")
    if not 2 <= max_order <= 5:
        raise ValueError("max_order must lie in 2..5")
    energies = sys.energies_redivided
    g = sys.g
    n = sys.dimension
    g2 = np.zeros(n)
    g3 = np.zeros(n)
    g4 = np.zeros(n)
    g5 = np.zeros(n)
    worst_imag = 0.0
    for gamma in range(n):
        q = _inverse_gaps(energies, g, gamma, int(max_order))
        absq = np.abs(g[gamma, :]) ** 2
        g2[gamma] = float(absq @ q)
        if max_order < 3:
            continue
        v_out = g[gamma, :] * q  # leave gamma, one inverse gap per step
        v_in = g[:, gamma] * q  # return to gamma, one inverse gap
        val3 = complex(v_out @ g @ v_in)
        g3[gamma] = val3.real
        worst_imag = max(worst_imag, abs(val3.imag))
        if max_order < 4:
            continue
        m_q = g * q[np.newaxis, :]
        hop2 = v_out @ m_q  # two steps out of gamma
        hop3 = hop2 @ m_q  # three steps
        s1 = float(absq @ q)
        s2 = float(absq @ (q * q))
        val4 = complex(hop3 @ g[:, gamma]) - s2 * s1
        g4[gamma] = val4.real
        worst_imag = max(worst_imag, abs(val4.imag))
        if max_order < 5:
            continue
        c21 = complex((g[gamma, :] * (q * q)) @ g @ v_in)
        c12 = complex(v_out @ g @ (g[:, gamma] * (q * q)))
        val5 = complex((hop3 @ m_q) @ g[:, gamma]) - (s2 * val3 + s1 * (c21 + c12))
        g5[gamma] = val5.real
        worst_imag = max(worst_imag, abs(val5.imag))
    return RevisionEnergies(
        energies=energies,
        h1=sys.diagonal_shift,
        g2=g2,
        g3=g3,
        g4=g4,
        g5=g5,
        max_order=int(max_order),
        imag_residual=worst_imag,
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
    energies.  By default each amplitude order absorbs the revision
    orders it can support: order 0 uses revisions 2-5, order 1 uses 2-4,
    order 2 uses 2-3 and order 3 uses only 2.  Pass ``g_orders`` to
    override (an empty sequence turns the scheme off, which reproduces
    the non-secular part of the plain truncated series).
    """
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)):
        raise TypeError("order must be an integer")
    if not 0 <= order <= 3:
        raise ValueError("improved amplitudes are available for orders 0..3")
    order = int(order)
    chosen = _resolve_g_orders(order, g_orders)
    if chosen:
        shifted = revision_energies(sys, max(chosen)).e_tilde(chosen)
    else:
        shifted = sys.energies_redivided
    tt = float(t)
    e = sys.energies_redivided
    g = sys.g
    n = sys.dimension
    phases = np.exp(-1j * shifted * tt)
    values = np.zeros((n, n), dtype=np.complex128)
    if order == 0:
        np.fill_diagonal(values, phases)
    elif order == 1:
        _improved_first(values, e, g, phases)
    elif order == 2:
        _improved_second(values, e, g, phases)
    else:
        _improved_third(values, e, g, phases)
    return AmplitudeMatrix(order=order, t=tt, values=values)


def _improved_first(
    values: NDArray[np.complex128],
    e: NDArray[np.float64],
    g: NDArray[np.complex128],
    phases: NDArray[np.complex128],
) -> None:
    n = e.shape[0]
    for gamma in range(n):
        for gp in range(n):
            if gp == gamma:
                continue
            c = g[gamma, gp]
            if c == 0:
                continue
            values[gamma, gp] = (phases[gamma] - phases[gp]) / _gap(e, gamma, gp) * c


def _improved_second(
    values: NDArray[np.complex128],
    e: NDArray[np.float64],
    g: NDArray[np.complex128],
    phases: NDArray[np.complex128],
) -> None:
    n = e.shape[0]
    for gamma in range(n):
        for g1 in range(n):
            prod = g[gamma, g1] * g[g1, gamma]
            if prod == 0:
                continue
            d1 = _gap(e, gamma, g1)
            values[gamma, gamma] -= (phases[gamma] - phases[g1]) / (d1 * d1) * prod
        for gp in range(n):
            if gp == gamma:
                continue
            acc = 0.0 + 0.0j
            for g1 in range(n):
                prod = g[gamma, g1] * g[g1, gp]
                if prod == 0:
                    continue
                d1 = _gap(e, gamma, g1)
                d2 = _gap(e, g1, gp)
                d3 = _gap(e, gamma, gp)
                acc += (
                    phases[gamma] / (d1 * d3)
                    - phases[g1] / (d1 * d2)
                    + phases[gp] / (d3 * d2)
                ) * prod
            values[gamma, gp] += acc


def _improved_third(
    values: NDArray[np.complex128],
    e: NDArray[np.float64],
    g: NDArray[np.complex128],
    phases: NDArray[np.complex128],
) -> None:
    n = e.shape[0]
    for gamma in range(n):
        # Closed three-step chains: the diagonal contribution.
        acc = 0.0 + 0.0j
        for g1 in range(n):
            c1 = g[gamma, g1]
            if c1 == 0:
                continue
            d1 = _gap(e, gamma, g1)
            for g2i in range(n):
                prod = c1 * g[g1, g2i] * g[g2i, gamma]
                if prod == 0:
                    continue
                d2 = _gap(e, gamma, g2i)
                d12 = _gap(e, g1, g2i)
                acc += (
                    -phases[gamma] / (d1 * d2 * d2)
                    - phases[gamma] / (d1 * d1 * d2)
                    + phases[g1] / (d1 * d1 * d12)
                    - phases[g2i] / (d2 * d2 * d12)
                ) * prod
        values[gamma, gamma] += acc
        for gp in range(n):
            if gp == gamma:
                continue
            cgp = g[gamma, gp]
            if cgp != 0:
                d3 = _gap(e, gamma, gp)
                # Chains that revisit gamma before hopping to the end level.
                acc = 0.0 + 0.0j
                for g1 in range(n):
                    prod = g[gamma, g1] * g[g1, gamma]
                    if prod == 0:
                        continue
                    d1 = _gap(e, gamma, g1)
                    acc += (1.0 / (d1 * d3 * d3) + 1.0 / (d1 * d1 * d3)) * prod
                values[gamma, gp] -= phases[gamma] * acc * cgp
                # Loops hanging off the end level, carrying its phase.
                # Without this family, zeroing every revision energy would
                # fail to recover the pure-exponential part of the plain
                # third-order amplitude.
                acc = 0.0 + 0.0j
                for g1 in range(n):
                    prod = g[gp, g1] * g[g1, gp]
                    if prod == 0:
                        continue
                    e1 = _gap(e, g1, gp)
                    acc += (1.0 / (d3 * e1 * e1) + 1.0 / (d3 * d3 * e1)) * prod
                values[gamma, gp] += phases[gp] * acc * cgp
            # Open three-step chains from gamma to the end level.
            acc = 0.0 + 0.0j
            for g1 in range(n):
                c1 = g[gamma, g1]
                if c1 == 0:
                    continue
                d1 = _gap(e, gamma, g1)
                for g2i in range(n):
                    prod = c1 * g[g1, g2i] * g[g2i, gp]
                    if prod == 0:
                        continue
                    piece = 0.0 + 0.0j
                    if g2i != gamma:
                        piece += phases[gamma] / (
                            d1 * _gap(e, gamma, g2i) * _gap(e, gamma, gp)
                        )
                    if g1 != gp:
                        piece -= phases[g1] / (
                            d1 * _gap(e, g1, g2i) * _gap(e, g1, gp)
                        )
                    if g2i != gamma:
                        piece += phases[g2i] / (
                            _gap(e, gamma, g2i) * _gap(e, g1, g2i) * _gap(e, g2i, gp)
                        )
                    if g1 != gp:
                        piece -= phases[gp] / (
                            _gap(e, gamma, gp) * _gap(e, g1, gp) * _gap(e, g2i, gp)
                        )
                    acc += piece * prod
            values[gamma, gp] += acc


def _check_level(sys: SplitSystem, level: int, name: str) -> int:
    if isinstance(level, bool) or not isinstance(level, (int, np.integer)):
        raise TypeError(f"{name} must be an integer level index")
    if not 0 <= level < sys.dimension:
        raise ValueError(f"{name} {level} outside 0..{sys.dimension - 1}")
    return int(level)


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
    beta = _check_level(sys, from_level, "from_level")
    gamma = _check_level(sys, to_level, "to_level")
    if beta == gamma:
        raise ValueError("transition requires two distinct levels")
    e = sys.energies_redivided
    omega = float(e[gamma] - e[beta])
    if omega == 0.0:
        raise ValueError("transition pair is exactly degenerate")
    shifted = revision_energies(sys, 4).e_tilde((2, 3, 4))
    omega_shifted = float(shifted[gamma] - shifted[beta])
    gsq = float(abs(sys.g[gamma, beta]) ** 2)
    tt = float(duration)
    half = 0.5 * omega
    p_improved = gsq * math.sin(0.5 * omega_shifted * tt) ** 2 / (half * half)
    p_usual = gsq * math.sin(0.5 * omega * tt) ** 2 / (half * half)
    delta_p = 2.0 * gsq * (math.cos(omega * tt) - math.cos(omega_shifted * tt)) / (omega * omega)
    return {"p_improved": p_improved, "p_usual": p_usual, "delta_p": delta_p}


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
    absq_beta = np.abs(sys.g[beta, :]) ** 2
    mask_b = absq_beta > 0.0
    gaps_b = e_beta - e[mask_b]
    if np.any(gaps_b == 0.0):
        raise IncompleteDegeneracyRemoval(
            f"level {beta} is exactly degenerate with a coupled partner"
        )
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
    a0 = np.zeros(n, dtype=np.complex128)
    a0[beta] = 1.0
    a1 = np.zeros(n, dtype=np.complex128)
    a2 = np.zeros(n, dtype=np.complex128)
    for gamma in range(n):
        if gamma == beta:
            continue
        c = g[gamma, beta]
        if c != 0:
            a1[gamma] = -c / _gap(e, gamma, beta)
        acc = 0.0 + 0.0j
        for g1 in range(n):
            if g1 == beta:
                continue
            prod = g[gamma, g1] * g[g1, beta]
            if prod == 0:
                continue
            acc += prod / (_gap(e, gamma, beta) * _gap(e, g1, beta))
        a2[gamma] = acc
    return {"a0": a0, "a1": a1, "a2": a2}
