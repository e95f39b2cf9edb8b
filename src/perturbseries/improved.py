"""Level-energy revisions and the improved perturbative solutions built on them.

The truncated series of :mod:`perturbseries.series` carries secular terms
(powers of ``t`` multiplying oscillatory factors).  Those terms can be
resummed into shifted level energies: each level picks up a hierarchy of
real corrections, here called revision energies, and the low-order
amplitudes are rewritten with the shifted energies in every exponent while
keeping the original energy denominators.  This module computes the
revision hierarchy through fifth order, the perturbed states and the
weights of the rewritten amplitudes of orders zero through three from one
Rayleigh-Schrodinger recursion for all levels at once, in Bloch's
wave-operator form: a weight is a coefficient of the series of a perturbed
eigenprojector.  Its order-0 state correction is the identity, so the
terms that carry it are added as scaled rows and columns, and only the
others take a matrix product, one per chunk of times.  It also
exposes the derived quantities that make the scheme useful: an improved
two-level transition probability, a revised golden-rule transition rate
for a tabulated continuum, and stationary perturbed energies/states.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .ddkernel import _CHUNK_BYTES, _finite_time, _integer
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


def _ratio(num: NDArray[np.float64] | float, den: NDArray[np.float64]) -> NDArray[np.float64]:
    """``num / den``, and 0 where ``den`` is 0, as SciPy guards repeated abscissae."""
    return np.divide(num, den, out=np.zeros_like(den), where=den != 0)


def simpson(y: NDArray[np.float64], *, x: NDArray[np.float64]) -> float:
    """Composite Simpson quadrature of samples ``y`` on a 1-D float grid ``x``.

    Returns the bits of ``scipy.integrate.simpson(y, x=x)`` (SciPy 1.17) for
    at least three points: paired panels with the uneven-spacing weights,
    computed in SciPy's operation order, and for an even point count the
    correction over the last interval of Cartwright's composite rule for
    irregularly spaced data (J. Math. Sci. Math. Educ. 12(2), 2017).
    """
    h = np.diff(x)
    end = 2 * ((len(x) - 1) // 2)  # the paired panels span points 0..end
    h0, h1 = h[0:end:2], h[1:end:2]
    hsum = h0 + h1
    h0_h1 = _ratio(h0, h1)
    panels = hsum / 6.0 * (
        y[0:end:2] * (2.0 - _ratio(1.0, h0_h1))
        + y[1:end:2] * (hsum * _ratio(hsum, h0 * h1))
        + y[2 : end + 1 : 2] * (2.0 - h0_h1)
    )
    total = np.sum(panels)
    if len(x) % 2:
        return float(total)
    # One-element arrays, not scalars: SciPy's 0-d arrays raise to the third
    # power through np.power, which can differ from scalar ** by one ulp.
    a, b = h[-2:-1], h[-1:]
    alpha = _ratio(2 * b**2 + 3 * a * b, 6 * (b + a))
    beta = _ratio(b**2 + 3.0 * a * b, 6 * a)
    eta = _ratio(1 * b**3, 6 * a * (a + b))
    last = alpha * y[-1] + beta * y[-2] - eta * y[-3]
    # SciPy adds its 0.0 two-point term last, which would turn a -0.0 into +0.0
    return float(total + last[0] + 0.0)


# sin^2(x)/x^2 falls below 1e-4 of its peak for |x| > 100, i.e. for
# detunings beyond 200/T.  The quadrature window must reach at least
# that far on both sides of the resonance.
_WINDOW_FACTOR = 200.0

# The improved forms stop at amplitude order 3.  The revisions in the
# shifted exponents are staggered: amplitude order l absorbs revisions
# 2..(_IMPROVED_MAX + 2 - l), so order 0 takes the deepest, _REVISION_MAX.
_IMPROVED_MAX = 3
_REVISION_MAX = _IMPROVED_MAX + 2


@dataclass(frozen=True)
class RevisionEnergies:
    """Per-level energy revisions of orders two through five.

    ``energies`` are the redivided level energies (diagonal perturbation
    already absorbed, recorded in ``h1``).  ``g2`` .. ``g5`` hold one real
    revision per level; orders above ``max_order`` were not computed and
    are stored as zeros.  ``imag_residual`` is the largest imaginary part
    discarded when realifying the revisions of orders two through
    ``max_order`` — they are provably real for Hermitian couplings, so
    this is a round-off diagnostic.
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
        max_order = _integer(self.max_order, "max_order must be an integer")
        if not 2 <= max_order <= _REVISION_MAX:
            raise ValueError(f"max_order must lie in 2..{_REVISION_MAX}")
        object.__setattr__(self, "max_order", max_order)

    @property
    def dimension(self) -> int:
        return self.energies.shape[0]

    def revision(self, order: int) -> NDArray[np.float64]:
        """The per-level revision array for one order in 2..max_order."""
        (order,) = _check_g_orders((order,))
        return self._computed(order)

    def e_tilde(self, orders: Sequence[int] | None = None) -> NDArray[np.float64]:
        """Shifted level energies: E' plus the given revision orders (default: 2..max_order)."""
        chosen = range(2, self.max_order + 1) if orders is None else _check_g_orders(orders)
        out = self.energies.copy()
        for order in chosen:
            out += self._computed(order)
        return out

    def _computed(self, order: int) -> NDArray[np.float64]:
        if order > self.max_order:
            raise ValueError(f"revision order {order} was not computed (max_order={self.max_order})")
        return getattr(self, f"g{order}")


def revision_energies(sys: SplitSystem, max_order: int = _REVISION_MAX) -> RevisionEnergies:
    """Compute the per-level revision hierarchy up to ``max_order``.

    The revision of order j is the Rayleigh-Schrodinger energy correction
    E^(j), for all levels at once from ``_rayleigh_schrodinger``: order two
    is the shift ``sum_i |g[gamma, i]|^2 / (E'_gamma - E'_i)``, and each
    higher order sums the closed coupling chains from gamma back to itself,
    minus products of lower revisions.  A diagonal coupling kept by
    skipping redivision would give E^(1) and is refused.  All
    orders are real for a Hermitian coupling; the tiny imaginary round-off
    discarded is reported in ``imag_residual``.
    """
    max_order = _integer(max_order, "max_order must be an integer")
    if not 2 <= max_order <= _REVISION_MAX:
        raise ValueError(f"max_order must lie in 2..{_REVISION_MAX}")
    shifts, _ = _rayleigh_schrodinger(sys.energies_redivided, sys.g, max_order)
    return _revisions(sys, shifts, max_order)


def _revisions(
    sys: SplitSystem, shifts: list[NDArray[np.complex128]], max_order: int
) -> RevisionEnergies:
    """The revisions of orders 2..max_order from ``_rayleigh_schrodinger``'s shifts.

    Refused where an exact tie or a kept diagonal coupling makes them wrong.
    """
    why = "; the fourth- and fifth-order revision sums would divide by zero" if max_order >= 4 else ""
    # An order-m chain visits only levels within m // 2 couplings of gamma.
    _refuse_coupled_ties(sys.energies_redivided, sys.g, max_order // 2, diagonal=True, why=why)
    levels = [shift[: sys.dimension] for shift in shifts[2 : max_order + 1]]
    uncomputed = [np.zeros(sys.dimension)] * (_REVISION_MAX - max_order)
    return RevisionEnergies(
        sys.energies_redivided,
        sys.diagonal_shift,
        *[v.real for v in levels],
        *uncomputed,
        max_order=max_order,
        imag_residual=max(float(np.max(np.abs(v.imag))) for v in levels),
    )


def _check_g_orders(g_orders: Sequence[int]) -> tuple[int, ...]:
    """The revision orders as distinct ints in 2.._REVISION_MAX; anything else raises."""
    chosen = tuple(_integer(a, "revision orders must be integers") for a in g_orders)
    if not all(2 <= a <= _REVISION_MAX for a in chosen):
        raise ValueError(f"revision orders must lie in 2..{_REVISION_MAX}")
    if len(set(chosen)) != len(chosen):
        raise ValueError("revision orders must not repeat")
    return chosen


def _resolve_g_orders(order: int, g_orders: Sequence[int] | None) -> tuple[int, ...]:
    default = tuple(range(2, _REVISION_MAX + 1 - order))
    return default if g_orders is None else _check_g_orders(g_orders)


# The revisions in the shifted energies of the stationary and two-level forms.
_DEFAULT_G_ORDERS = (2, 3, 4)


def _shifted_energies(sys: SplitSystem, g_orders: Sequence[int]) -> NDArray[np.float64]:
    """E' plus the revisions of the given orders; E' itself when there are none."""
    chosen = _check_g_orders(g_orders)
    if not chosen:
        return sys.energies_redivided.copy()
    return revision_energies(sys, max(chosen)).e_tilde(chosen)


def _reduced_resolvents(e: NDArray[np.float64]) -> NDArray[np.float64]:
    """Inverse gaps q[k, j] = 1/(E'_k - E'_j), zero wherever the levels tie.

    Row k is the diagonal of Q_k, the reduced resolvent at the pole E'_k.
    """
    return _ratio(1.0, e[:, np.newaxis] - e[np.newaxis, :])


def _tie_pattern(e: NDArray[np.float64]) -> tuple[NDArray[np.intp], NDArray[np.intp]]:
    """Rows and columns of the entries of a matrix block diagonal over the exact ties.

    The N diagonal entries come first, then the ordered pairs of distinct,
    exactly tied levels in row-major order.  A vector over these entries
    holds such a matrix: E^(j), the overlap of the perturbed states and its
    inverse.
    """
    a, b = np.nonzero(e[:, np.newaxis] == e)
    first = np.argsort(a != b, kind="stable")
    return a[first], b[first]


def _rayleigh_schrodinger(
    e: NDArray[np.float64], g: NDArray[np.complex128], order: int
) -> tuple[list[NDArray[np.complex128]], list[NDArray[np.complex128]]]:
    """Rayleigh-Schrodinger corrections of all levels, in Bloch's wave-operator form.

    Column k of ``states[j]`` is the state correction Psi_j of level k in
    intermediate normalisation (j < order), and ``shifts[j]`` the order-j
    effective Hamiltonian E^(j) = g Psi_{j-1} on ``_tie_pattern(e)`` (j <=
    order): its first N entries are the energy corrections, the rest
    couple exactly tied levels (C. Bloch, Nucl. Phys. 6, 329, 1958).
    Psi_0 = 1 and Psi_j = q^T * (g Psi_{j-1} - sum_{i=1}^{j-1} Psi_{j-i} E^(i)),
    with q from ``_reduced_resolvents``: one N x N product per order, the
    last order's E^(j) an einsum.  E^(1) is the diagonal of g and its tied
    pairs, zero after redivision unless a tied pair is coupled; the sum
    then starts at i = 2.
    """
    n = e.shape[0]
    rows, cols = _tie_pattern(e)
    a, b = rows[n:], cols[n:]
    qt = _reduced_resolvents(e).T
    shifts = [np.zeros(rows.shape, dtype=np.complex128), g[rows, cols]]
    states = [np.eye(n, dtype=np.complex128), qt * g]
    first = 1 if shifts[1].any() else 2
    for j in range(2, order):
        product = g @ states[j - 1]
        shifts.append(product[rows, cols])
        for i in range(first, j):
            product -= shifts[i][:n] * states[j - i]
            if b.size:  # each tied pair (a, b) of E^(i) takes Psi_{j-i}[:, a] into column b
                np.subtract.at(product, (slice(None), b), states[j - i][:, a] * shifts[i][n:])
        states.append(qt * product)
    shifts.append(np.einsum("pl,lp->p", g[rows], states[order - 1][:, cols]))
    return shifts, states


def _projector_weights(
    e: NDArray[np.float64],
    shifts: list[NDArray[np.complex128]],
    states: list[NDArray[np.complex128]],
    top: int,
    powers: int,
) -> tuple[
    tuple[NDArray[np.intp], NDArray[np.intp]],
    list[NDArray[np.complex128]],
    list[NDArray[np.complex128]],
    NDArray[np.complex128],
]:
    """Factors of the phase weights in the amplitudes of orders 0..top.

    The exact propagator sums exp(-i H t) P over the tie groups, P the
    projector on a group's perturbed states.  With the wave operator
    Omega = sum_j Psi_j, P = Omega S Omega^H for S the inverse of the
    overlap Omega^H Omega on the tie blocks, and H Omega = Omega (E' + delta)
    with delta = sum_j E^(j) (Kato 1966, Ch. II §2).  So the weight of
    (-i t)^p exp(-i E'_k t) in order l sums Psi_i M Psi_j^H / p! over
    i + j + m = l, M the order-m part of delta^p S, and M depends on the
    pair (i, j) only through s = i + j.

    Returns the pattern ``(rows, cols)`` of ``_tie_pattern(e)``, of size K;
    ``left[i]`` (N, K), Psi_i at the pattern's rows, and ``right[j]`` (K, N),
    Psi_j^H at its columns, for i, j <= top; and ``weights[p, l, s]`` (K,),
    the M of the pairs with i + j = s in order l (zero for s > l), for power
    p < ``powers``.  ``_projector_sum`` puts them together.  Block-diagonal
    matrices stay vectors over the pattern: no N x N product is formed here.
    """
    rows, cols = _tie_pattern(e)
    size = rows.shape[0]
    # Block products: entry x = (r, c) times entry y = (c, s) adds to z = (r, s).
    x, y = np.nonzero(cols[:, np.newaxis] == rows)
    where = np.zeros((e.shape[0],) * 2, dtype=np.intp)
    where[rows, cols] = np.arange(size)
    z = where[rows[x], cols[y]]

    def convolve(
        a: list[NDArray[np.complex128]], b: list[NDArray[np.complex128]], m: int
    ) -> NDArray[np.complex128]:
        # sum_{k=1}^m a_k b_{m-k}, products of block-diagonal matrices.
        out = np.zeros(size, dtype=np.complex128)
        for k in range(1, m + 1):
            np.add.at(out, z, a[k][x] * b[m - k][y])
        return out

    left = [psi[:, rows] for psi in states[: top + 1]]
    right = [psi[:, cols].conj() for psi in states[: top + 1]]
    # Psi_0 = 1 and Psi_j (j >= 1) vanishes on the pattern, so the terms
    # i = 0 and i = m of sum_i Psi_i^H Psi_{m-i} are zero for m >= 1.
    overlap = [(rows == cols).astype(np.complex128)]
    for m in range(1, top + 1):
        products = (np.einsum("rx,rx->x", left[i], right[m - i]) for i in range(1, m))
        overlap.append(sum(products, np.zeros(size, dtype=np.complex128)).conj())
    inverse = overlap[:1]  # S, from O S = 1
    for m in range(1, top + 1):
        inverse.append(-convolve(overlap, inverse, m))
    series = [inverse]  # delta^p S for p = 0, 1, ...
    for _ in range(1, powers):
        series.append([convolve(shifts, series[-1], m) for m in range(top + 1)])
    lag = np.subtract.outer(np.arange(top + 1), np.arange(top + 1))  # l - s
    weights = np.where(lag[..., np.newaxis] >= 0, np.array(series)[:, lag], 0.0)
    return (rows, cols), left, [r.T for r in right], weights


def _projector_sum(
    pattern: tuple[NDArray[np.intp], NDArray[np.intp]],
    left: list[NDArray[np.complex128]],
    right: list[NDArray[np.complex128]],
    coefficients: NDArray[np.complex128],
) -> NDArray[np.complex128]:
    """sum_{i+j<=top} Psi_i diag(c_{i+j}) Psi_j^H for each leading index, shape (T, N, N).

    ``pattern``, ``left`` and ``right`` come from ``_projector_weights``;
    ``coefficients`` (T, top + 1, K) holds c_s over the pattern for each
    time (or power).  Psi_0 = 1 selects entries: the pairs with i = 0 add
    c_j Psi_j^H to the pattern's rows and those with j = 0 add Psi_i c_i to
    its columns (a slice add for the N diagonal entries, ``np.add.at`` for
    the tied pairs), summed over j or i by one small batched product.  Only
    the pairs i, j >= 1 form an N x N product, one per chunk of times, of
    inner width K times their number: 3K at order 3, 6K at order 4.
    """
    rows, cols = pattern
    n, size = left[0].shape
    top = len(left) - 1
    pairs = [(i, s - i) for s in range(2, top + 1) for i in range(1, s)]
    sums = [i + j for i, j in pairs]
    width = len(pairs) * size
    if pairs:
        columns = np.concatenate([left[i] for i, _ in pairs], axis=1)
        stacked = np.concatenate([right[j] for _, j in pairs])
    # ends[p, s - 1]: row p of Psi_s^H, then column p of Psi_s.
    ends = np.empty((size, top, 2 * n), dtype=np.complex128)
    for s in range(1, top + 1):
        ends[:, s - 1, :n], ends[:, s - 1, n:] = right[s], left[s].T
    a, b = rows[n:], cols[n:]
    times = coefficients.shape[0]
    out = np.empty((times, n, n), dtype=np.complex128)
    span = max(1, _CHUNK_BYTES // (16 * n * max(width, n)))
    scaled = np.empty((min(span, times), n, width), dtype=np.complex128)
    for lo in range(0, times, span):
        c = coefficients[lo : lo + span]
        m = c.shape[0]
        block = out[lo : lo + m]
        if pairs:
            np.multiply(columns, c[:, sums].reshape(m, 1, width), out=scaled[:m])
            np.matmul(scaled[:m].reshape(m * n, width), stacked, out=block.reshape(m * n, n))
        else:
            block.fill(0.0)
        block.reshape(m, n * n)[:, :: n + 1] += c[:, 0, :n]
        ends_c = np.matmul(c[:, 1:].transpose(2, 0, 1), ends)  # (K, m, 2N)
        block += ends_c[:n, :, :n].transpose(1, 0, 2)
        block += ends_c[:n, :, n:].transpose(1, 2, 0)
        if a.size:
            np.add.at(block, (slice(None), a, b), c[:, 0, n:])
            np.add.at(block, (slice(None), a), ends_c[n:, :, :n].transpose(1, 0, 2))
            np.add.at(block, (slice(None), slice(None), b), ends_c[n:, :, n:].transpose(1, 2, 0))
    return out


def _improved_sum_grid(
    sys: SplitSystem,
    orders: Sequence[int],
    ts: NDArray[np.float64],
    g_orders: Sequence[int] | None = None,
) -> NDArray[np.complex128]:
    """Sum of the improved amplitudes of the given orders, shape (T, n, n).

    One ``_rayleigh_schrodinger`` call, at the deepest order any revision or
    amplitude needs, gives the revisions and the phase weights of every
    order (``_projector_weights``).  The coefficient c_s of the pairs with
    i + j = s sums each order's shifted phases times its weight for s, and
    ``_projector_sum`` forms the amplitudes, with one product per chunk of
    times over the pairs i, j >= 1.
    """
    orders = [_integer(l, "order must be an integer") for l in orders]
    if not all(0 <= l <= _IMPROVED_MAX for l in orders):
        raise ValueError(f"improved amplitudes are available for orders 0..{_IMPROVED_MAX}")
    chosen = [_resolve_g_orders(l, g_orders) for l in orders]
    e = sys.energies_redivided
    top = max(orders)
    deepest = max((max(c) for c in chosen if c), default=0)
    # Order 2 at least: an order-1 call would file diag(g) as E^(2).
    shifts, states = _rayleigh_schrodinger(e, sys.g, max(deepest, top + 1, 2))
    revisions = _revisions(sys, shifts, deepest) if deepest else None
    # Phases and revisions are per level, so no tie may sit on an amplitude's chain.
    _refuse_coupled_ties(e, sys.g, top, diagonal=top >= 2)
    pattern, left, right, weights = _projector_weights(e, shifts, states, top, 1)
    # E' plus each order's revisions in list order, as ``e_tilde`` adds them
    levels = np.array([sum((revisions._computed(j) for j in c), e) for c in chosen])
    phases = np.exp(-1j * (ts[:, np.newaxis, np.newaxis] * levels[:, pattern[0]]))
    coefficients = np.einsum("tok,osk->tsk", phases, weights[0][orders])
    return _projector_sum(pattern, left, right, coefficients)


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
    energies: the weight of each shifted phase is the order-``order`` part
    of the level's perturbed eigenprojector (see ``_projector_weights``).  By
    default each amplitude order absorbs the revision orders it can
    support: order 0 uses revisions 2-5, order 1 uses 2-4, order 2 uses
    2-3 and order 3 uses only 2.  Pass ``g_orders`` to override (an empty
    sequence turns the scheme off, which reproduces the non-secular part
    of the plain truncated series).
    """
    tt = _finite_time(t)
    values = _improved_sum_grid(sys, (order,), np.array([tt]), g_orders)[0]
    return AmplitudeMatrix(order=order, t=tt, values=values)


def _check_level(sys: SplitSystem, level: int, name: str) -> int:
    level = _integer(level, f"{name} must be an integer level index")
    if not 0 <= level < sys.dimension:
        raise ValueError(f"{name} {level} outside 0..{sys.dimension - 1}")
    return level


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
        shifted = _shifted_energies(sys, _DEFAULT_G_ORDERS)
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
    duration = _finite_time(duration, "duration")
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
        level = _integer(self.initial_level, "initial_level must be an integer index")
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
        object.__setattr__(self, "initial_level", level)

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
    shift_beta = float(_rayleigh_schrodinger(e, sys.g, 2)[0][2][beta].real)
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
    underlying sinc-squared kernel are below 1e-4 of its peak.  Recentring
    can round neighbouring grid energies onto one detuning; such a grid is
    refused, naming the first pair.
    """
    beta = _check_level(sys, inp.initial_level, "initial_level")
    e_beta = float(sys.energies_redivided[beta])
    tt = inp.duration
    omega = inp.energy_grid - e_beta
    collapsed = np.flatnonzero(np.diff(omega) <= 0.0)
    if collapsed.size:
        i = int(collapsed[0])
        raise ValueError(
            f"energy grid points {i} and {i + 1} ({inp.energy_grid[i]:.17g} and "
            f"{inp.energy_grid[i + 1]:.17g}) round to one detuning {omega[i]:.17g} from the "
            f"resonance energy {e_beta:.17g}; the quadrature needs strictly increasing detunings"
        )
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
    # The detunings strictly increase, so at most one sits at zero, and a
    # zero tabulated weight there removes the pole.
    if np.any(weight[~nonzero] != 0.0):
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
    g_orders: Sequence[int] = _DEFAULT_G_ORDERS,
) -> dict[str, float]:
    """Stationary perturbed energy of one level in the improved scheme.

    The zeroth-order value is the shifted level energy itself; the first
    and second corrections vanish identically because the revisions they
    would produce are already inside the shift.
    """
    beta = _check_level(sys, level, "level")
    e0 = float(_shifted_energies(sys, g_orders)[beta])
    return {"e0": e0, "e1": 0.0, "e2": 0.0, "e_total": e0}


def improved_perturbed_state(
    sys: SplitSystem, level: int
) -> dict[str, NDArray[np.complex128]]:
    """Expansion coefficients of one perturbed eigenstate, orders 0..2.

    The zeroth order is the unit vector on the chosen level; the first and
    second are its columns of the revisions' state corrections Psi_1 and
    Psi_2 (``_rayleigh_schrodinger``), with no normalization correction.
    The improved scheme moves all diagonal information into the shifted
    energies, so their diagonal entries are exactly zero, and a diagonal
    coupling kept on ``level`` is refused.
    """
    beta = _check_level(sys, level, "level")
    e = sys.energies_redivided
    # q drops the levels tied with beta: exact unless one reaches beta in one or two hops.
    _refuse_coupled_ties(e, sys.g, 2, level=beta, diagonal=True)
    _, states = _rayleigh_schrodinger(e, sys.g, 3)
    return {f"a{j}": states[j][:, beta].copy() for j in range(3)}
