"""Path-walk oracle for the t-power split of the order-by-order amplitudes.

Each divided difference of e^{-i*x*t} over a multiset of nodes has an
exact Hermite partial-fraction form: each distinct node y of multiplicity
mu contributes (-i*t)^p * e^{-i*y*t} for p < mu.  Walking every coupling
path, grouping the paths by their node multiset and splitting each
divided difference this way regroups an amplitude by t-power.  The walk
is exponential in the order and the coefficients are built node by node
in scalar arithmetic; it stays here as a reference that shares no code
with the package's eigenprojector split.
"""

from __future__ import annotations

from math import comb, factorial
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from pathsum import path_weights


def _phi_derivatives(y: float, others: list[tuple[float, int]], up_to: int) -> list[float]:
    """Derivatives phi^(0..up_to) at y of phi(x) = prod (x - z)^(-mu_z).

    Uses the logarithmic-derivative recursion: with L = log(phi),
    phi^(n) = sum_{k<n} C(n-1, k) phi^(k) L^(n-k), and
    L^(m)(y) = -sum_z mu_z * (-1)^(m-1) * (m-1)! / (y - z)^m.
    """
    phi0 = 1.0
    for z, mult in others:
        phi0 *= (y - z) ** (-mult)
    log_derivs = [0.0]  # placeholder for m = 0 (unused)
    for m in range(1, up_to + 1):
        val = 0.0
        sign = -1.0 if (m - 1) % 2 else 1.0
        for z, mult in others:
            val -= mult * sign * factorial(m - 1) / (y - z) ** m
        log_derivs.append(val)
    phi = [phi0]
    for n in range(1, up_to + 1):
        acc = 0.0
        for k in range(n):
            acc += comb(n - 1, k) * phi[k] * log_derivs[n - k]
        phi.append(acc)
    return phi


def dd_exp_parts(nodes: NDArray[np.float64] | Sequence[float]) -> list[tuple[int, float, float]]:
    """Exact decomposition of the divided difference into t-power terms.

    Returns triples (p, y, a) such that for every t

        dd_exp(nodes, t) = sum over triples of  a * (-i*t)^p * e^{-i*y*t}.

    Nodes are grouped by exact value; each distinct node y of
    multiplicity mu contributes powers p < mu with real coefficients
    built from derivatives of prod (x - z)^(-mu_z).  The coefficients
    grow like inverse powers of the node gaps.
    """
    values: list[float] = []
    counts: list[int] = []
    for x in np.atleast_1d(np.asarray(nodes, dtype=np.float64)):
        x = float(x)
        if x in values:
            counts[values.index(x)] += 1
        else:
            values.append(x)
            counts.append(1)

    parts: list[tuple[int, float, float]] = []
    for i, (y, mult) in enumerate(zip(values, counts)):
        others = [(v, c) for j, (v, c) in enumerate(zip(values, counts)) if j != i]
        phi = _phi_derivatives(y, others, mult - 1)
        for p in range(mult):
            coeff = phi[mult - 1 - p] / (factorial(p) * factorial(mult - 1 - p))
            parts.append((p, y, coeff))
    return parts


def path_split(sys, order: int, ts) -> dict[tuple[int, str], NDArray[np.complex128]]:
    """The order-`order` amplitude at each time in ts split by t-power and place.

    Keys are (p, place) with p the power of (-i*t) and place "D" or "N"
    for diagonal or off-diagonal entries, values have shape (T, n, n).
    Powers 0..2 always get a key, and so does every higher power the walk
    meets.
    """
    energies = np.asarray(sys.energies_redivided, dtype=np.float64)
    g = np.asarray(sys.g, dtype=np.complex128)
    n = energies.shape[0]
    ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
    out: dict[tuple[int, str], NDArray[np.complex128]] = {
        (p, place): np.zeros((ts.shape[0], n, n), dtype=np.complex128)
        for p in range(3)
        for place in "DN"
    }
    for start in range(n):
        weights = path_weights(g, order, start)
        for end, interiors in sorted(weights):
            w = weights[(end, interiors)]
            nodes = energies[(start, *interiors, end),]
            place = "D" if start == end else "N"
            for power, y, coeff in dd_exp_parts(nodes):
                part = out.setdefault(
                    (power, place), np.zeros((ts.shape[0], n, n), dtype=np.complex128)
                )
                part[:, start, end] += w * coeff * (-1j * ts) ** power * np.exp(-1j * y * ts)
    return out
