"""Per-level loop oracle for the revision energies.

For each reference level gamma, the inverse gaps 1/(E'_gamma - E'_i) form
one vector and the closed coupling chains of orders two to five are
vector-matrix products along it, minus the disconnected-product
corrections.  The package evaluates the same sums for all levels at once
with matrix products; this loop stays here as the reference for them.
"""

from __future__ import annotations

import numpy as np

from perturbseries.model import IncompleteDegeneracyRemoval


def _inverse_gaps(energies: np.ndarray, g: np.ndarray, gamma: int, max_order: int) -> np.ndarray:
    """1/(E'_gamma - E'_i) with gamma itself and tolerated ties zeroed.

    A chain of order m visits only levels within m // 2 couplings of
    gamma, so a tie is tolerated unless it is that close: directly coupled
    through third order, and within two couplings at orders four and five.
    """
    why = "; the fourth- and fifth-order revision sums would divide by zero" if max_order >= 4 else ""
    n = energies.shape[0]
    diff = energies[gamma] - energies
    q = np.zeros_like(diff)
    for i in range(n):
        if i == gamma:
            continue
        if diff[i] == 0.0:
            if g[gamma, i] != 0:
                raise IncompleteDegeneracyRemoval(
                    f"levels {gamma} and {i} are exactly degenerate and directly coupled{why}"
                )
            two_hops = any(g[gamma, k] != 0 and g[k, i] != 0 for k in range(n) if k not in (gamma, i))
            if max_order >= 4 and two_hops:
                raise IncompleteDegeneracyRemoval(
                    f"level {i} is exactly degenerate with level {gamma} and still coupled{why}"
                )
            continue
        q[i] = 1.0 / diff[i]
    return q


def loop_revisions(sys, max_order: int = 5) -> dict[int, np.ndarray]:
    """Revisions of orders 2..max_order keyed by order, one value per level."""
    energies = sys.energies_redivided
    g = sys.g
    n = sys.dimension
    out = {order: np.zeros(n) for order in range(2, max_order + 1)}
    for gamma in range(n):
        q = _inverse_gaps(energies, g, gamma, max_order)
        absq = np.abs(g[gamma, :]) ** 2
        s1 = float(absq @ q)
        out[2][gamma] = s1
        if max_order < 3:
            continue
        v_out = g[gamma, :] * q
        v_in = g[:, gamma] * q
        val3 = complex(v_out @ g @ v_in)
        out[3][gamma] = val3.real
        if max_order < 4:
            continue
        m_q = g * q[np.newaxis, :]
        hop3 = v_out @ m_q @ m_q
        s2 = float(absq @ (q * q))
        out[4][gamma] = (complex(hop3 @ g[:, gamma]) - s2 * s1).real
        if max_order < 5:
            continue
        c21 = complex((g[gamma, :] * (q * q)) @ g @ v_in)
        c12 = complex(v_out @ g @ (g[:, gamma] * (q * q)))
        val5 = complex((hop3 @ m_q) @ g[:, gamma]) - (s2 * val3 + s1 * (c21 + c12))
        out[5][gamma] = val5.real
    return out
