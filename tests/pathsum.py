"""Path-sum oracle for the order-by-order amplitudes.

Each order-l amplitude matrix is a sum over length-l index paths of a
coupling product times the confluent divided difference of e^{-i*x*t}
over the energies visited.  The divided difference is symmetric in its
nodes, so paths are grouped by the multiset of interior levels before the
kernel runs.  The walk is exponential in l; it stays here as a reference
that evaluates each path with the scalar kernel in `dd_scalar.py`.
"""

from __future__ import annotations

import numpy as np

from dd_scalar import _dd_value


def path_weights(g: np.ndarray, order: int, start: int) -> dict[tuple[int, tuple[int, ...]], complex]:
    """Coupling products of all length-`order` paths leaving `start`, keyed by
    (end level, sorted interior levels); zero couplings prune the walk."""
    n = g.shape[0]
    weights: dict[tuple[int, tuple[int, ...]], complex] = {}
    interiors: list[int] = []

    def extend(level: int, depth: int, product: complex) -> None:
        if depth == order:
            key = (level, tuple(sorted(interiors)))
            weights[key] = weights.get(key, 0j) + product
            return
        for nxt in range(n):
            val = g[level, nxt]
            if val == 0.0:
                continue
            if depth + 1 < order:
                interiors.append(nxt)
            extend(nxt, depth + 1, product * val)
            if depth + 1 < order:
                interiors.pop()

    extend(start, 0, 1.0 + 0.0j)
    return weights


def path_sum_amplitude(sys, order: int, t: float) -> np.ndarray:
    """Order-`order` amplitude matrix at time t, entry (a, b) for paths a -> b."""
    energies = np.asarray(sys.energies_redivided, dtype=np.float64)
    g = np.asarray(sys.g, dtype=np.complex128)
    n = energies.shape[0]
    out = np.zeros((n, n), dtype=np.complex128)
    if order == 0:
        out[np.arange(n), np.arange(n)] = np.exp(-1j * energies * t)
        return out
    for start in range(n):
        weights = path_weights(g, order, start)
        for end, interiors in sorted(weights):
            nodes = energies[(start, *interiors, end),]
            out[start, end] += weights[(end, interiors)] * _dd_value(nodes, float(t))
    return out
