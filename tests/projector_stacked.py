"""Stacked-pair assembly of the improved amplitudes and the t-power split: the test oracle.

The package forms sum_{i+j<=top} Psi_i diag(c_{i+j}) Psi_j^H with the
pairs that hold Psi_0 = 1 as entry selections and one product over the
pairs i, j >= 1 (`improved._projector_sum`).  This route stacks all
(top+1)(top+2)/2 column-row pairs (i, j), Psi_0 included, and multiplies
once per time: (columns * phase) @ rows.  It takes the recursion and the
factors of `improved._projector_weights` from the package and shares no
assembly code with it.
"""

from __future__ import annotations

import math

import numpy as np

from perturbseries.improved import (
    _projector_weights,
    _rayleigh_schrodinger,
    _resolve_g_orders,
    _revisions,
)
from perturbseries.model import _refuse_coupled_ties


def stack_pairs(pattern, left, right, weights):
    """``columns`` (N, K P), ``rows`` (K P, N), the level of each stacked column
    and ``stacked[p][l]`` (K P,), over the P pairs i + j <= top.

    For level phases phi, (columns * (phi[levels] * stacked[p][l])) @ rows is
    p! times the coefficient of (-i t)^p in order l.
    """
    top = len(left) - 1
    size = pattern[0].shape[0]
    zero = np.zeros(size, dtype=np.complex128)
    pairs = [(i, j) for i in range(top + 1) for j in range(top + 1 - i)]
    stacked = [
        [
            np.concatenate([by_order[l][i + j] if i + j <= l else zero for i, j in pairs])
            for l in range(top + 1)
        ]
        for by_order in weights
    ]
    return (
        np.concatenate([left[i] for i, _ in pairs], axis=1),
        np.concatenate([right[j] for _, j in pairs]),
        np.tile(pattern[0], len(pairs)),
        stacked,
    )


def improved_sum_grid(sys, orders, ts, g_orders=None, absolute=False):
    """``improved._improved_sum_grid`` by stacked pairs, one product per time.

    With ``absolute``, every factor, weight and phase is replaced by its
    modulus: each entry is then the sum of its terms' moduli, the scale of
    its round-off.
    """
    chosen = [_resolve_g_orders(l, g_orders) for l in orders]
    e = sys.energies_redivided
    top = max(orders)
    deepest = max((max(c) for c in chosen if c), default=0)
    shifts, states = _rayleigh_schrodinger(e, sys.g, max(deepest, top + 1, 2))
    revisions = _revisions(sys, shifts, deepest) if deepest else None
    _refuse_coupled_ties(e, sys.g, top, diagonal=top >= 2)
    columns, rows, levels, weights = stack_pairs(*_projector_weights(e, shifts, states, top, 1))
    phases = sum(
        weights[0][l] * np.exp(-1j * np.outer(ts, revisions.e_tilde(c) if c else e))[:, levels]
        for l, c in zip(orders, chosen)
    )
    if absolute:
        columns, rows = np.abs(columns), np.abs(rows)
        phases = np.broadcast_to(sum(np.abs(weights[0][l]) for l in orders), phases.shape)
    out = np.empty((len(ts), e.shape[0], e.shape[0]), dtype=columns.dtype)
    for i, phase in enumerate(phases):
        out[i] = (columns * phase) @ rows
    return out


def split_parts(sys, l, t, absolute=False):
    """The (power, diagonal) parts of ``terms.split_t_power_parts`` by stacked pairs,
    as an array indexed by power and then 0 for "D", 1 for "N"; ``absolute``
    as in ``improved_sum_grid``."""
    e = sys.energies_redivided
    if l >= 3:
        why = f"; the order-{l} split would need t-powers above 2"
        _refuse_coupled_ties(e, sys.g, 1, diagonal=True, why=why)
    diagonal = np.eye(sys.dimension, dtype=bool)
    shifts, states = _rayleigh_schrodinger(e, sys.g, l + 1)
    columns, rows, levels, weights = stack_pairs(*_projector_weights(e, shifts, states, l, 3))
    phases = np.exp(-1j * e * t)[levels]
    out = []
    for power in range(3):
        scale = (-1j * t) ** power / math.factorial(power)
        if absolute:
            part = (np.abs(columns) * np.abs(phases * scale * weights[power][l])) @ np.abs(rows)
        else:
            part = (columns * (phases * scale * weights[power][l])) @ rows
        out.append([np.where(diagonal, part, 0.0), np.where(diagonal, 0.0, part)])
    return np.array(out)
