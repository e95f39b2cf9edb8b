"""Closed forms of the improved amplitudes of orders one to three.

These hand-expanded sums were the package's evaluation route before the
residue-weight construction replaced them.  They stay here as an
independent oracle: each writes the rewritten amplitude of one order into
``values`` from the redivided energies ``e``, the coupling ``g`` and the
shifted phases ``phases[k] = exp(-i * E~_k * t)``, and raises
IncompleteDegeneracyRemoval where it would divide by an exact tie.

The forms are linear in the phases and only index their first axis, so
``phases`` of shape (n, T) with ``values`` of shape (n, n, T) evaluates T
phase vectors in one pass.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from perturbseries.model import IncompleteDegeneracyRemoval


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


def closed_amplitude(
    e: NDArray[np.float64], g: NDArray[np.complex128], order: int, phases: NDArray[np.complex128]
) -> NDArray[np.complex128]:
    """The order-``order`` amplitude for phases of shape (n,) or (n, T)."""
    n = e.shape[0]
    values = np.zeros((n, n) + phases.shape[1:], dtype=np.complex128)
    if order == 0:
        for k in range(n):
            values[k, k] = phases[k]
    else:
        (_improved_first, _improved_second, _improved_third)[order - 1](values, e, g, phases)
    return values
