"""The residue factors built one order and power at a time: the test oracle.

This is the resolvent-expansion construction that `perturbseries` used for
the improved amplitudes and the t-power split before one Rayleigh-Schrodinger
(Bloch) recursion gave their weights.  It expands each slot of R (g R)^order
in Kato's reduced resolvents, sums over the compositions of the Laurent
powers, starts a fresh memo for each (order, power), and forms every closed
loop between two poles as a dense N x N matrix, zero off the tied pairs,
that multiplies the row after it.  It shares only `_reduced_resolvents` with
the package, so it checks the recursion's weights independently
(`tests/test_residue_table_properties.py`) and gives the Laurent
coefficients that the revisions are checked against
(`tests/test_revision_properties.py`).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
from numpy.typing import NDArray

from perturbseries.improved import _reduced_resolvents


def _compositions(total: int, slots: int) -> Iterator[tuple[int, ...]]:
    """Tuples of ``slots`` non-negative integers summing to ``total``, in lexicographic order."""
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first, *rest)


def residue_factors_loop(
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
