"""Property test: the residue table against the per-order loop route.

`residue_factors_loop` builds the rank-one factors one order and power at a
time, with every closed loop as a dense matrix that is zero off the tied
pairs.  The table shares its products across orders and powers and applies
each loop as a vector over the tied pairs.  Systems plant exact ties among
closed-form levels and draw every coupling link independently, so a tie may
be coupled directly, through other levels or not at all; the table is
called without any route's refusal, so ties farther away than each route's
refusal hops and directly coupled ones are both covered.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from perturbseries.improved import _ResidueTable  # noqa: E402

from residue_factors_loop import residue_factors_loop  # noqa: E402

LINK_PROBABILITY = 0.45


def _planted(n: int, ties: int, diagonal: bool, seed: int) -> tuple[np.ndarray, np.ndarray]:
    # Neighbour gaps in [0.3, 1.0], then `ties` levels copied exactly onto
    # others; links of strength 0.05..0.3 with random phases.  `diagonal`
    # keeps a diagonal coupling, as when redivision is skipped.
    rng = np.random.default_rng(seed)
    energies = np.cumsum(rng.uniform(0.3, 1.0, size=n))
    for _ in range(ties):
        a, b = rng.choice(n, size=2, replace=False)
        energies[b] = energies[a]
    g = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < LINK_PROBABILITY:
                g[a, b] = rng.uniform(0.05, 0.3) * np.exp(2j * np.pi * rng.random())
                g[b, a] = np.conj(g[a, b])
    if diagonal:
        g[np.diag_indices(n)] = rng.uniform(-0.2, 0.2, size=n)
    return energies, g


def _weights(columns: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """W[a, b, k]: the weight of the phase of level k in entry (a, b)."""
    k = columns.shape[1] // n
    return np.einsum("aKk,Kkb->abk", columns.reshape(n, k, n), rows.reshape(k, n, n))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 6),
    ties=st.integers(0, 3),
    diagonal=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_table_matches_the_loop_route(n, ties, diagonal, seed):
    e, g = _planted(n, ties, diagonal, seed)
    table = _ResidueTable(e, g)
    for order in range(5):
        for power in range(min(order, 2) + 1):
            columns, rows = table.factors(order, power)
            got = _weights(np.concatenate(columns, axis=1), np.concatenate(rows), n)
            ref = _weights(*residue_factors_loop(e, g, order, power), n)
            # Round-off scales with the summed weight magnitude, as in
            # test_clustered_levels_error_bounded_by_summed_weights.
            scale = float(np.max(np.sum(np.abs(ref), axis=-1)))
            assert np.max(np.abs(got - ref)) <= 1e-12 * scale, (order, power)


def test_planted_systems_couple_their_ties():
    # The property is only as strong as its inputs: many draws must join a
    # tied pair directly, and many only through another level.
    direct = through = 0
    for seed in range(200):
        e, g = _planted(5, 2, False, seed)
        tied = (e[:, np.newaxis] == e[np.newaxis, :]) & ~np.eye(5, dtype=bool)
        direct += bool(np.any(tied & (g != 0)))
        through += bool(np.any(tied & (g == 0) & (np.abs(g) @ np.abs(g) != 0)))
    assert direct >= 40 and through >= 40, (direct, through)
