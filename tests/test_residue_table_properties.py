"""Property tests: the phase weights of the Rayleigh-Schrodinger (Bloch) recursion
against the resolvent-expansion loop route.

`residue_factors_loop` builds the weight of (-i t)^p exp(-i E'_k t) in each
order from the Laurent expansion of the resolvent product, one order and
power at a time.  The package reads the same weights from the eigenprojector
series of one recursion (`improved._projector_weights`).  Systems plant
exact ties among closed-form levels and draw every coupling link
independently, so a tie may be coupled directly, through other levels or
not at all; the recursion is called without any route's refusal, so ties
farther away than each route's refusal hops and directly coupled ones are
both covered.  Tied levels share one phase, and how a tie group's weight
divides among its levels is a gauge choice that no route outputs, so a
level within ``order`` couplings of a tie partner is compared by its tie
group's sum.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from perturbseries.improved import _projector_weights, _rayleigh_schrodinger  # noqa: E402

from projector_stacked import stack_pairs  # noqa: E402
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


def _recursion_weights(e: np.ndarray, g: np.ndarray, top: int, powers: int):
    """W[p][l][a, b, k] for orders l <= top and powers p < powers, from one recursion."""
    shifts, states = _rayleigh_schrodinger(e, g, max(top + 1, 2))
    columns, rows, levels, weights = stack_pairs(*_projector_weights(e, shifts, states, top, powers))
    onehot = levels[:, np.newaxis] == np.arange(e.shape[0])
    return [
        [np.einsum("ax,x,xb,xk->abk", columns, w, rows, onehot) for w in by_order]
        for by_order in weights
    ]


def _reach(g: np.ndarray, hops: int) -> np.ndarray:
    """Which levels a chain of at most ``hops`` off-diagonal couplings joins."""
    coupled = (g != 0).astype(int)
    np.fill_diagonal(coupled, 0)
    reach = np.eye(g.shape[0], dtype=int)
    for _ in range(hops):
        reach = np.minimum(reach + reach @ coupled, 1)
    return reach.astype(bool)


def _assert_weights_match(e, g, got, ref, order):
    # Round-off scales with the summed weight magnitude, as in
    # test_clustered_levels_error_bounded_by_summed_weights.
    scale = float(np.max(np.sum(np.abs(ref), axis=-1)))
    ties = e[:, np.newaxis] == e
    near = (ties & ~np.eye(e.shape[0], dtype=bool) & _reach(g, order)).any(axis=1)
    # A level with a tie partner near is compared by its tie group's sum.
    got = np.where(near, got @ ties, got)
    ref = np.where(near, ref @ ties, ref)
    assert np.max(np.abs(got - ref)) <= 1e-12 * scale, order


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 6),
    ties=st.integers(0, 3),
    diagonal=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_recursion_matches_the_loop_route(n, ties, diagonal, seed):
    e, g = _planted(n, ties, diagonal, seed)
    weights = _recursion_weights(e, g, 4, 3)
    for order in range(5):
        for power in range(min(order, 2) + 1):
            ref = _weights(*residue_factors_loop(e, g, order, power), n)
            _assert_weights_match(e, g, weights[power][order], ref, order)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(exponent=st.floats(-6.0, -2.0), seed=st.integers(0, 2**32 - 1))
def test_near_confluent_levels_match_the_loop_route(exponent, seed):
    # Levels [0, delta, 1] with delta in [1e-6, 1e-2] and a dense coupling:
    # the weights grow like delta^-(order - power) and cancel in the sum.
    e = np.array([0.0, 10.0**exponent, 1.0])
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    g = 0.05 * (g + g.conj().T)
    np.fill_diagonal(g, 0.0)
    weights = _recursion_weights(e, g, 4, 3)
    for order in range(5):
        for power in range(min(order, 2) + 1):
            ref = _weights(*residue_factors_loop(e, g, order, power), 3)
            _assert_weights_match(e, g, weights[power][order], ref, order)


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
