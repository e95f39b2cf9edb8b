"""Property tests: the improved amplitudes and the t-power split against the stacked-pair oracle.

The package assembles sum_{i+j<=top} Psi_i diag(c_{i+j}) Psi_j^H with the
pairs that hold Psi_0 = 1 as adds into the pattern's rows and columns and
one product over the pairs i, j >= 1 (`improved._projector_sum`);
`projector_stacked` stacks every pair, Psi_0 included, and multiplies once
per time.  Systems plant exact ties (coupled or not, so the tied pairs'
scatter adds run) or put two coupled levels within 1e-6..1e-2 of each
other, and time grids hold 1, 2 or 101 times, so a long grid runs in
several chunks.  Each result must lie within 1e-15 of the sum of its
terms' moduli, the scale of the round-off of either route (at t = 0 every
order above 0 cancels to round-off), and a refusal must match the oracle's.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from perturbseries.improved import _improved_sum_grid  # noqa: E402
from perturbseries.model import IncompleteDegeneracyRemoval  # noqa: E402
from perturbseries.terms import split_t_power_parts  # noqa: E402

import projector_stacked  # noqa: E402
from helpers import planted_system  # noqa: E402

BOUND = 1e-15


def _links(rng: np.random.Generator, n: int, probability: float) -> np.ndarray:
    # Links of strength 0.05..0.3 with random phases, each drawn independently.
    g = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < probability:
                g[a, b] = rng.uniform(0.05, 0.3) * np.exp(2j * np.pi * rng.random())
                g[b, a] = np.conj(g[a, b])
    return g


def _tied(n: int, ties: int, seed: int):
    # Distinct levels with neighbour gaps in [0.3, 1.0], then `ties` levels copied onto others.
    rng = np.random.default_rng(seed)
    energies = np.cumsum(rng.uniform(0.3, 1.0, size=n))
    for _ in range(ties):
        a, b = rng.choice(n, size=2, replace=False)
        energies[b] = energies[a]
    return planted_system(energies, _links(rng, n, 0.45))


def _near_confluent(n: int, exponent: float, seed: int):
    # Levels 0 and delta = 10^exponent, then n - 2 more at gaps in [0.3, 1.0], densely coupled.
    rng = np.random.default_rng(seed)
    rest = 1.0 + np.cumsum(rng.uniform(0.3, 1.0, size=n - 2))
    energies = np.concatenate([[0.0, 10.0**exponent], rest])
    return planted_system(energies, _links(rng, n, 0.9))


systems = st.one_of(
    st.builds(_tied, n=st.integers(3, 6), ties=st.integers(1, 2), seed=st.integers(0, 2**32 - 1)),
    st.builds(
        _near_confluent,
        n=st.integers(3, 5),
        exponent=st.floats(-6.0, -2.0),
        seed=st.integers(0, 2**32 - 1),
    ),
)
grids = st.builds(
    lambda start, steps: np.linspace(start, start + 20.0, steps),
    start=st.floats(-30.0, 30.0),
    steps=st.sampled_from([1, 2, 101]),
)
revision_orders = st.one_of(st.none(), st.lists(st.integers(2, 5), unique=True, max_size=4))


def _outcome(call):
    """The call's result, or the type and message of what it raised."""
    try:
        return call()
    except (ValueError, IncompleteDegeneracyRemoval) as exc:
        return type(exc), str(exc)


def _assert_close(got, ref, oracle, label):
    """``got`` against the oracle's outcome ``ref``; ``oracle(absolute=True)`` gives the scale."""
    if isinstance(ref, tuple):
        assert got == ref, label
        return
    assert not isinstance(got, tuple), (label, got)
    scale = float(np.max(oracle(absolute=True)))
    assert np.max(np.abs(got - ref)) <= BOUND * scale, label


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sys=systems, ts=grids, g_orders=revision_orders)
def test_improved_grid_matches_the_stacked_pairs(sys, ts, g_orders):
    for top in range(4):
        for orders in (range(top + 1), (top,)):
            def oracle(absolute=False):
                return projector_stacked.improved_sum_grid(sys, orders, ts, g_orders, absolute)

            got = _outcome(lambda: _improved_sum_grid(sys, orders, ts, g_orders))
            _assert_close(got, _outcome(oracle), oracle, (tuple(orders), g_orders))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sys=systems, t=st.floats(-40.0, 40.0))
def test_split_matches_the_stacked_pairs(sys, t):
    for order in (2, 3, 4):
        parts = _outcome(lambda: split_t_power_parts(sys, order, t))
        if not isinstance(parts, tuple):
            parts = np.array([[parts[(name, place)] for place in "DN"] for name in ("e", "te", "t2e")])
        def oracle(absolute=False):
            return projector_stacked.split_parts(sys, order, t, absolute)

        _assert_close(parts, _outcome(oracle), oracle, order)
