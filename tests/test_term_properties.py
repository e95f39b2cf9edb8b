"""Property test: the catalog labels partition the coupled paths.

Each system draws three to six levels, may plant exact ties, and keeps
every coupling link with a drawn probability, so many paths have a zero
coupling product.  Every path with a nonzero product must satisfy the
equality constraints of exactly one catalog label, and the one-pass term
evaluation must file it under that label.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from perturbseries.terms import _label_positions, enumerate_catalog  # noqa: E402


def _coupling(n: int, ties: int, link_probability: float, seed: int):
    # Distinct levels with neighbour gaps in [0.3, 1.0], `ties` of them
    # copied onto others, and each link kept with the given probability.
    rng = np.random.default_rng(seed)
    energies = np.cumsum(rng.uniform(0.3, 1.0, size=n))
    for _ in range(ties if n > 1 else 0):
        a, b = rng.choice(n, size=2, replace=False)
        energies[b] = energies[a]
    g = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < link_probability:
                g[a, b] = rng.uniform(0.05, 0.3) * np.exp(2j * np.pi * rng.random())
                g[b, a] = np.conj(g[a, b])
    return g


couplings = st.builds(
    _coupling,
    n=st.integers(1, 6),
    ties=st.integers(0, 2),
    link_probability=st.floats(0.2, 1.0),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(g=couplings)
def test_every_coupled_path_has_exactly_one_label(g):
    n = g.shape[0]
    for order in (2, 3, 4):
        labels = enumerate_catalog(order).labels
        path = np.array(list(itertools.product(range(n), repeat=order + 1))).T
        product = np.prod(g[path[:-1], path[1:]], axis=0)
        path = path[:, product != 0.0]
        matches = np.array(
            [
                np.all([(path[i] == path[j]) == (kind == "c") for i, j, kind in label.constraints()], axis=0)
                for label in labels
            ]
        )
        assert np.all(matches.sum(axis=0) == 1), order
        assert np.array_equal(_label_positions(labels, path), np.argmax(matches, axis=0)), order
