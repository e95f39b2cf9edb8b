"""Property tests: the catalog labels partition the coupled paths.

Each system draws three to six levels, may plant exact ties, and keeps
every coupling link with a drawn probability, so many paths have a zero
coupling product.  Every path with a nonzero product must satisfy the
equality constraints of exactly one catalog label, and the one-pass term
evaluation must file it under that label.  A request's label matching is
looked up in one table per catalog, so a request of labels drawn with
repeats, in any order, must give the per-label walk's values on every
call.  A coupling whose diagonal is kept (redivision skipped) puts equal
neighbours on a path; such paths keep the label of their equality bits.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from perturbseries.terms import TermLabel, _pattern_pairs, enumerate_catalog, eval_closed_term  # noqa: E402

from perturbseries.model import SystemSpec, redivide  # noqa: E402

from helpers import planted_system, random_hermitian  # noqa: E402
from term_walk import _eval_term as walk_term  # noqa: E402

#: Well-formed labels that no catalog holds (orders 3 and 4; every
#: well-formed order-2 label is in the catalog).
FOREIGN = {3: TermLabel(order=3, groups=("cc", "c")), 4: TermLabel(order=4, groups=("ccc", "cc"))}


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
        code = sum((path[a] == path[b]) << k for k, (a, b) in enumerate(_pattern_pairs(order)))
        which = enumerate_catalog(order)._table[code]
        assert np.array_equal(which, np.argmax(matches, axis=0)), order


@settings(max_examples=60, deadline=None, derandomize=True)
@given(g=couplings, order=st.integers(2, 4), data=st.data())
def test_cached_label_matching_matches_the_walk(g, order, data):
    n = g.shape[0]
    levels = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    sys = planted_system(levels, g)
    catalog = enumerate_catalog(order).labels
    labels = data.draw(st.lists(st.sampled_from(catalog), min_size=1, max_size=2 * len(catalog)))
    gamma, gamma_prime = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    t = data.draw(st.floats(-6.0, 6.0))
    ref = np.array([walk_term(sys, label, t, gamma, gamma_prime) for label in labels])
    bound = 1e-13 * max(1.0, float(np.max(np.abs(ref))))
    first = eval_closed_term(sys, labels, t, gamma, gamma_prime)
    assert np.all(np.abs(first - ref) <= bound), (order, labels)
    again = eval_closed_term(sys, labels, t, gamma, gamma_prime)
    assert np.array_equal(again, first)
    if order in FOREIGN:
        assert FOREIGN[order] not in catalog
        with pytest.raises(ValueError, match=f"not in the order-{order} catalog"):
            eval_closed_term(sys, [*labels, FOREIGN[order]], t, gamma, gamma_prime)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), t=st.floats(-6.0, 6.0))
def test_kept_diagonal_matches_the_walk(n, seed, t):
    rng = np.random.default_rng(seed)
    h1 = random_hermitian(rng, n, 0.3)
    spec = SystemSpec(energies=np.sort(rng.uniform(0.0, 2.0, size=n)), h1=h1)
    sys = redivide(spec, enabled=False)
    assert np.all(np.diag(sys.g) != 0.0)
    gamma, gamma_prime = (int(k) for k in rng.integers(0, n, size=2))
    for order in (2, 3, 4):
        labels = enumerate_catalog(order).labels
        ref = np.array([walk_term(sys, label, t, gamma, gamma_prime) for label in labels])
        bound = 1e-13 * max(1.0, float(np.max(np.abs(ref))))
        got = eval_closed_term(sys, labels, t, gamma, gamma_prime)
        assert np.all(np.abs(got - ref) <= bound), order
