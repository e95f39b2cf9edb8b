"""The t-power split on exact ties joined through other levels, against the path walk.

Tied levels share one pole, and a tie joined in two or more couplings
reaches the split's weights through the tied pairs of the revisions and of
the overlap of the perturbed states.  Per-level normalisation misses them:
on the first system below it puts the order-2 split 0.046 off at t = 1.3.  The path
walk `tpower_paths.path_split` regroups every coupling path's divided
difference by t-power and shares no code with the package.
"""

from __future__ import annotations

import numpy as np
import pytest

from perturbseries.terms import split_t_power_parts

from helpers import planted_system, random_hermitian
from tpower_paths import path_split

POWERS = {"e": 0, "te": 1, "t2e": 2}
TIMES = (0.0, 1.3, -4.0, 9.5)


def _couplings(n: int, links: dict[tuple[int, int], complex]) -> np.ndarray:
    g = np.zeros((n, n), dtype=complex)
    for (a, b), value in links.items():
        g[a, b], g[b, a] = value, np.conj(value)
    return g


def _tie_joined_in_two():
    # Levels 0 and 1 tied, each coupled to level 2 only.
    return planted_system([0.0, 0.0, 1.0], _couplings(3, {(0, 2): 0.2 + 0.1j, (1, 2): 0.15 - 0.05j}))


def _tie_joined_in_three():
    # Levels 0 and 1 tied, joined by the chain 0 - 2 - 3 - 1.
    links = {(0, 2): 0.2, (2, 3): 0.1 + 0.1j, (3, 1): -0.15j}
    return planted_system([0.0, 0.0, 1.0, 2.0], _couplings(4, links))


def _two_uncoupled_tied_pairs():
    # A dense coupling with the two tied pairs (0, 1) and (3, 4) left uncoupled.
    g = random_hermitian(np.random.default_rng(26), 6, 0.3)
    g[0, 1] = g[1, 0] = g[3, 4] = g[4, 3] = 0.0
    np.fill_diagonal(g, 0.0)
    return planted_system([0.0, 0.0, 0.7, 1.5, 1.5, 2.6], g)


@pytest.mark.parametrize("build", [_tie_joined_in_two, _tie_joined_in_three, _two_uncoupled_tied_pairs])
@pytest.mark.parametrize("order", [2, 3, 4])
def test_split_matches_the_path_walk_on_ties(build, order):
    sys = build()
    ref = path_split(sys, order, TIMES)
    assert {p for p, _ in ref} == {0, 1, 2}  # no tie here needs a higher t-power
    scale = max(float(np.max(np.abs(v))) for v in ref.values())
    for i, t in enumerate(TIMES):
        parts = split_t_power_parts(sys, order, t)
        for (name, place), got in parts.items():
            assert np.max(np.abs(got - ref[(POWERS[name], place)][i])) <= 1e-13 * scale, (name, place, t)
