"""Bit equality of `improved.simpson` with `scipy.integrate.simpson`.

The golden-rule revision integrates with `improved.simpson`, a numpy
transcription of SciPy's composite Simpson rule: paired panels with the
uneven-spacing weights, and for an even point count Cartwright's correction
over the last interval.  Every result must carry SciPy's exact bits, the
sign of a zero included, so that golden-rule reports stay byte-identical.
SciPy is the oracle here only; `helpers.assert_simpson_matches_scipy`
imports it inside the check.  `tests/test_simpson_properties.py` adds
random grids.
"""

from __future__ import annotations

import numpy as np
import pytest

from perturbseries.improved import simpson

from helpers import assert_simpson_matches_scipy, sample_grid


def bits(value: float) -> bytes:
    return np.float64(value).tobytes()


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 100, 101, 336, 799, 800])
@pytest.mark.parametrize("kind", ["uniform", "cumulative", "sorted"])
def test_odd_and_even_counts_match_scipy(kind, n):
    rng = np.random.default_rng(1000 * n + len(kind))
    x = sample_grid(kind, n, rng)
    assert_simpson_matches_scipy(rng.normal(size=x.size), x)


# On linspace(-3, 5, 336), h[-1] ** 3 of a numpy scalar is one ulp away from
# np.power on an array, which SciPy's 0-d arrays use.  In most sums that ulp
# of the correction rounds away; these draws are ones where it does not.
_CUBE_GRID = np.linspace(-3.0, 5.0, 336)


def _cube_trap_samples(draw):
    if draw == "cancelling":  # the last panel's ends cancel in the panel sum
        y = np.zeros(_CUBE_GRID.size)
        y[-5], y[-3] = -1.0, 1.0
        return y
    return np.random.default_rng(draw).normal(size=_CUBE_GRID.size)


@pytest.mark.parametrize("draw", ["cancelling", 26, 32, 255, 261, 300])
def test_cube_of_the_last_spacing_is_taken_as_scipy_takes_it(draw):
    h = np.diff(_CUBE_GRID)
    assert bits(h[-1] ** 3) != bits((h[-1:] ** 3)[0])
    assert_simpson_matches_scipy(_cube_trap_samples(draw), _CUBE_GRID)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 101, 336])
def test_negative_zero_integrand_matches_scipy_sign(n):
    # a zero weight times a negative cosine difference leaves -0.0 cells
    # in the golden-rule integrand; SciPy's sum starts from +0.0
    x = np.linspace(-1.0, 2.0, n)
    y = np.full(n, -0.0)
    assert bits(simpson(y, x=x)) == bits(0.0)
    assert_simpson_matches_scipy(y, x)


@pytest.mark.parametrize("n", [3, 4, 7, 10, 31, 40])
def test_repeated_abscissae_match_scipy_guards(n):
    # an increasing energy grid minus the resonance energy can round two
    # neighbouring detunings to one value; SciPy then weights by 0, not inf
    rng = np.random.default_rng(n)
    x = np.sort(rng.integers(0, 4, n).astype(float))
    assert np.any(np.diff(x) == 0.0)
    assert_simpson_matches_scipy(rng.normal(size=n), x)
