"""Property test: `improved.simpson` equals `scipy.integrate.simpson` bit for bit.

Random grids of 3-800 points, odd and even counts, uniform, cumulative-random
and sorted-random spacing, abscissae scaled by 1e-8..1e8 and samples by
1e-5..1e5; the fixed cases live in `tests/test_simpson.py`.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import assert_simpson_matches_scipy, sample_grid  # noqa: E402


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    n=st.integers(3, 800),
    kind=st.sampled_from(["uniform", "cumulative", "sorted"]),
    x_exp=st.floats(-8.0, 8.0),
    y_exp=st.floats(-5.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_grids_match_scipy(n, kind, x_exp, y_exp, seed):
    rng = np.random.default_rng(seed)
    x = sample_grid(kind, n, rng) * 10.0**x_exp
    if np.any(np.diff(x) <= 0.0):
        return  # scaling merged two sorted points
    assert_simpson_matches_scipy(rng.normal(size=x.size) * 10.0**y_exp, x)
