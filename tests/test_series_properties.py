"""Property test: the block exponential equals the path sum on random systems."""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from perturbseries.model import SplitSystem  # noqa: E402
from perturbseries.series import _amplitude_blocks  # noqa: E402

from helpers import random_hermitian  # noqa: E402
from pathsum import path_sum_amplitude  # noqa: E402


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    t=st.floats(-60.0, 60.0, allow_nan=False),
    strength=st.sampled_from([1e-3, 0.1, 1.0]),
    top=st.integers(0, 4),
)
def test_blocks_equal_path_sum(n, seed, t, strength, top):
    rng = np.random.default_rng(seed)
    energies = np.sort(rng.uniform(-2.0, 2.0, size=n))
    sys = SplitSystem(
        energies_redivided=energies,
        g=random_hermitian(rng, n, strength) * (1.0 - np.eye(n)),
        basis_rotation=np.eye(n),
        energies_original=energies,
    )
    blocks = _amplitude_blocks(sys, top, np.array([t]))[:, 0]
    for order in range(top + 1):
        ref = path_sum_amplitude(sys, order, t)
        bound = 1e-12 * np.maximum(1.0, np.abs(ref))
        assert np.all(np.abs(blocks[order] - ref) <= bound)
