"""Property test: shared scaled steps change no bit of the block kernel.

Each grid holds signed power-of-two multiples of one base time, so many of
its times share a scaled step (t and 2^j t) and `ddkernel._dd_blocks`
evaluates them from one Taylor row.  The per-order loop oracle evaluates
every time on its own; the two must agree byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from perturbseries.ddkernel import _dd_blocks  # noqa: E402

from dd_blocks_loop import dd_blocks_loop  # noqa: E402
from helpers import random_hermitian  # noqa: E402


def _system(n: int, seed: int):
    # levels anywhere in [-3, 3], so the spread (and with it which times
    # share a step) varies from draw to draw
    rng = np.random.default_rng(seed)
    return np.sort(rng.uniform(-3.0, 3.0, size=n)), random_hermitian(rng, n, 0.3)


systems = st.builds(_system, n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
signs = st.sampled_from([1.0, -1.0])
# (sign, j) stands for sign * base * 2^j, and (sign, None) for a signed zero
multiples = st.lists(st.tuples(signs, st.integers(-4, 9) | st.none()), min_size=1, max_size=12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(system=systems, L=st.integers(0, 6), base=st.floats(0.01, 3.0), multiples=multiples)
def test_power_of_two_grids_match_the_loop_oracle(system, L, base, multiples):
    ts = np.array([sign * (0.0 if j is None else base * 2.0**j) for sign, j in multiples])
    energies, g = system
    new = _dd_blocks(energies, g, L, ts)
    assert new.tobytes() == dd_blocks_loop(energies, g, L, ts).tobytes()
