"""Property tests: the t-power split against the amplitudes it splits."""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from perturbseries.improved import improved_amplitude  # noqa: E402
from perturbseries.model import SplitSystem  # noqa: E402
from perturbseries.series import amplitude_order  # noqa: E402
from perturbseries.terms import split_t_power_parts  # noqa: E402

from helpers import random_hermitian  # noqa: E402

systems = st.builds(
    lambda n, seed, strength: _distinct_levels(n, seed, strength),
    n=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    strength=st.sampled_from([1e-3, 0.1, 0.5]),
)
times = st.floats(-60.0, 60.0, allow_nan=False)


def _distinct_levels(n: int, seed: int, strength: float) -> SplitSystem:
    # Neighbour gaps in [0.2, 1.0], built in closed form.
    rng = np.random.default_rng(seed)
    energies = np.cumsum(rng.uniform(0.2, 1.0, size=n)) - 1.0
    return SplitSystem(
        energies_redivided=energies,
        g=random_hermitian(rng, n, strength) * (1.0 - np.eye(n)),
        basis_rotation=np.eye(n),
        energies_original=energies,
    )


def _assert_close(got: np.ndarray, ref: np.ndarray) -> None:
    bound = 1e-12 * np.maximum(1.0, np.abs(ref))
    assert np.all(np.abs(got - ref) <= bound)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(sys=systems, t=times, order=st.sampled_from([2, 3]))
def test_unshifted_improved_amplitude_is_the_phase_part(sys, t, order):
    parts = split_t_power_parts(sys, order, t)
    _assert_close(
        improved_amplitude(sys, order, t, g_orders=()).values,
        parts[("e", "D")] + parts[("e", "N")],
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(sys=systems, t=times, order=st.sampled_from([2, 3, 4]))
def test_split_parts_sum_to_the_amplitude(sys, t, order):
    total = sum(split_t_power_parts(sys, order, t).values())
    _assert_close(total, amplitude_order(sys, order, t).values)
