"""Property tests: exact ties are refused exactly where the oracles need them refused.

Each system plants one or two exact ties among three to five levels and
draws every coupling link independently.  The closed-form amplitudes and
the path-walk split decide, term by term, whether a tie sits where a
route would divide by it; the package decides from coupling chains.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from perturbseries.improved import improved_amplitude  # noqa: E402
from perturbseries.model import IncompleteDegeneracyRemoval  # noqa: E402
from perturbseries.terms import split_t_power_parts  # noqa: E402

from helpers import planted_system  # noqa: E402
from improved_closed import closed_amplitude  # noqa: E402
from tpower_paths import path_split  # noqa: E402

LINK_PROBABILITY = 0.45


def _planted_ties(n: int, ties: int, seed: int):
    # Distinct levels with neighbour gaps in [0.3, 1.0], then `ties` levels
    # copied onto others; links of strength 0.05..0.3 with random phases.
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
    return planted_system(energies, g)


systems = st.builds(
    _planted_ties,
    n=st.integers(3, 5),
    ties=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
)
times = st.floats(-20.0, 20.0, allow_nan=False)


def _refused(call) -> bool:
    try:
        call()
    except IncompleteDegeneracyRemoval:
        return True
    return False


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sys=systems, t=times)
def test_amplitudes_refuse_ties_like_the_closed_forms(sys, t):
    e = sys.energies_redivided
    phases = np.exp(-1j * e * t)
    for order in range(4):
        if _refused(lambda: closed_amplitude(e, sys.g, order, phases)):
            with pytest.raises(IncompleteDegeneracyRemoval):
                improved_amplitude(sys, order, t, g_orders=())
            continue
        ref = closed_amplitude(e, sys.g, order, phases)
        got = improved_amplitude(sys, order, t, g_orders=()).values
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))), order


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sys=systems)
def test_split_refuses_ties_that_need_higher_t_powers(sys):
    # At t = 0 every part with a t-power vanishes, so look at t = 1.3.
    for order in (2, 3, 4):
        ref = path_split(sys, order, [1.3])
        needs_more = any(np.any(v != 0.0) for (p, _), v in ref.items() if p > 2)
        assert _refused(lambda: split_t_power_parts(sys, order, 1.3)) == needs_more, order
