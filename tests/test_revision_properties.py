"""Property test: the revisions are the Laurent quotient of the amplitudes' residue weights.

The diagonal of the order-l resolvent product R (g R)^l has, at the pole
E'_k, the residue c0_l[k] and the next Laurent coefficient c1_l[k].  Summed
over orders, the shifted phase exp(-i (E'_k + G) t) makes the series of c1
the product of the series of c0 with the revisions G, so
G_l = c1_l - sum_{m=1}^{l-2} c0_m G_{l-m}.  The loop oracle
`residue_factors_loop` gives the c's from the resolvent expansion; the
revisions come from the package's Rayleigh-Schrodinger recursion, which
also gives the improved amplitudes' weights, so taking the c's from the
package would check the recursion against itself.  The two routes share
only the inverse gaps.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from perturbseries.improved import revision_energies  # noqa: E402

from helpers import planted_system, random_hermitian  # noqa: E402
from residue_factors_loop import residue_factors_loop  # noqa: E402


def _spaced_system(n: int, norm: float, seed: int):
    # Neighbour gaps in [0.3, 1.0] and a dense coupling of the given norm,
    # its diagonal cut as redivision leaves it.
    rng = np.random.default_rng(seed)
    energies = np.cumsum(rng.uniform(0.3, 1.0, size=n))
    g = random_hermitian(rng, n, norm)
    np.fill_diagonal(g, 0.0)
    return planted_system(energies, g)


systems = st.builds(
    _spaced_system,
    n=st.integers(2, 6),
    norm=st.floats(0.01, 0.5),
    seed=st.integers(0, 2**32 - 1),
)


def _pole_diagonal(sys, order: int, power: int) -> np.ndarray:
    """c_power[k]: the Laurent coefficient at E'_k of the [k, k] entry of R (g R)^order."""
    columns, rows = residue_factors_loop(sys.energies_redivided, sys.g, order, power)
    n = sys.dimension
    blocks = columns.shape[1] // n
    return np.einsum("kKk,Kkk->k", columns.reshape(n, blocks, n), rows.reshape(blocks, n, n))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sys=systems)
def test_revisions_are_the_laurent_quotient_of_the_residues(sys):
    rev = revision_energies(sys, 5)
    norm = float(np.linalg.norm(sys.g, 2))
    quotient: dict[int, np.ndarray] = {}
    for l in range(2, 6):
        quotient[l] = _pole_diagonal(sys, l, 1) - sum(
            _pole_diagonal(sys, m, 0) * quotient[l - m] for m in range(1, l - 1)
        )
        # Odd orders vanish on two levels, so scale by the order's natural size too.
        scale = max(float(np.max(np.abs(rev.revision(l)))), norm**l)
        assert np.max(np.abs(quotient[l] - rev.revision(l))) <= 1e-13 * scale, l
