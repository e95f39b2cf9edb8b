"""Property tests: the redivision pass loop gives the straight-line two-pass result bit for bit.

Systems have up to six levels on a quarter grid, so exact ties are common
and shifts often create new ones; couplings sit on the same grid, with
random gaps.  Some inputs carry a diagonal, some a 1e-14 non-Hermitian
perturbation, and the degeneracy tolerance is either tight or loose.
Every input must give byte-equal arrays or the same refusal as the oracle
in ``tests/redivide_two_pass.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import redivide_two_pass  # noqa: E402
from perturbseries.model import IncompleteDegeneracyRemoval, SystemSpec, redivide  # noqa: E402

SCALES = (0.5, 1.0, 2.0)
TOLERANCES = (1e-10, 1e-3)


def _quarter_grid_spec(n: int, seed: int, diagonal: bool, scale: float, noisy: bool) -> SystemSpec:
    rng = np.random.default_rng(seed)
    energies = rng.integers(-4, 5, size=n) / 4
    links = rng.random((n, n)) < 0.5
    values = (rng.integers(-2, 3, size=(n, n)) + 1j * rng.integers(-2, 3, size=(n, n))) / 4
    upper = np.triu(values * links, 1)
    h1 = upper + upper.conj().T
    if diagonal:
        h1 += np.diag(rng.integers(-2, 3, size=n) / 4)
    if noisy:
        h1 = h1 + 1e-14 * rng.standard_normal((n, n))
    return SystemSpec(energies=energies, h1=h1, coupling_scale=scale)


def _outcome(route, spec: SystemSpec, tol: float):
    try:
        split = route(spec, tol_deg=tol)
    except (ValueError, IncompleteDegeneracyRemoval) as exc:
        return type(exc), str(exc)
    return tuple(a.tobytes() for a in (split.energies_redivided, split.g, split.basis_rotation))


specs = st.builds(
    _quarter_grid_spec,
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    diagonal=st.booleans(),
    scale=st.sampled_from(SCALES),
    noisy=st.integers(0, 4).map(lambda k: k == 0),
)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(spec=specs, tol=st.sampled_from(TOLERANCES))
def test_pass_loop_matches_two_pass_redivision(spec, tol):
    assert _outcome(redivide, spec, tol) == _outcome(redivide_two_pass.redivide, spec, tol)


def test_family_reaches_second_pass_and_every_refusal(monkeypatch):
    # The property above is only as good as its inputs: over a fixed draw of
    # the same family, count second passes (two rotations in the oracle)
    # and each kind of refusal, checking identity on the way.
    rotations = []
    rotate = redivide_two_pass._group_rotation

    def counted(*args):
        rotations.append(args)
        return rotate(*args)

    monkeypatch.setattr(redivide_two_pass, "_group_rotation", counted)
    rng = np.random.default_rng(2)
    seen = {"second pass": 0, ValueError: 0, IncompleteDegeneracyRemoval: 0}
    for _ in range(3000):
        spec = _quarter_grid_spec(
            int(rng.integers(1, 7)), int(rng.integers(2**32)), bool(rng.integers(2)),
            SCALES[rng.integers(3)], rng.random() < 0.2,
        )
        tol = TOLERANCES[rng.integers(2)]
        rotations.clear()
        want = _outcome(redivide_two_pass.redivide, spec, tol)
        assert _outcome(redivide, spec, tol) == want
        seen["second pass"] += len(rotations) == 2
        if want[0] in seen:
            seen[want[0]] += 1
    assert all(count >= 5 for count in seen.values()), seen
