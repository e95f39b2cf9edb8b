"""The residue-weight route of the improved amplitudes against the closed forms.

``improved_closed`` holds the hand-expanded amplitudes of orders one to
three that the residue weights replaced; here they are the reference for
every order, revision choice and time, for the grid entry point used by
``compare``, and for the refusal of exact ties inside coupled chains.
"""

from __future__ import annotations

import functools
import json

import numpy as np
import pytest

import perturbseries.improved as improved
from perturbseries.cli import RunConfig, run
from perturbseries.improved import _improved_sum_grid, improved_amplitude, revision_energies
from perturbseries.model import IncompleteDegeneracyRemoval, SplitSystem, SystemSpec, redivide

from helpers import chain_system, random_hermitian, random_system
from improved_closed import closed_amplitude

TIMES = np.array([0.0, 0.7, -13.0, 40.0, 200.0])
G_ORDERS = [None, (), (2,), (2, 3, 4, 5)]
#: The per-equation default: lower amplitude orders absorb deeper revisions.
STAGGERED = {0: (2, 3, 4, 5), 1: (2, 3, 4), 2: (2, 3), 3: (2,)}


@functools.cache
def make_system(kind: str) -> SplitSystem:
    # Cached: spaced random levels come from a rejection loop that takes
    # thousands of draws at n = 12.
    if kind == "chain32":
        return chain_system(32)
    n = int(kind.removeprefix("random"))
    return random_system(np.random.default_rng(100 + n), n)


SYSTEMS = ["random2", "random3", "random5", "random8", "random12", "chain32"]


def shifted_energies(sys: SplitSystem, order: int, g_orders) -> np.ndarray:
    chosen = STAGGERED[order] if g_orders is None else tuple(g_orders)
    e = sys.energies_redivided
    return revision_energies(sys, max(chosen)).e_tilde(chosen) if chosen else e


def closed_reference(sys: SplitSystem, order: int, g_orders, times) -> np.ndarray:
    """Closed-form amplitude of one order at every time, shape (T, n, n)."""
    phases = np.exp(-1j * np.outer(shifted_energies(sys, order, g_orders), times))
    return np.moveaxis(closed_amplitude(sys.energies_redivided, sys.g, order, phases), -1, 0)


@functools.cache
def closed_on_grid(kind: str, order: int) -> list[np.ndarray]:
    """closed_reference at TIMES for each entry of G_ORDERS, from one pass."""
    sys = make_system(kind)
    shifted = np.hstack([shifted_energies(sys, order, g)[:, np.newaxis] for g in G_ORDERS])
    phases = np.exp(-1j * np.repeat(shifted, TIMES.shape[0], axis=1) * np.tile(TIMES, len(G_ORDERS)))
    values = closed_amplitude(sys.energies_redivided, sys.g, order, phases)
    return np.split(np.moveaxis(values, -1, 0), len(G_ORDERS))


def assert_entrywise_close(got: np.ndarray, ref: np.ndarray) -> None:
    err = np.abs(got - ref)
    bound = 1e-12 * np.maximum(1.0, np.abs(ref))
    assert np.all(err <= bound), float(np.max(err / bound))


@pytest.mark.parametrize("kind", SYSTEMS)
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_residue_route_matches_closed_forms(kind, order):
    sys = make_system(kind)
    for g_orders, ref in zip(G_ORDERS, closed_on_grid(kind, order)):
        got = np.array(
            [improved_amplitude(sys, order, t, g_orders=g_orders).values for t in TIMES]
        )
        assert_entrywise_close(got, ref)


@pytest.mark.parametrize("kind", ["random5", "random12", "chain32"])
@pytest.mark.parametrize("L", [0, 1, 2, 3])
def test_grid_is_the_sum_of_closed_forms(kind, L):
    sys = make_system(kind)
    for i, g_orders in enumerate(G_ORDERS):
        ref = sum(closed_on_grid(kind, l)[i] for l in range(L + 1))
        got = _improved_sum_grid(sys, range(L + 1), TIMES, g_orders)
        assert got.shape == (TIMES.shape[0], sys.dimension, sys.dimension)
        assert_entrywise_close(got, ref)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_clustered_levels_error_bounded_by_summed_weights(order):
    # Three close pairs of levels; after redivision the closest coupled gap
    # is 2.4e-4.  The weight of a single phase grows like gap^-order and the
    # weights cancel in the sum over levels, so round-off in either route
    # scales with the summed weight magnitude, not with the amplitude (at
    # order 3 the entrywise relative difference reaches 1e-10).  The bound
    # is 1e-12 times max over (a, b) of sum_k |W[a, b, k]|, with W the
    # closed-form weights (one-hot phases).
    energies = np.array([0.0, 0.001, 0.7, 0.702, 1.5, 2.2, 2.2015, 3.0])
    h1 = random_hermitian(np.random.default_rng(1), 8, 0.1)
    sys = redivide(SystemSpec(energies=energies, h1=h1))
    e = sys.energies_redivided
    assert np.min(np.diff(np.sort(e))) < 1e-3
    weights = closed_amplitude(e, sys.g, order, np.eye(8, dtype=np.complex128))
    scale = float(np.max(np.sum(np.abs(weights), axis=-1)))
    ref = closed_reference(sys, order, None, TIMES)
    got = np.array([improved_amplitude(sys, order, t).values for t in TIMES])
    assert np.max(np.abs(got - ref)) <= 1e-12 * scale


def planted_tie(case: str) -> SplitSystem:
    """Four levels with level 0 exactly tied to another one."""
    e = {"uncoupled": [0.0, 0.0, 1.0, 2.5], "two hops": [0.0, 1.0, 0.0, 2.5],
         "three hops": [0.0, 1.0, 2.5, 0.0]}[case]
    links = {"uncoupled": [(0, 2), (2, 3), (0, 3)], "two hops": [(0, 1), (1, 2), (1, 3)],
             "three hops": [(0, 1), (1, 2), (2, 3)]}[case]
    g = np.zeros((4, 4), dtype=np.complex128)
    for k, (a, b) in enumerate(links):
        g[a, b] = 0.1 + 0.03j * (k + 1)
        g[b, a] = np.conj(g[a, b])
    return SplitSystem(
        energies_redivided=np.array(e), g=g, basis_rotation=np.eye(4), energies_original=np.array(e)
    )


@pytest.mark.parametrize("case", ["uncoupled", "two hops", "three hops"])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_planted_ties_refused_like_the_closed_forms(case, order):
    sys = planted_tie(case)
    e = sys.energies_redivided
    phases = np.exp(-1j * e * 2.3)
    try:
        ref = closed_amplitude(e, sys.g, order, phases)
    except IncompleteDegeneracyRemoval:
        ref = None
    if ref is None:
        with pytest.raises(IncompleteDegeneracyRemoval):
            improved_amplitude(sys, order, 2.3, g_orders=())
        with pytest.raises(IncompleteDegeneracyRemoval):
            _improved_sum_grid(sys, range(order + 1), np.array([2.3]), ())
        return
    got = improved_amplitude(sys, order, 2.3, g_orders=()).values
    assert np.all(np.isfinite(got))
    assert_entrywise_close(got, ref)
    hops = {"uncoupled": None, "two hops": 2, "three hops": 3}[case]
    assert hops is None or order < hops


def test_diagonal_coupling_refused_from_order_two():
    # Without redivision the coupling keeps its diagonal; the closed forms
    # divide by the zero gap of a level with itself from order two on.
    h1 = random_hermitian(np.random.default_rng(2), 3, 0.1)
    sys = redivide(SystemSpec(energies=np.array([0.0, 1.0, 2.2]), h1=h1), enabled=False)
    e = sys.energies_redivided
    phases = np.exp(-1j * e * 1.5)
    for order in (0, 1):
        got = improved_amplitude(sys, order, 1.5, g_orders=()).values
        assert_entrywise_close(got, closed_amplitude(e, sys.g, order, phases))
    for order in (2, 3):
        with pytest.raises(IncompleteDegeneracyRemoval):
            closed_amplitude(e, sys.g, order, phases)
        with pytest.raises(IncompleteDegeneracyRemoval, match="diagonal coupling"):
            improved_amplitude(sys, order, 1.5, g_orders=())


def test_compare_computes_the_revisions_once(tmp_path, monkeypatch):
    sys = chain_system(6)
    doc = {
        "dimension": 6,
        "energies": sys.energies_redivided.tolist(),
        "h1": [[[z.real, z.imag] for z in row] for row in sys.g],
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    # One recursion at the deepest revision order gives the revisions and
    # every order's weights.
    calls = []
    original = improved._rayleigh_schrodinger

    def counting(*args, **kwargs):
        calls.append(args[2:])
        return original(*args, **kwargs)

    monkeypatch.setattr(improved, "_rayleigh_schrodinger", counting)
    cfg = RunConfig(
        command="compare", input_path=str(path), output_path=str(tmp_path / "out.csv"),
        order=3, t_end=40.0, t_steps=9,
    )
    assert run(cfg) == 0
    assert calls == [(5,)]
