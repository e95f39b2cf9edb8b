"""The batched block kernel against the per-order loop it replaced, bit for bit.

`ddkernel._dd_blocks` updates all orders with whole-array operations, runs
long time grids in chunks, and lets times whose scaled steps agree (t, 2t,
4t, ...) share one Taylor evaluation and its squarings.  None of these may
change a single bit of the result, so every comparison here is exact,
including the sign of zeros.
"""

from __future__ import annotations

import numpy as np
import pytest

from perturbseries import ddkernel
from perturbseries.ddkernel import _dd_blocks

from dd_blocks_loop import dd_blocks_loop
from helpers import random_hermitian

GRIDS = {
    "one-time": np.array([2.7]),
    "101-times": np.linspace(0.0, 40.0, 101),
    "unsorted-negative-zero": np.array([3.0, -7.5, 0.0, 40.0, -0.25, 12.0, 0.0]),
    "t-400": np.array([400.0, -400.0]),
    # +-0.3 * 2^j for j = 0..10, both zeros, one ulp above 2.4 = 0.3 * 2^3
    # (a near-miss that must not share), and the pair 0.1, 0.2: at a spread
    # of 1.25 to 2.5, 0.1 needs no squaring and 0.2 one, yet they share a
    # step (0.3 and 0.6 do the same at a spread of 0.84 to 1.67)
    "power-of-two-chain": np.random.default_rng(17).permutation(
        np.concatenate(
            [0.3 * 2.0 ** np.arange(11), -0.3 * 2.0 ** np.arange(11), [0.0, -0.0, np.nextafter(2.4, 3.0), 0.1, 0.2]]
        )
    ),
}


def assert_bit_identical(energies, g, L, ts):
    new = _dd_blocks(energies, g, L, ts)
    old = dd_blocks_loop(energies, g, L, ts)
    n = energies.shape[0]
    assert new.shape == old.shape == (L + 1, ts.shape[0], n, n)
    assert np.array_equal(new, old)
    assert new.tobytes() == old.tobytes()  # signed zeros too


def levels(rng, n, *, confluent=False):
    e = np.sort(rng.uniform(-2.0, 2.0, size=n))
    if confluent:
        # every odd level 1e-9 above its even neighbour
        e[1::2] = e[::2][: n // 2] + 1e-9
    return e


def chain(n):
    g = np.zeros((n, n), dtype=np.complex128)
    i = np.arange(n - 1)
    g[i, i + 1] = 0.005 * np.exp(0.3j * i)
    return g + g.conj().T


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("L", range(7))
def test_matches_the_per_order_loop(rng, L, grid):
    for n in range(1, 9):
        assert_bit_identical(levels(rng, n), random_hermitian(rng, n, 0.3), L, GRIDS[grid])


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("L", range(7))
def test_matches_the_loop_at_near_confluent_levels(rng, L, grid):
    for n in range(2, 9):
        e = levels(rng, n, confluent=True)
        assert_bit_identical(e, random_hermitian(rng, n, 0.3), L, GRIDS[grid])


@pytest.mark.parametrize("L", range(7))
def test_matches_the_loop_on_a_40_level_chain(L):
    e = 0.1 * np.arange(40) + 0.02 * np.sin(np.arange(40))
    assert_bit_identical(e, chain(40), L, np.array([20.0, 40.0]))
    assert_bit_identical(e, chain(40), L, GRIDS["one-time"])


def test_matches_the_loop_on_a_40_level_chain_at_101_times():
    e = 0.1 * np.arange(40) + 0.02 * np.sin(np.arange(40))
    assert_bit_identical(e, chain(40), 6, GRIDS["101-times"])


@pytest.mark.parametrize("chunk_bytes", [1, 3 * 16 * 4 * 4 * 4])
def test_chunking_of_the_grid_changes_no_bit(rng, monkeypatch, chunk_bytes):
    # one time per chunk, then (at L = 4) chunks of three times that split
    # the sorted grid across squaring counts
    monkeypatch.setattr(ddkernel, "_CHUNK_BYTES", chunk_bytes)
    for L in (0, 1, 4):
        for grid in GRIDS.values():
            assert_bit_identical(levels(rng, 4), random_hermitian(rng, 4, 0.3), L, grid)


def _distinct_steps(ts):
    # Where every nonzero time reaches past a quarter (|t| * spread > 0.25),
    # two times share a scaled step exactly when their binary mantissas agree,
    # signed zeros apart.
    return len({m.tobytes() for m in np.frexp(ts)[0]})


@pytest.mark.parametrize(
    "ts, rows",
    [
        (np.array([20.0, 40.0]), 1),
        (np.array([2.7, -2.7]), 2),
        (np.array([0.0, -0.0, 0.0]), 2),
        (GRIDS["101-times"], None),
        (GRIDS["power-of-two-chain"], None),
    ],
)
@pytest.mark.parametrize("chunk_bytes", [None, 1])
def test_one_taylor_row_per_distinct_scaled_step(rng, monkeypatch, ts, rows, chunk_bytes):
    # Spread 3.0, so every nonzero time above reaches past a quarter; 0.1
    # needs no squaring and 0.2 one, yet the two share a step.
    e = np.linspace(-3.0, 3.0, 5)
    evaluated = []
    taylor = ddkernel._taylor

    def counting(diag, step, g, L):
        evaluated.append(diag.shape[0])
        return taylor(diag, step, g, L)

    monkeypatch.setattr(ddkernel, "_taylor", counting)
    if chunk_bytes is not None:
        monkeypatch.setattr(ddkernel, "_CHUNK_BYTES", chunk_bytes)
    assert_bit_identical(e, random_hermitian(rng, 5, 0.3), 3, ts)
    assert sum(evaluated) == (rows if rows is not None else _distinct_steps(ts))
    if ts is GRIDS["101-times"]:
        # t_2k = 2 t_k on a linspace grid; t = 40.0 may miss 2 * t_50
        assert sum(evaluated) in (51, 52)
