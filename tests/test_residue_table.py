"""How many N x N products the residue table forms, against the loop route.

`residue_factors_loop` starts a fresh memo for each order and power and
forms every closed loop as a dense matrix.  One table serves all orders of
a `compare` grid and all powers of a t-power split, and keeps each closed
loop as a vector over the tied pairs, so it forms each distinct column and
row product once.  The products are counted on a coupling matrix that
records every square matrix product made from it.
"""

from __future__ import annotations

import numpy as np
import pytest

import perturbseries.improved as improved
import perturbseries.terms as terms
from perturbseries.improved import _ResidueTable

from helpers import chain_system
from residue_factors_loop import residue_factors_loop


class _Counted(np.ndarray):
    """An array whose ufunc results stay counted, recording each square matrix product."""

    products: list[int]

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, _Counted) else x for x in inputs]
        if ufunc is np.matmul and all(x.ndim == 2 and x.shape[0] == x.shape[1] for x in plain):
            _Counted.products.append(plain[0].shape[0])
        out = getattr(ufunc, method)(*plain, **kwargs)
        return out.view(_Counted) if isinstance(out, np.ndarray) else out


def _count_products(monkeypatch, module, call) -> tuple[int, int]:
    """Tables built and N x N products formed by ``call()``, with the couplings counted."""
    _Counted.products = []
    built = []

    def counted_table(e, g):
        built.append(e.shape[0])
        return _ResidueTable(e, g.view(_Counted))

    monkeypatch.setattr(module, "_ResidueTable", counted_table)
    call()
    return len(built), len(_Counted.products)


def test_compare_grid_forms_each_product_once(monkeypatch):
    # Orders 0-3 need 7 columns and 7 rows, 8 products in all: the three
    # of one slot each only scale g.  The loop route forms 0/2/11/40
    # products per order, its dense closed loops among them.
    sys = chain_system(8)
    ts = np.array([0.0, 3.0])
    tables, products = _count_products(
        monkeypatch, improved, lambda: improved._improved_sum_grid(sys, range(4), ts)
    )
    assert tables == 1
    assert products <= 14
    _Counted.products = []
    g = sys.g.view(_Counted)
    for order in range(4):
        residue_factors_loop(sys.energies_redivided, g, order)
    assert len(_Counted.products) == 53


def test_split_powers_share_one_table(monkeypatch):
    # 15 columns and 15 rows for the three powers, 22 products in all.
    sys = chain_system(6)
    tables, products = _count_products(
        monkeypatch, terms, lambda: terms.split_t_power_parts(sys, 4, 1.3)
    )
    assert tables == 1
    assert products <= 30
    _Counted.products = []
    g = sys.g.view(_Counted)
    for power in range(3):
        residue_factors_loop(sys.energies_redivided, g, 4, power)
    assert len(_Counted.products) == 281
