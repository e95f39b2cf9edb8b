"""How many N x N products the phase weights cost, against the loop route.

`residue_factors_loop` starts a fresh memo for each order and power and
forms every closed loop as a dense matrix.  The package reads the weights
of all orders of a `compare` grid and all powers of a t-power split from
one Rayleigh-Schrodinger (Bloch) recursion, whose orders form one N x N
product each; the overlaps, their inverse and the shift powers stay
vectors over the diagonal and the tied pairs.  The recursions and products
are counted on a coupling matrix that records every square matrix product
made from it.
"""

from __future__ import annotations

import numpy as np

import perturbseries.improved as improved
import perturbseries.terms as terms

from helpers import chain_system
from residue_factors_loop import residue_factors_loop


class _Counted(np.ndarray):
    """An array whose ufunc results stay counted, recording each square matrix product."""

    products: list[int]

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, _Counted) else x for x in inputs]
        if "out" in kwargs:  # in-place updates write through a plain view
            kwargs["out"] = tuple(x.view(np.ndarray) for x in kwargs["out"])
        if ufunc is np.matmul and all(x.ndim == 2 and x.shape[0] == x.shape[1] for x in plain):
            _Counted.products.append(plain[0].shape[0])
        out = getattr(ufunc, method)(*plain, **kwargs)
        return out.view(_Counted) if isinstance(out, np.ndarray) else out


def _count_products(monkeypatch, module, call) -> tuple[list[int], int]:
    """The orders of the recursions run and the N x N products formed by ``call()``."""
    _Counted.products = []
    orders = []
    original = improved._rayleigh_schrodinger

    def counted_recursion(e, g, order):
        orders.append(order)
        return original(e, g.view(_Counted), order)

    monkeypatch.setattr(module, "_rayleigh_schrodinger", counted_recursion)
    call()
    return orders, len(_Counted.products)


def test_compare_grid_forms_each_product_once(monkeypatch):
    # One recursion at the deepest revision order, 5, forms Psi_2..Psi_4:
    # three products for the revisions and every order's weights.  The
    # loop route forms 0/2/11/40 products per order, its dense closed
    # loops among them, and the residue table it replaced formed 8 on top
    # of the revisions' 3.
    sys = chain_system(8)
    ts = np.array([0.0, 3.0])
    orders, products = _count_products(
        monkeypatch, improved, lambda: improved._improved_sum_grid(sys, range(4), ts)
    )
    assert orders == [5]
    assert products <= 3
    _Counted.products = []
    g = sys.g.view(_Counted)
    for order in range(4):
        residue_factors_loop(sys.energies_redivided, g, order)
    assert len(_Counted.products) == 53


def test_split_powers_share_one_recursion(monkeypatch):
    # The order-4 split needs Psi_0..Psi_4: one recursion at order 5, three
    # products for the three powers (the residue table formed 22).
    sys = chain_system(6)
    orders, products = _count_products(
        monkeypatch, terms, lambda: terms.split_t_power_parts(sys, 4, 1.3)
    )
    assert orders == [5]
    assert products <= 3
    _Counted.products = []
    g = sys.g.view(_Counted)
    for power in range(3):
        residue_factors_loop(sys.energies_redivided, g, 4, power)
    assert len(_Counted.products) == 281
