"""Per-label path walk: the oracle for the catalog term values.

For one label, walk every interior path of the level pair in
lexicographic order, keep the paths that satisfy the label's equality
constraints and have a nonzero coupling product, and add the product
times the scalar divided difference over the sorted path energies.  It
costs n^(l-1) Python iterations per label; the package evaluates all the
requested labels of a level pair in one vectorized pass instead.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from perturbseries.model import SplitSystem
from perturbseries.terms import TermLabel

from dd_scalar import _dd_value


@lru_cache(maxsize=16384)
def _dd_cached(nodes: tuple[float, ...], t: float) -> complex:
    # the kernel is symmetric in its nodes, so callers pass them sorted to
    # maximize cache hits across path assignments
    return _dd_value(np.array(nodes, dtype=np.float64), t)


def _eval_term(
    sys: SplitSystem, label: TermLabel, t: float, gamma: int, gamma_prime: int
) -> complex:
    """Constrained path sum for one label (any order; no catalog check)."""
    l = label.order
    n = sys.dimension
    energies = np.asarray(sys.energies_redivided, dtype=np.float64)
    g = np.asarray(sys.g, dtype=np.complex128)
    constraints = label.constraints()
    t = float(t)

    total = 0.0 + 0.0j
    path = [0] * (l + 1)
    path[0] = gamma
    path[l] = gamma_prime
    for interior in itertools.product(range(n), repeat=l - 1):
        path[1:l] = interior
        ok = True
        for i, j, kind in constraints:
            if (path[i] == path[j]) != (kind == "c"):
                ok = False
                break
        if not ok:
            continue
        product = 1.0 + 0.0j
        for step in range(l):
            factor = g[path[step], path[step + 1]]
            if factor == 0.0:
                product = 0.0
                break
            product *= factor
        if product == 0.0:
            continue
        nodes = tuple(sorted(float(energies[p]) for p in path))
        total += product * _dd_cached(nodes, t)
    return total
