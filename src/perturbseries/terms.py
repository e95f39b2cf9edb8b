"""Catalog and evaluation of the per-order decomposition terms.

Each order-l amplitude splits into a finite catalog of terms indexed by
equality patterns among the path levels: every pair of levels at chain
distance >= 2 is either forced equal (delta, written ``c``), forced
unequal (written ``n``), or left free (written ``k``).  Rows of the
pattern collect pairs of equal separation: row j holds the pairs
(p_k, p_{k+j+1}) for k = 0..l-j-1, so row j has l-j entries and the label
is a comma-joined list of row strings of strictly decreasing length.

Labels in printed form omit rows that are entirely ``k``; the row index
of a printed group is recovered from its length alone, which is why the
compact form is unambiguous.

The catalogs for orders 4..6 are fixed reference lists shipped as fixture
files; an enumeration rule (branch on a pair only when the accumulated
equality/inequality constraints leave it undecided) reproduces them and
is exposed for the lower orders and for cross-checking.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np
from numpy.typing import NDArray

from .ddkernel import _dd_value, dd_exp_parts
from .model import SplitSystem

__all__ = [
    "TermCatalog",
    "TermLabel",
    "enumerate_catalog",
    "eval_closed_term",
    "split_t_power_parts",
]

_CATALOG_MIN = 2
_CATALOG_MAX = 6
_EVAL_MAX = 4

#: Expected catalog sizes, used as a load-time sanity check on fixtures.
_KNOWN_COUNTS = {2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


@dataclass(frozen=True)
class TermLabel:
    """Equality pattern of one decomposition term.

    ``groups`` is the canonical form: row strings for rows 1..r where r is
    the last row containing a non-``k`` character (rows that are entirely
    ``k`` appear explicitly when an implicit row follows them, and trailing
    all-``k`` rows are trimmed).  Row j has length ``order - j``.
    """

    order: int
    groups: tuple[str, ...]

    def __post_init__(self) -> None:
        l = int(self.order)
        groups = tuple(str(gr) for gr in self.groups)
        object.__setattr__(self, "order", l)
        object.__setattr__(self, "groups", groups)
        if l < 2:
            raise ValueError(f"term labels exist for order >= 2, got {l}")
        if not groups:
            raise ValueError("label needs at least one group")
        if len(groups) > l - 1:
            raise ValueError(f"too many groups for order {l}: {groups!r}")
        for j, group in enumerate(groups, start=1):
            if len(group) != l - j:
                raise ValueError(
                    f"group {j} of order-{l} label must have length {l - j}, got {group!r}"
                )
            bad = set(group) - {"c", "n", "k"}
            if bad:
                raise ValueError(f"invalid characters {sorted(bad)} in group {group!r}")
        if "k" in groups[0]:
            raise ValueError(f"first group may not contain 'k': {groups[0]!r}")
        if len(groups) > 1 and set(groups[-1]) == {"k"}:
            raise ValueError(f"trailing all-'k' group in {groups!r} (not canonical)")

    @classmethod
    def parse(cls, text: str, order: int | None = None) -> "TermLabel":
        """Parse a printed label such as ``"nnccn,nn,c"``.

        Printed labels omit all-``k`` rows; each printed group's row index
        is recovered from its length (row = order - length) and the gaps
        are filled with all-``k`` rows.
        """
        raw = [part.strip() for part in text.strip().split(",")]
        if not raw or not raw[0]:
            raise ValueError(f"empty label text: {text!r}")
        inferred = len(raw[0]) + 1
        l = inferred if order is None else int(order)
        if l != inferred:
            raise ValueError(
                f"label {text!r} implies order {inferred}, but order={order} was requested"
            )
        groups: list[str] = []
        expected_len = l - 1
        for part in raw:
            if not part:
                raise ValueError(f"empty group in label text: {text!r}")
            if len(part) > expected_len:
                raise ValueError(f"group {part!r} out of order in label text: {text!r}")
            while expected_len > len(part):
                groups.append("k" * expected_len)
                expected_len -= 1
            groups.append(part)
            expected_len -= 1
        return cls(order=l, groups=tuple(groups))

    def compact(self) -> str:
        """Printed form: all-``k`` rows dropped, groups comma-joined."""
        return ",".join(gr for gr in self.groups if set(gr) != {"k"})

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.compact()

    def constraints(self) -> list[tuple[int, int, str]]:
        """Flat list of (i, j, kind) with kind 'c'/'n' on path positions i < j."""
        out: list[tuple[int, int, str]] = []
        for row, group in enumerate(self.groups, start=1):
            for k, ch in enumerate(group):
                if ch != "k":
                    out.append((k, k + row + 1, ch))
        return out


@dataclass(frozen=True)
class TermCatalog:
    """All term labels of one order, in reference order."""

    order: int
    labels: tuple[TermLabel, ...]

    @property
    def count(self) -> int:
        return len(self.labels)

    def compact_strings(self) -> list[str]:
        return [label.compact() for label in self.labels]


class _Constraints:
    """Union-find equality classes plus inequality edges over path positions.

    Positions 0..l index the levels visited along a path.  Adjacent
    positions are seeded unequal because the coupling matrix has an exactly
    zero diagonal, so paths never repeat a level on consecutive steps.
    """

    def __init__(self, length: int) -> None:
        self.parent = list(range(length + 1))
        self.unequal: set[frozenset[int]] = set()
        for i in range(length):
            self.unequal.add(frozenset((i, i + 1)))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def status(self, a: int, b: int) -> str:
        """'equal', 'unequal', or 'open' for the pair (a, b)."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return "equal"
        if frozenset((ra, rb)) in self.unequal:
            return "unequal"
        return "open"

    def copy(self) -> "_Constraints":
        dup = _Constraints.__new__(_Constraints)
        dup.parent = list(self.parent)
        dup.unequal = set(self.unequal)
        return dup

    def assert_equal(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        # merge rb into ra and rewrite inequality edges onto the new root
        self.parent[rb] = ra
        rewritten: set[frozenset[int]] = set()
        for edge in self.unequal:
            rewritten.add(frozenset(ra if e == rb else e for e in edge))
        self.unequal = rewritten

    def assert_unequal(self, a: int, b: int) -> None:
        self.unequal.add(frozenset((self.find(a), self.find(b))))


def _enumerate_by_rule(l: int) -> list[TermLabel]:
    """Decision-tree enumeration: branch only on undecided pairs.

    Pairs are visited row-major (row 1 first, left to right).  A pair whose
    equality status is already implied by earlier choices is recorded as
    ``k``; otherwise the tree branches, ``c`` before ``n``.  This
    reproduces the reference catalogs except for a single order-6 stem
    where the reference list resolves the remaining freedom at different
    pair positions (the fixture files are authoritative there).
    """
    pairs = [(k, k + row + 1, row) for row in range(1, l) for k in range(l - row)]
    labels: list[TermLabel] = []
    rows_template = ["k" * (l - row) for row in range(1, l)]

    def walk(idx: int, state: _Constraints, rows: list[str]) -> None:
        if idx == len(pairs):
            trimmed = list(rows)
            while len(trimmed) > 1 and set(trimmed[-1]) == {"k"}:
                trimmed.pop()
            labels.append(TermLabel(order=l, groups=tuple(trimmed)))
            return
        a, b, row = pairs[idx]
        status = state.status(a, b)
        if status != "open":
            walk(idx + 1, state, rows)
            return
        for choice in ("c", "n"):
            branch = state.copy()
            if choice == "c":
                branch.assert_equal(a, b)
            else:
                branch.assert_unequal(a, b)
            new_rows = list(rows)
            group = new_rows[row - 1]
            k = a
            new_rows[row - 1] = group[:k] + choice + group[k + 1 :]
            walk(idx + 1, branch, new_rows)

    walk(0, _Constraints(l), rows_template)
    return labels


@lru_cache(maxsize=None)
def _load_fixture(l: int) -> tuple[TermLabel, ...]:
    path = resources.files("perturbseries").joinpath(f"_fixtures/catalog_l{l}.txt")
    labels: list[TermLabel] = []
    seen: set[str] = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        label = TermLabel.parse(text, order=l)
        if label.compact() in seen:
            raise ValueError(f"duplicate label {text!r} in catalog fixture for order {l}")
        seen.add(label.compact())
        labels.append(label)
    if len(labels) != _KNOWN_COUNTS[l]:
        raise ValueError(
            f"catalog fixture for order {l} has {len(labels)} labels, "
            f"expected {_KNOWN_COUNTS[l]}"
        )
    return tuple(labels)


def enumerate_catalog(l: int) -> TermCatalog:
    """All decomposition term labels of order l (2 <= l <= 6).

    Orders 4..6 come from the shipped reference lists; orders 2 and 3 from
    the enumeration rule, which is exact there.
    """
    if not _CATALOG_MIN <= l <= _CATALOG_MAX:
        raise ValueError(f"catalog available for orders {_CATALOG_MIN}..{_CATALOG_MAX}, got {l}")
    if l <= 3:
        return TermCatalog(order=l, labels=tuple(_enumerate_by_rule(l)))
    return TermCatalog(order=l, labels=_load_fixture(l))


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


def eval_closed_term(
    sys: SplitSystem, label: TermLabel, t: float, gamma: int, gamma_prime: int
) -> complex:
    """Value of one catalog term: the path sum restricted to the label's
    equality pattern, with the divided-difference kernel supplying the
    confluent closed form for the repeated energies the pattern forces.

    Closed-form evaluation is supported for orders 2..4 (the orders with
    complete per-term reference expressions); the label must belong to
    ``enumerate_catalog(label.order)``.
    """
    if label.order > _EVAL_MAX:
        raise ValueError(f"per-term evaluation supports orders <= {_EVAL_MAX}, got {label.order}")
    catalog = enumerate_catalog(label.order)
    if label.compact() not in set(catalog.compact_strings()):
        raise ValueError(f"label {label.compact()!r} is not in the order-{label.order} catalog")
    n = sys.dimension
    for name, idx in (("gamma", gamma), ("gamma_prime", gamma_prime)):
        if not 0 <= idx < n:
            raise ValueError(f"{name} {idx} outside 0..{n - 1}")
    return _eval_term(sys, label, t, gamma, gamma_prime)


def _interior_weights(
    g: NDArray[np.complex128], order: int, start: int
) -> dict[tuple[int, tuple[int, ...]], complex]:
    """Sum coupling products over all length-`order` paths leaving `start`.

    Keys are (end level, sorted tuple of interior levels); the value is the
    sum of prod_j g[path_j, path_{j+1}] over every path in that class.
    Paths are walked depth-first in lexicographic order and any zero
    coupling factor prunes the whole subtree, so exact sparsity in g is
    exploited without thresholds.
    """
    n = g.shape[0]
    weights: dict[tuple[int, tuple[int, ...]], complex] = {}
    interiors: list[int] = []

    def extend(level: int, depth: int, product: complex) -> None:
        if depth == order:
            key = (level, tuple(sorted(interiors)))
            weights[key] = weights.get(key, 0j) + product
            return
        row = g[level]
        last_step = depth + 1 == order
        for nxt in range(n):
            val = row[nxt]
            if val == 0.0:
                continue
            if last_step:
                extend(nxt, depth + 1, product * val)
            else:
                interiors.append(nxt)
                extend(nxt, depth + 1, product * val)
                interiors.pop()

    extend(start, 0, 1.0 + 0.0j)
    return weights


def split_t_power_parts(
    sys: SplitSystem, l: int, t: float
) -> dict[tuple[str, str], NDArray[np.complex128]]:
    """Additive split of the order-l amplitude by t-power and diagonality.

    Returns a dict keyed by (power, place) with power in ``"e"``, ``"te"``,
    ``"t2e"`` (the factor (-i t)^p multiplying a pure phase) and place
    ``"D"`` (diagonal entries) or ``"N"`` (off-diagonal entries).  The six
    matrices sum to the order-l amplitude matrix.

    The split uses the exact residue decomposition of each divided
    difference into t-power times single-phase pieces, so it requires the
    distinct redivided energies along any contributing path to be well
    separated (exact ties are fine — they merge into one confluent node).
    """
    if not 2 <= l <= _EVAL_MAX:
        raise ValueError(f"t-power split supports orders 2..{_EVAL_MAX}, got {l}")
    energies = np.asarray(sys.energies_redivided, dtype=np.float64)
    g = np.asarray(sys.g, dtype=np.complex128)
    n = sys.dimension
    t = float(t)

    power_names = {0: "e", 1: "te", 2: "t2e"}
    out: dict[tuple[str, str], NDArray[np.complex128]] = {
        (p, place): np.zeros((n, n), dtype=np.complex128)
        for p in power_names.values()
        for place in ("D", "N")
    }

    for start in range(n):
        weights = _interior_weights(g, l, start)
        for end, interiors in sorted(weights):
            w = weights[(end, interiors)]
            nodes = energies[(start, *interiors, end),]
            place = "D" if start == end else "N"
            for power, y, coeff in dd_exp_parts(nodes):
                name = power_names.get(power)
                if name is None:  # pragma: no cover - impossible for l <= 4
                    raise RuntimeError(f"unexpected t-power {power} at order {l}")
                value = w * coeff * (-1j * t) ** power * np.exp(-1j * y * t)
                out[(name, place)][start, end] += value
    return out
