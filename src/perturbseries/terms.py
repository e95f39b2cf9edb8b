"""Catalog and evaluation of the per-order decomposition terms.

An order-l amplitude sums over level paths p_0..p_l in which neighbours
differ (the coupling has an exactly zero diagonal).  It splits into one
term per equality pattern of the path levels, so the order-l catalog has
Bell(l) terms: 2, 5, 15, 52 and 203 for l = 2..6.  A label writes the
pattern on the pairs at chain distance >= 2, read row-major: ``c``
(contraction, the two levels are equal), ``n`` (anti-contraction, they
differ) or ``k`` (forced by the earlier pairs).  Row j holds the pairs
(p_k, p_{k+j+1}) for k = 0..l-j-1, so row j has l-j entries and the label
is a comma-joined list of row strings of strictly decreasing length.

Labels in printed form omit rows that are entirely ``k``; the row index
of a printed group is recovered from its length alone, which is why the
compact form is unambiguous.

The catalog is generated from this definition: list the patterns, write
each as its ``c``/``n`` string, sort the strings, and write ``k`` at a
pair that every pattern agreeing on the earlier pairs also agrees on.
That gives orders 2 and 3 and the label sets of orders 4 and 5.  Orders
4..6 come from reference lists shipped as fixture files; at order 6 the
list resolves one stem at different pair positions, so only the count
matches there.

A path finds its label by its code, whose bit k says whether its levels at
the k-th pair (label order) are equal: 1, 3, 6, 10 and 15 bits at orders
2..6.  Each catalog tabulates once the one label every code fits, so a path
with equal neighbours (a diagonal kept by skipping redivision) has one too.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources

import numpy as np
from numpy.typing import NDArray

from .ddkernel import _dd_value, _finite_time, _integer
from .improved import _check_level, _projector_sum, _projector_weights, _rayleigh_schrodinger
from .model import SplitSystem, _refuse_coupled_ties

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
        l = _integer(self.order, "order must be an integer")
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
        l = inferred if order is None else _integer(order, "order must be an integer")
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
        return ",".join(gr for gr in self.groups if gr.strip("k"))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.compact()

    def constraints(self) -> list[tuple[int, int, str]]:
        """Flat list of (i, j, kind) with kind 'c'/'n' on path positions i < j."""
        marks = "".join(self.groups)
        return [(i, j, ch) for (i, j), ch in zip(_pattern_pairs(self.order), marks) if ch != "k"]


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

    @cached_property
    def _index(self) -> dict[TermLabel, int]:
        return {label: i for i, label in enumerate(self.labels)}

    @cached_property
    def _table(self) -> NDArray[np.intp]:
        """Index of the label each path code fits, or -1 where none does.

        A path's code sets bit k when its levels at the k-th pair of
        ``_pattern_pairs`` are equal; a label fixes the bits of its ``c`` and
        ``n`` pairs.  The catalog's labels fit disjoint sets of codes.
        """
        codes = np.arange(1 << len(_pattern_pairs(self.order)))
        table = np.full(codes.size, -1, dtype=np.intp)
        for i, label in enumerate(self.labels):
            marks = "".join(label.groups)
            fixed = sum(1 << k for k, ch in enumerate(marks) if ch != "k")
            equal = sum(1 << k for k, ch in enumerate(marks) if ch == "c")
            table[(codes & fixed) == equal] = i
        table.setflags(write=False)
        return table


def _equality_patterns(size: int) -> list[tuple[int, ...]]:
    """Every partition of path positions 0..size-1 into classes of equal
    level with no two neighbours in one class, as restricted growth strings."""
    patterns = [(0,)]
    for _ in range(size - 1):
        patterns = [
            (*pat, cls) for pat in patterns for cls in range(max(pat) + 2) if cls != pat[-1]
        ]
    return patterns


@lru_cache(maxsize=None)
def _pattern_pairs(l: int) -> tuple[tuple[int, int], ...]:
    """The path position pairs at distance >= 2 in label order (row-major)."""
    return tuple((k, k + row + 1) for row in range(1, l) for k in range(l - row))


def _enumerate_by_rule(l: int) -> tuple[TermLabel, ...]:
    """The order-l catalog generated from its definition.

    Each equality pattern of the l+1 path positions (Bell(l) of them) is
    written as ``c``/``n`` over the pairs at distance >= 2, row-major, and
    the strings are sorted.  A pair becomes ``k`` where every pattern that
    agrees on the earlier pairs also agrees on it.
    """
    strings = sorted(
        "".join("c" if pat[a] == pat[b] else "n" for a, b in _pattern_pairs(l))
        for pat in _equality_patterns(l + 1)
    )
    branches: dict[str, set[str]] = {}
    for s in strings:
        for i, ch in enumerate(s):
            branches.setdefault(s[:i], set()).add(ch)
    labels = []
    for s in strings:
        chars = [ch if len(branches[s[:i]]) > 1 else "k" for i, ch in enumerate(s)]
        rows = []
        for row in range(1, l):
            rows.append("".join(chars[: l - row]))
            del chars[: l - row]
        while len(rows) > 1 and set(rows[-1]) == {"k"}:
            rows.pop()
        labels.append(TermLabel(order=l, groups=tuple(rows)))
    return tuple(labels)


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


@lru_cache(maxsize=None, typed=True)  # typed: 4.0 must not find the catalog of 4
def enumerate_catalog(l: int) -> TermCatalog:
    """All decomposition term labels of order l (2 <= l <= 6).

    Orders 4..6 come from the shipped reference lists; orders 2 and 3 are
    generated from the definition, which is exact there.
    """
    l = _integer(l, "order must be an integer")
    if not _CATALOG_MIN <= l <= _CATALOG_MAX:
        raise ValueError(f"catalog available for orders {_CATALOG_MIN}..{_CATALOG_MAX}, got {l}")
    if l <= 3:
        return TermCatalog(order=l, labels=_enumerate_by_rule(l))
    return TermCatalog(order=l, labels=_load_fixture(l))


def eval_closed_term(
    sys: SplitSystem, label: TermLabel | Sequence[TermLabel], t: float, gamma: int, gamma_prime: int
) -> complex | NDArray[np.complex128]:
    """Value of one catalog term, or of a sequence of same-order terms as an array.

    A term is the path sum restricted to the label's equality pattern, with
    the divided-difference kernel supplying the confluent closed form for the
    repeated energies the pattern forces.  One pass over the paths serves all
    the labels: paths with a zero coupling product or no label drop out, the
    kernel runs once per multiset of interior levels, and each label adds its
    paths in path order.  On a whole-catalog request a coupled path without a
    label is an error.  Orders 2..4 are supported (the orders with complete
    per-term reference expressions); every label must be in the catalog.
    """
    labels = (label,) if isinstance(label, TermLabel) else tuple(label)
    orders = {lab.order for lab in labels}
    if len(orders) != 1:
        raise ValueError(f"give labels of one order, got orders {sorted(orders)}")
    (l,) = orders
    if l > _EVAL_MAX:
        raise ValueError(f"per-term evaluation supports orders <= {_EVAL_MAX}, got {l}")
    catalog = enumerate_catalog(l)
    take = [catalog._index.get(lab, -1) for lab in labels]
    if -1 in take:
        foreign = labels[take.index(-1)].compact()
        raise ValueError(f"label {foreign!r} is not in the order-{l} catalog")
    n = sys.dimension
    gamma = _check_level(sys, gamma, "gamma")
    gamma_prime = _check_level(sys, gamma_prime, "gamma_prime")
    t = _finite_time(t)

    path = np.empty((l + 1, n ** (l - 1)), dtype=np.intp)
    path[0], path[1:l], path[l] = gamma, np.indices((n,) * (l - 1)).reshape(l - 1, -1), gamma_prime
    product = sys.g[path[0], path[1]]
    for step in range(1, l):
        product = product * sys.g[path[step], path[step + 1]]
    code = np.zeros(path.shape[1], dtype=np.intp)
    for a, b in reversed(_pattern_pairs(l)):  # Horner: bit k is the k-th pair's equality
        code += code
        code += path[a] == path[b]
    which = catalog._table[code]
    coupled = product != 0.0
    stray = coupled & (which < 0)
    if len(set(take)) == catalog.count and stray.any():
        raise ValueError(f"path {path[:, np.argmax(stray)].tolist()} matches no order-{l} label")
    wanted = np.zeros(catalog.count + 1, dtype=bool)  # the last entry stands for -1: no label
    wanted[take] = True
    keep = coupled & wanted[which]
    values = np.zeros(catalog.count, dtype=np.complex128)
    if keep.any():
        path, product, which = path[:, keep], product[keep], which[keep]
        nodes = np.sort(sys.energies_redivided[path], axis=0).T
        if nodes.shape[0] < 8:  # too few paths for finding repeats to pay
            dd = _dd_value(nodes, t)
        else:
            key = np.ravel_multi_index(np.sort(path[1:l], axis=0), (n,) * (l - 1))
            _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
            dd = _dd_value(nodes[first], t)[inverse]
        np.add.at(values, which, product * dd)
    if isinstance(label, TermLabel):
        return complex(values[take[0]])
    return values[take]


def split_t_power_parts(
    sys: SplitSystem, l: int, t: float
) -> dict[tuple[str, str], NDArray[np.complex128]]:
    """Additive split of the order-l amplitude by t-power and diagonality.

    Returns a dict keyed by (power, place) with power in ``"e"``, ``"te"``,
    ``"t2e"`` (the factor (-i t)^p multiplying a pure phase) and place
    ``"D"`` (diagonal entries) or ``"N"`` (off-diagonal entries).  The six
    matrices sum to the order-l amplitude matrix.

    The part of power p holds, for each level k, the weight of
    (-i t)^p exp(-i E'_k t): the order-l part of P_k delta_k^p / p!, with
    P_k the perturbed eigenprojector and delta_k the level's energy shift,
    both from one Rayleigh-Schrodinger (Bloch) recursion (see
    ``improved._projector_weights``); exactly tied levels share one
    projector and one block of shifts.  These weights grow like
    gap^-(l-p) as two coupled levels close in, and cancel in the total:
    near-confluent coupled levels give large parts with a small sum, and
    the round-off of every part scales with the parts, not with the
    amplitude.  From order 3 on, a tie coupled directly (or a diagonal
    coupling left by skipping redivision) would need t-powers above 2 and
    is refused.
    """
    l = _integer(l, "order must be an integer")
    if not 2 <= l <= _EVAL_MAX:
        raise ValueError(f"t-power split supports orders 2..{_EVAL_MAX}, got {l}")
    energies, g = sys.energies_redivided, sys.g
    t = _finite_time(t)
    if l >= 3:
        _refuse_coupled_ties(
            energies, g, 1, diagonal=True, why=f"; the order-{l} split would need t-powers above 2"
        )
    diagonal = np.eye(sys.dimension, dtype=bool)
    shifts, states = _rayleigh_schrodinger(energies, g, l + 1)
    pattern, left, right, weights = _projector_weights(energies, shifts, states, l, 3)
    scale = np.array([(-1j * t) ** power / math.factorial(power) for power in range(3)])
    phases = np.exp(-1j * energies * t)[pattern[0]]
    parts = _projector_sum(pattern, left, right, phases * scale[:, None, None] * weights[:, l])
    out: dict[tuple[str, str], NDArray[np.complex128]] = {}
    for part, name in zip(parts, ("e", "te", "t2e")):
        out[(name, "D")] = np.where(diagonal, part, 0.0)
        out[(name, "N")] = np.where(diagonal, 0.0, part)
    return out
