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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np
from numpy.typing import NDArray

from .ddkernel import _dd_value
from .improved import _residue_factors
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
def _enumerate_by_rule(l: int) -> tuple[TermLabel, ...]:
    """The order-l catalog generated from its definition.

    Each equality pattern of the l+1 path positions (Bell(l) of them) is
    written as ``c``/``n`` over the pairs at distance >= 2, row-major, and
    the strings are sorted.  A pair becomes ``k`` where every pattern that
    agrees on the earlier pairs also agrees on it.
    """
    pairs = [(k, k + row + 1) for row in range(1, l) for k in range(l - row)]
    strings = sorted(
        "".join("c" if pat[a] == pat[b] else "n" for a, b in pairs)
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

    Orders 4..6 come from the shipped reference lists; orders 2 and 3 are
    generated from the definition, which is exact there.
    """
    if not _CATALOG_MIN <= l <= _CATALOG_MAX:
        raise ValueError(f"catalog available for orders {_CATALOG_MIN}..{_CATALOG_MAX}, got {l}")
    if l <= 3:
        return TermCatalog(order=l, labels=_enumerate_by_rule(l))
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
    if label not in enumerate_catalog(label.order).labels:
        raise ValueError(f"label {label.compact()!r} is not in the order-{label.order} catalog")
    n = sys.dimension
    for name, idx in (("gamma", gamma), ("gamma_prime", gamma_prime)):
        if not 0 <= idx < n:
            raise ValueError(f"{name} {idx} outside 0..{n - 1}")
    return _eval_term(sys, label, t, gamma, gamma_prime)


def split_t_power_parts(
    sys: SplitSystem, l: int, t: float
) -> dict[tuple[str, str], NDArray[np.complex128]]:
    """Additive split of the order-l amplitude by t-power and diagonality.

    Returns a dict keyed by (power, place) with power in ``"e"``, ``"te"``,
    ``"t2e"`` (the factor (-i t)^p multiplying a pure phase) and place
    ``"D"`` (diagonal entries) or ``"N"`` (off-diagonal entries).  The six
    matrices sum to the order-l amplitude matrix.

    The part of power p holds, for each pole E'_k, the u^-(p+1) Laurent
    coefficient of the resolvent product divided by p! (see
    ``improved._residue_factors``); exactly tied levels share one pole.
    These coefficients grow like gap^-(l-p) as two coupled levels close
    in, and cancel in the total: near-confluent coupled levels give large
    parts with a small sum, and the round-off of every part scales with
    the parts, not with the amplitude.  From order 3 on, a tie coupled
    directly (or a diagonal coupling left by skipping redivision) would
    need t-powers above 2 and is refused.
    """
    if not 2 <= l <= _EVAL_MAX:
        raise ValueError(f"t-power split supports orders 2..{_EVAL_MAX}, got {l}")
    energies = np.asarray(sys.energies_redivided, dtype=np.float64)
    g = np.asarray(sys.g, dtype=np.complex128)
    t = float(t)
    if l >= 3:
        _refuse_coupled_ties(
            energies, g, 1, diagonal=True, why=f"; the order-{l} split would need t-powers above 2"
        )
    diagonal = np.eye(sys.dimension, dtype=bool)
    out: dict[tuple[str, str], NDArray[np.complex128]] = {}
    for power, name in enumerate(("e", "te", "t2e")):
        columns, rows = _residue_factors(energies, g, l, power)
        phases = np.exp(-1j * energies * t) * (-1j * t) ** power / math.factorial(power)
        part = (columns * np.tile(phases, columns.shape[1] // energies.shape[0])) @ rows
        out[(name, "D")] = np.where(diagonal, part, 0.0)
        out[(name, "N")] = np.where(diagonal, 0.0, part)
    return out
