"""The decision-tree enumeration of the term catalog, kept as a test oracle.

Until the catalog was generated from its definition (path equality
patterns, see ``perturbseries.terms``), ``terms._enumerate_by_rule`` was
this union-find decision tree.  The tests check that the two routes give
the same labels in the same order.
"""

from __future__ import annotations

from perturbseries.terms import TermLabel


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
