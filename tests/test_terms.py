"""Term catalogs, label algebra, per-term values, and the t-power split."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perturbseries.improved import revision_energies
from perturbseries.model import IncompleteDegeneracyRemoval
from perturbseries.series import amplitude_order
from perturbseries import terms
from perturbseries.terms import (
    TermCatalog,
    TermLabel,
    _enumerate_by_rule,
    _pattern_pairs,
    enumerate_catalog,
    eval_closed_term,
    split_t_power_parts,
)

from helpers import (
    chain_system,
    ladder_system,
    planted_system,
    random_hermitian,
    random_system,
    two_state,
)
from catalog_rule import _enumerate_by_rule as decision_tree
from term_walk import _eval_term as walk_term
from tpower_paths import path_split

KNOWN_COUNTS = {2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


@pytest.mark.parametrize("order,count", sorted(KNOWN_COUNTS.items()))
def test_catalog_counts(order, count):
    assert enumerate_catalog(order).count == count


def test_catalog_order_two():
    assert enumerate_catalog(2).compact_strings() == ["c", "n"]


def test_catalog_order_three():
    assert enumerate_catalog(3).compact_strings() == ["cc", "cn", "nc", "nn,c", "nn,n"]


def test_catalog_order_four_members():
    labels = set(enumerate_catalog(4).compact_strings())
    assert {"ccc", "cnn,kn", "ncn,c", "nnn,nn,n"} <= labels
    assert "nnn" not in labels  # (0,4) is undecided there, so it must branch


def test_catalogs_have_no_duplicates():
    for order in range(2, 7):
        strings = enumerate_catalog(order).compact_strings()
        assert len(strings) == len(set(strings))


@pytest.mark.parametrize("order", [4, 5])
def test_enumeration_rule_reproduces_reference(order):
    from_rule = {label.compact() for label in _enumerate_by_rule(order)}
    assert from_rule == set(enumerate_catalog(order).compact_strings())


def test_enumeration_rule_count_at_order_six():
    # The rule picks different representatives inside one stem than the
    # reference list, so only the count is compared at order 6.
    assert len(_enumerate_by_rule(6)) == 203


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
def test_generated_catalog_matches_the_decision_tree(order):
    assert list(_enumerate_by_rule(order)) == decision_tree(order)


def test_generated_catalogs_are_cached():
    assert enumerate_catalog(3).labels is enumerate_catalog(3).labels


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
def test_every_path_code_fits_exactly_one_label(order):
    # A path's code sets bit k when its levels at the k-th pair at distance
    # >= 2 are equal.  Every code, including those only paths with equal
    # neighbours or inconsistent equalities produce, fits exactly one label's
    # constraints, and the catalog's table holds that label.
    catalog = enumerate_catalog(order)
    bit = {pair: k for k, pair in enumerate(_pattern_pairs(order))}
    codes = np.arange(1 << len(bit))
    fits = np.array(
        [
            np.all([((codes >> bit[i, j]) & 1) == (kind == "c") for i, j, kind in label.constraints()], axis=0)
            for label in catalog.labels
        ]
    )
    assert np.all(fits.sum(axis=0) == 1)
    assert np.array_equal(catalog._table, np.argmax(fits, axis=0))
    assert not catalog._table.flags.writeable


def test_catalog_rejects_out_of_range():
    with pytest.raises(ValueError, match="orders 2..6"):
        enumerate_catalog(1)
    with pytest.raises(ValueError, match="orders 2..6"):
        enumerate_catalog(7)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: TermLabel(order=2.9, groups=("c",)), id="label-2.9"),
        pytest.param(lambda: TermLabel(order="3", groups=("cc",)), id="label-str"),
        pytest.param(lambda: TermLabel(order=True, groups=("c",)), id="label-bool"),
        pytest.param(lambda: TermLabel.parse("cc", order=3.0), id="parse-3.0"),
        pytest.param(lambda: enumerate_catalog(4.0), id="catalog-4.0"),
        pytest.param(lambda: enumerate_catalog(2.0), id="catalog-2.0"),
        pytest.param(lambda: enumerate_catalog(True), id="catalog-bool"),
        pytest.param(lambda: split_t_power_parts(two_state(), 3.0, 1.0), id="split-3.0"),
        pytest.param(lambda: split_t_power_parts(two_state(), True, 1.0), id="split-bool"),
    ],
)
def test_non_integer_orders_are_refused(call):
    # 2.9 once made an order-2 label, 4.0 a missing fixture file and 3.0 a
    # TypeError out of range(); 4.0 must not find a cached order-4 catalog
    enumerate_catalog(2), enumerate_catalog(4)
    with pytest.raises(TypeError, match="^order must be an integer, got "):
        call()


def test_numpy_integer_orders_are_accepted():
    assert enumerate_catalog(np.int64(4)).labels == enumerate_catalog(4).labels
    assert type(TermLabel(order=np.int32(3), groups=("cc",)).order) is int
    sys = two_state()
    parts = split_t_power_parts(sys, np.int64(3), 1.0)
    assert all(np.array_equal(v, parts[k]) for k, v in split_t_power_parts(sys, 3, 1.0).items())


def test_parse_round_trip_all_orders():
    for order in range(2, 7):
        for label in enumerate_catalog(order).labels:
            again = TermLabel.parse(label.compact(), order=order)
            assert again == label
            assert TermLabel.parse(label.compact()) == label  # order inferred


def test_parse_fills_skipped_rows():
    label = TermLabel.parse("nnn,c")
    assert label.groups == ("nnn", "kk", "c")


def test_parse_errors():
    with pytest.raises(ValueError, match="empty label"):
        TermLabel.parse("")
    with pytest.raises(ValueError, match="empty group"):
        TermLabel.parse("cn,")
    with pytest.raises(ValueError, match="implies order 3"):
        TermLabel.parse("cc", order=4)
    with pytest.raises(ValueError, match="out of order"):
        TermLabel.parse("cc,ccc")


def test_label_validation():
    with pytest.raises(ValueError, match="order >= 2"):
        TermLabel(order=1, groups=("",))
    with pytest.raises(ValueError, match="at least one group"):
        TermLabel(order=3, groups=())
    with pytest.raises(ValueError, match="must have length"):
        TermLabel(order=3, groups=("c",))
    with pytest.raises(ValueError, match="invalid characters"):
        TermLabel(order=3, groups=("cx",))
    with pytest.raises(ValueError, match="first group may not contain 'k'"):
        TermLabel(order=3, groups=("kc",))
    with pytest.raises(ValueError, match="trailing all-'k'"):
        TermLabel(order=3, groups=("nn", "k"))
    with pytest.raises(ValueError, match="too many groups"):
        TermLabel(order=2, groups=("c", ""))


def test_constraints_positions():
    label = TermLabel.parse("nn,c")
    assert label.constraints() == [(0, 2, "n"), (1, 3, "n"), (0, 3, "c")]
    assert TermLabel.parse("cnn,kn").constraints() == [
        (0, 2, "c"),
        (1, 3, "n"),
        (2, 4, "n"),
        (1, 4, "n"),
    ]


def test_compact_drops_filler_rows():
    label = TermLabel(order=4, groups=("nnn", "kk", "c"))
    assert label.compact() == "nnn,c"


def test_unpickled_label_hashes_like_a_parsed_one_in_another_process():
    # A label hashes once; string hashes differ between processes, so a
    # pickle must not carry the hash into a process with another seed.
    code = (
        "import pickle, sys\n"
        "from perturbseries.terms import TermLabel\n"
        "label = pickle.loads(sys.stdin.buffer.read())\n"
        "print(label in {TermLabel.parse('nn,c')}, hash(label) == hash(TermLabel.parse('nn,c')))\n"
    )
    src = str(Path(terms.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "1"}
    done = subprocess.run(
        [sys.executable, "-c", code], input=pickle.dumps(TermLabel.parse("nn,c")),
        capture_output=True, env=env, check=True, timeout=60,
    )
    assert done.stdout.split() == [b"True", b"True"]


@pytest.mark.parametrize("order", [2, 3, 4])
def test_terms_sum_to_amplitude(rng, order):
    for n in (3, 4):
        sys = random_system(rng, n)
        t = 2.3
        total = np.zeros((n, n), dtype=complex)
        for label in enumerate_catalog(order).labels:
            for gamma in range(n):
                for gp in range(n):
                    total[gamma, gp] += eval_closed_term(sys, label, t, gamma, gp)
        expected = amplitude_order(sys, order, t).values
        np.testing.assert_allclose(total, expected, rtol=1e-9, atol=1e-14)


def test_two_state_term_values():
    sys = two_state(v=0.1)
    t = 1.9
    e0, e1 = sys.energies_redivided
    # Only one length-2 path exists per diagonal entry, and it repeats the
    # start level, so the "all equal at distance two" term is the whole
    # story and the complementary term vanishes.
    c_term = eval_closed_term(sys, TermLabel.parse("c"), t, 0, 0)
    n_term = eval_closed_term(sys, TermLabel.parse("n"), t, 0, 0)
    assert n_term == 0.0
    assert c_term == pytest.approx(amplitude_order(sys, 2, t).values[0, 0], rel=1e-13)
    # Off-diagonal second order needs a third level; a pair has none.
    assert eval_closed_term(sys, TermLabel.parse("n"), t, 0, 1) == 0.0


def test_eval_rejects_high_orders():
    sys = two_state()
    label = TermLabel.parse("nnnn")
    with pytest.raises(ValueError, match="orders <= 4"):
        eval_closed_term(sys, label, 1.0, 0, 1)


def test_eval_rejects_foreign_label():
    sys = two_state()
    # Syntactically valid but internally contradictory, hence not cataloged.
    label = TermLabel(order=3, groups=("cc", "c"))
    with pytest.raises(ValueError, match="not in the order-3 catalog"):
        eval_closed_term(sys, label, 1.0, 0, 1)


def test_eval_rejects_bad_levels():
    sys = two_state()
    with pytest.raises(ValueError, match="gamma 2 outside"):
        eval_closed_term(sys, TermLabel.parse("c"), 1.0, 2, 0)
    with pytest.raises(ValueError, match="gamma_prime -1 outside"):
        eval_closed_term(sys, TermLabel.parse("c"), 1.0, 0, -1)


@pytest.mark.parametrize("levels", [(True, 0), (1.0, 0), (0, np.float64(1.0))])
def test_eval_refuses_non_integer_levels(levels):
    # True and 1.0 were once read as level 1
    with pytest.raises(TypeError, match="must be an integer level index"):
        eval_closed_term(two_state(), TermLabel.parse("c"), 1.0, *levels)


def _chain_with_decoupled_tie(n: int):
    """Nearest-neighbour chain (every other coupling exactly zero) whose last
    level sits exactly on the first; from n = 3 on the two are not coupled."""
    rng = np.random.default_rng(n)
    energies = np.cumsum(rng.uniform(0.3, 1.0, size=n))
    if n >= 3:
        energies[-1] = energies[0]
    hop = rng.uniform(0.05, 0.3, size=n - 1) * np.exp(2j * np.pi * rng.random(n - 1))
    return planted_system(energies, np.diag(hop, 1) + np.diag(hop.conj(), -1))


@pytest.mark.parametrize("n", range(1, 9))
def test_one_pass_matches_the_per_label_walk(n):
    # The third system keeps a diagonal coupling, as with redivision off, so
    # paths that stay on a level have a nonzero product too.
    rng = np.random.default_rng(n)
    undivided = planted_system(np.cumsum(rng.uniform(0.3, 1.0, size=n)), random_hermitian(rng, n, 0.2))
    for sys in (ladder_system(rng, n), _chain_with_decoupled_tie(n), undivided):
        for order in (2, 3, 4):
            labels = enumerate_catalog(order).labels
            for gamma in range(n):
                for gp in range(n):
                    got = eval_closed_term(sys, labels, 1.7, gamma, gp)
                    ref = np.array([walk_term(sys, label, 1.7, gamma, gp) for label in labels])
                    bound = 1e-13 * max(1.0, float(np.max(np.abs(ref))))
                    assert np.all(np.abs(got - ref) <= bound), (order, gamma, gp)


def test_label_sequences_keep_their_order_and_repeats(rng):
    sys = random_system(rng, 4)
    a, b = TermLabel.parse("cnn,kn"), TermLabel.parse("nnn,nn,n")
    got = eval_closed_term(sys, [b, a, b], 0.9, 1, 2)
    singles = [eval_closed_term(sys, label, 0.9, 1, 2) for label in (b, a, b)]
    assert isinstance(singles[0], complex)
    np.testing.assert_allclose(got, singles, rtol=1e-14, atol=0.0)


def test_eval_rejects_mixed_orders_and_empty_sequences():
    sys = two_state()
    with pytest.raises(ValueError, match="labels of one order, got orders \\[2, 3\\]"):
        eval_closed_term(sys, [TermLabel.parse("c"), TermLabel.parse("cc")], 1.0, 0, 1)
    with pytest.raises(ValueError, match="labels of one order, got orders \\[\\]"):
        eval_closed_term(sys, [], 1.0, 0, 1)


def test_full_catalog_refuses_a_path_without_a_label(monkeypatch):
    # A catalog missing "n" leaves the path 0 -> 2 -> 1 without a term; a
    # request for part of the real catalog simply does not count it.
    sys = random_system(np.random.default_rng(5), 3)
    c_only = TermCatalog(order=2, labels=(TermLabel.parse("c"),))
    assert eval_closed_term(sys, c_only.labels, 1.0, 0, 1)[0] == 0.0
    monkeypatch.setattr(terms, "enumerate_catalog", lambda l: c_only)
    with pytest.raises(ValueError, match="path \\[0, 2, 1\\] matches no order-2 label"):
        eval_closed_term(sys, c_only.labels, 1.0, 0, 1)


# ---------------------------------------------------------------------------
# t-power split


@pytest.mark.parametrize("order", [2, 3, 4])
def test_split_parts_sum_to_amplitude(rng, order):
    sys = random_system(rng, 4)
    t = 3.1
    parts = split_t_power_parts(sys, order, t)
    assert set(parts) == {(p, d) for p in ("e", "te", "t2e") for d in ("D", "N")}
    total = sum(parts.values())
    np.testing.assert_allclose(
        total, amplitude_order(sys, order, t).values, rtol=1e-11, atol=1e-14
    )


def test_split_places_are_disjoint(rng):
    sys = random_system(rng, 3)
    parts = split_t_power_parts(sys, 3, 1.4)
    for (_, place), mat in parts.items():
        if place == "D":
            assert np.all(mat[~np.eye(3, dtype=bool)] == 0.0)
        else:
            assert np.all(np.diag(mat) == 0.0)


def test_order_two_secular_piece_is_the_second_revision(rng):
    # The only t-proportional piece at order 2 sits on the diagonal and its
    # coefficient is exactly the second-order level revision.
    sys = random_system(rng, 4)
    t = 2.6
    parts = split_t_power_parts(sys, 2, t)
    e = sys.energies_redivided
    g2 = revision_energies(sys, 2).g2
    expected = np.diag(-1j * t * np.exp(-1j * e * t) * g2)
    np.testing.assert_allclose(parts[("te", "D")], expected, rtol=1e-12, atol=1e-16)
    assert np.all(parts[("te", "N")] == 0.0)
    assert np.all(parts[("t2e", "D")] == 0.0)
    assert np.all(parts[("t2e", "N")] == 0.0)


def test_order_three_has_no_quadratic_secular_piece(rng):
    # Four path positions with distinct neighbours admit at most one
    # repeated level, so no (t^2)-type piece can appear.
    sys = random_system(rng, 4)
    parts = split_t_power_parts(sys, 3, 2.0)
    assert np.all(parts[("t2e", "D")] == 0.0)
    assert np.all(parts[("t2e", "N")] == 0.0)


def test_order_four_quadratic_secular_piece(rng):
    # The t^2 piece is diagonal with coefficient (second revision)^2 / 2.
    sys = random_system(rng, 4)
    t = 1.8
    parts = split_t_power_parts(sys, 4, t)
    e = sys.energies_redivided
    g2 = revision_energies(sys, 2).g2
    expected = np.diag(0.5 * (-1j * t) ** 2 * np.exp(-1j * e * t) * g2**2)
    np.testing.assert_allclose(parts[("t2e", "D")], expected, rtol=1e-11, atol=1e-16)
    assert np.all(parts[("t2e", "N")] == 0.0)


def test_order_four_linear_secular_coefficient(rng):
    # Project the diagonal (te) piece onto its per-phase coefficients with
    # samples at four times; the coefficient on the entry's own phase must
    # combine the second and fourth revisions as G2*S - G4, with S the
    # inverse-square-gap moment of the coupling row.
    sys = random_system(rng, 4)
    e = sys.energies_redivided
    gamma = 2
    ts = [0.7, 1.3, 2.1, 3.7]
    rows = []
    rhs = []
    for t in ts:
        parts = split_t_power_parts(sys, 4, t)
        rows.append(-1j * t * np.exp(-1j * e * t))
        rhs.append(parts[("te", "D")][gamma, gamma])
    coeff = np.linalg.solve(np.array(rows), np.array(rhs))
    rev = revision_energies(sys, 4)
    gaps = e[gamma] - e
    gaps[gamma] = np.inf
    moment = float(np.sum(np.abs(sys.g[gamma]) ** 2 / gaps**2))
    expected = -(rev.g2[gamma] * moment - rev.g4[gamma])
    assert coeff[gamma].imag == pytest.approx(0.0, abs=1e-9)
    assert coeff[gamma].real == pytest.approx(expected, rel=1e-8)


def test_split_rejects_out_of_range_orders(rng):
    sys = random_system(rng, 3)
    with pytest.raises(ValueError, match="orders 2..4"):
        split_t_power_parts(sys, 1, 1.0)
    with pytest.raises(ValueError, match="orders 2..4"):
        split_t_power_parts(sys, 5, 1.0)


# ---------------------------------------------------------------------------
# the eigenprojector split against the path-walk oracle

GATE_TIMES = (0.7, 13.0, -40.0, 200.0)
POWER_NAMES = ("e", "te", "t2e")


def assert_split_matches_paths(sys, order, times=GATE_TIMES):
    """Entrywise within 1e-12 * max(1, |ref|), every key, every time."""
    ref = path_split(sys, order, times)
    for (p, place), values in ref.items():
        if p > 2:
            assert np.all(values == 0.0), (p, place)
            continue
        got = np.array([split_t_power_parts(sys, order, t)[(POWER_NAMES[p], place)] for t in times])
        err = np.abs(got - values)
        bound = 1e-12 * np.maximum(1.0, np.abs(values))
        assert np.all(err <= bound), (p, place, float(np.max(err / bound)))


def linked(n, pairs):
    """Coupling with one distinct complex value on each listed pair."""
    g = np.zeros((n, n), dtype=complex)
    for k, (a, b) in enumerate(pairs):
        g[a, b] = 0.1 + 0.03j * (k + 1)
        g[b, a] = np.conj(g[a, b])
    return g


def dense_tie(energies, seed, uncoupled=()):
    """Dense off-diagonal coupling of norm 0.3, with the listed pairs cut."""
    g = random_hermitian(np.random.default_rng(seed), len(energies), 0.3)
    np.fill_diagonal(g, 0.0)
    for a, b in uncoupled:
        g[a, b] = g[b, a] = 0.0
    return planted_system(energies, g)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("order", [2, 3, 4])
def test_split_matches_path_walk_on_random_systems(n, order):
    assert_split_matches_paths(ladder_system(np.random.default_rng(40 + n), n, norm=0.3), order)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_split_matches_path_walk_on_a_chain(order):
    assert_split_matches_paths(chain_system(32), order)


PLANTED_TIES = {
    # levels 1 and 2 tied, uncoupled, both reached from level 0
    "joined": planted_system([0.0, 1.0, 1.0, 2.5], linked(4, [(0, 1), (0, 2), (2, 3)])),
    # levels 0 and 2 tied, two hops apart through level 1
    "two hops": planted_system([0.0, 1.0, 0.0, 2.5], linked(4, [(0, 1), (1, 2), (1, 3)])),
    "dense uncoupled": dense_tie([0.0, 1.0, 1.0, 2.5, 3.1], 5, uncoupled=[(1, 2)]),
}


@pytest.mark.parametrize("case", sorted(PLANTED_TIES))
@pytest.mark.parametrize("order", [2, 3, 4])
def test_split_matches_path_walk_at_planted_ties(case, order):
    assert_split_matches_paths(PLANTED_TIES[case], order)


def test_split_matches_path_walk_at_a_coupled_triple_tie():
    # Three tied levels coupled to each other merge into one pole, whose
    # t^2 part is the square of the coupling block; order 2 has no higher power.
    assert_split_matches_paths(dense_tie([0.0, 1.0, 1.0, 1.0, 2.5], 6), 2)


COUPLED_TIES = {
    "tied pair": (
        dense_tie([0.0, 1.0, 1.0, 2.5, 3.1], 6),
        r"levels 1 and 2 are exactly degenerate",
    ),
    "diagonal": (
        planted_system([0.0, 1.0, 2.2], random_hermitian(np.random.default_rng(2), 3, 0.1)),
        r"level 0 keeps a diagonal coupling",
    ),
}


@pytest.mark.parametrize("case", sorted(COUPLED_TIES))
@pytest.mark.parametrize("order", [2, 3, 4])
def test_split_refuses_coupled_ties_from_order_three(case, order):
    # Tied levels coupled to each other (or a level coupled to itself) put
    # t-powers above 2 into orders 3 and 4, which the three power keys
    # cannot hold; order 2 stays exact.
    sys, message = COUPLED_TIES[case]
    if order == 2:
        assert_split_matches_paths(sys, order)
        return
    assert any(np.any(v != 0.0) for (p, _), v in path_split(sys, order, [1.3]).items() if p > 2)
    with pytest.raises(IncompleteDegeneracyRemoval, match=message):
        split_t_power_parts(sys, order, 1.3)
