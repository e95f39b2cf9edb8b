"""Revision energies, rewritten amplitudes, and the derived rate/energy/state APIs."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from perturbseries.cli import main
from perturbseries.improved import (
    GoldenRuleInput,
    RevisionEnergies,
    _improved_sum_grid,
    golden_rule,
    improved_amplitude,
    improved_perturbed_energy,
    improved_perturbed_state,
    improved_transition_probability,
    revision_energies,
)
from perturbseries.model import (
    IncompleteDegeneracyRemoval,
    SplitSystem,
    SystemSpec,
    redivide,
)
from perturbseries.oracle import diagonalize, exact_transition_probability
from perturbseries.series import amplitude_order
from perturbseries.terms import split_t_power_parts

from helpers import (
    CliRunner,
    chain_system,
    ladder_system,
    planted_system,
    random_system,
    two_state,
)
from revision_loop import loop_revisions

# ---------------------------------------------------------------------------
# revision hierarchy


def test_two_state_revisions_exact():
    sys = two_state(v=0.1)
    rev = revision_energies(sys, 5)
    v2 = 0.1 * 0.1
    assert rev.g2[0] == -v2 and rev.g2[1] == v2
    assert rev.g3[0] == 0.0 and rev.g3[1] == 0.0
    # Within one ulp of the exact fourth power of the binary 0.1.
    v4 = Fraction(0.1) ** 4
    ulp = math.ulp(float(v4))
    assert abs(Fraction(rev.g4[0]) - v4) <= ulp and abs(Fraction(rev.g4[1]) + v4) <= ulp
    assert rev.g5[0] == 0.0 and rev.g5[1] == 0.0
    assert rev.imag_residual == 0.0


def test_revisions_match_literal_chain_sums(rng):
    # Re-derive orders 3..5 with bare nested loops over the closed chains
    # minus the disconnected-product corrections.
    sys = random_system(rng, 5)
    rev = revision_energies(sys, 5)
    e, g, n = sys.energies_redivided, sys.g, 5
    for gamma in range(n):
        q = np.array(
            [0.0 if i == gamma else 1.0 / (e[gamma] - e[i]) for i in range(n)]
        )
        others = [i for i in range(n) if i != gamma]
        s1 = sum(abs(g[gamma, i]) ** 2 * q[i] for i in others)
        s2 = sum(abs(g[gamma, i]) ** 2 * q[i] ** 2 for i in others)
        chain3 = sum(
            g[gamma, i] * g[i, j] * g[j, gamma] * q[i] * q[j]
            for i in others
            for j in others
        )
        chain4 = sum(
            g[gamma, i] * g[i, j] * g[j, k] * g[k, gamma] * q[i] * q[j] * q[k]
            for i in others
            for j in others
            for k in others
        )
        chain5 = sum(
            g[gamma, i] * g[i, j] * g[j, k] * g[k, m] * g[m, gamma]
            * q[i] * q[j] * q[k] * q[m]
            for i in others
            for j in others
            for k in others
            for m in others
        )
        c21 = sum(
            g[gamma, i] * g[i, j] * g[j, gamma] * q[i] ** 2 * q[j]
            for i in others
            for j in others
        )
        c12 = sum(
            g[gamma, i] * g[i, j] * g[j, gamma] * q[i] * q[j] ** 2
            for i in others
            for j in others
        )
        assert rev.g2[gamma] == pytest.approx(s1, rel=1e-13)
        assert rev.g3[gamma] == pytest.approx(chain3.real, rel=1e-12)
        assert rev.g4[gamma] == pytest.approx(chain4.real - s2 * s1, rel=1e-12)
        expected5 = chain5.real - (s2 * chain3.real + s1 * (c21 + c12).real)
        assert rev.g5[gamma] == pytest.approx(expected5, rel=1e-12)


def test_revisions_are_real_with_tiny_residual(rng):
    rev = revision_energies(random_system(rng, 6), 5)
    for arr in (rev.g2, rev.g3, rev.g4, rev.g5):
        assert arr.dtype == np.float64
    assert rev.imag_residual < 1e-14


def _kept_diagonal() -> SplitSystem:
    """Redivision skipped: levels 0 and 1 keep a diagonal coupling, level 2 none."""
    h1 = np.array([[0.2, 0.05, 0.0], [0.05, -0.1, 0.03], [0.0, 0.03, 0.0]])
    return redivide(SystemSpec(energies=np.array([0.0, 1.0, 2.2]), h1=h1), enabled=False)


@pytest.mark.parametrize("max_order", [2, 3, 4, 5])
def test_revisions_refuse_a_kept_diagonal(max_order):
    # The revisions take the first-order shift as absorbed; with the
    # diagonal kept they would drop it.
    with pytest.raises(
        IncompleteDegeneracyRemoval,
        match="^level 0 keeps a diagonal coupling, which redivision absorbs into its energy$",
    ):
        revision_energies(_kept_diagonal(), max_order)


def test_revision_order_gating(rng):
    rev = revision_energies(random_system(rng, 3), 3)
    assert np.all(rev.g4 == 0.0) and np.all(rev.g5 == 0.0)
    with pytest.raises(ValueError, match="was not computed"):
        rev.revision(4)
    with pytest.raises(ValueError, match="must lie in 2..5"):
        rev.revision(1)


def test_e_tilde_composition(rng):
    sys = random_system(rng, 3)
    rev = revision_energies(sys, 4)
    np.testing.assert_array_equal(rev.e_tilde(()), rev.energies)
    np.testing.assert_allclose(rev.e_tilde((2,)), rev.energies + rev.g2, rtol=1e-15)
    np.testing.assert_allclose(
        rev.e_tilde((2, 3, 4)), rev.energies + rev.g2 + rev.g3 + rev.g4, rtol=1e-15
    )
    with pytest.raises(ValueError, match="must not repeat"):
        rev.e_tilde((2, 2))


@pytest.mark.parametrize("max_order", [2, 3, 4, 5])
def test_e_tilde_defaults_to_every_computed_order(rng, max_order):
    # the default once named order 5 whatever max_order was computed
    rev = revision_energies(random_system(rng, 4), max_order)
    assert rev.e_tilde().tobytes() == rev.e_tilde(range(2, max_order + 1)).tobytes()


@pytest.mark.parametrize("order", [2.0, np.float64(3.0), True])
def test_revision_order_must_be_an_integer(rng, order):
    # 2.0 once returned the order-2 revision
    rev = revision_energies(random_system(rng, 3))
    with pytest.raises(TypeError, match="revision orders must be integers"):
        rev.revision(order)


def test_revision_energies_argument_checks(rng):
    sys = random_system(rng, 3)
    with pytest.raises(TypeError, match="must be an integer"):
        revision_energies(sys, 3.0)
    with pytest.raises(TypeError, match="must be an integer"):
        revision_energies(sys, True)
    with pytest.raises(ValueError, match="must lie in 2..5"):
        revision_energies(sys, 6)


def test_revision_energies_container_validation():
    zeros = np.zeros(2)
    with pytest.raises(ValueError, match="^energies must be a non-empty one-dimensional array$"):
        RevisionEnergies(np.zeros((2, 2)), zeros, np.zeros((1, 2)), imag_residual=0.0)
    with pytest.raises(ValueError, match="^energies must be a non-empty one-dimensional array$"):
        RevisionEnergies(np.zeros(0), np.zeros(0), np.zeros((1, 0)), imag_residual=0.0)
    with pytest.raises(ValueError, match="^h1 must hold one value per level$"):
        RevisionEnergies(zeros, np.zeros(3), np.zeros((1, 2)), imag_residual=0.0)
    for table in (zeros, np.zeros((1, 3)), np.zeros((1, 2, 1)), np.float64(0.0)):
        with pytest.raises(ValueError, match=r"^revisions must be a \(max_order - 1, N\) table"):
            RevisionEnergies(zeros, zeros, table, imag_residual=0.0)


@pytest.mark.parametrize("max_order", [1, 6], ids=["1", "6"])
def test_revision_energies_container_refuses_max_order_outside_2_to_5(max_order):
    # built directly, the container's row count gives max_order, so rows
    # outside 1..4 are what revision_energies refuses as max_order
    table = np.zeros((max_order - 1, 2))
    with pytest.raises(
        ValueError,
        match=rf"^revisions must be a \(max_order - 1, N\) table with max_order in 2\.\.5, "
        rf"got shape \({max_order - 1}, 2\)$",
    ):
        RevisionEnergies(np.zeros(2), np.zeros(2), table, imag_residual=0.0)


@pytest.mark.parametrize("max_order", [2, 3, 4, 5])
def test_revision_table_rows_are_the_orders(max_order):
    table = np.arange(2.0 * (max_order - 1)).reshape(max_order - 1, 2)
    rev = RevisionEnergies(np.zeros(2), np.zeros(2), table.tolist(), imag_residual=0.0)
    assert rev.max_order == max_order
    assert rev.revisions.dtype == np.float64
    for order, name in zip(range(2, 6), ("g2", "g3", "g4", "g5")):
        row = getattr(rev, name)
        expected = table[order - 2] if order <= max_order else np.zeros(2)
        assert row.tobytes() == expected.tobytes() and not row.flags.writeable
        with pytest.raises(AttributeError):
            setattr(rev, name, expected)
    with pytest.raises(AttributeError):
        rev.max_order = 5
    np.testing.assert_array_equal(rev.e_tilde(), table.sum(axis=0))


def test_degenerate_uncoupled_level_tolerated_through_third_order():
    # An exact tie is harmless while the tied level cannot reach the
    # reference level in the computed chains; the deeper orders refuse it.
    sys = SplitSystem(
        energies_redivided=np.array([0.0, 0.0, 2.0]),
        g=np.array(
            [[0.0, 0.0, 0.1], [0.0, 0.0, 0.3], [0.1, 0.3, 0.0]], dtype=complex
        ),
        basis_rotation=np.eye(3),
        energies_original=np.array([0.0, 0.0, 2.0]),
    )
    rev = revision_energies(sys, 3)
    assert rev.g2[0] == pytest.approx(0.01 / -2.0, rel=1e-14)
    with pytest.raises(IncompleteDegeneracyRemoval, match="still coupled"):
        revision_energies(sys, 4)


def test_degenerate_coupled_pair_refused():
    sys = SplitSystem(
        energies_redivided=np.array([0.0, 0.0]),
        g=np.array([[0.0, 0.1], [0.1, 0.0]], dtype=complex),
        basis_rotation=np.eye(2),
        energies_original=np.array([0.0, 0.0]),
    )
    with pytest.raises(IncompleteDegeneracyRemoval, match="directly coupled"):
        revision_energies(sys, 2)


@pytest.mark.parametrize(
    "sys",
    [
        ladder_system(np.random.default_rng(1), 3),
        ladder_system(np.random.default_rng(2), 7),
        ladder_system(np.random.default_rng(3), 12, norm=0.3),
        chain_system(32),
    ],
    ids=["ladder3", "ladder7", "ladder12", "chain32"],
)
def test_revisions_match_per_level_loop(sys):
    # The all-levels matrix products against the per-level loop they
    # replaced; each order within 1e-13 of its largest revision.
    rev = revision_energies(sys, 5)
    ref = loop_revisions(sys, 5)
    for order in range(2, 6):
        scale = float(np.max(np.abs(ref[order])))
        assert np.max(np.abs(rev.revision(order) - ref[order])) <= 1e-13 * scale


def _tie_cases():
    """Four-level systems with exact ties in several coupling patterns."""
    def links(pairs):
        g = np.zeros((4, 4), dtype=complex)
        for k, (a, b) in enumerate(pairs):
            g[a, b] = 0.1 + 0.02j * k
            g[b, a] = np.conj(g[a, b])
        return g

    return [
        planted_system([0.0, 1.0, 0.0, 2.5], links([(0, 1), (1, 2), (1, 3)])),
        planted_system([0.0, 1.0, 1.0, 2.5], links([(0, 1), (0, 2), (2, 3)])),
        planted_system([0.0, 0.0, 1.0, 2.5], links([(0, 1), (1, 2), (2, 3)])),
        planted_system([0.0, 1.0, 2.5, 0.0], links([(0, 1), (1, 2), (2, 3)])),
        planted_system([1.0, 0.0, 2.5, 0.0], links([(0, 2), (2, 3)])),
    ]


@pytest.mark.parametrize("case", range(5))
@pytest.mark.parametrize("max_order", [2, 3, 4, 5])
def test_revision_refusals_match_per_level_loop(case, max_order):
    sys = _tie_cases()[case]
    try:
        ref = loop_revisions(sys, max_order)
    except IncompleteDegeneracyRemoval as exc:
        with pytest.raises(IncompleteDegeneracyRemoval) as info:
            revision_energies(sys, max_order)
        assert str(info.value) == str(exc)
        return
    rev = revision_energies(sys, max_order)
    for order in range(2, max_order + 1):
        np.testing.assert_allclose(rev.revision(order), ref[order], rtol=1e-13, atol=0.0)


def test_tie_across_separate_blocks_keeps_every_revision(tmp_path):
    # Levels 0 and 1 tie, but sit in two uncoupled two-level blocks (0-2
    # and 1-3), so no revision chain reaches one from the other.  Each
    # block has the two-level closed forms.
    e = [0.0, 0.0, 1.0, 2.3]
    h1 = np.zeros((4, 4), dtype=complex)
    h1[0, 2] = h1[2, 0] = 0.05
    h1[1, 3] = h1[3, 1] = 0.07
    sys = redivide(SystemSpec(energies=np.array(e), h1=h1))
    rev = revision_energies(sys, 5)
    for level, other, v in ((0, 2, 0.05), (2, 0, 0.05), (1, 3, 0.07), (3, 1, 0.07)):
        gap, bound = e[level] - e[other], 1e-14 * v**2
        assert abs(rev.g2[level] - v**2 / gap) <= bound
        assert abs(rev.g3[level]) <= bound
        assert abs(rev.g4[level] + v**4 / gap**3) <= bound
        assert abs(rev.g5[level]) <= bound
    doc = {"dimension": 4, "energies": e, "h1": [[[z.real, z.imag] for z in row] for row in h1]}
    inp = tmp_path / "blocks.json"
    inp.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("energies", "compare"):
        out = tmp_path / f"{command}.csv"
        result = CliRunner().invoke(main, [command, "--input", str(inp), "--output", str(out)])
        assert result.exit_code == 0, result.output
    # Revisions 2-4 miss the sixth-order term 2|v|^6/|gap|^5 of each block.
    rows = [line.split(",") for line in (tmp_path / "energies.csv").read_text().splitlines()[-4:]]
    for row, v, gap in zip(rows, (0.05, 0.07, 0.05, 0.07), (1.0, 2.3, 1.0, 2.3)):
        assert float(row[-1]) <= 1.01 * 2 * v**6 / gap**5


# ---------------------------------------------------------------------------
# rewritten amplitudes


def test_improved_order_zero_phases(rng):
    sys = random_system(rng, 3)
    t = 4.2
    shifted = revision_energies(sys, 5).e_tilde((2, 3, 4, 5))
    got = improved_amplitude(sys, 0, t).values
    np.testing.assert_allclose(got, np.diag(np.exp(-1j * shifted * t)), rtol=1e-14)


def test_improved_order_one_two_state_hand_value():
    # v = 0.1 over a unit gap: the shifted levels are -0.0099 and 1.0099
    # (second plus fourth revisions; the third vanishes), and the rewritten
    # first-order entry keeps the bare 1/gap prefactor.
    sys = two_state(v=0.1)
    t = 10.0
    lo = -0.0099
    hi = 1.0099
    expected = 0.1 * (np.exp(-1j * lo * t) - np.exp(-1j * hi * t)) / (0.0 - 1.0)
    got = improved_amplitude(sys, 1, t).values[0, 1]
    assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("order", [0, 1])
def test_reduction_to_plain_series_low_orders(rng, order):
    # With every revision switched off the rewritten amplitudes must fall
    # back onto the plain ones; at orders 0..1 the plain amplitudes carry
    # no secular part, so the match is total.
    for sys in (two_state(v=0.1), random_system(rng, 4)):
        t = 3.7
        got = improved_amplitude(sys, order, t, g_orders=()).values
        expected = amplitude_order(sys, order, t).values
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("order", [2, 3])
def test_reduction_to_non_secular_part(rng, order):
    # At orders 2..3 the plain amplitudes split into pure-phase plus
    # t-proportional pieces; the rewritten forms with revisions off must
    # reproduce exactly the pure-phase piece (the rest moved into the
    # exponents).
    for sys in (two_state(v=0.1), random_system(rng, 4)):
        t = 2.9
        got = improved_amplitude(sys, order, t, g_orders=()).values
        parts = split_t_power_parts(sys, order, t)
        expected = parts[("e", "D")] + parts[("e", "N")]
        np.testing.assert_allclose(got, expected, rtol=1e-11, atol=1e-13)


def test_uncoupled_system_improved_equals_plain():
    sys = redivide(
        SystemSpec(energies=np.array([0.0, 1.0, 2.5]), h1=np.zeros((3, 3)))
    )
    t = 6.0
    for order in range(4):
        got = improved_amplitude(sys, order, t).values
        expected = amplitude_order(sys, order, t).values
        np.testing.assert_allclose(got, expected, atol=1e-15)


def test_default_revision_orders_are_staggered(rng):
    sys = random_system(rng, 3)
    t = 1.3
    pairs = {0: (2, 3, 4, 5), 1: (2, 3, 4), 2: (2, 3), 3: (2,)}
    for order, g_orders in pairs.items():
        default = improved_amplitude(sys, order, t).values
        explicit = improved_amplitude(sys, order, t, g_orders=g_orders).values
        np.testing.assert_array_equal(default, explicit)


def test_improved_beats_plain_at_long_times():
    # The plain truncation degrades linearly with elapsed time while the
    # energy-shifted rewrite stays bounded at its small-coupling floor.
    sys = two_state(v=0.1)
    sol = diagonalize(sys)
    errors = {}
    for t in (15.0, 60.0, 120.0):
        exact = sol.propagator(t)
        plain = sum(amplitude_order(sys, l, t).values for l in range(4))
        improved = sum(improved_amplitude(sys, l, t).values for l in range(4))
        errors[t] = (
            float(np.max(np.abs(plain - exact))),
            float(np.max(np.abs(improved - exact))),
        )
    err_plain, err_improved = errors[60.0]
    assert err_improved < 1e-3
    assert err_improved < err_plain / 100
    assert errors[120.0][0] > 3 * errors[15.0][0]  # secular growth
    assert errors[120.0][1] < 2 * errors[15.0][1]  # bounded error


def test_improved_amplitude_argument_checks(rng):
    sys = random_system(rng, 3)
    with pytest.raises(ValueError, match="orders 0..3"):
        improved_amplitude(sys, 4, 1.0)
    with pytest.raises(TypeError, match="must be an integer"):
        improved_amplitude(sys, 1.0, 1.0)
    with pytest.raises(TypeError, match="must be an integer"):
        improved_amplitude(sys, True, 1.0)
    # the grid route that compare runs checks every requested order
    with pytest.raises(ValueError, match="orders 0..3"):
        _improved_sum_grid(sys, (4,), np.array([1.0]))
    with pytest.raises(TypeError, match="^order must be an integer, got 2.0$"):
        _improved_sum_grid(sys, (2.0,), np.array([1.0]))
    with pytest.raises(ValueError, match="must lie in 2..5"):
        improved_amplitude(sys, 1, 1.0, g_orders=(1,))
    with pytest.raises(ValueError, match="must not repeat"):
        improved_amplitude(sys, 1, 1.0, g_orders=(2, 2))


def test_improved_amplitude_refuses_degenerate_chain():
    sys = SplitSystem(
        energies_redivided=np.array([0.0, 0.0, 2.0]),
        g=np.array(
            [[0.0, 0.0, 0.1], [0.0, 0.0, 0.3], [0.1, 0.3, 0.0]], dtype=complex
        ),
        basis_rotation=np.eye(3),
        energies_original=np.array([0.0, 0.0, 2.0]),
    )
    with pytest.raises(IncompleteDegeneracyRemoval):
        improved_amplitude(sys, 2, 1.0)


# ---------------------------------------------------------------------------
# two-level transition probability


def test_transition_probability_identity(rng):
    sys = random_system(rng, 4)
    res = improved_transition_probability(sys, 1, 3, 7.5)
    assert res["p_improved"] == pytest.approx(
        res["p_usual"] + res["delta_p"], rel=1e-12, abs=1e-15
    )


def test_transition_probability_zero_duration(rng):
    sys = random_system(rng, 3)
    res = improved_transition_probability(sys, 0, 2, 0.0)
    assert res == {"p_improved": 0.0, "p_usual": 0.0, "delta_p": 0.0}


def test_transition_probability_uncoupled_pair():
    h1 = np.zeros((3, 3))
    h1[0, 2] = h1[2, 0] = 0.1
    sys = redivide(SystemSpec(energies=np.array([0.0, 1.0, 2.0]), h1=h1))
    res = improved_transition_probability(sys, 0, 1, 5.0)
    assert res["p_improved"] == 0.0 and res["p_usual"] == 0.0


def test_transition_probability_at_shifted_resonance():
    # Half a period of the shifted frequency puts the sinc factor at its
    # peak, so the probability is |v|^2 / (omega/2)^2 = 0.04 — while the
    # true maximum of the exact oscillation is 0.04/1.04.
    sys = two_state(v=0.1)
    shifted = revision_energies(sys, 4).e_tilde((2, 3, 4))
    omega_shifted = float(shifted[1] - shifted[0])
    res = improved_transition_probability(sys, 0, 1, math.pi / omega_shifted)
    assert res["p_improved"] == pytest.approx(0.04, rel=1e-12)
    omega_rabi = math.sqrt(1.0 + 4 * 0.01)
    exact_peak = exact_transition_probability(
        diagonalize(sys), 0, 1, math.pi / omega_rabi
    )
    assert exact_peak == pytest.approx(0.04 / 1.04, rel=1e-12)


def test_transition_probability_matches_rewritten_first_order():
    sys = two_state(v=0.1)
    t = 13.0
    res = improved_transition_probability(sys, 0, 1, t)
    amp = improved_amplitude(sys, 1, t).values[1, 0]
    assert res["p_improved"] == pytest.approx(abs(amp) ** 2, rel=1e-12)


def test_transition_probability_tracks_exact_oscillation():
    sys = two_state(v=0.05)
    t = 50.0
    exact = exact_transition_probability(diagonalize(sys), 0, 1, t)
    res = improved_transition_probability(sys, 0, 1, t)
    err_improved = abs(res["p_improved"] - exact)
    err_usual = abs(res["p_usual"] - exact)
    assert err_improved < 5e-4
    assert err_improved < 0.1 * err_usual


def test_transition_probability_argument_checks(rng):
    sys = random_system(rng, 3)
    with pytest.raises(ValueError, match="two distinct levels"):
        improved_transition_probability(sys, 1, 1, 2.0)
    with pytest.raises(ValueError, match="outside 0..2"):
        improved_transition_probability(sys, 0, 3, 2.0)
    with pytest.raises(TypeError, match="integer level"):
        improved_transition_probability(sys, 0.0, 1, 2.0)
    degenerate = SplitSystem(
        energies_redivided=np.array([0.5, 0.5]),
        g=np.zeros((2, 2), dtype=complex),
        basis_rotation=np.eye(2),
        energies_original=np.array([0.5, 0.5]),
    )
    with pytest.raises(ValueError, match="exactly degenerate"):
        improved_transition_probability(degenerate, 0, 1, 2.0)


def test_expansion_consistency_residual_is_quadratic():
    # Subtracting the first-order frequency-shift correction from the
    # exact-minus-rewritten difference must leave a remainder quadratic in
    # the shift; normalize out the |v|^2 amplitude carried by every term
    # before fitting the exponent.
    t = 3.0
    xs, ys = [], []
    for v in (0.02, 0.05, 0.1):
        sys = two_state(v=v)
        shifted = revision_energies(sys, 4).e_tilde((2, 3, 4))
        omega = 1.0
        domega = float(shifted[1] - shifted[0]) - omega
        p_exact = exact_transition_probability(diagonalize(sys), 0, 1, t)
        p_improved = improved_transition_probability(sys, 0, 1, t)["p_improved"]
        leading = -(v * v) * math.sin(0.5 * omega * t) ** 2 / (0.5 * omega) ** 3 * domega
        residual = p_exact - p_improved - leading
        xs.append(math.log(domega))
        ys.append(math.log(abs(residual) / (v * v)))
    slope = np.polyfit(xs, ys, 1)[0]
    assert 1.7 <= slope <= 2.3


# ---------------------------------------------------------------------------
# golden rule


def make_rate_system() -> SplitSystem:
    # Level 0 decays; level 1 models the continuum state (its coupling row
    # feeds the detuning map); level 2 is a far spectator carrying the
    # couplings.  All map poles sit at detuning 12, outside the grid.
    h1 = np.zeros((3, 3))
    h1[0, 2] = h1[2, 0] = 0.08
    h1[1, 2] = h1[2, 1] = 0.3
    return redivide(SystemSpec(energies=np.array([0.0, 2.5, 12.0]), h1=h1))


def tapered_profile(grid: np.ndarray, g0: float) -> np.ndarray:
    # Quartic pinch at zero detuning so the integrand's 1/omega^2 pole is
    # harmless even though the shifted frequency does not vanish there.
    return g0 * np.exp(-(grid**2) / 6.0) * grid**4 / (grid**4 + 0.05**4)


def test_golden_rule_identity_map_has_no_correction():
    grid = np.linspace(-5.0, 5.0, 101)
    inp = GoldenRuleInput(
        energy_grid=grid,
        density_of_states=np.full(grid.shape, 0.7),
        coupling_profile=np.full(grid.shape, 0.0025),
        duration=50.0,
        initial_level=0,
    )
    res = golden_rule(inp, two_state(v=0.1), omega_tilde=lambda om: om)
    assert res["delta_w"] == 0.0
    assert res["w_fermi"] == 2.0 * math.pi * 0.7 * 0.0025
    assert res["w"] == res["w_fermi"]


def test_golden_rule_window_check():
    grid = np.linspace(-3.0, 3.0, 101)
    inp = GoldenRuleInput(
        energy_grid=grid,
        density_of_states=np.full(grid.shape, 0.7),
        coupling_profile=np.full(grid.shape, 0.0025),
        duration=50.0,  # needs the grid to reach past +/- 4
        initial_level=0,
    )
    with pytest.raises(ValueError, match="window too narrow"):
        golden_rule(inp, two_state(v=0.1), omega_tilde=lambda om: om)


def test_golden_rule_refuses_detunings_that_round_together():
    # Strictly increasing energies, but 1e-14, 2e-14 and 3e-14 all lie
    # within half an ulp of 1000, so their detunings from 1000 coincide.
    grid = np.concatenate(
        [[-3000.0, 1e-14, 2e-14, 3e-14], np.linspace(800.0, 990.0, 20), np.linspace(1010.0, 1200.0, 20)]
    )
    inp = GoldenRuleInput(
        energy_grid=grid,
        density_of_states=np.full(grid.shape, 0.7),
        coupling_profile=np.full(grid.shape, 0.0025),
        duration=50.0,
        initial_level=0,
    )
    with pytest.raises(ValueError, match=r"grid points 1 and 2 \(1e-14 and 2e-14\) round to one detuning -1000 "):
        golden_rule(inp, two_state(v=0.1, e1=1000.0, e2=1500.0), omega_tilde=lambda om: 1.01 * om)


@pytest.mark.parametrize(
    "energies, h1_diagonal, message",
    [
        ([0.0, 2.5, 0.0], 0.0, "levels 0 and 2 are exactly degenerate and directly coupled"),
        ([0.0, 2.5, 12.0], 0.01, "level 0 keeps a diagonal coupling"),
    ],
    ids=["tied partner", "diagonal"],
)
def test_golden_rule_refuses_a_tie_in_the_initial_shift(energies, h1_diagonal, message):
    # The initial level's second-order shift divides by the gap to every
    # level it couples to, itself included when redivision is skipped.
    h1 = np.zeros((3, 3))
    h1[0, 2] = h1[2, 0] = 0.08
    h1[1, 2] = h1[2, 1] = 0.3
    h1[0, 0] = h1_diagonal
    sys = redivide(SystemSpec(energies=np.array(energies), h1=h1), enabled=False)
    grid = np.linspace(-5.0, 5.0, 101)
    inp = GoldenRuleInput(
        energy_grid=grid,
        density_of_states=np.full(grid.shape, 0.7),
        coupling_profile=tapered_profile(grid, 0.0025),
        duration=50.0,
        initial_level=0,
    )
    with pytest.raises(IncompleteDegeneracyRemoval, match=message):
        golden_rule(inp, sys, final_level=1)


def test_golden_rule_flags_singular_integrand():
    # The second-order map does not vanish at zero detuning (the two level
    # shifts differ), so an untapered profile leaves a genuine pole on the
    # grid and the computation must refuse rather than integrate garbage.
    sys = make_rate_system()
    grid = np.linspace(-5.0, 5.0, 801)
    inp = GoldenRuleInput(
        energy_grid=grid,
        density_of_states=np.full(grid.shape, 0.7),
        coupling_profile=np.full(grid.shape, 0.0025),
        duration=50.0,
        initial_level=0,
    )
    with pytest.raises(ValueError, match="singular at zero detuning"):
        golden_rule(inp, sys, final_level=1)


def test_golden_rule_quadrature_refinement():
    sys = make_rate_system()
    results = {}
    for points in (801, 8001):
        grid = np.linspace(-5.0, 5.0, points)
        inp = GoldenRuleInput(
            energy_grid=grid,
            density_of_states=np.full(grid.shape, 0.7),
            coupling_profile=tapered_profile(grid, 0.0025),
            duration=50.0,
            initial_level=0,
        )
        results[points] = golden_rule(inp, sys, final_level=1)
    coarse, fine = results[801]["delta_w"], results[8001]["delta_w"]
    assert fine != 0.0
    assert abs(coarse - fine) <= 1e-4 * abs(fine)


def test_golden_rule_explicit_map_matches_final_level():
    # Rebuild the documented second-order detuning map by hand and check the
    # built-in final_level route reproduces it exactly.
    sys = make_rate_system()
    e = sys.energies_redivided
    shift0 = float(np.sum(np.abs(sys.g[0, [1, 2]]) ** 2 / (e[0] - e[[1, 2]])))

    def hand_map(om):
        om = np.asarray(om, dtype=float)
        total = np.zeros_like(om)
        for i in (0, 2):
            if sys.g[1, i] != 0:
                total = total + abs(sys.g[1, i]) ** 2 / (e[0] + om - e[i])
        return om + total - shift0

    grid = np.linspace(-5.0, 5.0, 801)
    inp = GoldenRuleInput(
        energy_grid=grid,
        density_of_states=np.full(grid.shape, 0.7),
        coupling_profile=tapered_profile(grid, 0.0025),
        duration=50.0,
        initial_level=0,
    )
    via_level = golden_rule(inp, sys, final_level=1)
    via_map = golden_rule(inp, sys, omega_tilde=hand_map)
    assert via_map["delta_w"] == pytest.approx(via_level["delta_w"], rel=1e-13)


def test_golden_rule_against_trapezoid_oracle():
    sys = make_rate_system()
    e = sys.energies_redivided
    grid = np.linspace(-5.0, 5.0, 8001)
    rho = np.full(grid.shape, 0.7)
    prof = tapered_profile(grid, 0.0025)
    tt = 50.0
    inp = GoldenRuleInput(
        energy_grid=grid,
        density_of_states=rho,
        coupling_profile=prof,
        duration=tt,
        initial_level=0,
    )
    got = golden_rule(inp, sys, final_level=1)["delta_w"]

    shift0 = float(np.sum(np.abs(sys.g[0, [1, 2]]) ** 2 / (e[0] - e[[1, 2]])))
    shifted = grid + abs(sys.g[1, 2]) ** 2 / (grid - e[2]) - shift0
    with np.errstate(invalid="ignore", divide="ignore"):
        integrand = rho * prof * (np.cos(grid * tt) - np.cos(shifted * tt)) / (tt * grid**2)
    integrand[grid == 0.0] = 0.0  # the tapered profile vanishes there
    oracle = 2.0 * float(np.trapezoid(integrand, grid))
    assert got == pytest.approx(oracle, rel=1e-6)


def test_golden_rule_requires_a_map(rng):
    grid = np.linspace(-5.0, 5.0, 101)
    inp = GoldenRuleInput(
        energy_grid=grid,
        density_of_states=np.ones(101),
        coupling_profile=np.ones(101),
        duration=50.0,
        initial_level=0,
    )
    with pytest.raises(ValueError, match="final_level or an explicit omega_tilde"):
        golden_rule(inp, random_system(rng, 3))


def test_golden_rule_map_output_checks():
    grid = np.linspace(-5.0, 5.0, 101)
    inp = GoldenRuleInput(
        energy_grid=grid,
        density_of_states=np.ones(101),
        coupling_profile=np.ones(101),
        duration=50.0,
        initial_level=0,
    )
    sys = two_state(v=0.1)
    with pytest.raises(ValueError, match="one detuning per input"):
        golden_rule(inp, sys, omega_tilde=lambda om: np.zeros(3))
    with pytest.raises(ValueError, match="non-finite"):
        golden_rule(inp, sys, omega_tilde=lambda om: np.full_like(om, np.nan))


def test_golden_rule_input_validation():
    grid = np.linspace(-1.0, 1.0, 11)
    ones = np.ones(11)
    with pytest.raises(ValueError, match="at least three"):
        GoldenRuleInput(
            energy_grid=[0.0, 1.0],
            density_of_states=[1.0, 1.0],
            coupling_profile=[1.0, 1.0],
            duration=1.0,
            initial_level=0,
        )
    with pytest.raises(ValueError, match="strictly increasing"):
        GoldenRuleInput(
            energy_grid=grid[::-1],
            density_of_states=ones,
            coupling_profile=ones,
            duration=1.0,
            initial_level=0,
        )
    with pytest.raises(ValueError, match="must match the energy grid"):
        GoldenRuleInput(
            energy_grid=grid,
            density_of_states=np.ones(10),
            coupling_profile=ones,
            duration=1.0,
            initial_level=0,
        )
    with pytest.raises(ValueError, match="non-negative"):
        GoldenRuleInput(
            energy_grid=grid,
            density_of_states=-ones,
            coupling_profile=ones,
            duration=1.0,
            initial_level=0,
        )
    with pytest.raises(ValueError, match="positive time"):
        GoldenRuleInput(
            energy_grid=grid,
            density_of_states=ones,
            coupling_profile=ones,
            duration=0.0,
            initial_level=0,
        )
    with pytest.raises(TypeError, match="integer index"):
        GoldenRuleInput(
            energy_grid=grid,
            density_of_states=ones,
            coupling_profile=ones,
            duration=1.0,
            initial_level=1.5,
        )
    with pytest.raises(ValueError, match="non-negative"):
        GoldenRuleInput(
            energy_grid=grid,
            density_of_states=ones,
            coupling_profile=ones,
            duration=1.0,
            initial_level=-1,
        )


def test_golden_rule_interpolators():
    inp = GoldenRuleInput(
        energy_grid=np.array([0.0, 1.0, 2.0]),
        density_of_states=np.array([1.0, 3.0, 5.0]),
        coupling_profile=np.array([0.0, 2.0, 4.0]),
        duration=1.0,
        initial_level=0,
    )
    assert inp.density_at(0.5) == pytest.approx(2.0)
    assert inp.coupling_sq_at(1.5) == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# stationary energies and states


def test_perturbed_energy_two_state_closed_form():
    sys = two_state(v=0.1)
    res = improved_perturbed_energy(sys, 0)
    v2 = 0.1 * 0.1
    assert res["e_total"] == -v2 + v2 * v2
    assert res["e_total"] == pytest.approx(-0.0099, abs=1e-15)
    assert res["e0"] == res["e_total"]
    assert res["e1"] == 0.0 and res["e2"] == 0.0
    exact = 0.5 * (1.0 - math.sqrt(1.04))
    assert abs(res["e_total"] - exact) < 2e-6


def test_perturbed_energy_order_selection(rng):
    sys = random_system(rng, 3)
    rev = revision_energies(sys, 4)
    only2 = improved_perturbed_energy(sys, 1, g_orders=(2,))
    assert only2["e_total"] == pytest.approx(
        float(rev.energies[1] + rev.g2[1]), rel=1e-15
    )
    bare = improved_perturbed_energy(sys, 1, g_orders=())
    assert bare["e_total"] == float(sys.energies_redivided[1])


_WITH_G_ORDERS = {
    "amplitude": lambda sys, g_orders: improved_amplitude(sys, 1, 1.0, g_orders=g_orders).values,
    "energy": lambda sys, g_orders: improved_perturbed_energy(sys, 0, g_orders=g_orders),
}


@pytest.mark.parametrize("function", sorted(_WITH_G_ORDERS))
@pytest.mark.parametrize(
    "g_orders,error,message",
    [
        ((2.5,), TypeError, "revision orders must be integers, got 2.5"),
        (("2",), TypeError, "revision orders must be integers, got '2'"),
        ((True,), TypeError, "revision orders must be integers, got True"),
        ((1,), ValueError, "revision orders must lie in 2..5"),
        ((6,), ValueError, "revision orders must lie in 2..5"),
        ((2, 2), ValueError, "revision orders must not repeat"),
    ],
)
def test_revision_orders_are_integers_in_range(rng, function, g_orders, error, message):
    # a fractional or text order was once truncated to an int and run
    with pytest.raises(error, match=message):
        _WITH_G_ORDERS[function](random_system(rng, 3), g_orders)


@pytest.mark.parametrize("function", sorted(_WITH_G_ORDERS))
def test_revision_orders_accept_numpy_integers(rng, function):
    sys = random_system(rng, 3)
    call = _WITH_G_ORDERS[function]
    np.testing.assert_array_equal(call(sys, (np.int64(3),)), call(sys, (3,)))


def test_perturbed_energy_error_scales_as_fifth_power(rng):
    # With revisions through fourth order the residual against the exact
    # eigenvalue must fall off like the fifth power of the coupling scale.
    from helpers import random_hermitian, spaced_energies

    energies = spaced_energies(rng, 3, min_gap=0.4)
    direction = random_hermitian(rng, 3, 1.0)
    xs, ys = [], []
    for lam in (0.02, 0.04, 0.08):
        sys = redivide(SystemSpec(energies=energies, h1=lam * direction))
        approx = improved_perturbed_energy(sys, 0)["e_total"]
        eigenvalues = diagonalize(sys).eigenvalues
        exact = eigenvalues[np.argmin(np.abs(eigenvalues - energies[0]))]
        xs.append(math.log(lam))
        ys.append(math.log(abs(approx - exact)))
    slope = np.polyfit(xs, ys, 1)[0]
    assert slope >= 4.5


@pytest.mark.parametrize("v", [0.05, 0.1, 0.15, 0.2])
def test_perturbed_energy_bound_against_exact(v):
    # |shifted level - exact eigenvalue| <= 2 v^6 over the whole admissible
    # coupling range of the worked pair (unit gap).
    sys = two_state(v=v)
    approx = improved_perturbed_energy(sys, 0)["e_total"]
    exact = 0.5 * (1.0 - math.sqrt(1.0 + 4.0 * v * v))
    assert abs(approx - exact) <= 2.0 * v**6 + 1e-16


def test_perturbed_state_two_state():
    sys = two_state(v=0.1)
    res = improved_perturbed_state(sys, 0)
    np.testing.assert_array_equal(res["a0"], [1.0, 0.0])
    np.testing.assert_allclose(res["a1"], [0.0, -0.1], atol=1e-16)
    np.testing.assert_array_equal(res["a2"], [0.0, 0.0])


def _projector_formulas(sys, beta):
    """Textbook first- and second-order coefficients, zero-numerator terms skipped."""
    e, g, n = sys.energies_redivided, sys.g, sys.dimension
    a1 = np.zeros(n, dtype=complex)
    a2 = np.zeros(n, dtype=complex)
    for gamma in range(n):
        if gamma == beta:
            continue
        if g[gamma, beta] != 0:
            a1[gamma] = -g[gamma, beta] / (e[gamma] - e[beta])
        a2[gamma] = sum(
            g[gamma, g1] * g[g1, beta] / ((e[gamma] - e[beta]) * (e[g1] - e[beta]))
            for g1 in range(n)
            if g1 != beta and g[gamma, g1] * g[g1, beta] != 0
        )
    return a1, a2


def test_perturbed_state_matches_projector_formulas(rng):
    sys = random_system(rng, 4)
    beta = 1
    res = improved_perturbed_state(sys, beta)
    assert res["a1"][beta] == 0.0 and res["a2"][beta] == 0.0
    a1, a2 = _projector_formulas(sys, beta)
    for gamma in range(4):
        if gamma == beta:
            continue
        assert res["a1"][gamma] == pytest.approx(a1[gamma], rel=1e-13)
        assert res["a2"][gamma] == pytest.approx(a2[gamma], rel=1e-12, abs=1e-16)


def _tied_chain(hops: int):
    """Five levels on a chain from level 0 to the level tied with it."""
    e = [0.0, 1.0, 2.5, 3.1, 4.0]
    e[hops] = 0.0
    g = np.zeros((5, 5), dtype=complex)
    for k in range(4):
        g[k, k + 1] = 0.1 + 0.03j * (k + 1)
        g[k + 1, k] = np.conj(g[k, k + 1])
    return planted_system(e, g)


@pytest.mark.parametrize("hops", [1, 2])
def test_perturbed_state_refuses_close_ties(hops):
    message = {
        1: "levels 0 and 1 are exactly degenerate and directly coupled",
        2: "level 2 is exactly degenerate with level 0 and still coupled",
    }[hops]
    with pytest.raises(IncompleteDegeneracyRemoval, match=message):
        improved_perturbed_state(_tied_chain(hops), 0)


def test_perturbed_state_tolerates_tie_three_hops_away():
    sys = _tied_chain(3)
    res = improved_perturbed_state(sys, 0)
    a1, a2 = _projector_formulas(sys, 0)
    assert res["a1"][3] == 0.0 and res["a2"][3] == 0.0
    np.testing.assert_allclose(res["a1"], a1, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(res["a2"], a2, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("level", [0, 1])
def test_perturbed_state_refuses_its_own_kept_diagonal(level):
    with pytest.raises(IncompleteDegeneracyRemoval, match=f"level {level} keeps a diagonal coupling"):
        improved_perturbed_state(_kept_diagonal(), level)


def test_perturbed_state_accepts_a_level_without_a_diagonal():
    # Diagonals of the other levels enter the textbook coefficients as they are.
    sys = _kept_diagonal()
    res = improved_perturbed_state(sys, 2)
    a1, a2 = _projector_formulas(sys, 2)
    np.testing.assert_allclose(res["a1"], a1, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(res["a2"], a2, rtol=1e-12, atol=0.0)


def test_perturbed_state_overlap_with_exact_eigenvector(rng):
    sys = random_system(rng, 4, norm=0.1)
    res = improved_perturbed_state(sys, 0)
    approx = res["a0"] + res["a1"]
    approx = approx / np.linalg.norm(approx)
    sol = diagonalize(sys)
    column = int(np.argmin(np.abs(sol.eigenvalues - sys.energies_redivided[0])))
    exact = sol.eigenvectors[:, column]
    deficit = 1.0 - abs(np.vdot(exact, approx))
    assert deficit <= 5.0 * 0.1**2


def test_perturbed_state_level_checks(rng):
    sys = random_system(rng, 3)
    with pytest.raises(ValueError, match="outside 0..2"):
        improved_perturbed_state(sys, 3)
    with pytest.raises(TypeError, match="integer level"):
        improved_perturbed_energy(sys, None)
