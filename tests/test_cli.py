"""End-to-end checks of the batch CLI: parsing, reports, determinism, errors."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import perturbseries
from perturbseries.cli import (
    _COMMANDS,
    RunConfig,
    _parse_g_orders,
    main,
    parse_spec_file,
    run,
)
from perturbseries.improved import GoldenRuleInput, golden_rule, improved_transition_probability
from perturbseries.model import SystemSpec, redivide
from perturbseries.series import amplitude_order

from dd_blocks_loop import dd_blocks_loop
from helpers import CliRunner, two_state
from two_state_closed import two_state_closed_form


def write_two_state_file(path, v=0.1):
    doc = {
        "dimension": 2,
        "energies": [0.0, 1.0],
        "h1": [[0.0, [v, 0.0]], [[v, 0.0], 0.0]],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def read_report(path):
    comments, columns, rows = [], None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, columns, rows


@pytest.fixture
def runner():
    return CliRunner()


def _fresh_interpreter_env() -> dict[str, str]:
    """The environment of a child interpreter that imports this perturbseries."""
    src = str(Path(perturbseries.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


# ---------------------------------------------------------------------------
# input parsing


def test_parse_spec_file_round_trip(tmp_path):
    doc = {
        "dimension": 2,
        "energies": [0.5, 2.0],
        "h1": [[0.1, [0.0, -0.2]], [[0.0, 0.2], 0.0]],
        "coupling_scale": 0.5,
    }
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    spec = parse_spec_file(str(path))
    np.testing.assert_array_equal(spec.energies, [0.5, 2.0])
    assert spec.h1[0, 1] == -0.2j
    assert spec.h1[0, 0] == 0.1
    assert spec.coupling_scale == 0.5


@pytest.mark.parametrize(
    "doc,message",
    [
        ([1, 2], "top level must be a JSON object"),
        ({"dimension": 2, "energies": [0.0, 1.0]}, "missing required field 'h1'"),
        ({"dimension": True, "energies": [0.0], "h1": [[0.0]]}, "positive integer"),
        ({"dimension": 2, "energies": [0.0], "h1": [[0.0]]}, "list of 2 numbers"),
        (
            {"dimension": 2, "energies": [0.0, 1.0], "h1": [[0.0, 0.0]]},
            "must be a 2x2 matrix",
        ),
        (
            {"dimension": 2, "energies": [0.0, 1.0], "h1": [[0.0, 0.0], [0.0]]},
            "row 1 must hold 2 entries",
        ),
        (
            {"dimension": 2, "energies": [0.0, 1.0], "h1": [[0.0, "x"], [0.0, 0.0]]},
            "must be a number or a",
        ),
        (
            {
                "dimension": 2,
                "energies": [0.0, 1.0],
                "h1": [[0.0, 0.0], [0.0, 0.0]],
                "coupling_scale": "big",
            },
            "'coupling_scale' must be a number",
        ),
        (
            {"dimension": 2, "energies": [0.0, 1.0], "h1": [[0.0, [1.0, True]], [0.0, 0.0]]},
            "h1\\[0\\]\\[1\\] must be a number or a",
        ),
        (
            {"dimension": 2, "energies": [0.0, 1.0], "h1": [[0.0, 0.0], [[1.0, 0.0, 2.0], 0.0]]},
            "h1\\[1\\]\\[0\\] must be a number or a",
        ),
    ],
)
def test_parse_spec_file_schema_errors(tmp_path, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        parse_spec_file(str(path))


def test_parse_spec_file_accepts_integer_pairs(tmp_path):
    doc = {"dimension": 2, "energies": [0.0, 1.0], "h1": [[0.0, [1, 0]], [[1.0, -0.0], 0]]}
    path = tmp_path / "ints.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    h1 = parse_spec_file(str(path)).h1
    assert h1.dtype == np.complex128
    np.testing.assert_array_equal(h1, [[0.0, 1.0], [1.0, 0.0]])


def test_parse_spec_file_bad_json_and_missing(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError, match="not valid JSON"):
        parse_spec_file(str(path))
    with pytest.raises(ValueError, match="cannot read"):
        parse_spec_file(str(tmp_path / "absent.json"))


# ---------------------------------------------------------------------------
# commands


def test_evolve_report_structure(tmp_path, runner):
    inp = write_two_state_file(tmp_path / "sys.json")
    out = tmp_path / "evolve.csv"
    result = runner.invoke(
        main,
        [
            "evolve",
            "--input",
            str(inp),
            "--output",
            str(out),
            "--order",
            "4",
            "--t-end",
            "5",
            "--t-steps",
            "11",
        ],
    )
    assert result.exit_code == 0, result.output
    comments, columns, rows = read_report(out)
    assert comments[0].startswith("# perturbseries ")
    assert "# command: evolve" in comments
    assert columns == ["t", "c0_re", "c0_im", "c1_re", "c1_im", "norm"]
    assert len(rows) == 11
    first = [float(x) for x in rows[0]]
    assert first == [0.0, 1.0, 0.0, 0.0, 0.0, 1.0]
    for row in rows:
        assert abs(float(row[-1]) - 1.0) < 5e-3  # norm drifts only by truncation


def test_evolve_reports_are_byte_identical(tmp_path, runner):
    inp = write_two_state_file(tmp_path / "sys.json")
    args = lambda out: [
        "evolve",
        "--input",
        str(inp),
        "--output",
        str(out),
        "--order",
        "3",
        "--t-steps",
        "17",
    ]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert runner.invoke(main, args(first)).exit_code == 0
    assert runner.invoke(main, args(second)).exit_code == 0
    assert first.read_bytes() == second.read_bytes()



def test_compare_reports_are_byte_identical(tmp_path, runner, monkeypatch):
    # compare runs the block kernel for the usual series; its report must not
    # change from run to run, nor against the per-order loop kernel
    n = 6
    upper = np.triu(np.fromfunction(lambda a, b: 0.04 * np.exp(1j * (a + 2 * b)) / (1 + abs(b - a)), (n, n)), 1)
    h1 = upper + upper.conj().T
    doc = {
        "dimension": n,
        "energies": [0.37 * k + 0.05 * math.sin(k) for k in range(n)],
        "h1": [[[z.real, z.imag] for z in row] for row in h1],
    }
    inp = tmp_path / "sys.json"
    inp.write_text(json.dumps(doc), encoding="utf-8")
    args = lambda out: [
        "compare",
        "--input",
        str(inp),
        "--output",
        str(out),
        "--order",
        "3",
        "--t-end",
        "60",
        "--t-steps",
        "41",
    ]
    first, second, loop = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "loop.csv"
    assert runner.invoke(main, args(first)).exit_code == 0
    assert runner.invoke(main, args(second)).exit_code == 0
    monkeypatch.setattr(perturbseries.series, "_dd_value", dd_blocks_loop)
    assert runner.invoke(main, args(loop)).exit_code == 0
    assert first.read_bytes() == second.read_bytes() == loop.read_bytes()

def test_terms_catalog_listing(tmp_path, runner):
    out = tmp_path / "terms6.csv"
    result = runner.invoke(main, ["terms", "--order", "6", "--output", str(out)])
    assert result.exit_code == 0, result.output
    comments, columns, rows = read_report(out)
    assert "# count: 203" in comments
    assert columns == ["index", "label"]
    assert len(rows) == 203
    assert rows[0] == ["0", '"ccccc"']


def test_terms_with_values(tmp_path, runner):
    inp = write_two_state_file(tmp_path / "sys.json")
    out = tmp_path / "terms2.csv"
    result = runner.invoke(
        main,
        [
            "terms",
            "--order",
            "2",
            "--input",
            str(inp),
            "--output",
            str(out),
            "--time",
            "1.9",
            "--from-level",
            "0",
            "--to-level",
            "0",
        ],
    )
    assert result.exit_code == 0, result.output
    _, columns, rows = read_report(out)
    assert columns == ["index", "label", "value_re", "value_im"]
    values = {row[1]: complex(float(row[2]), float(row[3])) for row in rows}
    expected = amplitude_order(two_state(v=0.1), 2, 1.9).values[0, 0]
    assert values['"c"'] == pytest.approx(expected, rel=1e-12)
    assert values['"n"'] == 0.0


def test_terms_reports_are_byte_identical(tmp_path, runner):
    # All 15 order-4 terms come from one pass; the report must not change
    # between runs in one process nor in a fresh interpreter.
    n = 5
    upper = np.triu(np.fromfunction(lambda a, b: 0.03 * np.exp(1j * (2 * a + b)) / (1 + abs(b - a)), (n, n)), 1)
    h1 = upper + upper.conj().T
    doc = {
        "dimension": n,
        "energies": [0.5 * k + 0.07 * math.cos(k) for k in range(n)],
        "h1": [[[z.real, z.imag] for z in row] for row in h1],
    }
    inp = tmp_path / "sys.json"
    inp.write_text(json.dumps(doc), encoding="utf-8")
    args = lambda out: [
        "terms", "--order", "4", "--input", str(inp), "--output", str(out),
        "--time", "2.7", "--from-level", "3", "--to-level", "1",
    ]
    first, second, fresh = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    assert runner.invoke(main, args(first)).exit_code == 0
    assert runner.invoke(main, args(second)).exit_code == 0
    env = _fresh_interpreter_env()
    code = f"from perturbseries.cli import main; main({args(fresh)!r})"
    subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60, check=True)
    assert first.read_bytes() == second.read_bytes() == fresh.read_bytes()
    _, _, rows = read_report(first)
    assert len(rows) == 15 and any(float(row[2]) != 0.0 for row in rows)


def test_terms_high_order_with_input_lists_only(tmp_path, runner):
    inp = write_two_state_file(tmp_path / "sys.json")
    out = tmp_path / "terms5.csv"
    result = runner.invoke(
        main,
        ["terms", "--order", "5", "--input", str(inp), "--output", str(out)],
    )
    assert result.exit_code == 0, result.output
    _, columns, rows = read_report(out)
    assert columns == ["index", "label"]  # values only exist through order 4
    assert len(rows) == 52


def test_two_state_report(tmp_path, runner):
    out = tmp_path / "pair.csv"
    result = runner.invoke(
        main,
        ["two-state", "--output", str(out), "--t-end", "20", "--t-steps", "21"],
    )
    assert result.exit_code == 0, result.output
    _, columns, rows = read_report(out)
    assert columns == ["t", "p_usual", "p_improved", "p_exact", "e_tilde_1", "e_tilde_2"]
    assert float(rows[0][0]) == 0.0
    assert float(rows[0][3]) == 0.0
    row = rows[13]
    t = float(row[0])
    omega = math.sqrt(1.04)
    p_exact = 0.01 * math.sin(0.5 * omega * t) ** 2 / (0.25 * omega * omega)
    assert float(row[3]) == pytest.approx(p_exact, rel=1e-12)
    assert float(row[4]) == pytest.approx(-0.0099, abs=1e-15)
    assert float(row[5]) == pytest.approx(1.0099, abs=1e-15)


def test_two_state_report_matches_the_per_time_call(tmp_path, runner):
    # The report computes the revisions once per run; every probability must
    # still carry the bits of the public per-time function.
    out = tmp_path / "pair.csv"
    args = ["--e1", "0.3", "--e2", "1.45", "--v", "0.07", "--t-end", "60", "--t-steps", "31"]
    result = runner.invoke(main, ["two-state", "--output", str(out), *args])
    assert result.exit_code == 0, result.output
    _, _, rows = read_report(out)
    sys = two_state(v=0.07, e1=0.3, e2=1.45)
    assert len(rows) == 31
    for row in rows:
        probs = improved_transition_probability(sys, 0, 1, float(row[0]))
        assert row[1] == repr(probs["p_usual"])
        assert row[2] == repr(probs["p_improved"])


def test_two_state_accepts_either_level_order(tmp_path, runner):
    # Swapping e1 and e2 mirrors the pair: the probabilities are unchanged
    # and the shifted energies trade places.
    grid = ["--v", "0.07", "--t-end", "60", "--t-steps", "31"]
    reports = {}
    for name, (e1, e2) in {"up": ("0.3", "1.45"), "down": ("1.45", "0.3")}.items():
        out = tmp_path / f"{name}.csv"
        argv = ["two-state", "--output", str(out), "--e1", e1, "--e2", e2, *grid]
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, result.output
        reports[name] = read_report(out)[2]
    expected = two_state_closed_form(0.3, 1.45, 0.07, np.linspace(0.0, 60.0, 31))["p12"]
    for up, down, p_exact in zip(reports["up"], reports["down"], expected):
        assert down[:3] == up[:3]
        assert float(down[3]) == pytest.approx(p_exact, rel=1e-12, abs=1e-15)
        assert (down[4], down[5]) == (up[5], up[4])


def test_two_state_header_names_the_working_basis(tmp_path, runner):
    # Levels closer than --tol-deg are rotated by redivision, and every
    # column is then a transition between the rotated states, as in evolve.
    out = tmp_path / "pair.csv"
    result = runner.invoke(main, ["two-state", "--output", str(out), "--e1", "0", "--e2", "1e-11"])
    assert result.exit_code == 0, result.output
    comments, _, _ = read_report(out)
    assert "# basis: redivided working basis" in comments


def test_two_state_refuses_equal_levels(tmp_path, runner):
    out = tmp_path / "never.csv"
    result = runner.invoke(main, ["two-state", "--output", str(out), "--e1", "0.5", "--e2", "0.5"])
    assert result.exit_code == 1
    assert "requires e1 != e2, got e1=0.5, e2=0.5" in result.output
    assert list(tmp_path.iterdir()) == []


def test_compare_improved_wins_at_long_time(tmp_path, runner):
    inp = write_two_state_file(tmp_path / "sys.json")
    out = tmp_path / "compare.csv"
    result = runner.invoke(
        main,
        [
            "compare",
            "--input",
            str(inp),
            "--output",
            str(out),
            "--order",
            "3",
            "--t-start",
            "0",
            "--t-end",
            "60",
            "--t-steps",
            "7",
        ],
    )
    assert result.exit_code == 0, result.output
    _, columns, rows = read_report(out)
    assert columns == ["t", "err_usual", "err_improved"]
    last = rows[-1]
    assert float(last[0]) == 60.0
    assert float(last[2]) < float(last[1]) / 10.0
    assert all(math.isfinite(float(cell)) for row in rows for cell in row)


def test_compare_accepts_g_orders_none(tmp_path, runner):
    inp = write_two_state_file(tmp_path / "sys.json")
    out = tmp_path / "compare_none.csv"
    result = runner.invoke(
        main,
        [
            "compare",
            "--input",
            str(inp),
            "--output",
            str(out),
            "--order",
            "2",
            "--g-orders",
            "none",
            "--t-steps",
            "5",
        ],
    )
    assert result.exit_code == 0, result.output
    comments, _, rows = read_report(out)
    assert "# g-orders: " in "\n".join(comments)
    assert len(rows) == 5


def golden_rule_document() -> dict:
    grid = np.linspace(-5.0, 5.0, 801)
    coupling = 0.0025 * np.exp(-(grid**2) / 6.0) * grid**4 / (grid**4 + 0.05**4)
    return {
        "dimension": 3,
        "energies": [0.0, 2.5, 12.0],
        "h1": [
            [0.0, 0.0, 0.08],
            [0.0, 0.0, 0.3],
            [0.08, 0.3, 0.0],
        ],
        "golden_rule": {
            "energy_grid": list(grid),
            "density": [0.7] * grid.shape[0],
            "coupling_sq": list(coupling),
            "duration": 50.0,
            "initial": 0,
            "final": 1,
        },
    }


def test_golden_rule_command_matches_library(tmp_path, runner):
    doc = golden_rule_document()
    inp = tmp_path / "rate.json"
    inp.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "rate.csv"
    result = runner.invoke(
        main, ["golden-rule", "--input", str(inp), "--output", str(out)]
    )
    assert result.exit_code == 0, result.output
    _, columns, rows = read_report(out)
    assert columns == ["w_fermi", "delta_w", "w"]
    assert len(rows) == 1
    got = [float(x) for x in rows[0]]

    block = doc["golden_rule"]
    direct = golden_rule(
        GoldenRuleInput(
            energy_grid=np.array(block["energy_grid"]),
            density_of_states=np.array(block["density"]),
            coupling_profile=np.array(block["coupling_sq"]),
            duration=block["duration"],
            initial_level=block["initial"],
        ),
        redivide(
            SystemSpec(
                energies=np.array(doc["energies"], dtype=float),
                h1=np.array(doc["h1"], dtype=complex),
            )
        ),
        final_level=block["final"],
    )
    assert got[0] == direct["w_fermi"]
    assert got[1] == direct["delta_w"]
    assert got[2] == direct["w"]
    assert got[1] != 0.0


def test_golden_rule_command_missing_block(tmp_path, runner):
    inp = write_two_state_file(tmp_path / "sys.json")
    out = tmp_path / "rate.csv"
    result = runner.invoke(
        main, ["golden-rule", "--input", str(inp), "--output", str(out)]
    )
    assert result.exit_code != 0
    assert "missing 'golden_rule' object" in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("energy_grid", [-5.0, True, 5.0], "golden_rule.energy_grid must be a list of numbers"),
        ("energy_grid", [-5.0, "0", 5.0], "golden_rule.energy_grid must be a list of numbers"),
        ("density", [0.7, False, 0.7], "golden_rule.density must be a list of numbers"),
        ("density", ["0.7", 0.7, 0.7], "golden_rule.density must be a list of numbers"),
        ("coupling_sq", [0.1, True, 0.1], "golden_rule.coupling_sq must be a list of numbers"),
        ("coupling_sq", [0.1, "x", 0.1], "golden_rule.coupling_sq must be a list of numbers"),
        ("coupling_sq", 0.1, "golden_rule.coupling_sq must be a list of numbers"),
        ("duration", True, "golden_rule.duration must be a number"),
        ("initial", -1, "golden_rule.initial must be a non-negative integer"),
        ("final", 1.5, "golden_rule.final must be a non-negative integer"),
        (None, [1, 2], "'golden_rule' must be a JSON object"),
        pytest.param(
            "energy_grid", [-5.0, 10**400, 5.0], "golden_rule.energy_grid must be a list of numbers",
            id="energy_grid-400-digit-int",
        ),
        pytest.param(
            "duration", 10**400, "golden_rule.duration must be a number", id="duration-400-digit-int"
        ),
    ],
)
def test_golden_rule_block_refuses_a_bad_field(tmp_path, runner, field, value, message):
    # JSON numbers are ints and floats; booleans and strings are refused
    doc = golden_rule_document()
    if field is None:
        doc["golden_rule"] = value
    else:
        doc["golden_rule"][field] = value
    inp = tmp_path / "rate.json"
    inp.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "rate.csv"
    result = runner.invoke(main, ["golden-rule", "--input", str(inp), "--output", str(out)])
    assert result.exit_code == 1, result.output
    assert f"{inp}: {message}" in result.output
    assert [p.name for p in tmp_path.iterdir()] == ["rate.json"]


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("energies", [0.0, 10**400, 12.0], "field 'energies' must be a list of 3 numbers"),
        ("h1", [[10**400, 0.0, 0.08]], "h1[0][0] must be a number or a [re, im] pair, got 10"),
        ("h1", [[0.0, [0.0, 10**400], 0.08]], "h1[0][1] must be a number or a [re, im] pair"),
        ("coupling_scale", 10**400, "field 'coupling_scale' must be a number"),
    ],
    ids=["energies", "h1-number", "h1-pair-part", "coupling_scale"],
)
def test_system_file_refuses_an_integer_beyond_float_range(tmp_path, runner, field, value, message):
    # such a literal once escaped the input checks as an OverflowError traceback
    doc = golden_rule_document()
    if field == "h1":
        doc["h1"][: len(value)] = value
    else:
        doc[field] = value
    inp = tmp_path / "rate.json"
    inp.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "rate.csv"
    result = runner.invoke(main, ["golden-rule", "--input", str(inp), "--output", str(out)])
    assert result.exit_code == 1, result.output
    assert result.output.startswith(f"Error: {inp}: {message}")
    assert [p.name for p in tmp_path.iterdir()] == ["rate.json"]


def test_golden_rule_command_refuses_collapsing_detunings(tmp_path, runner):
    # Levels near 1000: the grid energies 1e-14..3e-14 all sit 1000.0 below
    # the initial level, so the detunings collapse; no report is written.
    doc = golden_rule_document()
    doc["energies"] = [1000.0, 1002.5, 1012.0]
    grid = [-3000.0, 1e-14, 2e-14, 3e-14]
    grid += np.linspace(800.0, 990.0, 191).tolist() + np.linspace(1010.0, 1200.0, 191).tolist()
    coupling = 0.0025 * np.exp(-((np.array(grid) - 1000.0) ** 2) / 6.0)
    doc["golden_rule"].update(energy_grid=grid, density=[0.7] * len(grid), coupling_sq=coupling.tolist())
    inp = tmp_path / "rate.json"
    inp.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "rate.csv"
    result = runner.invoke(main, ["golden-rule", "--input", str(inp), "--output", str(out)])
    assert result.exit_code == 1, result.output
    assert "energy grid points 1 and 2" in result.output
    assert [p.name for p in tmp_path.iterdir()] == ["rate.json"]


def test_energies_report(tmp_path, runner):
    inp = write_two_state_file(tmp_path / "sys.json")
    out = tmp_path / "energies.csv"
    result = runner.invoke(main, ["energies", "--input", str(inp), "--output", str(out)])
    assert result.exit_code == 0, result.output
    _, columns, rows = read_report(out)
    assert columns == [
        "level",
        "e_original",
        "e_redivided",
        "e_tilde",
        "e_exact",
        "abs_error",
    ]
    level0 = rows[0]
    assert float(level0[1]) == 0.0 and float(level0[2]) == 0.0
    assert float(level0[3]) == pytest.approx(-0.0099, abs=1e-15)
    assert float(level0[4]) == pytest.approx(0.5 * (1 - math.sqrt(1.04)), rel=1e-14)
    assert float(level0[5]) < 2e-6


def _write_system(path, energies, h1):
    doc = {"dimension": len(energies), "energies": energies, "h1": h1}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_energies_pairs_levels_by_eigenvector_overlap(tmp_path, runner):
    # Level 1 is pushed by its coupling to level 0 above the uncoupled
    # level 2, so pairing by rank would swap their exact eigenvalues.
    inp = _write_system(
        tmp_path / "sys.json", [0.0, 1.0, 1.02], [[0, 0.3, 0], [0.3, 0, 0], [0, 0, 0]]
    )
    out = tmp_path / "energies.csv"
    result = runner.invoke(main, ["energies", "--input", str(inp), "--output", str(out)])
    assert result.exit_code == 0, result.output
    _, _, rows = read_report(out)
    e_exact = [float(row[4]) for row in rows]
    assert e_exact[1] == pytest.approx(0.5 * (1.0 + math.sqrt(1.36)), abs=1e-14)
    assert e_exact[2] == pytest.approx(1.02, abs=1e-14)
    assert e_exact[0] == pytest.approx(0.5 * (1.0 - math.sqrt(1.36)), abs=1e-14)
    assert max(float(row[5]) for row in rows) < 2e-3


def test_energies_refuses_ambiguous_pairing(tmp_path, runner):
    # Level 0 mixes strongly with both close partners and holds the largest
    # component of two eigenvectors.
    inp = _write_system(
        tmp_path / "sys.json", [0.0, 0.1, 0.2], [[0, 1, 1], [1, 0, 0], [1, 0, 0]]
    )
    out = tmp_path / "energies.csv"
    result = runner.invoke(main, ["energies", "--input", str(inp), "--output", str(out)])
    assert result.exit_code != 0
    assert "cannot pair levels" in result.output
    assert "levels [0]" in result.output
    assert not out.exists()


def test_energies_refuses_a_kept_diagonal(tmp_path, runner):
    # Without redivision levels 0 and 1 keep their diagonal coupling, whose
    # first-order shift the revisions would drop from e_tilde.
    inp = _write_system(
        tmp_path / "sys.json", [0, 1, 2.2], [[0.2, 0.05, 0], [0.05, -0.1, 0.03], [0, 0.03, 0]]
    )
    out = tmp_path / "energies.csv"
    result = runner.invoke(
        main, ["energies", "--no-redivision", "--input", str(inp), "--output", str(out)]
    )
    assert result.exit_code == 1, result.output
    assert "level 0 keeps a diagonal coupling, which redivision absorbs" in result.output
    assert [p.name for p in tmp_path.iterdir()] == ["sys.json"]


# ---------------------------------------------------------------------------
# report layout: the header block and the column line, as literal text


_LAYOUT_CASES = {
    "evolve": (
        ["--input", "sys.json", "--order", "2", "--initial", "1", "--t-end", "2",
         "--t-steps", "3"],
        """\
# basis: redivided working basis
# initial-level: 1
# input: sys.json
# order: 2
# redivision: on
# t-end: 2.0
# t-start: 0.0
# t-steps: 3
# tol-deg: 1e-10
t,c0_re,c0_im,c1_re,c1_im,c2_re,c2_im,norm""",
    ),
    "compare": (
        ["--input", "sys.json", "--order", "2", "--g-orders", "2,3", "--t-start", "1",
         "--t-end", "2", "--t-steps", "3"],
        """\
# g-orders: 2,3
# input: sys.json
# order: 2
# redivision: on
# t-end: 2.0
# t-start: 1.0
# t-steps: 3
# tol-deg: 1e-10
t,err_usual,err_improved""",
    ),
    "terms": (
        ["--input", "sys.json", "--order", "3", "--time", "1.5", "--from-level", "0",
         "--to-level", "2"],
        """\
# count: 5
# from-level: 0
# input: sys.json
# order: 3
# redivision: on
# time: 1.5
# to-level: 2
# tol-deg: 1e-10
index,label,value_re,value_im""",
    ),
    "golden-rule": (
        ["--input", "sys.json", "--no-redivision"],
        """\
# duration: 50.0
# final-level: 1
# grid-points: 801
# initial-level: 0
# input: sys.json
# redivision: off
# tol-deg: 1e-10
w_fermi,delta_w,w""",
    ),
    "two-state": (
        ["--e1", "-0.25", "--e2", "0.75", "--v", "0.05", "--t-end", "4", "--t-steps", "3"],
        """\
# basis: redivided working basis
# e1: -0.25
# e2: 0.75
# t-end: 4.0
# t-start: 0.0
# t-steps: 3
# tol-deg: 1e-10
# v: 0.05
t,p_usual,p_improved,p_exact,e_tilde_1,e_tilde_2""",
    ),
    "energies": (
        ["--input", "sys.json", "--g-orders", "2..5", "--tol-deg", "1e-6"],
        """\
# g-orders: 2,3,4,5
# input: sys.json
# redivision: on
# tol-deg: 1e-06
level,e_original,e_redivided,e_tilde,e_exact,abs_error""",
    ),
}


def _check_cells(rows, columns):
    assert rows
    for row in rows:
        assert len(row) == len(columns)
        for name, cell in zip(columns, row):
            if name in ("index", "level"):
                assert cell == str(int(cell))
            elif name == "label":
                assert re.fullmatch("[cn,]+", cell)
            else:
                assert cell == repr(float(cell))


@pytest.mark.parametrize("command", sorted(_LAYOUT_CASES))
def test_report_layout_is_pinned(tmp_path, runner, monkeypatch, command):
    # the input path is relative, so the header block is the same text on any machine
    monkeypatch.chdir(tmp_path)
    Path("sys.json").write_text(json.dumps(golden_rule_document()), encoding="utf-8")
    argv, expected = _LAYOUT_CASES[command]
    result = runner.invoke(main, [command, *argv, "--output", "out.csv"])
    assert result.exit_code == 0, result.output
    text = Path("out.csv").read_text(encoding="utf-8")
    head = [f"# perturbseries {perturbseries.__version__}", f"# command: {command}"]
    head += expected.splitlines()
    lines = text.splitlines()
    assert lines[: len(head)] == head
    assert text.endswith("\n")
    # a term label holds commas, so its cell is quoted
    _check_cells(list(csv.reader(lines[len(head) :])), head[-1].split(","))


def test_programmatic_run_writes_float_settings_as_floats(tmp_path):
    # RunConfig takes ints for its float fields; the header still reads 0.0
    out = tmp_path / "pair.csv"
    config = RunConfig(
        command="two-state", output_path=str(out), e1=0, e2=1, t_start=0, t_end=2, t_steps=3
    )
    assert run(config) == 0
    comments, columns, rows = read_report(out)
    assert comments == [
        f"# perturbseries {perturbseries.__version__}",
        "# command: two-state",
        "# basis: redivided working basis",
        "# e1: 0.0",
        "# e2: 1.0",
        "# t-end: 2.0",
        "# t-start: 0.0",
        "# t-steps: 3",
        "# tol-deg: 1e-10",
        "# v: 0.1",
    ]
    _check_cells(rows, columns)
    assert [row[0] for row in rows] == ["0.0", "1.0", "2.0"]


# ---------------------------------------------------------------------------
# failure behaviour


def test_missing_input_file_fails_cleanly(tmp_path, runner):
    out = tmp_path / "never.csv"
    result = runner.invoke(
        main,
        ["evolve", "--input", str(tmp_path / "absent.json"), "--output", str(out)],
    )
    assert result.exit_code != 0
    assert "cannot read" in result.output
    assert list(tmp_path.iterdir()) == []  # no report, no temp file


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
@pytest.mark.parametrize(
    "command",
    [["energies"], ["energies", "--no-redivision"], ["evolve"], ["two-state", "--e2", "0"]],
)
def test_bad_tol_deg_fails_without_partial_output(tmp_path, runner, command, value):
    # levels [0, 0] coupled by 0.1: the refusal names the tolerance, not the tie
    inp = _write_system(tmp_path / "sys.json", [0.0, 0.0], [[0, 0.1], [0.1, 0]])
    out = tmp_path / "never.csv"
    source = [] if command[0] == "two-state" else ["--input", str(inp)]
    argv = [*command, *source, "--output", str(out), "--tol-deg", value]
    result = runner.invoke(main, argv)
    assert result.exit_code == 1, result.output
    assert f"tol_deg must be a finite non-negative real, got {float(value)!r}" in result.output
    assert "degenerate" not in result.output
    assert [p.name for p in tmp_path.iterdir()] == ["sys.json"]


def test_bad_level_fails_without_partial_output(tmp_path, runner):
    inp = write_two_state_file(tmp_path / "sys.json")
    out = tmp_path / "never.csv"
    result = runner.invoke(
        main,
        ["evolve", "--input", str(inp), "--output", str(out), "--initial", "5"],
    )
    assert result.exit_code != 0
    assert "initial level 5 outside 0..1" in result.output
    assert not out.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["sys.json"]


def test_order_out_of_range_is_a_usage_error(tmp_path, runner):
    result = runner.invoke(
        main, ["terms", "--order", "7", "--output", str(tmp_path / "x.csv")]
    )
    assert result.exit_code == 2
    assert "7" in result.output


def test_version_flag(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "perturbseries" in result.output


def test_version_flag_in_a_fresh_interpreter():
    done = subprocess.run(
        [sys.executable, "-m", "perturbseries.cli", "--version"],
        env=_fresh_interpreter_env(), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"perturbseries, version {perturbseries.__version__}\n"


# A command line per command that runs; each case below breaks it in one place.
_VALID_ARGV = {
    "evolve": ["--input", "sys.json", "--output", "out.csv"],
    "compare": ["--input", "sys.json", "--output", "out.csv"],
    "terms": ["--input", "sys.json", "--output", "out.csv", "--order", "3"],
    "golden-rule": ["--input", "sys.json", "--output", "out.csv"],
    "two-state": ["--output", "out.csv"],
    "energies": ["--input", "sys.json", "--output", "out.csv"],
}
_REQUIRED = {
    "evolve": ["--input", "--output"],
    "compare": ["--input", "--output"],
    "terms": ["--output", "--order"],
    "golden-rule": ["--input", "--output"],
    "two-state": ["--output"],
    "energies": ["--input", "--output"],
}
# Each range-checked option, one step outside each end of its range.
_OUT_OF_RANGE = {
    "evolve": [("--order", "-1"), ("--order", "7"), ("--initial", "-1"), ("--t-steps", "0")],
    "compare": [("--order", "-1"), ("--order", "4"), ("--t-steps", "0")],
    "terms": [("--order", "1"), ("--order", "7"), ("--from-level", "-1"), ("--to-level", "-1")],
    "golden-rule": [],
    "two-state": [("--t-steps", "0")],
    "energies": [],
}


def _usage_error_cases():
    for command, valid in _VALID_ARGV.items():
        for flag, value in _OUT_OF_RANGE[command]:
            yield pytest.param(command, [*valid, flag, value], id=f"{command} {flag} {value}")
        yield pytest.param(command, [*valid, "--bogus", "1"], id=f"{command} --bogus")
        abbreviated = ["--out" if arg == "--output" else arg for arg in valid]
        yield pytest.param(command, abbreviated, id=f"{command} --out")
        for flag in _REQUIRED[command]:
            at = valid.index(flag)
            yield pytest.param(command, valid[:at] + valid[at + 2 :], id=f"{command} without {flag}")


@pytest.fixture
def in_fixture_dir(tmp_path, monkeypatch):
    """A working directory holding only sys.json, a system with a golden-rule block."""
    monkeypatch.chdir(tmp_path)
    Path("sys.json").write_text(json.dumps(golden_rule_document()), encoding="utf-8")
    return tmp_path


@pytest.mark.parametrize("command", sorted(_VALID_ARGV))
def test_the_usage_cases_start_from_a_command_line_that_runs(in_fixture_dir, runner, command):
    result = runner.invoke(main, [command, *_VALID_ARGV[command]])
    assert result.exit_code == 0, result.output
    assert Path("out.csv").exists()


@pytest.mark.parametrize("command,argv", _usage_error_cases())
def test_usage_errors_exit_2_and_write_nothing(in_fixture_dir, runner, command, argv):
    result = runner.invoke(main, [command, *argv])
    assert result.exit_code == 2, result.output
    assert result.output.startswith("usage: perturbseries")
    assert "error: " in result.output
    assert os.listdir() == ["sys.json"]


def _run_config_cases():
    for command, cases in _OUT_OF_RANGE.items():
        for flag, value in cases:
            yield pytest.param(command, flag, value, id=f"{command} {flag} {value}")


@pytest.mark.parametrize("command,flag,value", _run_config_cases())
def test_run_refuses_what_the_command_line_refuses(
    in_fixture_dir, runner, monkeypatch, command, flag, value
):
    # the config the valid command line builds, with the option's field set past its range
    seen = []
    monkeypatch.setattr("perturbseries.cli.run", seen.append)
    assert runner.invoke(main, [command, *_VALID_ARGV[command]]).exit_code == 0
    (dest,) = [opt.dest for opt in _COMMANDS[command][1] if opt.flag == flag]
    with pytest.raises(ValueError):
        run(dataclasses.replace(seen[0], **{dest: int(value)}))
    assert os.listdir() == ["sys.json"]


@pytest.mark.parametrize(
    "line,message",
    [
        ("evolve --t-end inf", "--t-end must be a finite number, got inf"),
        ("compare --t-start nan", "--t-start must be a finite number, got nan"),
        ("terms --time nan", "--time must be a finite number, got nan"),
        ("two-state --t-end -inf", "--t-end must be a finite number, got -inf"),
        ("compare --g-orders 2,9", "--g-orders entries must be distinct integers in 2..5"),
        ("energies --g-orders two", "--g-orders must be 'none', a comma list"),
        ("evolve --output missing/out.csv", "[Errno 2] No such file or directory: 'missing/out.csv.tmp'"),
    ],
)
def test_refused_input_exits_1_and_writes_nothing(in_fixture_dir, runner, line, message):
    command, *argv = line.split()
    result = runner.invoke(main, [command, *_VALID_ARGV[command], *argv])
    assert result.exit_code == 1, result.output
    assert result.output.startswith(f"Error: {message}")
    assert os.listdir() == ["sys.json"]


def test_a_report_that_cannot_replace_its_target_leaves_no_temporary_file(in_fixture_dir, runner):
    os.mkdir("out.csv")
    result = runner.invoke(main, ["evolve", *_VALID_ARGV["evolve"]])
    assert result.exit_code == 1, result.output
    assert result.output.startswith("Error: [Errno 21] Is a directory: 'out.csv.tmp' -> 'out.csv'")
    assert sorted(os.listdir()) == ["out.csv", "sys.json"]
    assert os.listdir("out.csv") == []


def _non_finite(doc, *where):
    *path, last = where
    for key in path:
        doc = doc[key]
    doc[last] = math.nan


def _grid_on_a_coupled_level(doc):
    # grid energy 2.0 is level 2, which the final level 1 couples to
    grid = np.linspace(-30.0, 30.0, 61)
    doc["energies"] = [0.0, 1.0, 2.0]
    doc["golden_rule"].update(
        energy_grid=grid.tolist(), density=[0.7] * grid.size, coupling_sq=[0.001] * grid.size
    )


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda doc: _non_finite(doc, "h1", 0, 2), "perturbation matrix contains non-finite entries"),
        (lambda doc: _non_finite(doc, "golden_rule", "energy_grid", 3), "energy grid must be finite"),
        (lambda doc: _non_finite(doc, "golden_rule", "density", 3), "density_of_states must be finite"),
        (lambda doc: _non_finite(doc, "golden_rule", "coupling_sq", 3), "coupling_profile must be finite"),
        (_grid_on_a_coupled_level, "detuning grid hits an intermediate resonance"),
    ],
    ids=["h1", "energy_grid", "density", "coupling_sq", "resonance"],
)
def test_refused_system_values_exit_1_and_write_nothing(tmp_path, runner, edit, message):
    doc = golden_rule_document()
    edit(doc)
    inp = tmp_path / "rate.json"
    inp.write_text(json.dumps(doc), encoding="utf-8")  # NaN is written as the literal NaN
    result = runner.invoke(main, ["golden-rule", "--input", str(inp), "--output", str(tmp_path / "rate.csv")])
    assert result.exit_code == 1, result.output
    assert result.output.startswith(f"Error: {message}")
    assert [p.name for p in tmp_path.iterdir()] == ["rate.json"]


def test_programmatic_main_returns_or_raises_but_never_exits(in_fixture_dir, capsys):
    assert main(["evolve", *_VALID_ARGV["evolve"]], standalone_mode=False) is None
    os.remove("out.csv")
    failing = [
        ["evolve", *_VALID_ARGV["evolve"], "--order", "9"],
        ["evolve", "--input", "sys.json", "--out", "out.csv"],
        ["evolve", *_VALID_ARGV["evolve"], "--t-end", "inf"],
        ["evolve", "--input", "absent.json", "--output", "out.csv"],
    ]
    # SystemExit is no Exception, so it would escape pytest.raises
    for argv in failing:
        with pytest.raises(Exception):
            main(argv, standalone_mode=False)
        assert os.listdir() == ["sys.json"]
    assert main(["--version"], standalone_mode=False) is None
    assert capsys.readouterr().out == f"perturbseries, version {perturbseries.__version__}\n"


@pytest.mark.parametrize("text", ["-1e-3", "-.5", "-2", "-inf"])
def test_negative_numbers_in_any_spelling_are_option_values(monkeypatch, runner, text):
    seen = []
    monkeypatch.setattr("perturbseries.cli.run", seen.append)
    result = runner.invoke(main, ["two-state", "--output", "o.csv", "--e1", text, "--t-start", text])
    assert result.exit_code == 0, result.output
    assert (seen[0].e1, seen[0].t_start) == (float(text), float(text))


# ---------------------------------------------------------------------------
# option mapping: every option of every command reaches its RunConfig field

_GRID = ["--t-start", "0.5", "--t-end", "3.0", "--t-steps", "7"]
_GRID_FIELDS = {"t_start": 0.5, "t_end": 3.0, "t_steps": 7}
_OPTION_CASES = {
    "evolve": (
        ["--input", "in.json", "--output", "out.csv", "--order", "2", "--initial", "1",
         *_GRID, "--no-redivision", "--tol-deg", "1e-6"],
        {"input_path": "in.json", "output_path": "out.csv", "order": 2, "initial_level": 1,
         **_GRID_FIELDS, "redivision": False, "tol_deg": 1e-6},
    ),
    "compare": (
        ["--input", "in.json", "--output", "out.csv", "--order", "1", "--g-orders", "2,3",
         *_GRID, "--no-redivision", "--tol-deg", "1e-6"],
        {"input_path": "in.json", "output_path": "out.csv", "order": 1, "g_orders": (2, 3),
         **_GRID_FIELDS, "redivision": False, "tol_deg": 1e-6},
    ),
    "terms": (
        ["--input", "in.json", "--output", "out.csv", "--order", "3", "--time", "2.5",
         "--from-level", "1", "--to-level", "2", "--no-redivision", "--tol-deg", "1e-6"],
        {"input_path": "in.json", "output_path": "out.csv", "order": 3, "time": 2.5,
         "initial_level": 1, "final_level": 2, "redivision": False, "tol_deg": 1e-6},
    ),
    "golden-rule": (
        ["--input", "in.json", "--output", "out.csv", "--no-redivision", "--tol-deg", "1e-6"],
        {"input_path": "in.json", "output_path": "out.csv", "redivision": False, "tol_deg": 1e-6},
    ),
    "two-state": (
        ["--output", "out.csv", "--e1", "0.25", "--e2", "-0.5", "--v", "0.3", *_GRID,
         "--tol-deg", "1e-6"],
        {"output_path": "out.csv", "e1": 0.25, "e2": -0.5, "v": 0.3, **_GRID_FIELDS,
         "tol_deg": 1e-6},
    ),
    "energies": (
        ["--input", "in.json", "--output", "out.csv", "--g-orders", "3..5", "--no-redivision",
         "--tol-deg", "1e-6"],
        {"input_path": "in.json", "output_path": "out.csv", "g_orders": (3, 4, 5),
         "redivision": False, "tol_deg": 1e-6},
    ),
}


@pytest.mark.parametrize("command", sorted(_OPTION_CASES))
def test_every_option_reaches_its_run_config_field(command, runner, monkeypatch):
    argv, fields = _OPTION_CASES[command]
    _, options = _COMMANDS[command]
    # the case gives every option of the command a value other than its default
    assert {opt.flag for opt in options} == {arg for arg in argv if arg.startswith("--")}
    assert {opt.dest for opt in options} == set(fields)
    assert all(fields[opt.dest] != opt.default for opt in options)
    seen = []
    monkeypatch.setattr("perturbseries.cli.run", seen.append)
    result = runner.invoke(main, [command, *argv])
    assert result.exit_code == 0, result.output
    assert seen == [RunConfig(command=command, **fields)]


# ---------------------------------------------------------------------------
# helpers and the programmatic entry point


def test_parse_g_orders():
    assert _parse_g_orders(None) is None
    assert _parse_g_orders("none") == ()
    assert _parse_g_orders("") == ()
    assert _parse_g_orders("2,3,4") == (2, 3, 4)
    assert _parse_g_orders("2..5") == (2, 3, 4, 5)


@pytest.mark.parametrize("text", ["abc", "1,2", "2,2", "2..9"])
def test_parse_g_orders_rejects(text):
    with pytest.raises(ValueError, match="--g-orders"):
        _parse_g_orders(text)


def test_run_rejects_unknown_command(tmp_path):
    with pytest.raises(ValueError, match="unknown command"):
        run(RunConfig(command="bogus", output_path=str(tmp_path / "x.csv")))
    with pytest.raises(ValueError, match="requires an output path"):
        run(RunConfig(command="terms", order=2))


def test_run_refuses_a_command_without_its_input_file(tmp_path):
    with pytest.raises(ValueError, match="^command 'evolve' requires an input file$"):
        run(RunConfig(command="evolve", output_path=str(tmp_path / "x.csv")))
    assert list(tmp_path.iterdir()) == []


def test_run_config_time_grid_validation():
    with pytest.raises(ValueError, match="at least one point"):
        RunConfig(command="evolve", t_steps=0).time_grid()


# Runs each command once through cli.main and prints every module it loaded.
_RUN_EVERY_COMMAND = """
import json, sys
before = set(sys.modules)
from perturbseries.cli import main
for argv in json.loads(sys.argv[1]):
    main(argv, standalone_mode=False)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


@pytest.fixture(scope="module")
def modules_loaded_by_every_command(tmp_path_factory):
    """Modules a fresh interpreter loads to run every command on the layout fixtures."""
    work = tmp_path_factory.mktemp("every-command")
    (work / "sys.json").write_text(json.dumps(golden_rule_document()), encoding="utf-8")
    argvs = [[cmd, *args, "--output", f"{cmd}.csv"] for cmd, (args, _) in _LAYOUT_CASES.items()]
    env = _fresh_interpreter_env()
    done = subprocess.run(
        [sys.executable, "-c", _RUN_EVERY_COMMAND, json.dumps(argvs)],
        cwd=work, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert sorted(p.name for p in work.glob("*.csv")) == sorted(f"{cmd}.csv" for cmd in _LAYOUT_CASES)
    return json.loads(done.stdout)


def test_cli_import_loads_no_scipy(modules_loaded_by_every_command):
    # neither importing the CLI nor running any of its commands
    assert [m for m in modules_loaded_by_every_command if m.split(".")[0] == "scipy"] == []


def _requirement_names(specs):
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower() for spec in specs}


def test_runtime_dependencies_are_the_modules_the_commands_load(modules_loaded_by_every_command):
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    runtime = _requirement_names(project["dependencies"])
    third_party = {m.split(".")[0] for m in modules_loaded_by_every_command} - set(sys.stdlib_module_names)
    assert third_party <= {"numpy", "perturbseries"}
    assert third_party - {"perturbseries"} <= runtime
    assert "scipy" in _requirement_names(project["optional-dependencies"]["test"])
    assert "scipy" not in runtime
