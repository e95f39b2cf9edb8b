"""End-to-end checks of the batch CLI: parsing, reports, determinism, errors."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import perturbseries
from perturbseries.cli import RunConfig, _parse_g_orders, main, parse_spec_file, run
from perturbseries.improved import GoldenRuleInput, golden_rule, improved_transition_probability
from perturbseries.model import SystemSpec, redivide
from perturbseries.oracle import two_state_closed_form
from perturbseries.series import amplitude_order

from helpers import two_state


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
    params = main.commands[command].params
    # the case gives every option of the command a value other than its default
    assert {param.opts[0] for param in params} == {arg for arg in argv if arg.startswith("--")}
    assert {param.name for param in params} == set(fields)
    assert all(fields[param.name] != param.default for param in params)
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
    import click

    with pytest.raises(click.ClickException):
        _parse_g_orders(text)


def test_run_rejects_unknown_command(tmp_path):
    with pytest.raises(ValueError, match="unknown command"):
        run(RunConfig(command="bogus", output_path=str(tmp_path / "x.csv")))
    with pytest.raises(ValueError, match="requires an output path"):
        run(RunConfig(command="terms", order=2))


def test_run_config_time_grid_validation():
    with pytest.raises(ValueError, match="at least one point"):
        RunConfig(command="evolve", t_steps=0).time_grid()


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, perturbseries.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(perturbseries.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert done.stdout.strip() == "[]"
