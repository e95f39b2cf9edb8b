"""Batch command-line front end: read a system file, run one experiment,
write a CSV report.

The tool is a click group named ``perturbseries`` with six subcommands:

``evolve``
    Truncated-series evolution of a basis state: per-time amplitudes and
    the state norm.
``compare``
    Per-time max-entry error of the plain truncated series and of the
    improved (energy-shifted) amplitudes against the exact propagator.
``terms``
    The decomposition-term catalog for one expansion order, with per-term
    values when a system file is supplied and the order is at most 4.
``golden-rule``
    Golden-rule rate and its finite-time revision from a tabulated
    continuum block in the input file.
``two-state``
    Two-level comparison table: first-order, improved first-order and
    exact transition probabilities over a time grid.
``energies``
    Shifted level energies against exact eigenvalues.

Input files are JSON documents with fields ``dimension``, ``energies``,
``h1`` (square matrix whose entries are ``[re, im]`` pairs or plain
numbers) and optional ``coupling_scale``.  The ``golden-rule`` command
additionally needs a ``golden_rule`` object holding ``energy_grid``,
``density``, ``coupling_sq``, ``duration``, ``initial`` and ``final``.

Reports are CSV with a ``#``-prefixed header block recording the tool
version and the run configuration; complex quantities occupy two columns
(real, imaginary).  Identical configuration and input bytes produce
byte-identical reports.  On any error the exit status is nonzero and no
partial output file is left behind.
"""

from __future__ import annotations

import contextlib
import json
import os
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np
from numpy.typing import NDArray

from . import __version__
from .improved import (
    GoldenRuleInput,
    golden_rule,
    revision_energies,
)

# The grid forms keep the names of the per-call functions they batch, so a
# caller that wraps those names still covers the same work.
from .improved import _improved_sum_grid as improved_amplitude
from .improved import _transition_probabilities as improved_transition_probability
from .model import (
    DEFAULT_DEGENERACY_TOL,
    SplitSystem,
    SystemSpec,
    redivide,
)
from .oracle import ExactSolution, diagonalize, exact_transition_probability
from .series import DEFAULT_L_MAX, _truncated_sum_grid
from .terms import _EVAL_MAX, enumerate_catalog, eval_closed_term

__all__ = ["RunConfig", "main", "parse_spec_file", "run"]


@dataclass(frozen=True)
class RunConfig:
    """One batch run: which experiment, on what input, with which knobs.

    Fields irrelevant to a command keep their defaults; ``run`` only
    reads the ones its command needs.
    """

    command: str
    input_path: str | None = None
    output_path: str | None = None
    order: int = 0
    t_start: float = 0.0
    t_end: float = 10.0
    t_steps: int = 101
    redivision: bool = True
    g_orders: tuple[int, ...] | None = None
    tol_deg: float = DEFAULT_DEGENERACY_TOL
    initial_level: int = 0
    final_level: int = 0
    time: float = 1.0
    e1: float = 0.0
    e2: float = 1.0
    v: float = 0.1

    def time_grid(self) -> NDArray[np.float64]:
        if self.t_steps < 1:
            raise ValueError("time grid needs at least one point")
        return np.linspace(self.t_start, self.t_end, self.t_steps)


def _require_pair(entry: object, where: str) -> complex:
    if isinstance(entry, (int, float)) and not isinstance(entry, bool):
        return complex(float(entry), 0.0)
    if (
        isinstance(entry, (list, tuple))
        and len(entry) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
    ):
        return complex(float(entry[0]), float(entry[1]))
    raise ValueError(f"{where} must be a number or a [re, im] pair, got {entry!r}")


def _spec_from_document(doc: object, source: str) -> SystemSpec:
    if not isinstance(doc, dict):
        raise ValueError(f"{source}: top level must be a JSON object")
    for field in ("dimension", "energies", "h1"):
        if field not in doc:
            raise ValueError(f"{source}: missing required field {field!r}")
    dim = doc["dimension"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ValueError(f"{source}: field 'dimension' must be a positive integer")
    energies = doc["energies"]
    if (
        not isinstance(energies, list)
        or len(energies) != dim
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in energies)
    ):
        raise ValueError(f"{source}: field 'energies' must be a list of {dim} numbers")
    h1_raw = doc["h1"]
    if not isinstance(h1_raw, list) or len(h1_raw) != dim:
        raise ValueError(f"{source}: field 'h1' must be a {dim}x{dim} matrix")
    entries: list[complex] = []
    for i, row in enumerate(h1_raw):
        if not isinstance(row, list) or len(row) != dim:
            raise ValueError(f"{source}: field 'h1' row {i} must hold {dim} entries")
        for j, entry in enumerate(row):
            # JSON decodes a [re, im] pair of decimals to exactly this;
            # anything else goes through the full check.
            if (
                type(entry) is list
                and len(entry) == 2
                and type(entry[0]) is float
                and type(entry[1]) is float
            ):
                entries.append(complex(entry[0], entry[1]))
            else:
                entries.append(_require_pair(entry, f"{source}: h1[{i}][{j}]"))
    h1 = np.array(entries, dtype=np.complex128).reshape(dim, dim)
    scale = doc.get("coupling_scale", 1.0)
    if isinstance(scale, bool) or not isinstance(scale, (int, float)):
        raise ValueError(f"{source}: field 'coupling_scale' must be a number")
    return SystemSpec(
        energies=np.array(energies, dtype=np.float64),
        h1=h1,
        coupling_scale=float(scale),
    )


def _load_document(path: str) -> object:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc


def parse_spec_file(path: str) -> SystemSpec:
    """Parse a JSON system file into a SystemSpec.

    Schema problems raise ValueError naming the offending field; physical
    admissibility (Hermiticity and friends) is the model validator's job
    and is checked when the system is redivided.
    """
    return _spec_from_document(_load_document(path), str(path))


def _golden_block(doc: object, source: str) -> tuple[GoldenRuleInput, int]:
    if not isinstance(doc, dict) or "golden_rule" not in doc:
        raise ValueError(f"{source}: missing 'golden_rule' object")
    block = doc["golden_rule"]
    if not isinstance(block, dict):
        raise ValueError(f"{source}: 'golden_rule' must be a JSON object")
    for field in ("energy_grid", "density", "coupling_sq", "duration", "initial", "final"):
        if field not in block:
            raise ValueError(f"{source}: golden_rule is missing field {field!r}")

    def _numbers(name: str) -> NDArray[np.float64]:
        val = block[name]
        if not isinstance(val, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in val
        ):
            raise ValueError(f"{source}: golden_rule.{name} must be a list of numbers")
        return np.array(val, dtype=np.float64)

    duration = block["duration"]
    if isinstance(duration, bool) or not isinstance(duration, (int, float)):
        raise ValueError(f"{source}: golden_rule.duration must be a number")
    for name in ("initial", "final"):
        idx = block[name]
        if isinstance(idx, bool) or not isinstance(idx, int) or idx < 0:
            raise ValueError(f"{source}: golden_rule.{name} must be a non-negative integer")
    inp = GoldenRuleInput(
        energy_grid=_numbers("energy_grid"),
        density_of_states=_numbers("density"),
        coupling_profile=_numbers("coupling_sq"),
        duration=float(duration),
        initial_level=int(block["initial"]),
    )
    return inp, int(block["final"])


def _load_system(cfg: RunConfig) -> SplitSystem:
    if cfg.input_path is None:
        raise ValueError(f"command {cfg.command!r} requires an input file")
    spec = parse_spec_file(cfg.input_path)
    return redivide(spec, tol_deg=cfg.tol_deg, enabled=cfg.redivision)


def _fmt(x: float) -> str:
    return repr(float(x))


def _header_lines(cfg: RunConfig, settings: dict[str, object]) -> list[str]:
    lines = [f"# perturbseries {__version__}", f"# command: {cfg.command}"]
    for key in sorted(settings):
        lines.append(f"# {key}: {settings[key]}")
    return lines


def _write_report(path: str, lines: Iterable[str]) -> None:
    """Write lines atomically; on failure leave nothing behind."""
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _common_settings(cfg: RunConfig) -> dict[str, object]:
    return {
        "input": cfg.input_path,
        "redivision": "on" if cfg.redivision else "off",
        "tol-deg": _fmt(cfg.tol_deg),
    }


def _grid_settings(cfg: RunConfig) -> dict[str, object]:
    return {
        "t-start": _fmt(cfg.t_start),
        "t-end": _fmt(cfg.t_end),
        "t-steps": cfg.t_steps,
    }


def _run_evolve(cfg: RunConfig) -> None:
    sys_split = _load_system(cfg)
    n = sys_split.dimension
    if not 0 <= cfg.initial_level < n:
        raise ValueError(f"initial level {cfg.initial_level} outside 0..{n - 1}")
    ts = cfg.time_grid()
    grid = _truncated_sum_grid(sys_split, cfg.order, ts)
    amps = grid[:, :, cfg.initial_level]
    settings = _common_settings(cfg) | _grid_settings(cfg)
    settings |= {
        "order": cfg.order,
        "initial-level": cfg.initial_level,
        "basis": "redivided working basis",
    }
    header = ["t"]
    for j in range(n):
        header += [f"c{j}_re", f"c{j}_im"]
    header.append("norm")
    lines = _header_lines(cfg, settings)
    lines.append(",".join(header))
    for i, t in enumerate(ts):
        cells = [_fmt(t)]
        for j in range(n):
            cells += [_fmt(amps[i, j].real), _fmt(amps[i, j].imag)]
        cells.append(_fmt(float(np.linalg.norm(amps[i]))))
        lines.append(",".join(cells))
    _write_report(cfg.output_path, lines)


def _run_compare(cfg: RunConfig) -> None:
    sys_split = _load_system(cfg)
    solution = diagonalize(sys_split)
    ts = cfg.time_grid()
    usual = _truncated_sum_grid(sys_split, cfg.order, ts)
    settings = _common_settings(cfg) | _grid_settings(cfg)
    settings |= {
        "order": cfg.order,
        "g-orders": "per-equation" if cfg.g_orders is None else ",".join(map(str, cfg.g_orders)),
    }
    lines = _header_lines(cfg, settings)
    lines.append("t,err_usual,err_improved")
    improved = improved_amplitude(sys_split, range(cfg.order + 1), ts, cfg.g_orders)
    for i, t in enumerate(ts):
        exact = solution.propagator(float(t))
        err_usual = float(np.max(np.abs(usual[i] - exact)))
        err_improved = float(np.max(np.abs(improved[i] - exact)))
        lines.append(",".join([_fmt(t), _fmt(err_usual), _fmt(err_improved)]))
    _write_report(cfg.output_path, lines)


def _run_terms(cfg: RunConfig) -> None:
    catalog = enumerate_catalog(cfg.order)
    with_values = cfg.input_path is not None and cfg.order <= _EVAL_MAX
    settings: dict[str, object] = {
        "order": cfg.order,
        "count": catalog.count,
    }
    lines_tail: list[str] = []
    if with_values:
        sys_split = _load_system(cfg)
        n = sys_split.dimension
        for name, idx in (("initial", cfg.initial_level), ("final", cfg.final_level)):
            if not 0 <= idx < n:
                raise ValueError(f"{name} level {idx} outside 0..{n - 1}")
        settings |= _common_settings(cfg)
        settings |= {
            "time": _fmt(cfg.time),
            "from-level": cfg.initial_level,
            "to-level": cfg.final_level,
        }
        lines_tail.append("index,label,value_re,value_im")
        for i, label in enumerate(catalog.labels):
            value = eval_closed_term(
                sys_split, label, cfg.time, cfg.final_level, cfg.initial_level
            )
            lines_tail.append(
                ",".join(
                    [str(i), f'"{label.compact()}"', _fmt(value.real), _fmt(value.imag)]
                )
            )
    else:
        lines_tail.append("index,label")
        for i, label in enumerate(catalog.labels):
            lines_tail.append(f'{i},"{label.compact()}"')
    _write_report(cfg.output_path, _header_lines(cfg, settings) + lines_tail)


def _run_golden_rule(cfg: RunConfig) -> None:
    if cfg.input_path is None:
        raise ValueError("command 'golden-rule' requires an input file")
    doc = _load_document(cfg.input_path)
    spec = _spec_from_document(doc, str(cfg.input_path))
    sys_split = redivide(spec, tol_deg=cfg.tol_deg, enabled=cfg.redivision)
    inp, final_level = _golden_block(doc, str(cfg.input_path))
    result = golden_rule(inp, sys_split, final_level=final_level)
    settings = _common_settings(cfg) | {
        "duration": _fmt(inp.duration),
        "initial-level": inp.initial_level,
        "final-level": final_level,
        "grid-points": int(inp.energy_grid.shape[0]),
    }
    lines = _header_lines(cfg, settings)
    lines.append("w_fermi,delta_w,w")
    lines.append(
        ",".join([_fmt(result["w_fermi"]), _fmt(result["delta_w"]), _fmt(result["w"])])
    )
    _write_report(cfg.output_path, lines)


def _run_two_state(cfg: RunConfig) -> None:
    spec = SystemSpec(
        energies=np.array([cfg.e1, cfg.e2], dtype=np.float64),
        h1=np.array([[0.0, cfg.v], [cfg.v, 0.0]], dtype=np.complex128),
    )
    sys_split = redivide(spec, tol_deg=cfg.tol_deg)
    shifted = revision_energies(sys_split, 4).e_tilde((2, 3, 4))
    ts = cfg.time_grid()
    settings = _grid_settings(cfg) | {
        "e1": _fmt(cfg.e1),
        "e2": _fmt(cfg.e2),
        "v": _fmt(cfg.v),
        "tol-deg": _fmt(cfg.tol_deg),
        "basis": "redivided working basis",
    }
    lines = _header_lines(cfg, settings)
    lines.append("t,p_usual,p_improved,p_exact,e_tilde_1,e_tilde_2")
    probabilities = improved_transition_probability(sys_split, 0, 1, ts, shifted)
    # after the improved columns, which refuse an uncoupled tie in their own words
    if cfg.e1 == cfg.e2:
        raise ValueError(f"requires e1 != e2, got e1={cfg.e1}, e2={cfg.e2}")
    exact = exact_transition_probability(diagonalize(sys_split), 0, 1, ts)
    for t, probs, p_exact in zip(ts, probabilities, exact):
        lines.append(
            ",".join(
                [
                    _fmt(t),
                    _fmt(probs["p_usual"]),
                    _fmt(probs["p_improved"]),
                    _fmt(p_exact),
                    _fmt(shifted[0]),
                    _fmt(shifted[1]),
                ]
            )
        )
    _write_report(cfg.output_path, lines)


def _eigenvalues_by_level(solution: ExactSolution) -> NDArray[np.float64]:
    """The exact eigenvalue of each level: the one whose eigenvector holds
    the largest |component|^2 on that level.

    Raises:
        ValueError: the assignment is not one-to-one, so some level holds
            the largest component of several eigenvectors.
    """
    levels = np.argmax(np.abs(solution.eigenvectors), axis=0)
    claims = np.bincount(levels, minlength=solution.dimension)
    if np.any(claims != 1):
        contested = np.flatnonzero(claims > 1).tolist()
        raise ValueError(
            f"cannot pair levels with exact eigenvalues: levels {contested} each hold "
            "the largest component of more than one eigenvector (strong mixing)"
        )
    paired = np.empty(solution.dimension)
    paired[levels] = solution.eigenvalues
    return paired


def _run_energies(cfg: RunConfig) -> None:
    sys_split = _load_system(cfg)
    orders = (2, 3, 4) if cfg.g_orders is None else cfg.g_orders
    if orders:
        shifted = revision_energies(sys_split, max(orders)).e_tilde(orders)
    else:
        shifted = sys_split.energies_redivided.copy()
    exact = _eigenvalues_by_level(diagonalize(sys_split))
    settings = _common_settings(cfg) | {
        "g-orders": ",".join(map(str, orders)) if orders else "none",
    }
    lines = _header_lines(cfg, settings)
    lines.append("level,e_original,e_redivided,e_tilde,e_exact,abs_error")
    for level in range(sys_split.dimension):
        paired = float(exact[level])
        lines.append(
            ",".join(
                [
                    str(level),
                    _fmt(sys_split.energies_original[level]),
                    _fmt(sys_split.energies_redivided[level]),
                    _fmt(shifted[level]),
                    _fmt(paired),
                    _fmt(abs(float(shifted[level]) - paired)),
                ]
            )
        )
    _write_report(cfg.output_path, lines)


_RUNNERS = {
    "evolve": _run_evolve,
    "compare": _run_compare,
    "terms": _run_terms,
    "golden-rule": _run_golden_rule,
    "two-state": _run_two_state,
    "energies": _run_energies,
}


def run(config: RunConfig) -> int:
    """Execute one configured run; returns 0 on success, raises on failure."""
    runner = _RUNNERS.get(config.command)
    if runner is None:
        raise ValueError(f"unknown command {config.command!r}")
    if config.output_path is None:
        raise ValueError(f"command {config.command!r} requires an output path")
    runner(config)
    return 0


def _parse_g_orders(text: str | None) -> tuple[int, ...] | None:
    """Parse --g-orders: 'none', a comma list '2,3,4', or a range '2..5'."""
    if text is None:
        return None
    s = text.strip().lower()
    if s in ("", "none"):
        return ()
    try:
        if ".." in s:
            lo_s, hi_s = s.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            orders = tuple(range(lo, hi + 1))
        else:
            orders = tuple(int(part) for part in s.split(","))
    except ValueError as exc:
        raise click.ClickException(
            f"--g-orders must be 'none', a comma list like '2,3,4', or a range like '2..5'; got {text!r}"
        ) from exc
    if len(set(orders)) != len(orders) or any(not 2 <= a <= 5 for a in orders):
        raise click.ClickException("--g-orders entries must be distinct integers in 2..5")
    return orders


def _execute(config: RunConfig) -> None:
    try:
        run(config)
    except click.ClickException:
        raise
    except (ValueError, TypeError, RuntimeError, OSError) as exc:
        raise click.ClickException(str(exc)) from exc


# Every option's destination is its RunConfig field, so each command passes
# its parsed options straight through as RunConfig keywords.  --g-orders is
# parsed in the command body, not in a click callback, so that a bad value
# is reported only after click's own usage errors (exit status 2).
_input_option = click.option(
    "--input", "input_path", type=click.Path(), required=True, help="JSON system file."
)
_output_option = click.option(
    "--output", "output_path", type=click.Path(), required=True, help="CSV report path."
)
_tol_deg_option = click.option(
    "--tol-deg",
    type=float,
    default=DEFAULT_DEGENERACY_TOL,
    show_default=True,
    help="Relative degeneracy threshold for redivision.",
)
_no_redivision_option = click.option(
    "--no-redivision",
    "redivision",
    flag_value=False,
    default=True,
    help="Skip redivision (keep raw energies and the full perturbation).",
)


def _g_orders_option(help_text: str):
    return click.option("--g-orders", type=str, default=None, help=help_text)


def _grid_options(fn):
    fn = click.option("--t-start", type=float, default=0.0, show_default=True)(fn)
    fn = click.option("--t-end", type=float, default=10.0, show_default=True)(fn)
    fn = click.option(
        "--t-steps", type=click.IntRange(min=1), default=101, show_default=True
    )(fn)
    return fn


@click.group()
@click.version_option(version=__version__, prog_name="perturbseries")
def main() -> None:
    """Perturbation-series experiments over small quantum systems."""


@main.command("evolve")
@_input_option
@_output_option
@click.option(
    "--order",
    type=click.IntRange(0, DEFAULT_L_MAX),
    default=4,
    show_default=True,
    help="Series truncation order L.",
)
@click.option(
    "--initial", "initial_level", type=click.IntRange(min=0), default=0, show_default=True
)
@_grid_options
@_no_redivision_option
@_tol_deg_option
def evolve_cmd(**options) -> None:
    """Evolve a basis state with the truncated series."""
    _execute(RunConfig(command="evolve", **options))


@main.command("compare")
@_input_option
@_output_option
@click.option(
    "--order",
    type=click.IntRange(0, 3),
    default=3,
    show_default=True,
    help="Truncation order L for both series (improved forms stop at 3).",
)
@_g_orders_option(
    "Revision orders for the improved exponents: 'none', '2,3', or '2..5' (default: per-equation)."
)
@_grid_options
@_no_redivision_option
@_tol_deg_option
def compare_cmd(g_orders: str | None, **options) -> None:
    """Compare truncated and improved series against the exact propagator."""
    _execute(RunConfig(command="compare", g_orders=_parse_g_orders(g_orders), **options))


@main.command("terms")
@click.option(
    "--input", "input_path", type=click.Path(), default=None, help="JSON system file (optional)."
)
@_output_option
@click.option(
    "--order",
    type=click.IntRange(2, 6),
    required=True,
    help="Expansion order l of the catalog.",
)
@click.option("--time", type=float, default=1.0, show_default=True, help="Evaluation time.")
@click.option(
    "--from-level", "initial_level", type=click.IntRange(min=0), default=0, show_default=True
)
@click.option(
    "--to-level", "final_level", type=click.IntRange(min=0), default=0, show_default=True
)
@_no_redivision_option
@_tol_deg_option
def terms_cmd(**options) -> None:
    """List the term catalog (with values for order <= 4 when a system is given)."""
    _execute(RunConfig(command="terms", **options))


@main.command("golden-rule")
@_input_option
@_output_option
@_no_redivision_option
@_tol_deg_option
def golden_rule_cmd(**options) -> None:
    """Golden-rule rate plus finite-time revision from a tabulated continuum."""
    _execute(RunConfig(command="golden-rule", **options))


@main.command("two-state")
@_output_option
@click.option("--e1", type=float, default=0.0, show_default=True)
@click.option("--e2", type=float, default=1.0, show_default=True)
@click.option("--v", type=float, default=0.1, show_default=True, help="Real off-diagonal coupling.")
@_grid_options
@_tol_deg_option
def two_state_cmd(**options) -> None:
    """Two-level table: usual, improved and exact transition probabilities."""
    _execute(RunConfig(command="two-state", **options))


@main.command("energies")
@_input_option
@_output_option
@_g_orders_option(
    "Revision orders in the shifted energies: 'none', '2,3', or '2..5' (default 2,3,4)."
)
@_no_redivision_option
@_tol_deg_option
def energies_cmd(g_orders: str | None, **options) -> None:
    """Shifted level energies against exact eigenvalues."""
    _execute(RunConfig(command="energies", g_orders=_parse_g_orders(g_orders), **options))


if __name__ == "__main__":  # pragma: no cover
    main()
