"""Batch command-line front end: read a system file, run one experiment,
write a CSV report.

The tool, ``perturbseries``, has six subcommands, whose options are
declared once, in ``_COMMANDS``.  A plain command line (the command, then
whole ``--flag VALUE`` and ``--switch`` tokens) is read in one pass over
that table; every other line goes to a stdlib ``argparse`` parser built
from the same table, which alone writes help, version text and usage
errors.  The subcommands:

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
byte-identical reports.  On any error no partial output file is left
behind, and the exit status is 2 for a bad command line (an unknown,
abbreviated or missing option, an option without its value, or a value
that is not a number or out of range) and 1 for input the run refuses.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, NoReturn

import numpy as np
from numpy.typing import NDArray

from . import __version__
from .ddkernel import _finite_time, _integer
from .improved import _DEFAULT_G_ORDERS, _IMPROVED_MAX, _REVISION_MAX, GoldenRuleInput, golden_rule
from .improved import _check_g_orders, _check_level, _shifted_energies, revision_energies

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
from .terms import _CATALOG_MAX, _CATALOG_MIN, _EVAL_MAX, enumerate_catalog, eval_closed_term

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
        steps = _integer(self.t_steps, "t_steps must be an integer")
        if steps < 1:
            raise ValueError("time grid needs at least one point")
        return np.linspace(self.t_start, self.t_end, steps)


# Python's JSON decoder gives a number exactly this type; bool is neither.
_NUMBER = frozenset({int, float})


def _floats(values: object, message: str) -> NDArray[np.float64]:
    """A JSON list of numbers as float64; anything else raises ValueError(message).

    Booleans, strings, nested lists and integers beyond the float range are
    refused.
    """
    if isinstance(values, list) and _NUMBER.issuperset(map(type, values)):
        try:
            return np.array(values, dtype=np.float64)
        except OverflowError:
            pass
    raise ValueError(message)


def _spec_from_document(doc: object, source: str) -> SystemSpec:
    if not isinstance(doc, dict):
        raise ValueError(f"{source}: top level must be a JSON object")
    for field in ("dimension", "energies", "h1"):
        if field not in doc:
            raise ValueError(f"{source}: missing required field {field!r}")
    dim = doc["dimension"]
    if type(dim) is not int or dim < 1:
        raise ValueError(f"{source}: field 'dimension' must be a positive integer")
    message = f"{source}: field 'energies' must be a list of {dim} numbers"
    energies = _floats(doc["energies"], message)
    if energies.shape[0] != dim:
        raise ValueError(message)
    h1_raw = doc["h1"]
    if not isinstance(h1_raw, list) or len(h1_raw) != dim:
        raise ValueError(f"{source}: field 'h1' must be a {dim}x{dim} matrix")
    for i, row in enumerate(h1_raw):
        if not isinstance(row, list) or len(row) != dim:
            raise ValueError(f"{source}: field 'h1' row {i} must hold {dim} entries")
    # An entry is a [re, im] pair or a number x, read as [x, 0]; the 2N^2
    # parts, row by row, are the float view of the complex matrix.
    pairs = [
        entry if type(entry) is list and len(entry) == 2 else (entry, 0.0)
        for row in h1_raw
        for entry in row
    ]
    try:
        h1 = _floats([part for pair in pairs for part in pair], f"{source}: bad field 'h1'")
    except ValueError:
        for k, pair in enumerate(pairs):  # name the first bad entry
            i, j = divmod(k, dim)
            what = f"{source}: h1[{i}][{j}] must be a number or a [re, im] pair"
            _floats(list(pair), f"{what}, got {h1_raw[i][j]!r}")
        raise
    message = f"{source}: field 'coupling_scale' must be a number"
    return SystemSpec(
        energies=energies,
        h1=h1.view(np.complex128).reshape(dim, dim),
        coupling_scale=float(_floats([doc.get("coupling_scale", 1.0)], message)[0]),
    )


def _load_document(path: str) -> object:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    # Decoded here, not by json.loads, which would also take UTF-16 and a BOM.
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not valid UTF-8 ({exc})") from exc
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

    duration = _floats([block["duration"]], f"{source}: golden_rule.duration must be a number")
    for name in ("initial", "final"):
        idx = block[name]
        if type(idx) is not int or idx < 0:
            raise ValueError(f"{source}: golden_rule.{name} must be a non-negative integer")
    grid, density, coupling = (
        _floats(block[name], f"{source}: golden_rule.{name} must be a list of numbers")
        for name in ("energy_grid", "density", "coupling_sq")
    )
    inp = GoldenRuleInput(
        energy_grid=grid,
        density_of_states=density,
        coupling_profile=coupling,
        duration=float(duration[0]),
        initial_level=block["initial"],
    )
    return inp, block["final"]


def _load_system(cfg: RunConfig) -> tuple[SplitSystem, object]:
    """The redivided system of the input file, and the file's decoded document."""
    if cfg.input_path is None:
        raise ValueError(f"command {cfg.command!r} requires an input file")
    doc = _load_document(cfg.input_path)
    spec = _spec_from_document(doc, str(cfg.input_path))
    return redivide(spec, tol_deg=cfg.tol_deg, enabled=cfg.redivision), doc


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_report(path: str, lines: Iterable[str]) -> None:
    """Write lines atomically; on failure leave nothing behind.

    Raises:
        OSError: ``cannot write <path>: <reason>``, caused by the error of
            the temporary file or of its replacing ``path``.
    """
    data = "\n".join([*lines, ""]).encode("utf-8")
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        if not isinstance(exc, OSError):
            raise
        # the reason without the file names, which would name the temporary file
        reason = f"[Errno {exc.errno}] {exc.strerror}" if exc.strerror else str(exc)
        raise OSError(f"cannot write {path}: {reason}") from exc


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


# A runner returns its report as (settings, columns, rows).  A row holds
# ints, quoted label strings and Python floats (from ``tolist``), so ``str``
# writes every cell: for a Python float it is ``repr``, the shortest string
# that reads back to the same bits.
_Report = tuple[dict[str, object], Sequence[str], Iterable[Sequence[object]]]


def _run_evolve(cfg: RunConfig) -> _Report:
    sys_split, _ = _load_system(cfg)
    n = sys_split.dimension
    _check_level(sys_split, cfg.initial_level, "initial level")
    ts = cfg.time_grid()
    amps = _truncated_sum_grid(sys_split, cfg.order, ts)[:, :, cfg.initial_level].copy()
    settings = _common_settings(cfg) | _grid_settings(cfg)
    settings |= {
        "order": cfg.order,
        "initial-level": cfg.initial_level,
        "basis": "redivided working basis",
    }
    columns = ["t", *(f"c{j}_{part}" for j in range(n) for part in ("re", "im")), "norm"]
    # A C-ordered copy's float64 view holds each row's parts interleaved: re, im, re, ...
    parts = amps.view(np.float64)
    return settings, columns, np.column_stack([ts, parts, np.linalg.norm(amps, axis=1)]).tolist()


def _run_compare(cfg: RunConfig) -> _Report:
    sys_split, _ = _load_system(cfg)
    solution = diagonalize(sys_split)
    ts = cfg.time_grid()
    usual = _truncated_sum_grid(sys_split, cfg.order, ts)
    settings = _common_settings(cfg) | _grid_settings(cfg)
    settings |= {
        "order": cfg.order,
        "g-orders": "per-equation" if cfg.g_orders is None else ",".join(map(str, cfg.g_orders)),
    }
    improved = improved_amplitude(sys_split, range(cfg.order + 1), ts, cfg.g_orders)
    exact = np.array([solution.propagator(t) for t in ts.tolist()])
    errors = [np.max(np.abs(approx - exact), axis=(1, 2)) for approx in (usual, improved)]
    return settings, ("t", "err_usual", "err_improved"), np.column_stack([ts, *errors]).tolist()


@lru_cache(maxsize=None)
def _quoted_labels(order: int) -> tuple[str, ...]:
    """The order's catalog labels as report cells, formatted once per order."""
    return tuple(f'"{text}"' for text in enumerate_catalog(order).compact_strings())


def _run_terms(cfg: RunConfig) -> _Report:
    catalog = enumerate_catalog(cfg.order)
    labels = _quoted_labels(cfg.order)
    settings: dict[str, object] = {
        "order": cfg.order,
        "count": catalog.count,
    }
    if cfg.input_path is None or cfg.order > _EVAL_MAX:
        return settings, ("index", "label"), enumerate(labels)
    sys_split, _ = _load_system(cfg)
    _check_level(sys_split, cfg.initial_level, "initial level")
    _check_level(sys_split, cfg.final_level, "final level")
    settings |= _common_settings(cfg)
    settings |= {
        "time": _fmt(cfg.time),
        "from-level": cfg.initial_level,
        "to-level": cfg.final_level,
    }
    values = eval_closed_term(
        sys_split, catalog.labels, cfg.time, cfg.final_level, cfg.initial_level
    )
    rows = zip(range(catalog.count), labels, values.real.tolist(), values.imag.tolist())
    return settings, ("index", "label", "value_re", "value_im"), rows


def _run_golden_rule(cfg: RunConfig) -> _Report:
    sys_split, doc = _load_system(cfg)
    inp, final_level = _golden_block(doc, str(cfg.input_path))
    result = golden_rule(inp, sys_split, final_level=final_level)
    settings = _common_settings(cfg) | {
        "duration": _fmt(inp.duration),
        "initial-level": inp.initial_level,
        "final-level": final_level,
        "grid-points": int(inp.energy_grid.shape[0]),
    }
    columns = ("w_fermi", "delta_w", "w")
    return settings, columns, [[result[name] for name in columns]]


def _run_two_state(cfg: RunConfig) -> _Report:
    spec = SystemSpec(
        energies=np.array([cfg.e1, cfg.e2], dtype=np.float64),
        h1=np.array([[0.0, cfg.v], [cfg.v, 0.0]], dtype=np.complex128),
    )
    sys_split = redivide(spec, tol_deg=cfg.tol_deg)
    shifted = revision_energies(sys_split, max(_DEFAULT_G_ORDERS)).e_tilde(_DEFAULT_G_ORDERS)
    ts = cfg.time_grid()
    settings = _grid_settings(cfg) | {
        "e1": _fmt(cfg.e1),
        "e2": _fmt(cfg.e2),
        "v": _fmt(cfg.v),
        "tol-deg": _fmt(cfg.tol_deg),
        "basis": "redivided working basis",
    }
    probabilities = improved_transition_probability(sys_split, 0, 1, ts, shifted)
    # after the improved columns, which refuse an uncoupled tie in their own words
    if cfg.e1 == cfg.e2:
        raise ValueError(f"requires e1 != e2, got e1={cfg.e1}, e2={cfg.e2}")
    exact = exact_transition_probability(diagonalize(sys_split), 0, 1, ts)
    e_tilde = shifted.tolist()
    rows = [
        (t, probs["p_usual"], probs["p_improved"], p_exact, *e_tilde)
        for t, probs, p_exact in zip(ts.tolist(), probabilities, exact.tolist())
    ]
    columns = ("t", "p_usual", "p_improved", "p_exact", "e_tilde_1", "e_tilde_2")
    return settings, columns, rows


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


def _run_energies(cfg: RunConfig) -> _Report:
    sys_split, _ = _load_system(cfg)
    orders = _DEFAULT_G_ORDERS if cfg.g_orders is None else cfg.g_orders
    shifted = _shifted_energies(sys_split, orders)
    exact = _eigenvalues_by_level(diagonalize(sys_split))
    settings = _common_settings(cfg) | {
        "g-orders": ",".join(map(str, orders)) if orders else "none",
    }
    error = np.abs(shifted - exact)
    table = np.column_stack(
        [sys_split.energies_original, sys_split.energies_redivided, shifted, exact, error]
    )
    columns = ("level", "e_original", "e_redivided", "e_tilde", "e_exact", "abs_error")
    return settings, columns, [(level, *row) for level, row in enumerate(table.tolist())]


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
    times = {"--t-start": config.t_start, "--t-end": config.t_end, "--time": config.time}
    for flag, value in times.items():
        _finite_time(value, flag)
    settings, columns, rows = runner(config)
    lines = [f"# perturbseries {__version__}", f"# command: {config.command}"]
    lines += [f"# {key}: {settings[key]}" for key in sorted(settings)]
    lines.append(",".join(columns))
    lines += [",".join(map(str, row)) for row in rows]
    _write_report(config.output_path, lines)
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
        raise ValueError(
            "--g-orders must be 'none', a comma list like '2,3,4', or a range like "
            f"'2..{_REVISION_MAX}'; got {text!r}"
        ) from exc
    try:
        return _check_g_orders(orders)
    except ValueError:
        raise ValueError(
            f"--g-orders entries must be distinct integers in 2..{_REVISION_MAX}"
        ) from None


class UsageError(Exception):
    """A command line the parser refuses, with its usage: exit status 2 when standalone."""


# What a run raises for input it refuses: exit status 1 when standalone.
_REFUSED = (ValueError, TypeError, RuntimeError, OSError)


@dataclass(frozen=True)
class _IntRange:
    """An argparse type: an integer in [lo, hi], or at least lo when hi is None."""

    lo: int
    hi: int | None = None

    def __call__(self, text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a valid integer") from None
        if value < self.lo or (self.hi is not None and value > self.hi):
            bounds = f"x>={self.lo}" if self.hi is None else f"{self.lo}<=x<={self.hi}"
            raise argparse.ArgumentTypeError(f"{value} is not in the range {bounds}")
        return value


# argparse's own pattern misses exponents and infinities, and would read
# '--t-start -1e-3' as a missing value; no option here starts '-<digit>'.
_NEGATIVE_NUMBER = re.compile(r"-(?:\.?\d|inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """Raises UsageError instead of exiting, and takes '-1e-3' or '-inf' as a value."""

    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message: str) -> NoReturn:
        raise UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


class _Option(NamedTuple):
    flag: str
    dest: str  # the RunConfig field the option sets
    type: Callable[[str], object] | None  # None: a switch that sets the field to False
    default: object
    help: str
    required: bool = False


# Options are declared once, here: each command's parsed options are its
# RunConfig keywords.  --g-orders is parsed after the command line, so that
# a bad value is refused (exit status 1) rather than a usage error.
_INPUT = _Option("--input", "input_path", str, None, "JSON system file.", required=True)
_OUTPUT = _Option("--output", "output_path", str, None, "CSV report path.", required=True)
_NO_REDIVISION = _Option(
    "--no-redivision", "redivision", None, True,
    "Skip redivision (keep raw energies and the full perturbation).",
)
_TOL_DEG = _Option(
    "--tol-deg", "tol_deg", float, DEFAULT_DEGENERACY_TOL,
    "Relative degeneracy threshold for redivision.",
)
_GRID = (
    _Option("--t-start", "t_start", float, 0.0, "First time of the grid."),
    _Option("--t-end", "t_end", float, 10.0, "Last time of the grid."),
    _Option("--t-steps", "t_steps", _IntRange(1), 101, "Number of grid times."),
)

_COMMANDS: dict[str, tuple[str, tuple[_Option, ...]]] = {
    "evolve": ("Evolve a basis state with the truncated series.", (
        _INPUT,
        _OUTPUT,
        _Option("--order", "order", _IntRange(0, DEFAULT_L_MAX), 4, "Series truncation order L."),
        _Option("--initial", "initial_level", _IntRange(0), 0, "Initial level."),
        *_GRID,
        _NO_REDIVISION,
        _TOL_DEG,
    )),
    "compare": ("Compare truncated and improved series against the exact propagator.", (
        _INPUT,
        _OUTPUT,
        _Option(
            "--order", "order", _IntRange(0, _IMPROVED_MAX), 3,
            f"Truncation order L for both series; the improved forms stop at {_IMPROVED_MAX}.",
        ),
        _Option(
            "--g-orders", "g_orders", str, None,
            f"Revision orders for the improved exponents: 'none', '2,3', or '2..{_REVISION_MAX}' "
            "(default: per-equation).",
        ),
        *_GRID,
        _NO_REDIVISION,
        _TOL_DEG,
    )),
    "terms": (
        f"List the term catalog (with values for order <= {_EVAL_MAX} when a system is given).", (
        _INPUT._replace(required=False, help="JSON system file (optional)."),
        _OUTPUT,
        _Option(
            "--order", "order", _IntRange(_CATALOG_MIN, _CATALOG_MAX), None,
            "Expansion order l of the catalog.",
            required=True,
        ),
        _Option("--time", "time", float, 1.0, "Evaluation time."),
        _Option("--from-level", "initial_level", _IntRange(0), 0, "Initial level."),
        _Option("--to-level", "final_level", _IntRange(0), 0, "Final level."),
        _NO_REDIVISION,
        _TOL_DEG,
    )),
    "golden-rule": ("Golden-rule rate plus finite-time revision from a tabulated continuum.", (
        _INPUT,
        _OUTPUT,
        _NO_REDIVISION,
        _TOL_DEG,
    )),
    "two-state": ("Two-level table: usual, improved and exact transition probabilities.", (
        _OUTPUT,
        _Option("--e1", "e1", float, 0.0, "First level energy."),
        _Option("--e2", "e2", float, 1.0, "Second level energy."),
        _Option("--v", "v", float, 0.1, "Real off-diagonal coupling."),
        *_GRID,
        _TOL_DEG,
    )),
    "energies": ("Shifted level energies against exact eigenvalues.", (
        _INPUT,
        _OUTPUT,
        _Option(
            "--g-orders", "g_orders", str, None,
            f"Revision orders in the shifted energies: 'none', '2,3', or '2..{_REVISION_MAX}' "
            f"(default: {','.join(map(str, _DEFAULT_G_ORDERS))}).",
        ),
        _NO_REDIVISION,
        _TOL_DEG,
    )),
}


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built from _COMMANDS once per process."""
    parser = _Parser(
        prog="perturbseries",
        description="Perturbation-series experiments over small quantum systems.",
    )
    parser.add_argument(
        "--version", action="version", version=f"perturbseries, version {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (summary, options) in _COMMANDS.items():
        sub = commands.add_parser(name, help=summary, description=summary)
        for opt in options:
            if opt.type is None:
                sub.add_argument(opt.flag, dest=opt.dest, action="store_false", help=opt.help)
                continue
            sub.add_argument(
                opt.flag,
                dest=opt.dest,
                type=opt.type,
                default=opt.default,
                required=opt.required,
                metavar=opt.flag[2:].upper(),
                help=opt.help if opt.default is None else opt.help + " Default: %(default)s.",
            )
    return parser


# Per command: its options by flag, its parsed options before any flag is
# read (in the parser's key order), and its required flags.
_LINES = {
    name: (
        {opt.flag: opt for opt in options},
        {"command": name} | {opt.dest: opt.default for opt in options},
        frozenset(opt.flag for opt in options if opt.required),
    )
    for name, (_, options) in _COMMANDS.items()
}


def _read_line(argv: Sequence[str]) -> dict[str, object] | None:
    """What ``vars(_parser().parse_args(argv))`` returns for a plain line, else None.

    A plain line is a command followed by ``--flag VALUE`` and ``--switch``
    tokens: each flag spelled out in full, each value one that its option's
    type takes and that starts with '-' only as a negative number, and each
    required flag present.  As in the parser, a later repeat of a flag
    wins.  Any other line, help, version and usage errors included, is left
    to the parser, so that it alone writes their text.
    """
    tokens = iter(argv)
    line = _LINES.get(next(tokens, None))
    if line is None:
        return None
    flags, defaults, required = line
    options = dict(defaults)
    missing = set(required)
    for flag in tokens:
        opt = flags.get(flag)
        if opt is None:
            return None
        if opt.type is None:
            options[opt.dest] = False
            continue
        value = next(tokens, None)
        if value is None or (value.startswith("-") and not _NEGATIVE_NUMBER.match(value)):
            return None
        try:
            options[opt.dest] = opt.type(value)
        except (ValueError, TypeError, argparse.ArgumentTypeError):
            return None
        missing.discard(flag)
    return None if missing else options


def main(argv: Sequence[str] | None = None, standalone_mode: bool = True) -> None:
    """Run one command line; ``argv`` defaults to ``sys.argv[1:]``.

    Standalone, a usage error prints the usage and exits with status 2, and
    refused input prints ``Error: <message>`` to stderr and exits with 1.
    With ``standalone_mode=False`` both raise (UsageError, or the ValueError,
    TypeError, RuntimeError or OSError that refused the input) and
    ``--help`` and ``--version`` return after printing; nothing raises
    SystemExit.  A failed run writes no report.
    """
    if argv is None:
        argv = sys.argv[1:]
    try:
        options = _read_line(argv)
        if options is None:
            try:
                options = vars(_parser().parse_args(argv))
            except SystemExit:  # --help or --version has printed
                if standalone_mode:
                    raise
                return
        if "g_orders" in options:
            options["g_orders"] = _parse_g_orders(options["g_orders"])
        run(RunConfig(**options))
    except UsageError as exc:
        if not standalone_mode:
            raise
        sys.stderr.write(f"{exc}\n")
        sys.exit(2)
    except _REFUSED as exc:
        if not standalone_mode:
            raise
        sys.stderr.write(f"Error: {exc}\n")
        sys.exit(1)


if __name__ == "__main__":  # pragma: no cover
    main()
