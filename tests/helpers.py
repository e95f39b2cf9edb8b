"""Builders shared across the test modules."""

from __future__ import annotations

import contextlib
import io
from typing import NamedTuple

import numpy as np

from perturbseries.improved import simpson
from perturbseries.model import SplitSystem, SystemSpec, redivide


def random_hermitian(rng: np.random.Generator, n: int, norm: float) -> np.ndarray:
    """Dense complex Hermitian matrix rescaled to the given spectral norm."""
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = 0.5 * (m + m.conj().T)
    spectral = float(np.linalg.norm(m, ord=2))
    if spectral > 0.0:
        m *= norm / spectral
    return m


def spaced_energies(
    rng: np.random.Generator,
    n: int,
    *,
    min_gap: float = 0.15,
    span: float = 3.0,
) -> np.ndarray:
    """Sorted level energies with every neighbour gap above min_gap.

    Draws are rejected until the gaps fit, so arguments with no such
    spectrum, (n - 1) * min_gap >= span, raise instead of looping forever.
    """
    if n > 1 and (n - 1) * min_gap >= span:
        raise ValueError(f"{n} levels with gaps above {min_gap} do not fit in a span of {span}")
    while True:
        e = np.sort(rng.uniform(0.0, span, size=n))
        if n == 1 or float(np.min(np.diff(e))) > min_gap:
            return e


def random_system(
    rng: np.random.Generator,
    n: int,
    *,
    norm: float = 0.1,
    min_gap: float = 0.15,
    span: float = 3.0,
) -> SplitSystem:
    spec = SystemSpec(
        energies=spaced_energies(rng, n, min_gap=min_gap, span=span),
        h1=random_hermitian(rng, n, norm),
    )
    return redivide(spec)


def two_state(v: complex = 0.1, e1: float = 0.0, e2: float = 1.0) -> SplitSystem:
    """The standard coupled pair used throughout: diag [e1, e2] plus v on the corner."""
    h1 = np.array([[0.0, v], [np.conjugate(v), 0.0]], dtype=complex)
    return redivide(SystemSpec(energies=np.array([e1, e2], dtype=float), h1=h1))


def chain_system(n: int, seed: int = 7) -> SplitSystem:
    """Nearest-neighbour chain on a jittered ladder of levels 0.1 apart."""
    rng = np.random.default_rng(seed)
    energies = 0.1 * np.arange(n) + rng.uniform(-0.02, 0.02, size=n)
    hop = 0.005 * (rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1))
    h1 = np.diag(hop, 1) + np.diag(hop.conj(), -1)
    return redivide(SystemSpec(energies=energies, h1=h1))


def ladder_system(rng: np.random.Generator, n: int, *, norm: float = 0.1) -> SplitSystem:
    """Dense coupling on levels whose neighbour gaps are drawn from [0.15, 0.45].

    The levels are built in closed form, so any n is as cheap as n = 2.
    """
    energies = np.cumsum(rng.uniform(0.15, 0.45, size=n))
    return redivide(SystemSpec(energies=energies, h1=random_hermitian(rng, n, norm)))


def planted_system(energies, g) -> SplitSystem:
    """A system taken as already redivided: the energies and coupling as given."""
    e = np.array(energies, dtype=float)
    return SplitSystem(
        energies_redivided=e,
        g=np.array(g, dtype=complex),
        basis_rotation=np.eye(e.shape[0]),
        energies_original=e,
    )


def sample_grid(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Increasing abscissae with ``uniform``, ``cumulative`` (random steps) or
    ``sorted`` (sorted random points; duplicates dropped) spacing."""
    if kind == "uniform":
        return np.linspace(-rng.uniform(0.0, 5.0), rng.uniform(0.1, 5.0), n)
    if kind == "cumulative":
        return np.cumsum(rng.uniform(0.01, 1.0, n))
    return np.unique(rng.uniform(-1.0, 1.0, n))


def assert_simpson_matches_scipy(y: np.ndarray, x: np.ndarray) -> None:
    """`improved.simpson` returns the bits of `scipy.integrate.simpson`."""
    from scipy.integrate import simpson as scipy_simpson

    assert np.float64(simpson(y, x=x)).tobytes() == np.float64(scipy_simpson(y, x=x)).tobytes()


class Result(NamedTuple):
    exit_code: int
    output: str  # stdout and stderr, interleaved as written


class CliRunner:
    """Runs a command-line entry point in process, as a shell user would see it."""

    def invoke(self, main, args) -> Result:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            try:
                main(list(args))
                code = 0
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
        return Result(code, captured.getvalue())
