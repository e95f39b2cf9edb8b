"""Independent references for every checked report column.

Nothing here imports perturbseries.  Each reference takes another route than
the package does:

- truncated series: block (0, l) of exp(-i t M) for the block-bidiagonal
  M = [[E, g], [E, g], ...] is the order-l amplitude matrix (Van Loan,
  IEEE TAC 23, 1978), computed with scipy.linalg.expm;
- exact propagators and spectra: numpy.linalg.eigh;
- revision energies: the Rayleigh-Schroedinger recursion (intermediate
  normalisation, reduced resolvent);
- improved amplitudes: the pure-phase weight of level k in the order-l
  amplitude is the residue at z = E_k of D(z) (g D(z))^l, D = diag(1/(z - E)),
  taken exactly from Laurent series of D;
- golden-rule revision: composite Simpson quadrature written out in numpy.

A reported value passes when |reported - reference| <= ATOL + RTOL |reference|.
"""

from __future__ import annotations

import csv
import io

import numpy as np
from scipy.linalg import expm

ATOL = 1e-11
RTOL = 1e-10

#: Revision orders in the exponent of each improved amplitude order
#: (the per-equation default of ``compare``).
IMPROVED_G_ORDERS = {0: (2, 3, 4, 5), 1: (2, 3, 4), 2: (2, 3), 3: (2,)}

#: Term-catalog sizes: the Bell numbers.
CATALOG_COUNTS = {2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


class CheckFailed(Exception):
    """A report disagrees with its reference."""


def series_blocks(energies: np.ndarray, g: np.ndarray, order: int, t: float) -> list[np.ndarray]:
    """Amplitude matrices of orders 0..order at time t, from one matrix exponential."""
    n = energies.shape[0]
    mean = float(energies.mean())
    m = np.zeros(((order + 1) * n,) * 2, dtype=np.complex128)
    for l in range(order + 1):
        m[l * n:(l + 1) * n, l * n:(l + 1) * n] = np.diag(energies - mean)
        if l < order:
            m[l * n:(l + 1) * n, (l + 1) * n:(l + 2) * n] = g
    x = expm(-1j * t * m) * np.exp(-1j * mean * t)
    return [x[:n, l * n:(l + 1) * n] for l in range(order + 1)]


def exact_propagator(energies: np.ndarray, g: np.ndarray, t: float) -> np.ndarray:
    lam, vec = np.linalg.eigh(np.diag(energies).astype(np.complex128) + g)
    return (vec * np.exp(-1j * lam * t)) @ vec.conj().T


def rs_revisions(energies: np.ndarray, g: np.ndarray, max_order: int) -> dict[int, np.ndarray]:
    """Energy corrections E^(j), j = 2..max_order, of every level."""
    n = energies.shape[0]
    out = {j: np.zeros(n) for j in range(2, max_order + 1)}
    for k in range(n):
        r = np.zeros(n)
        others = np.arange(n) != k
        r[others] = 1.0 / (energies[k] - energies[others])
        psi = [np.eye(n, dtype=np.complex128)[k]]
        e = [0.0, complex(g[k, k])]
        for j in range(1, max_order + 1):
            if j >= 2:
                e.append(complex(g[k] @ psi[j - 1]))
            rhs = g @ psi[j - 1] - sum(e[i] * psi[j - i] for i in range(1, j + 1))
            psi.append(r * rhs)
        for j in range(2, max_order + 1):
            out[j][k] = e[j].real
    return out


def shifted_energies(energies: np.ndarray, revisions: dict[int, np.ndarray], orders) -> np.ndarray:
    return energies + sum((revisions[j] for j in orders), np.zeros_like(energies))


def improved_weights(energies: np.ndarray, g: np.ndarray, order: int) -> list[np.ndarray]:
    """W[l][a, b, k]: weight of exp(-i E_k t) in the pure-phase part of order l.

    Near z = E_k, D(z) = P_k / eps + sum_j (-1)^j Q_k^(j+1) eps^j with
    eps = z - E_k, P_k the projector on level k and Q_k = diag(1/(E_k - E_a))
    (zero at a = k).  Multiplying these Laurent series through
    D g D ... g D and keeping the eps^-1 coefficient gives the residue.
    """
    n = energies.shape[0]
    weights = [np.zeros((n, n, n), dtype=np.complex128) for _ in range(order + 1)]
    for k in range(n):
        q = np.zeros(n)
        others = np.arange(n) != k
        q[others] = 1.0 / (energies[k] - energies[others])
        d = {-1: np.eye(n)[k]}
        for j in range(order + 1):
            d[j] = (-1.0) ** j * q ** (j + 1)
        series = {p: np.diag(c).astype(np.complex128) for p, c in d.items()}
        weights[0][:, :, k] = series[-1]
        for l in range(1, order + 1):
            nxt: dict[int, np.ndarray] = {}
            for p1, s in series.items():
                sg = s @ g
                for p2, c in d.items():
                    if p1 + p2 <= order:
                        nxt[p1 + p2] = nxt.get(p1 + p2, 0) + sg * c[np.newaxis, :]
            series = nxt
            weights[l][:, :, k] = series[-1]
    return weights


def simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson rule on an odd number of (possibly uneven) samples."""
    if x.shape[0] % 2 == 0:
        raise ValueError("needs an odd number of samples")
    h0 = np.diff(x)[0::2]
    h1 = np.diff(x)[1::2]
    f0, f1, f2 = y[0:-2:2], y[1:-1:2], y[2::2]
    s = (h0 + h1) / 6.0 * (
        (2.0 - h1 / h0) * f0 + (h0 + h1) ** 2 / (h0 * h1) * f1 + (2.0 - h0 / h1) * f2
    )
    return float(np.sum(s))


def golden_rule(energies: np.ndarray, g: np.ndarray, block: dict) -> dict[str, float]:
    """Fermi rate and its finite-time revision for a tabulated continuum."""
    grid = np.array(block["energy_grid"])
    weight = np.array(block["density"]) * np.array(block["coupling_sq"])
    duration = float(block["duration"])
    beta, final = block["initial"], block["final"]
    e_beta = energies[beta]
    absq = np.abs(g) ** 2
    coupled_b = absq[beta] > 0.0
    shift_beta = np.sum(absq[beta][coupled_b] / (e_beta - energies[coupled_b]))
    coupled_f = absq[final] > 0.0
    omega = grid - e_beta
    mapped = (
        omega
        + np.sum(absq[final][coupled_f] / ((e_beta + omega)[:, np.newaxis] - energies[coupled_f]), axis=1)
        - shift_beta
    )
    integrand = weight * (np.cos(omega * duration) - np.cos(mapped * duration)) / (duration * omega**2)
    w_fermi = 2.0 * np.pi * np.interp(e_beta, grid, block["density"]) * np.interp(
        e_beta, grid, block["coupling_sq"]
    )
    delta_w = 2.0 * simpson(integrand, omega)
    return {"w_fermi": w_fermi, "delta_w": delta_w, "w": w_fermi + delta_w}


def read_report(text: str) -> dict[str, list[str]]:
    """Columns of a CSV report by name; the '#' header block is skipped."""
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    rows = list(csv.reader(io.StringIO(body)))
    if not rows:
        raise CheckFailed("report has no table")
    header, data = rows[0], rows[1:]
    if any(len(row) != len(header) for row in data):
        raise CheckFailed("ragged report table")
    return {name: [row[i] for row in data] for i, name in enumerate(header)}


def _column(table: dict[str, list[str]], name: str) -> np.ndarray:
    if name not in table:
        raise CheckFailed(f"report lacks column {name!r}")
    try:
        return np.array([float(x) for x in table[name]])
    except ValueError as exc:
        raise CheckFailed(f"column {name!r}: {exc}") from exc


def _compare(name: str, reported: np.ndarray, reference: np.ndarray) -> float:
    reference = np.asarray(reference, dtype=float)
    if reported.shape != reference.shape:
        raise CheckFailed(f"{name}: {reported.shape[0]} values, expected {reference.shape[0]}")
    err = np.abs(reported - reference)
    bad = err > ATOL + RTOL * np.abs(reference)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise CheckFailed(f"{name}[{i}] = {reported[i]!r}, reference {reference[i]!r}")
    return float(np.max(err)) if err.size else 0.0


def _time_grid(ts: tuple[float, float, int]) -> np.ndarray:
    return np.linspace(ts[0], ts[1], ts[2])


def _check_evolve(table, p) -> float:
    e, g = p["system"].energies, p["system"].coupling
    ts = _time_grid(p["ts"])
    amps = np.array([sum(series_blocks(e, g, p["order"], t))[:, p["initial"]] for t in ts])
    worst = _compare("t", _column(table, "t"), ts)
    for j in range(e.shape[0]):
        worst = max(worst, _compare(f"c{j}_re", _column(table, f"c{j}_re"), amps[:, j].real))
        worst = max(worst, _compare(f"c{j}_im", _column(table, f"c{j}_im"), amps[:, j].imag))
    return max(worst, _compare("norm", _column(table, "norm"), np.linalg.norm(amps, axis=1)))


def _check_compare(table, p) -> float:
    e, g = p["system"].energies, p["system"].coupling
    ts = _time_grid(p["ts"])
    order = p["order"]
    weights = improved_weights(e, g, order)
    revisions = rs_revisions(e, g, 5)
    err_usual, err_improved = [], []
    for t in ts:
        exact = exact_propagator(e, g, t)
        err_usual.append(np.max(np.abs(sum(series_blocks(e, g, order, t)) - exact)))
        improved = sum(
            weights[l] @ np.exp(-1j * shifted_energies(e, revisions, IMPROVED_G_ORDERS[l]) * t)
            for l in range(order + 1)
        )
        err_improved.append(np.max(np.abs(improved - exact)))
    worst = _compare("t", _column(table, "t"), ts)
    worst = max(worst, _compare("err_usual", _column(table, "err_usual"), np.array(err_usual)))
    return max(worst, _compare("err_improved", _column(table, "err_improved"), np.array(err_improved)))


def _check_energies(table, p) -> float:
    e, g = p["system"].energies, p["system"].coupling
    revisions = rs_revisions(e, g, 4)
    e_tilde = shifted_energies(e, revisions, (2, 3, 4))
    exact = np.linalg.eigvalsh(np.diag(e).astype(np.complex128) + g)
    ranks = np.argsort(np.argsort(e, kind="stable"), kind="stable")
    e_exact = exact[ranks]
    worst = _compare("level", _column(table, "level"), np.arange(e.shape[0]))
    for name, ref in (("e_original", e), ("e_redivided", e), ("e_tilde", e_tilde),
                      ("e_exact", e_exact), ("abs_error", np.abs(e_tilde - e_exact))):
        worst = max(worst, _compare(name, _column(table, name), ref))
    return worst


def _check_golden(table, p) -> float:
    ref = golden_rule(p["system"].energies, p["system"].coupling, p["golden"])
    return max(_compare(name, _column(table, name), np.array([ref[name]])) for name in ref)


def _check_two_state(table, p) -> float:
    e = np.array([p["e1"], p["e2"]])
    g = np.array([[0.0, p["v"]], [p["v"], 0.0]], dtype=np.complex128)
    ts = _time_grid(p["ts"])
    e_tilde = shifted_energies(e, rs_revisions(e, g, 4), (2, 3, 4))
    omega = e[1] - e[0]
    omega_tilde = e_tilde[1] - e_tilde[0]
    scale = p["v"] ** 2 / (0.5 * omega) ** 2
    refs = {
        "t": ts,
        "p_usual": scale * np.sin(0.5 * omega * ts) ** 2,
        "p_improved": scale * np.sin(0.5 * omega_tilde * ts) ** 2,
        "p_exact": np.array([abs(exact_propagator(e, g, t)[1, 0]) ** 2 for t in ts]),
        "e_tilde_1": np.full(ts.shape, e_tilde[0]),
        "e_tilde_2": np.full(ts.shape, e_tilde[1]),
    }
    return max(_compare(name, _column(table, name), ref) for name, ref in refs.items())


def _check_labels(table, order: int) -> None:
    labels = table.get("label")
    if labels is None or len(labels) != CATALOG_COUNTS[order] or len(set(labels)) != len(labels):
        raise CheckFailed(f"order-{order} catalog must list {CATALOG_COUNTS[order]} distinct labels")


def _check_terms(table, p) -> float:
    _check_labels(table, p["order"])
    e, g = p["system"].energies, p["system"].coupling
    to_level, from_level = p["levels"][1], p["levels"][0]
    ref = series_blocks(e, g, p["order"], p["time"])[p["order"]][to_level, from_level]
    total = complex(_column(table, "value_re").sum(), _column(table, "value_im").sum())
    worst = _compare("sum value_re", np.array([total.real]), np.array([ref.real]))
    return max(worst, _compare("sum value_im", np.array([total.imag]), np.array([ref.imag])))


def _check_catalog(table, p) -> float:
    _check_labels(table, p["order"])
    return _compare("index", _column(table, "index"), np.arange(CATALOG_COUNTS[p["order"]]))


_CHECKS = {
    "evolve": _check_evolve,
    "compare": _check_compare,
    "energies": _check_energies,
    "golden-rule": _check_golden,
    "two-state": _check_two_state,
    "terms": _check_terms,
    "catalog": _check_catalog,
}


def check_report(kind: str, params: dict, text: str) -> float:
    """Largest deviation of the report from its reference; raises CheckFailed."""
    return _CHECKS[kind](read_report(text), params)
