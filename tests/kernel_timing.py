"""Time the divided-difference kernel, the per-term pass, the improved amplitudes
and the t-power split of two checkouts.

Usage, from the root of a checkout:

    python tests/kernel_timing.py SRC_A SRC_B

Imports ``perturbseries`` from the directory SRC_A and again from SRC_B, so
both run side by side in one process, and times in rounds that alternate
which side goes first:

- ``ddkernel._dd_value`` on stacks of K = 1, 35 and 2,600 sets of five
  nodes (sorted draws, with repeats, of five levels 0.5 apart: the order-4
  paths of a benchmark ``terms`` job), and ``dd_exp`` on one of those sets;
- ``terms.eval_closed_term`` for all 15 order-4 terms of the level pair
  (0, 1), on N = 5, 8, 12, 24 and 48 levels 0.2 apart with a dense
  coupling of spectral norm 0.1, and on the N = 5 and 12 systems the
  single label ``nnn,nn,n`` (passed as a label, not a list) and the
  partial request of every third label;
- ``improved._improved_sum_grid`` for orders 0-3 with the default
  revisions, and the whole ``compare --order 3`` report through
  ``cli.main``, on nearest-neighbour chains of N = 12, 24 and 40 levels
  0.1 apart (0.02 jitter, hopping 0.005), at 2 and 101 times in [20, 40];
- ``terms.split_t_power_parts`` at order 4 on N = 8 and 12 levels 0.2
  apart with a dense coupling of spectral norm 0.1;
- the improved grid and the compare report on chains of N = 32 and 36 at
  2 times, the benchmark's other chain lengths, and the improved grid on
  a chain of N = 40 at 1,001 times in [20, 40];
- ``cli._spec_from_document`` on two decoded benchmark system files (seed
  1, first variant): the N = 24 system of the reports-mixed ``energies``
  job and an N = 40 chain of compare-chain;
- two reports through ``cli.main``: the order-6 catalog listing, and the
  order-4 ``terms`` report of the reports-mixed ``terms`` job (seed 1,
  first variant, N = 5, its level pair) at time T;
- ``improved.revision_energies(sys, 4).e_tilde((2, 3, 4))``, the shifted
  energies of the reports-mixed ``two-state`` job (N = 2) and ``energies``
  job (N = 24), seed 1, first variant;
- two ``evolve`` reports through ``cli.main``, the evolve-dense jobs at
  2 times of N = 5, L = 4 and N = 4, L = 6 (seed 1, first variant),
  compared byte by byte but for the ``# input:`` line;
- command line to ``RunConfig``: the command line of the first job of each
  benchmark job kind (seed 1, cycle 0; paths relative to the side's
  directory) through ``cli.main`` with ``cli.run`` replaced by a recorder,
  compared as the bytes of the recorded config's ``repr``.

For each case it prints the fastest and the median round of each side in
milliseconds, the rounds in which SRC_B was faster, and the largest
difference of SRC_B's values from SRC_A's relative to SRC_A's largest value.
The last line is the same table as JSON.  One BLAS thread, as in the
benchmark's worker.  Not collected by pytest.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import csv  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
ROUNDS = 15
#: Each round of a case runs it back to back for at least this long.
ROUND_S = 0.02
T = 2.5


def load(src: Path) -> SimpleNamespace:
    """The modules of ``perturbseries`` imported afresh from ``src``."""
    for name in [m for m in sys.modules if m == "perturbseries" or m.startswith("perturbseries.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        names = ("cli", "ddkernel", "improved", "model", "terms")
        return SimpleNamespace(**{n: importlib.import_module(f"perturbseries.{n}") for n in names})
    finally:
        sys.path.remove(str(src))


def _dense_system(pkg: SimpleNamespace, rng: np.random.Generator, n: int) -> object:
    """N levels 0.2 apart (0.02 jitter) with a dense coupling of spectral norm 0.1."""
    energies = 0.2 * np.arange(n) + rng.uniform(-0.02, 0.02, size=n)
    h1 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h1 = h1 + h1.conj().T
    np.fill_diagonal(h1, 0.0)
    h1 *= 0.1 / np.linalg.norm(h1, 2)
    return pkg.model.redivide(pkg.model.SystemSpec(energies=energies, h1=h1))


def _chain(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Levels 0.1 apart (0.02 jitter) coupled by nearest-neighbour hops of about 0.005."""
    energies = 0.1 * np.arange(n) + rng.uniform(-0.02, 0.02, size=n)
    hop = 0.005 * (rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1))
    return energies, np.diag(hop, 1) + np.diag(hop.conj(), -1)


def _report_values(out: Path, first: int) -> np.ndarray:
    """The numbers of a report's columns from ``first`` on."""
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    return np.array([[float(cell) for cell in row[first:]] for row in csv.reader(lines[1:])])


def _compare_report(pkg: SimpleNamespace, path: Path, steps: int) -> np.ndarray:
    out = path.with_suffix(f".{steps}.csv")
    argv = ["compare", "--input", str(path), "--output", str(out), "--order", "3",
            "--t-start", "20", "--t-end", "40", "--t-steps", str(steps)]
    pkg.cli.main(argv, standalone_mode=False)
    return _report_values(out, 1)


def _catalog_report(pkg: SimpleNamespace, out: Path) -> np.ndarray:
    """The order-6 catalog listing, byte by byte."""
    pkg.cli.main(["terms", "--output", str(out), "--order", "6"], standalone_mode=False)
    return np.frombuffer(out.read_bytes(), dtype=np.uint8).astype(float)


def _terms_report(pkg: SimpleNamespace, job: dict) -> np.ndarray:
    out = job["path"].with_suffix(".terms.csv")
    argv = ["terms", "--input", str(job["path"]), "--output", str(out), "--order", str(job["order"]),
            "--time", repr(T), "--from-level", str(job["levels"][0]), "--to-level", str(job["levels"][1])]
    pkg.cli.main(argv, standalone_mode=False)
    return _report_values(out, 2)


def _evolve_report(pkg: SimpleNamespace, job: dict) -> np.ndarray:
    """An evolve report byte by byte, but for its ``# input:`` line, which
    names each side's own copy of the input file."""
    out = job["path"].with_suffix(".evolve.csv")
    start, end, steps = job["ts"]
    argv = ["evolve", "--input", str(job["path"]), "--output", str(out), "--order", str(job["order"]),
            "--initial", str(job["initial"]), "--t-start", repr(start), "--t-end", repr(end),
            "--t-steps", str(steps)]
    pkg.cli.main(argv, standalone_mode=False)
    lines = out.read_bytes().splitlines(keepends=True)
    kept = b"".join(line for line in lines if not line.startswith(b"# input: "))
    return np.frombuffer(kept, dtype=np.uint8).astype(float)


def _chain_case(
    pkg: SimpleNamespace, rng: np.random.Generator, workdir: Path, n: int
) -> tuple[object, Path]:
    """A chain of ``n`` levels as a redivided system and as an input file."""
    energies, h1 = _chain(rng, n)
    system = pkg.model.redivide(pkg.model.SystemSpec(energies=energies, h1=h1))
    path = workdir / f"chain{n}.json"
    doc = {"dimension": n, "energies": energies.tolist(),
           "h1": [[[z.real, z.imag] for z in row] for row in h1.tolist()]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return system, path


def _add_chain_cases(
    pkg: SimpleNamespace, out: dict[str, object], system: object, path: Path, n: int, steps: int
) -> None:
    """The improved grid and the whole compare report at ``steps`` times in [20, 40]."""
    ts = np.linspace(20.0, 40.0, steps)
    out[f"improved N={n} T={steps}"] = lambda: pkg.improved._improved_sum_grid(system, range(4), ts)
    out[f"compare N={n} T={steps}"] = lambda: _compare_report(pkg, path, steps)


def cases(pkg: SimpleNamespace, workdir: Path) -> dict[str, object]:
    """Each case as a call without arguments that returns its values."""
    rng = np.random.default_rng(24)
    levels = 0.5 * np.arange(5) + rng.uniform(-0.05, 0.05, size=5)
    out: dict[str, object] = {}
    for k in (1, 35, 2600):
        nodes = np.sort(levels[rng.integers(0, 5, size=(k, 5))], axis=1)
        out[f"_dd_value K={k}"] = lambda nodes=nodes: pkg.ddkernel._dd_value(nodes, T)
    row = np.sort(levels[rng.integers(0, 5, size=5)])
    out["dd_exp one set"] = lambda: pkg.ddkernel.dd_exp(pkg.ddkernel.NodeList(row, T))
    labels = pkg.terms.enumerate_catalog(4).labels
    for n in (5, 8, 12, 24, 48):
        system = _dense_system(pkg, rng, n)
        out[f"order-4 terms N={n}"] = (
            lambda system=system: pkg.terms.eval_closed_term(system, labels, T, 0, 1)
        )
        if n in (5, 12):
            for kind, request in (("single", labels[-1]), ("partial", labels[::3])):
                out[f"order-4 {kind} N={n}"] = (
                    lambda system=system, request=request: pkg.terms.eval_closed_term(
                        system, request, T, 0, 1
                    )
                )
    for n in (12, 24, 40):
        system, path = _chain_case(pkg, rng, workdir, n)
        for steps in (2, 101):
            _add_chain_cases(pkg, out, system, path, n, steps)
    for n in (8, 12):
        system = _dense_system(pkg, rng, n)
        out[f"split l=4 N={n}"] = (
            lambda system=system: np.array(list(pkg.terms.split_t_power_parts(system, 4, T).values()))
        )
    # Drawn last, so the cases above keep their inputs.
    for n in (32, 36):
        system, path = _chain_case(pkg, rng, workdir, n)
        _add_chain_cases(pkg, out, system, path, n, 2)
    energies, h1 = _chain(rng, 40)
    system = pkg.model.redivide(pkg.model.SystemSpec(energies=energies, h1=h1))
    ts = np.linspace(20.0, 40.0, 1001)
    out["improved N=40 T=1001"] = (
        lambda system=system, ts=ts: pkg.improved._improved_sum_grid(system, range(4), ts)
    )
    for name, slot, n in (("reports-mixed", 0, 24), ("compare-chain", -1, 40)):
        doc = json.loads(_benchmark_job(workdir, name, slot)["path"].read_text(encoding="utf-8"))
        out[f"parse N={n}"] = lambda doc=doc: _parsed(pkg, doc)
    out["catalog report l=6"] = lambda: _catalog_report(pkg, workdir / "catalog6.csv")
    job = _benchmark_job(workdir, "reports-mixed", 3)
    out["terms report N=5"] = lambda job=job: _terms_report(pkg, job)
    pair = _benchmark_job(workdir, "reports-mixed", 2)
    two_level = pkg.model.SystemSpec(
        energies=[pair["e1"], pair["e2"]], h1=[[0.0, pair["v"]], [pair["v"], 0.0]]
    )
    doc = json.loads(_benchmark_job(workdir, "reports-mixed", 0)["path"].read_text(encoding="utf-8"))
    for n, spec in ((2, two_level), (24, pkg.cli._spec_from_document(doc, "system.json"))):
        system = pkg.model.redivide(spec)
        out[f"e_tilde N={n}"] = (
            lambda system=system: pkg.improved.revision_energies(system, 4).e_tilde((2, 3, 4))
        )
    for slot in (4, 5):
        evolve = _benchmark_job(workdir, "evolve-dense", slot)
        name = f"evolve report N={evolve['system'].energies.shape[0]} L={evolve['order']}"
        out[name] = lambda evolve=evolve: _evolve_report(pkg, evolve)
    for name in ("evolve-dense", "compare-chain", "reports-mixed"):
        for line in _workload(workdir, name).cycle(0):
            argv = [os.path.relpath(arg, workdir) if arg.startswith(str(workdir)) else arg
                    for arg in line.argv]
            out.setdefault(f"argv {line.kind}", lambda argv=argv: _run_config(pkg, argv))
    return out


def _workload(workdir: Path, name: str) -> object:
    """A benchmark workload, seed 1, with its system files written."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads.Workload(name, 1, workdir / name)


def _benchmark_job(workdir: Path, name: str, slot: int) -> dict:
    """The first variant of a benchmark job slot, seed 1, with its system file written."""
    return _workload(workdir, name).slots[slot][0]


def _run_config(pkg: SimpleNamespace, argv: list[str]) -> np.ndarray:
    """The bytes of the repr of the RunConfig that ``cli.main`` hands to ``cli.run``."""
    seen = []
    run, pkg.cli.run = pkg.cli.run, seen.append
    try:
        pkg.cli.main(argv, standalone_mode=False)
    finally:
        pkg.cli.run = run
    return np.frombuffer(repr(seen[0]).encode(), dtype=np.uint8).astype(float)


def _parsed(pkg: SimpleNamespace, doc: dict) -> np.ndarray:
    spec = pkg.cli._spec_from_document(doc, "system.json")
    return np.concatenate([spec.energies, spec.h1.ravel()])


def _round(call: object, number: int) -> float:
    start = perf_counter()
    for _ in range(number):
        call()
    return (perf_counter() - start) / number


def main(argv: list[str]) -> None:
    if len(argv) != 2:
        raise SystemExit(__doc__)
    workdir = Path(tempfile.mkdtemp(prefix="kernel-timing-"))
    sides = []
    for side, src in zip("ab", argv):
        (workdir / side).mkdir()
        sides.append(cases(load(Path(src).resolve()), workdir / side))
    table = []
    for name in sides[0]:
        calls = [side[name] for side in sides]
        values = [np.atleast_1d(call()) for call in calls]
        scale = float(np.max(np.abs(values[0])))
        number = max(1, int(ROUND_S / _round(calls[0], 1)))
        times: list[list[float]] = [[], []]
        for r in range(ROUNDS):
            for s in (r % 2, 1 - r % 2):
                times[s].append(_round(calls[s], number))
        table.append({
            "case": name,
            "a_ms": {"min": 1e3 * min(times[0]), "median": 1e3 * statistics.median(times[0])},
            "b_ms": {"min": 1e3 * min(times[1]), "median": 1e3 * statistics.median(times[1])},
            "b_faster_rounds": f"{sum(b < a for a, b in zip(*times))}/{ROUNDS}",
            "max_diff_rel": float(np.max(np.abs(values[1] - values[0]))) / scale,
        })
    print(f"{'case':<24}{'A min':>10}{'A median':>10}{'B min':>10}{'B median':>10}"
          f"{'B faster':>10}{'max diff':>10}")
    for e in table:
        a, b = e["a_ms"], e["b_ms"]
        print(f"{e['case']:<24}{a['min']:>10.4g}{a['median']:>10.4g}{b['min']:>10.4g}"
              f"{b['median']:>10.4g}{e['b_faster_rounds']:>10}{e['max_diff_rel']:>10.2g}")
    print(json.dumps(table))
    shutil.rmtree(workdir)


if __name__ == "__main__":
    main(sys.argv[1:])
