"""Digest every report the benchmark's jobs write, to compare two checkouts.

Usage, from the root of a checkout:

    python tests/report_digests.py SRC OUT.json
    python tests/report_digests.py --cells SRC_A SRC_B

Runs every job of cycles 0-3 of seeds 1-3 of each workload in
``perfbench/workloads.py`` through ``perturbseries.cli.main``, importing
``perturbseries`` from the directory SRC, and writes the sha256 of each
report to OUT.json.  The jobs run in a fresh temporary directory under
fixed relative paths, so the ``# input:`` header line is the same for any
checkout: two checkouts write the same reports exactly when their OUT.json
files are equal.

``--cells`` runs the jobs against SRC_A and then SRC_B and compares the
reports cell by cell.  It prints how many reports are byte-identical and,
for each (workload, kind, column) with a changed cell, the number of
changed cells and the largest absolute and relative change (relative to
the SRC_A cell).  A changed header line, column list or row count counts
under the column ``header``.  When only the column lists differ, the cells
of the columns both reports have are compared by name, so an added,
dropped or moved column still leaves the others compared.  Not collected
by pytest.
"""

from __future__ import annotations

import os

# One BLAS thread, as in the benchmark's worker.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEEDS = (1, 2, 3)
CYCLES = range(4)


def _run_jobs() -> dict[str, bytes]:
    import workloads
    from perturbseries import cli

    out = {}
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            workload = workloads.Workload(name, seed, Path(name) / f"seed{seed}")
            for cycle in CYCLES:
                for k, job in enumerate(workload.cycle(cycle)):
                    cli.main(list(job.argv), standalone_mode=False)
                    key = f"{name}/seed{seed}/cycle{cycle}/{k:02d}-{job.kind}"
                    out[key] = job.output.read_bytes()
    return out


def reports(src: Path) -> dict[str, bytes]:
    """Every report, by job key, with ``perturbseries`` imported afresh from ``src``."""
    for name in [m for m in sys.modules if m == "perturbseries" or m.startswith("perturbseries.")]:
        del sys.modules[name]
    sys.path[:0] = [str(src), str(PERFBENCH)]
    home = Path.cwd()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                result = _run_jobs()
            finally:
                os.chdir(home)
        print(f"{len(result)} reports written by {sys.modules['perturbseries'].__file__}")
    finally:
        del sys.path[:2]
    return result


def _cells(text: bytes) -> tuple[list[str], list[str], list[list[str]]]:
    """Header lines, column names and data rows of one report.  Rows are read
    as CSV, since a quoted term label holds commas."""
    lines = text.decode("utf-8").splitlines()
    header = [line for line in lines if line.startswith("#")]
    body = list(csv.reader(line for line in lines if not line.startswith("#")))
    return header, body[0], body[1:]


def compare_cells(before: dict[str, bytes], after: dict[str, bytes]) -> list[dict[str, object]]:
    """Changed cells per (workload, kind, column), with their largest changes."""
    if before.keys() != after.keys():
        raise ValueError("the two checkouts ran different jobs")
    found: dict[tuple[str, str, str], dict[str, object]] = {}

    def note(key: tuple[str, str, str], a: str, b: str) -> None:
        entry = found.setdefault(key, {"changed": 0, "max_abs": 0.0, "max_rel": 0.0})
        entry["changed"] += 1
        try:
            x, y = float(a), float(b)
        except ValueError:
            x = y = math.nan
        if math.isfinite(x) and math.isfinite(y):
            change = abs(y - x)
            entry["max_abs"] = max(entry["max_abs"], change)
            entry["max_rel"] = max(entry["max_rel"], change / abs(x) if x else math.inf)
        else:
            entry["max_abs"] = entry["max_rel"] = math.nan

    for job, text in before.items():
        if text == after[job]:
            continue
        workload, kind = job.split("/")[0], job.rsplit("/", 1)[1].split("-", 1)[1]
        (head_a, cols_a, rows_a), (head_b, cols_b, rows_b) = _cells(text), _cells(after[job])
        if head_a != head_b or cols_a != cols_b or len(rows_a) != len(rows_b):
            note((workload, kind, "header"), "nan", "nan")
        if len(rows_a) != len(rows_b):
            continue
        shared = [column for column in cols_a if column in cols_b]
        for row_a, row_b in zip(rows_a, rows_b):
            cells_a, cells_b = dict(zip(cols_a, row_a)), dict(zip(cols_b, row_b))
            for column in shared:
                if cells_a[column] != cells_b[column]:
                    note((workload, kind, column), cells_a[column], cells_b[column])
    return [{"workload": w, "kind": k, "column": c, **v} for (w, k, c), v in sorted(found.items())]


def main(argv: list[str]) -> None:
    if len(argv) == 3 and argv[0] == "--cells":
        before, after = (reports(Path(src).resolve()) for src in argv[1:])
        same = sum(before[job] == after.get(job) for job in before)
        print(f"{same}/{len(before)} reports byte-identical")
        names = ("workload", "kind", "column", "changed", "max_abs", "max_rel")
        print("".join(f"{name:<{w}}" for name, w in zip(names[:3], (16, 13, 16)))
              + "".join(f"{name:>{w}}" for name, w in zip(names[3:], (9, 11, 11))))
        for e in compare_cells(before, after):
            print(
                f"{e['workload']:<16}{e['kind']:<13}{e['column']:<16}{e['changed']:>9}"
                f"{e['max_abs']:>11.3g}{e['max_rel']:>11.3g}"
            )
        return
    if len(argv) != 2:
        raise SystemExit(__doc__)
    src, target = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    result = {job: hashlib.sha256(text).hexdigest() for job, text in reports(src).items()}
    target.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(result)} reports digested")


if __name__ == "__main__":
    main(sys.argv[1:])
