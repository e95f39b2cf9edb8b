"""Digest every report the benchmark's jobs write, to compare two checkouts.

Usage, from the root of a checkout:

    python tests/report_digests.py SRC OUT.json

Runs every job of cycles 0-3 of seeds 1-3 of each workload in
``perfbench/workloads.py`` through ``perturbseries.cli.main``, importing
``perturbseries`` from the directory SRC, and writes the sha256 of each
report to OUT.json.  The jobs run in a fresh temporary directory under
fixed relative paths, so the ``# input:`` header line is the same for any
checkout: two checkouts write the same reports exactly when their OUT.json
files are equal.  Not collected by pytest.
"""

from __future__ import annotations

import os

# One BLAS thread, as in the benchmark's worker.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEEDS = (1, 2, 3)
CYCLES = range(4)


def digests() -> dict[str, str]:
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
                    out[key] = hashlib.sha256(job.output.read_bytes()).hexdigest()
    return out


def main(argv: list[str]) -> None:
    if len(argv) != 2:
        raise SystemExit(__doc__)
    src, target = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    sys.path[:0] = [str(src), str(PERFBENCH)]
    home = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            result = digests()
        finally:
            os.chdir(home)
    target.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(result)} reports digested, written by {sys.modules['perturbseries'].__file__}")


if __name__ == "__main__":
    main(sys.argv[1:])
