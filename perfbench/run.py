"""Benchmark of the perturbseries command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The load is a closed loop: this process is the one client and starts one
worker process (worker.py), which runs CLI jobs in-process through
``perturbseries.cli.main(argv)``; the next job is sent only after the previous
report is written.  Jobs run in whole cycles (see workloads.py) until S
seconds have passed, after a warm-up job of each kind.  Every report is then
checked against the independent references in references.py; a job that
raised or failed its check counts as failed.

End-to-end metrics (--trace 0), every time at the reference host speed:

  setup_s      median wall time of `import perturbseries.cli` in fresh
               interpreters, sampled before and after the window
  jobs_per_s   jobs per second
  job_p50_s    median job wall time (cli.main, timed in the worker)
  job_tail_s   the highest percentile with ten samples beyond it
  peak_rss_mb  peak resident memory of the worker after the warm-up and the
               first timed cycle: every kind of job, a fixed amount of work
  pass_frac    jobs that ran and passed their check, over jobs attempted

The shared host's CPU speed swings by 2x and more for seconds to minutes at
a time.  After every job the worker times a slice of calibration units
(calibrate.py) lasting CAL_SHARE of the job, and each setup probe times one
after its import; a time is scaled by the reference unit time over the unit
time measured next to it.  The plain wall-time figures go to the detail line.

--trace 1 runs a traced window and then, with every wrapper removed, an
untraced one (S/2 seconds each), and prints the per-layer metrics; their
times are plain wall seconds and trace.overhead_frac compares the windows'
normalized rates.  The last
line of stdout is the result object; the line before it holds provenance and
details.  BLAS threads are pinned to one.
"""

from __future__ import annotations

import os

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import calibrate  # noqa: E402
import references  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

#: Fresh interpreters timed for setup_s, half before and half after the
#: measured window (after one uncounted probe that also compiles the
#: bytecode cache).
SETUP_PROBES = 4
#: The run gives up, without a result, past this many seconds.
DEADLINE_S = 175
#: The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10
#: Calibration seconds after each job, as a share of the job's wall time,
#: and before a window's first job.
CAL_SHARE = 0.25
PRE_CAL_S = 0.05
#: Calibration seconds after each setup probe's import.
PROBE_CAL_S = 0.15

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "frac",
}

# name -> (unit, workload and end-to-end metric it should move)
PER_LAYER = {
    "ddkernel.calls": ("calls/job", "jobs_per_s, job_p50_s on evolve-dense"),
    "ddkernel.self_s": ("s/job", "jobs_per_s, job_p50_s on evolve-dense"),
    "ddkernel.nodes_mean": ("nodes", "jobs_per_s, job_p50_s on evolve-dense"),
    "series.grid_calls": ("calls/job", "jobs_per_s, job_p50_s on evolve-dense, some on compare-chain"),
    "series.self_s": ("s/job", "jobs_per_s, job_p50_s on evolve-dense, some on compare-chain"),
    "improved.amplitude_calls": ("calls/job", "jobs_per_s on compare-chain"),
    "improved.amplitude_self_s": ("s/job", "jobs_per_s on compare-chain"),
    "improved.revision_calls": ("calls/job", "jobs_per_s on compare-chain"),
    "improved.revision_s": ("s/job", "jobs_per_s on compare-chain"),
    "improved.revision_useful_ratio": ("frac", "jobs_per_s on compare-chain"),
    "improved.golden_rule_s": ("s/job", "job_p50_s on reports-mixed"),
    "improved.quadrature_s": ("s/job", "job_p50_s on reports-mixed"),
    "oracle.diagonalize_calls": ("calls/job", "job_tail_s on reports-mixed, jobs_per_s on compare-chain"),
    "oracle.diagonalize_s": ("s/job", "job_tail_s on reports-mixed, jobs_per_s on compare-chain"),
    "oracle.propagator_calls": ("calls/job", "jobs_per_s on compare-chain"),
    "oracle.propagator_s": ("s/job", "jobs_per_s on compare-chain"),
    "terms.eval_calls": ("calls/job", "job_p50_s on reports-mixed"),
    "terms.eval_self_s": ("s/job", "job_p50_s on reports-mixed"),
    "terms.dd_cache_hit_ratio": ("frac", "job_p50_s on reports-mixed"),
    "model.redivide_s": ("s/job", "job_p50_s on reports-mixed"),
    "cli.parse_s": ("s/job", "job_p50_s on reports-mixed"),
    "cli.write_s": ("s/job", "job_p50_s on reports-mixed"),
    "cli.report_bytes": ("B/job", "job_p50_s on reports-mixed"),
    "setup.import_s": ("s", "setup_s on every workload"),
    "setup.scipy_integrate_import_s": ("s", "setup_s on every workload"),
    "trace.overhead_frac": ("frac", "none: traced against untraced jobs_per_s"),
    "check.max_abs_err": ("abs", "none: worst deviation from the references"),
}

PROBE = (
    "import json, time; t = time.perf_counter(); import perturbseries.cli as m; "
    "s = time.perf_counter() - t; import calibrate; u, c = calibrate.run_slice(%r); "
    "print(json.dumps({'import_s': s, 'unit_s': c / u, 'module': m.__file__}))"
) % PROBE_CAL_S


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


@dataclass
class Record:
    job: workloads.Job
    wall_s: float
    ok: bool
    text: str | None
    error: str | None


@dataclass
class Probe:
    import_s: float
    unit_s: float

    def normalized(self) -> float:
        return self.import_s * calibrate.REFERENCE_UNIT_S / self.unit_s


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), str(HERE), env.get("PYTHONPATH")) if p)
    return env


def _in_src(module: str) -> bool:
    return Path(module).resolve().is_relative_to(SRC.resolve())


def probe_import(env: dict[str, str]) -> Probe:
    """Seconds to import perturbseries.cli in a fresh interpreter, and the
    calibration unit time measured right after it."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    if proc.returncode != 0:
        raise SetupError(f"import perturbseries.cli failed:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not _in_src(out["module"]):
        raise SetupError(f"perturbseries imported from {out['module']}, not from {SRC}")
    return Probe(float(out["import_s"]), float(out["unit_s"]))


def import_breakdown(env: dict[str, str]) -> dict[str, float]:
    """Cumulative import seconds of perturbseries.cli and scipy.integrate (-X importtime)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import perturbseries.cli"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise SetupError(f"import perturbseries.cli failed:\n{proc.stderr}")
    cumulative: dict[str, int] = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and line.startswith("import time:") and parts[1].strip().isdigit():
            name = parts[2].strip()
            cumulative[name] = max(cumulative.get(name, 0), int(parts[1]))
    return {
        "setup.import_s": cumulative.get("perturbseries.cli", 0) / 1e6,
        "setup.scipy_integrate_import_s": cumulative.get("scipy.integrate", 0) / 1e6,
    }


class Worker:
    """The one worker process of a run."""

    def __init__(self, env: dict[str, str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True, bufsize=1,
        )
        try:
            ready = self.request(None)
            if not _in_src(ready["module"]):
                raise SetupError(f"worker imported perturbseries from {ready['module']}")
        except BaseException:
            self.kill()
            raise

    def request(self, msg: dict | None) -> dict:
        if msg is not None:
            self.proc.stdin.write(json.dumps(msg) + "\n")
            self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SetupError(f"worker exited with status {self.proc.wait()}")
        return json.loads(line)

    def calibrate(self, seconds: float) -> tuple[int, float]:
        reply = self.request({"op": "calibrate", "seconds": seconds})
        return reply["units"], reply["seconds"]

    def peak_rss_mb(self) -> float:
        return self.request({"op": "peak"})["peak_rss_mb"]

    def close(self) -> None:
        """Stop the worker: it ends at the end of its input."""
        self.proc.stdin.close()
        self.proc.wait(timeout=30)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


@dataclass
class Window:
    records: list[Record]
    #: calibration slices (units, seconds): one before the first job, then one after each job
    cal: list[tuple[int, float]]
    cycle_s: list[float]
    next_cycle: int
    #: the worker's peak resident memory after the window's first cycle
    first_cycle_peak_mb: float

    def unit_s(self) -> list[float]:
        """Per job, the calibration unit time of the slices on either side of it."""
        return [(s0 + s1) / (u0 + u1) for (u0, s0), (u1, s1) in zip(self.cal, self.cal[1:])]

    def walls(self) -> list[float]:
        """Job wall times at the reference speed."""
        return [r.wall_s * calibrate.REFERENCE_UNIT_S / u for r, u in zip(self.records, self.unit_s())]

    def jobs_per_s(self) -> float:
        walls = self.walls()
        return len(walls) / sum(walls)


def run_job(worker: Worker, job: workloads.Job) -> Record:
    """One job, timed inside the worker: the pipe round trip to this process
    is no part of a CLI call, and its latency swings with the host's load."""
    job.output.unlink(missing_ok=True)
    reply = worker.request({"op": "job", "argv": list(job.argv)})
    text = job.output.read_text(encoding="utf-8") if reply["ok"] and job.output.exists() else None
    return Record(job, reply["worker_s"], reply["ok"], text, reply["error"])


def run_window(worker: Worker, wl: workloads.Workload, first_cycle: int, seconds: float) -> Window:
    """Whole cycles from first_cycle on until `seconds` have passed."""
    records: list[Record] = []
    cal = [worker.calibrate(PRE_CAL_S)]
    cycle_s: list[float] = []
    c = first_cycle
    start = perf_counter()
    while True:
        cycle_start = perf_counter()
        for job in wl.cycle(c):
            records.append(run_job(worker, job))
            cal.append(worker.calibrate(CAL_SHARE * records[-1].wall_s))
        c += 1
        cycle_s.append(perf_counter() - cycle_start)
        if c == first_cycle + 1:
            peak_mb = worker.peak_rss_mb()
        if perf_counter() - start >= seconds:
            return Window(records, cal, cycle_s, c, peak_mb)


def warm_up(worker: Worker, wl: workloads.Workload) -> list[Record]:
    """The first job of each kind in cycle 0; timed cycles start at 1."""
    records: list[Record] = []
    for job in wl.cycle(0):
        if all(r.job.kind != job.kind for r in records):
            records.append(run_job(worker, job))
    return records


def check_all(records: list[Record]) -> tuple[int, float, list[str]]:
    """(failed jobs, largest deviation, first few failure messages)."""
    verified: dict[tuple, tuple[str, float]] = {}
    failed, worst, messages = 0, 0.0, []
    for r in records:
        if not r.ok or r.text is None:
            failed += 1
            messages.append(f"{' '.join(r.job.argv)}: {r.error or 'no report written'}")
            continue
        if r.job.key is not None and r.job.key in verified and verified[r.job.key][0] == r.text:
            continue
        try:
            err = references.check_report(r.job.kind, r.job.params, r.text)
        except references.CheckFailed as exc:
            failed += 1
            messages.append(f"{' '.join(r.job.argv)}: {exc}")
            continue
        worst = max(worst, err)
        if r.job.key is not None:
            verified[r.job.key] = (r.text, err)
    return failed, worst, messages[:5]


def tail(walls: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with
    TAIL_BEYOND samples beyond it, or the maximum if there are too few."""
    ordered = sorted(walls)
    idx = len(ordered) - 1 - (TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered) - 1 - idx


def layer_metrics(summary: dict, records: list[Record]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of the traced window, and each layer's share of job time."""
    stats = summary["stats"]
    jobs = len(records)

    def get(name: str, field: str) -> float:
        return stats.get(name, {}).get(field, 0)

    def per_job(name: str, field: str) -> float:
        return get(name, field) / jobs

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    lookups = summary["cache_hits"] + summary["cache_misses"]
    metrics = {
        "ddkernel.calls": per_job("ddkernel", "calls"),
        "ddkernel.self_s": per_job("ddkernel", "self_s"),
        "ddkernel.nodes_mean": ratio(summary["ddkernel_nodes"], get("ddkernel", "calls")),
        "series.grid_calls": per_job("series", "calls"),
        "series.self_s": per_job("series", "self_s"),
        "improved.amplitude_calls": per_job("improved.amplitude", "calls"),
        "improved.amplitude_self_s": per_job("improved.amplitude", "self_s"),
        "improved.revision_calls": per_job("improved.revision", "calls"),
        "improved.revision_s": per_job("improved.revision", "total_s"),
        "improved.revision_useful_ratio": ratio(summary["revision_systems"], get("improved.revision", "calls")),
        "improved.golden_rule_s": per_job("improved.golden_rule", "total_s"),
        "improved.quadrature_s": per_job("improved.quadrature", "total_s"),
        "oracle.diagonalize_calls": per_job("oracle.diagonalize", "calls"),
        "oracle.diagonalize_s": per_job("oracle.diagonalize", "total_s"),
        "oracle.propagator_calls": per_job("oracle.propagator", "calls"),
        "oracle.propagator_s": per_job("oracle.propagator", "total_s"),
        "terms.eval_calls": per_job("terms.eval", "calls"),
        "terms.eval_self_s": per_job("terms.eval", "self_s"),
        "terms.dd_cache_hit_ratio": ratio(summary["cache_hits"], lookups),
        "model.redivide_s": per_job("model.redivide", "total_s"),
        "cli.parse_s": per_job("cli.parse", "total_s"),
        "cli.write_s": per_job("cli.write", "total_s"),
        "cli.report_bytes": sum(len(r.text or "") for r in records) / jobs,
    }
    job_s = get("job", "total_s")
    shares: dict[str, float] = {}
    for name, s in stats.items():
        layer = "cli" if name == "job" else name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + ratio(s["self_s"], job_s)
    return metrics, shares


def provenance(args: argparse.Namespace) -> dict:
    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                sha = ref_file.read_text().strip()
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(args: argparse.Namespace, rundir: Path) -> tuple[dict, dict]:
    env = child_env()
    detail: dict = provenance(args)
    probe_import(env)  # uncounted: fills the bytecode cache
    if args.trace:
        imports = import_breakdown(env)
    setups = [] if args.trace else [probe_import(env) for _ in range(SETUP_PROBES // 2)]

    wl = workloads.Workload(args.workload, args.seed, rundir / "work")
    worker = Worker(env)
    try:
        warm = warm_up(worker, wl)
        if args.trace:
            detail["missing_boundaries"] = worker.request({"op": "trace", "on": True})["missing"]
            traced = run_window(worker, wl, 1, args.seconds / 2)
            summary = worker.request({"op": "trace", "on": False, "spans": str(rundir / "spans.jsonl")})
            measured = run_window(worker, wl, traced.next_cycle, args.seconds / 2)
        else:
            traced = Window([], [], [], 1, 0.0)
            measured = run_window(worker, wl, 1, args.seconds)
        worker.close()
    finally:
        worker.kill()
    # probes on both sides of the window sample more of the machine's slow drifts
    setups += [] if args.trace else [probe_import(env) for _ in range(SETUP_PROBES - len(setups))]

    records = warm + traced.records + measured.records
    failed, worst, messages = check_all(records)
    raw = [r.wall_s for r in measured.records]
    walls = measured.walls()
    tail_s, tail_pct, beyond = tail(walls)
    detail |= {
        "setup_samples_s": [p.import_s for p in setups],
        "setup_unit_s": [p.unit_s for p in setups],
        "cycles_timed": len(measured.cycle_s),
        "jobs_timed": len(raw),
        "cycle_s": measured.cycle_s,
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "speed_vs_reference": calibrate.REFERENCE_UNIT_S / statistics.median(measured.unit_s()),
        "raw_jobs_per_s": len(raw) / sum(raw),
        "raw_job_p50_s": statistics.median(raw),
        "raw_job_tail_s": tail(raw)[0],
        "failures": messages,
    }
    if args.trace:
        metrics, shares = layer_metrics(summary, traced.records)
        metrics |= imports
        untraced_rate = measured.jobs_per_s()
        metrics["trace.overhead_frac"] = (untraced_rate - traced.jobs_per_s()) / untraced_rate
        metrics["check.max_abs_err"] = worst
        detail["layer_share_of_job_time"] = shares
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": statistics.median(p.normalized() for p in setups),
            "jobs_per_s": measured.jobs_per_s(),
            "job_p50_s": statistics.median(walls),
            "job_tail_s": tail_s,
            "peak_rss_mb": measured.first_cycle_peak_mb,
            "pass_frac": (len(records) - failed) / len(records),
        }
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return detail, result


def _deadline(signum, frame):
    raise TimeoutError(f"run exceeded {DEADLINE_S} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "perturbseries" / "cli.py").is_file():
        print(f"perfbench: no perturbseries sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    rundir = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        detail, result = measure(args, rundir)
    except (SetupError, TimeoutError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(rundir / "work", ignore_errors=True)
        if rundir.is_dir() and not any(rundir.iterdir()):
            rundir.rmdir()
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
