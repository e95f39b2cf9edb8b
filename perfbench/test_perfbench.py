"""Tests of the benchmark itself: inputs, checks and tracing."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import calibrate
import references
import run
import spans
import workloads

cli = pytest.importorskip("perturbseries.cli")


def _run_jobs(jobs: list[workloads.Job]) -> list[run.Record]:
    records = []
    for job in jobs:
        cli.main(list(job.argv), standalone_mode=False)
        records.append(run.Record(job, 0.0, True, job.output.read_text(encoding="utf-8"), None))
    return records


def _one_of_each_kind(jobs: list[workloads.Job]) -> list[workloads.Job]:
    kinds: dict[str, workloads.Job] = {}
    for job in jobs:
        kinds.setdefault(job.kind, job)
    return list(kinds.values())


def _inputs(wl: workloads.Workload) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(wl.indir.iterdir())}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(tmp_path: Path, name: str) -> None:
    first = workloads.Workload(name, 7, tmp_path / "a")
    again = workloads.Workload(name, 7, tmp_path / "b")
    other = workloads.Workload(name, 8, tmp_path / "c")
    assert _inputs(first) == _inputs(again)
    assert _inputs(first) != _inputs(other)
    for c in range(3):
        argv = [[a.replace(str(tmp_path / "a"), "") for a in j.argv] for j in first.cycle(c)]
        assert argv == [[a.replace(str(tmp_path / "b"), "") for a in j.argv] for j in again.cycle(c)]


def test_generated_systems_are_exactly_hermitian_and_spaced(tmp_path: Path) -> None:
    wl = workloads.Workload("reports-mixed", 3, tmp_path)
    system = wl.slots[0][0]["system"]
    assert (system.coupling == system.coupling.conj().T).all()
    assert (system.coupling.diagonal() == 0).all()
    assert min(system.energies[1:] - system.energies[:-1]) >= 0.6 * 0.25 - 1e-12


def _perturb(text: str, column: str, delta: float) -> str:
    lines = text.splitlines()
    table = [i for i, line in enumerate(lines) if not line.startswith("#")]
    header = lines[table[0]].split(",")
    row = lines[table[1]].split(",")
    col = header.index(column)
    row[col] = repr(float(row[col]) + delta)
    lines[table[1]] = ",".join(row)
    return "\n".join(lines) + "\n"


def test_injected_error_counts_as_failed(tmp_path: Path) -> None:
    wl = workloads.Workload("reports-mixed", 11, tmp_path / "mixed")
    evolve = workloads.Workload("evolve-dense", 11, tmp_path / "evolve")
    records = _run_jobs(_one_of_each_kind(wl.cycle(0))) + _run_jobs(evolve.cycle(0)[:1])
    failed, worst, _ = run.check_all(records)
    assert failed == 0 and worst < 1e-11

    columns = {"energies": "e_exact", "golden-rule": "delta_w", "two-state": "p_improved",
               "terms": "value_re", "evolve": "c0_im"}
    for record in records:
        if record.job.kind not in columns:
            continue
        bad = run.Record(record.job, 0.0, True, _perturb(record.text, columns[record.job.kind], 1e-9), None)
        failed, _, messages = run.check_all([record, bad])
        assert failed == 1, record.job.kind
        assert columns[record.job.kind] in messages[0] or "sum value_re" in messages[0]


def test_missing_report_counts_as_failed(tmp_path: Path) -> None:
    job = workloads.Workload("reports-mixed", 1, tmp_path).cycle(0)[0]
    failed, _, _ = run.check_all([run.Record(job, 0.0, False, None, "boom")])
    assert failed == 1


def _boundary_objects() -> dict[tuple[str, str], object]:
    out = {}
    for module, path, _ in spans.BOUNDARIES:
        try:
            owner, attr, original = spans.resolve(module, path)
        except LookupError:
            continue
        out[(module, path)] = original
    return out


def test_tracer_wrappers_are_fully_removed(tmp_path: Path) -> None:
    before = _boundary_objects()
    assert before, "no boundary of the package could be found"
    tracer = spans.Tracer()
    tracer.install()
    assert all(spans.resolve(m, p)[2] is not before[(m, p)] for m, p in before)
    try:
        with tracer.job():
            _run_jobs(_one_of_each_kind(workloads.Workload("reports-mixed", 5, tmp_path).cycle(0)))
    finally:
        tracer.remove()
    assert _boundary_objects() == before
    assert all(spans.resolve(m, p)[2] is before[(m, p)] for m, p in before)
    names = {s[2] for s in tracer.spans}
    assert {"job", "cli.write", "oracle.diagonalize"} <= names


def test_missing_boundary_records_zero_calls(tmp_path: Path) -> None:
    boundaries = spans.BOUNDARIES + (
        ("perturbseries.series", "_no_such_walk", "series"),
        ("perturbseries.no_such_module", "anything", "series"),
    )
    # drop the real series boundary, so the layer exists only as missing ones
    boundaries = tuple(b for b in boundaries if b[1] != "_truncated_sum_grid")
    tracer = spans.Tracer(boundaries)
    tracer.install()
    try:
        job = workloads.Workload("evolve-dense", 5, tmp_path).cycle(0)[0]
        with tracer.job():
            records = _run_jobs([job])
    finally:
        tracer.remove()
    assert len(tracer.missing) == 2
    summary = spans.summarize(tracer.spans) | {"cache_hits": 0, "cache_misses": 0}
    metrics, _ = run.layer_metrics(summary, records)
    assert metrics["series.grid_calls"] == 0 and metrics["series.self_s"] == 0
    assert metrics["ddkernel.calls"] > 0
    assert set(metrics) | {"setup.import_s", "setup.scipy_integrate_import_s", "trace.overhead_frac",
                           "check.max_abs_err"} == set(run.PER_LAYER)


def test_self_time_subtracts_child_coverage() -> None:
    recorded = [
        (0, None, "job", 0.0, 10.0, None),
        (1, 0, "series", 1.0, 6.0, None),
        (2, 1, "ddkernel", 2.0, 4.0, 3),
        (3, 1, "ddkernel", 3.0, 5.0, 5),
    ]
    summary = spans.summarize(recorded)
    assert summary["stats"]["series"]["self_s"] == pytest.approx(2.0)
    assert summary["stats"]["job"]["self_s"] == pytest.approx(5.0)
    assert summary["stats"]["ddkernel"]["calls"] == 2
    assert summary["ddkernel_nodes"] == 8


def test_tail_has_ten_samples_beyond() -> None:
    value, percentile, beyond = run.tail([float(i) for i in range(100)])
    assert (value, percentile, beyond) == (89.0, 90.0, 10)


def test_walls_are_scaled_by_the_calibration_next_to_each_job(tmp_path: Path) -> None:
    ref = calibrate.REFERENCE_UNIT_S
    job = workloads.Workload("reports-mixed", 1, tmp_path).cycle(0)[0]
    records = [run.Record(job, wall, True, "", None) for wall in (1.0, 3.0)]
    # unit time at the reference before job 0, twice it between the jobs, again the reference after job 1
    window = run.Window(records, [(10, 10 * ref), (10, 20 * ref), (30, 30 * ref)], [4.0], 2, 80.0)
    assert window.unit_s() == pytest.approx([1.5 * ref, 1.25 * ref])
    assert window.walls() == pytest.approx([1.0 / 1.5, 3.0 / 1.25])
    assert window.jobs_per_s() == pytest.approx(2 / (1.0 / 1.5 + 3.0 / 1.25))


def test_calibration_slice_runs_whole_units() -> None:
    units, seconds = calibrate.run_slice(0.0)
    assert units == 2 and seconds > 0
    units, seconds = calibrate.run_slice(0.02)
    assert units > 2 and seconds >= 0.02


def test_benchmark_json_names_the_reported_metrics() -> None:
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_references_agree_with_closed_forms() -> None:
    np = pytest.importorskip("numpy")
    e = np.array([0.0, 1.0])
    g = np.array([[0.0, 0.1], [0.1, 0.0]], dtype=complex)
    rev = references.rs_revisions(e, g, 4)
    assert rev[2] == pytest.approx([-0.01, 0.01], abs=1e-17)
    assert rev[4] == pytest.approx([1e-4, -1e-4], abs=1e-17)
    blocks = references.series_blocks(e, g, 1, 2.0)
    assert blocks[1][0, 1] == pytest.approx(0.1 * (1.0 - np.exp(-2j)) / (0.0 - 1.0), abs=1e-15)
