"""Layer-boundary spans recorded from outside the package.

A Tracer replaces module attributes at each layer boundary with wrappers that
record a span (id, parent id, name, start, end, info) in memory.  remove()
puts every original object back.  A boundary whose module or attribute does
not exist is skipped, so its layer records zero calls and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute path, span name); the layer is the name's first part.
BOUNDARIES = (
    ("perturbseries.series", "_dd_value", "ddkernel"),
    ("perturbseries.terms", "_dd_value", "ddkernel"),
    ("perturbseries.cli", "_truncated_sum_grid", "series"),
    ("perturbseries.cli", "improved_amplitude", "improved.amplitude"),
    ("perturbseries.improved", "revision_energies", "improved.revision"),
    ("perturbseries.cli", "revision_energies", "improved.revision"),
    ("perturbseries.cli", "improved_transition_probability", "improved.transition"),
    ("perturbseries.cli", "golden_rule", "improved.golden_rule"),
    ("perturbseries.improved", "simpson", "improved.quadrature"),
    ("perturbseries.cli", "diagonalize", "oracle.diagonalize"),
    ("perturbseries.oracle", "ExactSolution.propagator", "oracle.propagator"),
    ("perturbseries.cli", "eval_closed_term", "terms.eval"),
    ("perturbseries.cli", "redivide", "model.redivide"),
    ("perturbseries.cli", "_load_document", "cli.parse"),
    ("perturbseries.cli", "_write_report", "cli.write"),
)

JOB = "job"


def _node_count(args: tuple) -> int:
    return len(args[0])


def _system_key(args: tuple) -> int:
    system = args[0]
    try:
        return hash((system.energies_redivided.tobytes(), system.g.tobytes()))
    except AttributeError:
        return id(system)


# What a span records besides its times.
_INFO = {"ddkernel": _node_count, "improved.revision": _system_key}


def resolve(module_name: str, path: str) -> tuple[object, str, object]:
    """(owner, attribute, original object); raises LookupError if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(module_name) from exc
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"{module_name}.{path}")
    try:
        return owner, attr, vars(owner)[attr]
    except KeyError as exc:
        raise LookupError(f"{module_name}.{path}") from exc


class Tracer:
    def __init__(self, boundaries=BOUNDARIES) -> None:
        self.boundaries = boundaries
        self.spans: list[tuple | None] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, path, name in self.boundaries:
            try:
                owner, attr, original = resolve(module_name, path)
            except LookupError:
                self.missing.append(f"{module_name}:{path}")
                continue
            setattr(owner, attr, self._wrap(original, name))
            self._patched.append((owner, attr, original))

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _open(self) -> tuple[int, int | None]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _wrap(self, fn, name: str):
        info_of = _INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[sid] = (sid, parent, name, start, end, info_of(args) if info_of else None)

        return wrapper

    @contextmanager
    def job(self):
        """Root span of one CLI call."""
        sid, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, JOB, start, end, None)


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def summarize(spans: list[tuple]) -> dict:
    """Per span name: calls, total and self seconds; plus info aggregates.

    Self time is a span's duration minus the part of it that its child
    spans cover.  ``revision_systems`` counts, per job, the distinct systems
    whose revisions were computed.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    job_of: dict[int, int] = {}
    for sid, parent, name, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
        job_of[sid] = sid if parent is None else job_of[parent]
    stats: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    nodes = 0
    systems: set[tuple[int, int]] = set()
    for sid, parent, name, start, end, info in spans:
        s = stats[name]
        s["calls"] += 1
        s["total_s"] += end - start
        s["self_s"] += end - start - _covered(
            [(max(a, start), min(b, end)) for a, b in children.get(sid, ())]
        )
        if name == "ddkernel":
            nodes += info
        elif name == "improved.revision":
            systems.add((job_of[sid], info))
    return {"stats": dict(stats), "ddkernel_nodes": nodes, "revision_systems": len(systems)}
