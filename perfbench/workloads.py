"""Seeded inputs and job cycles of the benchmark workloads.

Every system is a zero-diagonal Hermitian coupling on jittered-lattice level
energies: level k sits at spacing * (k + u_k) with |u_k| <= 0.2, so
neighbouring levels stay at least 0.6 spacings apart at any size and no
rejection loop is needed.  Redivision of such a system is the exact identity
(E' = E and g = h1 bit for bit), so the references work on the generated
arrays directly.

A workload is a fixed cycle of job slots, and a slot may recur in a cycle.
Each slot draws VARIANTS systems from the seed and its occurrences take them
in turn, so every cycle does the same kind and amount of work.  run.py runs
whole cycles only, which keeps the job mix, and with it the median and the
tail, fixed from run to run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

VARIANTS = 4

#: Time at which every evolve job ends ("reaches t ~ 40").
EVOLVE_T_END = 40.0

WORKLOADS = ("evolve-dense", "compare-chain", "reports-mixed")


@dataclass(frozen=True)
class System:
    energies: np.ndarray
    coupling: np.ndarray

    def document(self) -> dict:
        return {
            "dimension": int(self.energies.shape[0]),
            "energies": [float(x) for x in self.energies],
            "h1": [[[float(z.real), float(z.imag)] for z in row] for row in self.coupling],
        }


@dataclass(frozen=True)
class Job:
    """One CLI call and what its check needs.

    Jobs with the same ``key`` make byte-identical reports, so the check
    runs once per key.  ``key`` is None for a job that must be checked on
    its own (a terms job at its own time).
    """

    kind: str
    key: tuple | None
    argv: tuple[str, ...]
    output: Path
    params: dict = field(repr=False)


def lattice(rng: np.random.Generator, n: int, spacing: float) -> np.ndarray:
    return spacing * (np.arange(n) + rng.uniform(-0.2, 0.2, n))


def _hermitian(upper: np.ndarray) -> np.ndarray:
    # mirror an exactly upper-triangular matrix, so g == g^H bit for bit
    return upper + upper.conj().T


def dense_coupling(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    upper = np.zeros((n, n), dtype=np.complex128)
    iu = np.triu_indices(n, 1)
    k = iu[0].shape[0]
    upper[iu] = scale * (rng.normal(size=k) + 1j * rng.normal(size=k)) / np.sqrt(2.0)
    return _hermitian(upper)


def chain_coupling(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    upper = np.zeros((n, n), dtype=np.complex128)
    k = np.arange(n - 1)
    upper[k, k + 1] = scale * (rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)) / np.sqrt(2.0)
    return _hermitian(upper)


def _grid_args(ts: tuple[float, float, int]) -> list[str]:
    return ["--t-start", repr(ts[0]), "--t-end", repr(ts[1]), "--t-steps", str(ts[2])]


# Slot tables.  evolve-dense: (n, order, time points); the two n=6, L=4
# slots make the slowest kind a fifth of the jobs, so the tail percentile
# (ten samples beyond it) always falls inside one kind.  Order 6 runs only
# at n=4.
EVOLVE_SLOTS = (
    (4, 2, 4), (4, 4, 3), (5, 3, 3), (6, 3, 2), (5, 4, 2),
    (4, 6, 2), (5, 5, 1), (6, 4, 1), (6, 4, 1),
)
# compare-chain: chain lengths, two time points each; an odd slot count
# keeps the median inside the n=36 kind.
COMPARE_SLOTS = (32, 34, 36, 36, 38, 40, 40)
COMPARE_TIMES = (20.0, 40.0, 2)
TWO_STATE_TIMES = (0.0, 60.0, 101)
# reports-mixed: one n=24 energies job (the slowest kind) per cycle, then
# rounds of the short kinds.  A run then holds a few dozen energies jobs, so
# the tail (ten samples beyond it) lands inside their main body instead of on
# the host's rarest stalls, and it moves with the energies job.  A round runs
# terms twice, so the median falls inside the terms jobs (catalog and
# golden-rule are faster, two-state slower) instead of on the gap between
# two kinds.
SHORT_ROUND = (1, 2, 3, 4, 3)
SHORT_REPEATS = 8


class Workload:
    """The job cycle of one named workload, with its inputs written to disk."""

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.seed = seed
        self.indir = workdir / "in"
        self.outdir = workdir / "out"
        self.indir.mkdir(parents=True, exist_ok=True)
        self.outdir.mkdir(parents=True, exist_ok=True)
        make = {
            "evolve-dense": self._evolve_dense,
            "compare-chain": self._compare_chain,
            "reports-mixed": self._reports_mixed,
        }[name]
        self.slots: list[list[dict]] = make()
        # slot indices in the order one cycle runs them
        self.order: list[int] = (
            [0, *SHORT_ROUND * SHORT_REPEATS] if name == "reports-mixed" else list(range(len(self.slots)))
        )

    def _rngs(self, count: int) -> list[np.random.Generator]:
        index = WORKLOADS.index(self.name)
        seqs = np.random.SeedSequence([self.seed, index]).spawn(count)
        return [np.random.default_rng(s) for s in seqs]

    def _write(self, slot: int, variant: int, doc: dict) -> Path:
        path = self.indir / f"s{slot}v{variant}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def _evolve_dense(self) -> list[list[dict]]:
        slots = []
        for s, ((n, order, steps), rng) in enumerate(zip(EVOLVE_SLOTS, self._rngs(len(EVOLVE_SLOTS)))):
            variants = []
            for v in range(VARIANTS):
                system = System(lattice(rng, n, 0.6), dense_coupling(rng, n, 0.03))
                variants.append({
                    "kind": "evolve",
                    "system": system,
                    "path": self._write(s, v, system.document()),
                    "order": order,
                    "initial": int(rng.integers(n)),
                    "ts": (EVOLVE_T_END / steps, EVOLVE_T_END, steps),
                })
            slots.append(variants)
        return slots

    def _compare_chain(self) -> list[list[dict]]:
        slots = []
        for s, (n, rng) in enumerate(zip(COMPARE_SLOTS, self._rngs(len(COMPARE_SLOTS)))):
            variants = []
            for v in range(VARIANTS):
                system = System(lattice(rng, n, 0.1), chain_coupling(rng, n, 0.005))
                variants.append({
                    "kind": "compare",
                    "system": system,
                    "path": self._write(s, v, system.document()),
                    "order": 3,
                    "ts": COMPARE_TIMES,
                })
            slots.append(variants)
        return slots

    def _reports_mixed(self) -> list[list[dict]]:
        rng_e, rng_g, rng_2, rng_t = self._rngs(4)
        energies, golden, two_state, terms = [], [], [], []
        for v in range(VARIANTS):
            system = System(lattice(rng_e, 24, 0.25), dense_coupling(rng_e, 24, 0.004))
            energies.append({"kind": "energies", "system": system,
                             "path": self._write(0, v, system.document())})

            system = System(lattice(rng_g, 6, 0.5), dense_coupling(rng_g, 6, 0.03))
            block = _continuum(rng_g, system)
            golden.append({"kind": "golden-rule", "system": system, "golden": block,
                           "path": self._write(1, v, system.document() | {"golden_rule": block})})

            e1 = float(rng_2.uniform(-0.5, 0.5))
            two_state.append({"kind": "two-state", "e1": e1, "e2": e1 + float(rng_2.uniform(0.8, 1.6)),
                              "v": float(rng_2.uniform(0.03, 0.12)), "ts": TWO_STATE_TIMES})

            system = System(lattice(rng_t, 5, 0.5), dense_coupling(rng_t, 5, 0.03))
            terms.append({"kind": "terms", "system": system, "order": 4,
                          "path": self._write(3, v, system.document()),
                          "levels": tuple(int(x) for x in rng_t.integers(5, size=2))})
        catalog = [{"kind": "catalog", "order": 6}]
        return [energies, golden, two_state, terms, catalog]

    def cycle(self, c: int) -> list[Job]:
        """The jobs of cycle c, in the order they run."""
        jobs = []
        repeats = [self.order.count(s) for s in range(len(self.slots))]
        seen = [0] * len(self.slots)
        for s in self.order:
            j = seen[s]
            seen[s] += 1
            variants = self.slots[s]
            v = (c * repeats[s] + j) % len(variants)
            p = dict(variants[v])
            out = self.outdir / f"s{s}.csv"
            kind = p["kind"]
            key: tuple | None = (s, v)
            if kind == "evolve":
                argv = ["evolve", "--input", str(p["path"]), "--output", str(out),
                        "--order", str(p["order"]), "--initial", str(p["initial"]), *_grid_args(p["ts"])]
            elif kind == "compare":
                argv = ["compare", "--input", str(p["path"]), "--output", str(out),
                        "--order", str(p["order"]), *_grid_args(p["ts"])]
            elif kind == "energies":
                argv = ["energies", "--input", str(p["path"]), "--output", str(out)]
            elif kind == "golden-rule":
                argv = ["golden-rule", "--input", str(p["path"]), "--output", str(out)]
            elif kind == "two-state":
                argv = ["two-state", "--output", str(out), "--e1", repr(p["e1"]), "--e2", repr(p["e2"]),
                        "--v", repr(p["v"]), *_grid_args(p["ts"])]
            elif kind == "terms":
                # A fresh time per job: a CLI process starts with a cold
                # kernel cache, so no job may reuse another job's entries.
                rng = np.random.default_rng([self.seed, WORKLOADS.index(self.name), c, j])
                p["time"] = float(rng.uniform(0.5, 4.0))
                key = None
                argv = ["terms", "--input", str(p["path"]), "--output", str(out), "--order", str(p["order"]),
                        "--time", repr(p["time"]), "--from-level", str(p["levels"][0]),
                        "--to-level", str(p["levels"][1])]
            else:
                argv = ["terms", "--output", str(out), "--order", str(p["order"])]
            jobs.append(Job(kind=kind, key=key, argv=tuple(argv), output=out, params=p))
        return jobs


def _continuum(rng: np.random.Generator, system: System) -> dict:
    """An 801-point continuum centred near level 0, wide enough for T = 50."""
    duration = 50.0
    half_width = 1.1 * 200.0 / duration
    points = 801
    step = 2.0 * half_width / (points - 1)
    # the offset keeps every grid point off the resonance itself
    grid = system.energies[0] + np.linspace(-half_width, half_width, points) + rng.uniform(0.2, 0.8) * step
    phase = rng.uniform(0.0, 2.0 * np.pi)
    density = 1.0 + 0.3 * np.sin(grid + phase)
    coupling_sq = 0.002 * (1.0 + 0.5 * np.cos(2.0 * grid - phase))
    return {
        "energy_grid": [float(x) for x in grid],
        "density": [float(x) for x in density],
        "coupling_sq": [float(x) for x in coupling_sq],
        "duration": duration,
        "initial": 0,
        "final": int(rng.integers(1, system.energies.shape[0])),
    }
