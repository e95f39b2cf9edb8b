"""Time-evolution series and frequency-renormalized perturbation tools.

The package splits a small Hermitian Hamiltonian into a solvable diagonal
part plus a strictly off-diagonal residual coupling, evaluates the
resulting time-evolution series order by order as the blocks of one
block-Toeplitz matrix exponential, and builds the improved (renormalized-
frequency) approximations in which secular growth is resummed into
corrected level energies.
"""

from __future__ import annotations

from .ddkernel import NodeList, dd_exp
from .improved import (
    GoldenRuleInput,
    RevisionEnergies,
    golden_rule,
    improved_amplitude,
    improved_perturbed_energy,
    improved_perturbed_state,
    improved_transition_probability,
    revision_energies,
)
from .model import (
    IncompleteDegeneracyRemoval,
    SplitSystem,
    SystemSpec,
    redivide,
)
from .oracle import (
    ExactSolution,
    diagonalize,
    exact_transition_probability,
    hermitian_eigh,
)
from .series import amplitude_order
from .terms import (
    TermCatalog,
    TermLabel,
    enumerate_catalog,
    eval_closed_term,
    split_t_power_parts,
)

__version__ = "0.1.0"

__all__ = [
    "ExactSolution",
    "GoldenRuleInput",
    "IncompleteDegeneracyRemoval",
    "NodeList",
    "RevisionEnergies",
    "SplitSystem",
    "SystemSpec",
    "TermCatalog",
    "TermLabel",
    "__version__",
    "amplitude_order",
    "dd_exp",
    "diagonalize",
    "enumerate_catalog",
    "eval_closed_term",
    "exact_transition_probability",
    "golden_rule",
    "hermitian_eigh",
    "improved_amplitude",
    "improved_perturbed_energy",
    "improved_perturbed_state",
    "improved_transition_probability",
    "redivide",
    "revision_energies",
    "split_t_power_parts",
]
