"""Time-evolution series and frequency-renormalized perturbation tools.

The package splits a small Hermitian Hamiltonian into a solvable diagonal
part plus a strictly off-diagonal residual coupling, evaluates the
resulting time-evolution series order by order as the blocks of one
block-Toeplitz matrix exponential, and builds the improved (renormalized-
frequency) approximations in which secular growth is resummed into
corrected level energies.
"""

from __future__ import annotations

from .ddkernel import NodeList, dd_exp, dd_exp_parts
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
    DegeneracyStructure,
    IncompleteDegeneracyRemoval,
    SplitSystem,
    SystemSpec,
    ValidationReport,
    find_degeneracies,
    redivide,
    validate,
)
from .oracle import (
    ConvergenceError,
    ExactSolution,
    diagonalize,
    exact_transition_probability,
    hermitian_eigh,
    two_state_closed_form,
)
from .series import (
    amplitude_order,
    evolve_truncated,
    transition_amplitude,
)
from .terms import (
    TermCatalog,
    TermLabel,
    enumerate_catalog,
    eval_closed_term,
    split_t_power_parts,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DegeneracyStructure",
    "ExactSolution",
    "GoldenRuleInput",
    "IncompleteDegeneracyRemoval",
    "NodeList",
    "RevisionEnergies",
    "SplitSystem",
    "SystemSpec",
    "TermCatalog",
    "TermLabel",
    "ValidationReport",
    "__version__",
    "amplitude_order",
    "dd_exp",
    "dd_exp_parts",
    "diagonalize",
    "enumerate_catalog",
    "eval_closed_term",
    "evolve_truncated",
    "exact_transition_probability",
    "find_degeneracies",
    "golden_rule",
    "hermitian_eigh",
    "improved_amplitude",
    "improved_perturbed_energy",
    "improved_perturbed_state",
    "improved_transition_probability",
    "redivide",
    "revision_energies",
    "split_t_power_parts",
    "transition_amplitude",
    "two_state_closed_form",
    "validate",
]
