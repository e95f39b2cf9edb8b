"""The public API: every exported name, so that additions and removals are deliberate."""

from __future__ import annotations

import perturbseries

PUBLIC = [
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


def test_public_names_are_pinned():
    assert perturbseries.__all__ == PUBLIC
    assert len(PUBLIC) == 32


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert hasattr(perturbseries, name), name
