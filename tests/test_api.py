"""The public API: every exported name, so that additions and removals are deliberate."""

from __future__ import annotations

import importlib

import pytest

import perturbseries

PUBLIC = [
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

# Each submodule's own export list, so that a name leaving the package
# cannot linger in the module it came from.
SUBMODULES = {
    "model": [
        "DEFAULT_DEGENERACY_TOL", "IncompleteDegeneracyRemoval", "SystemSpec", "SplitSystem",
        "redivide",
    ],
    "series": ["DEFAULT_L_MAX", "AmplitudeMatrix", "amplitude_order"],
    "oracle": ["ExactSolution", "hermitian_eigh", "diagonalize", "exact_transition_probability"],
    "ddkernel": ["NodeList", "dd_exp"],
    "terms": [
        "TermCatalog", "TermLabel", "enumerate_catalog", "eval_closed_term",
        "split_t_power_parts",
    ],
    "improved": [
        "GoldenRuleInput", "RevisionEnergies", "golden_rule", "improved_amplitude",
        "improved_perturbed_energy", "improved_perturbed_state",
        "improved_transition_probability", "revision_energies",
    ],
    "cli": ["RunConfig", "main", "parse_spec_file", "run"],
}


def test_public_names_are_pinned():
    assert perturbseries.__all__ == PUBLIC
    assert len(PUBLIC) == 25


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert hasattr(perturbseries, name), name


@pytest.mark.parametrize("module", sorted(SUBMODULES))
def test_submodule_names_are_pinned(module):
    mod = importlib.import_module(f"perturbseries.{module}")
    assert mod.__all__ == SUBMODULES[module]
    for name in mod.__all__:
        assert hasattr(mod, name), name
