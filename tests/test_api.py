"""The public API: every exported name, so that additions and removals are deliberate."""

from __future__ import annotations

import importlib
import math

import pytest

import perturbseries
from perturbseries import (
    NodeList,
    amplitude_order,
    enumerate_catalog,
    eval_closed_term,
    improved_amplitude,
    improved_transition_probability,
    split_t_power_parts,
)

from helpers import two_state

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


#: Every public route that takes one time, called at time ``t``.
SINGLE_TIME_ROUTES = {
    "NodeList": lambda sys, t: NodeList([0.0, 1.0], t),
    "amplitude_order": lambda sys, t: amplitude_order(sys, 2, t),
    "improved_amplitude": lambda sys, t: improved_amplitude(sys, 2, t),
    "eval_closed_term": lambda sys, t: eval_closed_term(sys, enumerate_catalog(2).labels, t, 0, 1),
    "split_t_power_parts": lambda sys, t: split_t_power_parts(sys, 2, t),
    "improved_transition_probability": lambda sys, t: improved_transition_probability(sys, 0, 1, t),
}


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("route", sorted(SINGLE_TIME_ROUTES))
def test_single_time_routes_refuse_a_non_finite_time(route, t):
    name = "duration" if route == "improved_transition_probability" else "t"
    with pytest.raises(ValueError, match=f"^{name} must be a finite number, got {t!r}$"):
        SINGLE_TIME_ROUTES[route](two_state(), t)
