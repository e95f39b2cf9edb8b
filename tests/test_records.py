"""Every public record keeps read-only copies of the arrays it is built from."""

from __future__ import annotations

import numpy as np
import pytest

from perturbseries import (
    GoldenRuleInput,
    NodeList,
    RevisionEnergies,
    SplitSystem,
    SystemSpec,
)
from perturbseries.series import AmplitudeMatrix


def _inputs() -> dict[str, tuple[type, dict[str, object]]]:
    """Each record with arguments whose arrays already have the stored dtype,
    so a record that kept them without copying would share their memory."""
    levels = np.array([0.0, 1.0, 2.5])
    coupling = np.array([[0, 0.1j, 0], [-0.1j, 0, 0.2], [0, 0.2, 0]])
    return {
        "NodeList": (NodeList, {"nodes": levels.copy(), "t": 1.5}),
        "SystemSpec": (SystemSpec, {"energies": levels.copy(), "h1": coupling.copy()}),
        "SplitSystem": (SplitSystem, {
            "energies_redivided": levels + 0.01,
            "g": coupling.copy(),
            "basis_rotation": np.eye(3, dtype=np.complex128),
            "energies_original": levels.copy(),
        }),
        "AmplitudeMatrix": (AmplitudeMatrix, {"order": 2, "t": 1.5, "values": coupling.copy()}),
        "GoldenRuleInput": (GoldenRuleInput, {
            "energy_grid": np.linspace(-1.0, 1.0, 5),
            "density_of_states": np.full(5, 0.7),
            "coupling_profile": np.full(5, 0.01),
            "duration": 10.0,
            "initial_level": 0,
        }),
        "RevisionEnergies": (RevisionEnergies, {
            "energies": levels.copy(),
            "h1": np.zeros(3),
            "revisions": np.array([[0.1, -0.2, 0.1], [0.0, 0.01, -0.01]]),
            "imag_residual": 0.0,
        }),
    }


@pytest.mark.parametrize("name", sorted(_inputs()))
def test_records_hold_read_only_copies(name):
    cls, kwargs = _inputs()[name]
    record = cls(**kwargs)
    arrays = {field: value for field, value in kwargs.items() if isinstance(value, np.ndarray)}
    for field, given in arrays.items():
        stored = getattr(record, field)
        assert stored.dtype == given.dtype and not np.shares_memory(stored, given)
        before = stored.copy()
        given += 1.0
        np.testing.assert_array_equal(stored, before, err_msg=f"{name}.{field} follows its input")
        with pytest.raises(ValueError, match="read-only"):
            stored[...] = 0.0
        np.testing.assert_array_equal(stored, before)
