"""The public namespace: every exported name resolves, and only the batched engine ships."""

import importlib

import pytest

import levygrad


def test_every_exported_name_resolves():
    assert len(set(levygrad.__all__)) == len(levygrad.__all__)
    for name in levygrad.__all__:
        assert getattr(levygrad, name) is not None, name


def test_per_path_reference_is_not_exported():
    # The one-path-at-a-time flow and weight live in tests/reference.py.
    for name in (
        "FlowState", "PathRealization", "sample_increments", "evolve_drift",
        "apply_jump", "simulate_flow", "accumulate_weight", "BismutWeight",
        "RejectedPathError", "directional_sigma_derivative",
    ):
        assert not hasattr(levygrad, name), name
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("levygrad.flow")
