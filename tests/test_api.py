"""The public namespace: every exported name resolves, and only the batched engine ships."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

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


def test_import_leaves_scipy_out():
    # scipy.integrate takes most of a cold import; only inverse_moment needs it
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, levygrad; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
