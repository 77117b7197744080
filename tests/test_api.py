"""The public namespace: every exported name resolves, and only the batched engine ships."""

import importlib
import json
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
    # scipy is a test dependency only, and a cold import of it is slow
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, levygrad; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_runs_with_scipy_unimportable(tmp_path):
    # the moments report, the default cutoff and level and an R="auto"
    # estimate, with every scipy import failing
    cfg = tmp_path / "moments.json"
    cfg.write_text(json.dumps({"alpha": 1.5, "t": 2.0, "gammas": [0.5, 1.0, 2.5]}))
    code = f"""
import sys
sys.modules["scipy"] = None
import numpy as np
import levygrad as lg
from levygrad import cli

assert cli.main(["moments", {str(cfg)!r}]) == cli.EXIT_PASS
spec = lg.BernsteinSpec.alpha_stable(1.5)
assert lg.default_level_R(spec, 0.5) > 0 and lg.default_eps_cut(spec, 0.5) > 0
res = lg.estimate_gradient(
    np.array([0.3, 0.0]), np.array([1.0, 0.5]), lg.make_observable("tanh1"),
    lg.catalog("bounded_multiplicative", 2), spec, 0.5, "auto", 200, None, 5,
)
assert res.n_samples == 200 and np.isfinite(res.mean)
"""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
