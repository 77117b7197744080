"""The public namespace: every exported name resolves, and only the batched engine ships."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import levygrad
from levygrad import engine


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


# float(True) is 1.0 and float("0.5") is 0.5: each of these ran when handed a
# boolean, or ran on (or failed deep inside the sampler with) a string
SPEC = levygrad.BernsteinSpec.alpha_stable(1.5)
START = dict(x=[0.3, 0.0], f=levygrad.make_observable("tanh1"),
             field=levygrad.catalog("bounded_multiplicative", 2), spec=SPEC)
BOUND = dict(field=START["field"], spec=SPEC, f=START["f"], x=START["x"], p=2.0, n_paths=10,
             seed=1)
PATH = levygrad.JumpPath(1.0, [0.2, 0.5], [0.4, 0.8])
FLOAT_SCALARS = {
    "R": lambda flag: levygrad.estimate_gradient(
        v=[1.0, 0.5], t=0.5, R=flag, n_paths=10, eps_cut=3e-2, seed=1, **START),
    "eps_cut": lambda flag: levygrad.estimate_gradient(
        v=[1.0, 0.5], t=0.5, R="auto", n_paths=10, eps_cut=flag, seed=1, **START),
    "h": lambda flag: levygrad.fd_gradient(
        v=[1.0, 0.5], t=0.5, h=flag, n_paths=10, seed=1, eps_cut=3e-2, **START),
    "t": lambda flag: levygrad.estimate_pt(t=flag, n_paths=10, seed=1, eps_cut=3e-2, **START),
    "alpha": lambda flag: levygrad.BernsteinSpec.alpha_stable(flag),
    # BernsteinSpec(True) ran at alpha = True, and "1.5" raised a bare TypeError
    "alpha of the constructor": lambda flag: levygrad.BernsteinSpec(flag),
    "t_grid": lambda flag: levygrad.check_gradient_bound(t_grid=[0.5, flag], **BOUND),
    "eps_cut_at_1": lambda flag: levygrad.check_gradient_bound(
        t_grid=[0.5, 1.0], eps_cut_at_1=flag, **BOUND),
    "t of the fixed clock": lambda flag: levygrad.estimate_gradient_fixed_clock(
        START["x"], [1.0, 0.5], START["f"], START["field"], PATH,
        levygrad.ClockSpec.cap_at_first_passage(1.0), flag, 10, 1),
    "p": lambda flag: levygrad.check_gradient_bound(t_grid=[0.5, 1.0], **dict(BOUND, p=flag)),
    "slope_tolerance": lambda flag: levygrad.check_gradient_bound(
        t_grid=[0.5, 1.0], slope_tolerance=flag, **BOUND),
    "horizon of a fixed clock's path": lambda flag: levygrad.estimate_gradient_fixed_clock(
        START["x"], [1.0, 0.5], START["f"], START["field"], levygrad.JumpPath(flag, [0.5], [1.0]),
        levygrad.ClockSpec.cap_at_first_passage(1.0), 0.5, 10, 1),
    "eps_mollify": lambda flag: levygrad.counterexample_moments(flag, 10, 1e-3, 1),
    "grid_step": lambda flag: levygrad.counterexample_moments(0.1, 10, flag, 1),
    "eps_list": lambda flag: levygrad.truncation_convergence_check(
        PATH, levygrad.ClockSpec.cap_at_first_passage(1.0), [1.0, -0.5], [flag, 0.1], 10, 1),
    # the public constants returned a number: tail_mass(1.5, True) was 0.2758
    "alpha of tail_mass": lambda flag: levygrad.tail_mass(flag, 0.1),
    "eps of tail_mass": lambda flag: levygrad.tail_mass(1.5, flag),
    "alpha of dropped_mass_rate": lambda flag: levygrad.dropped_mass_rate(flag, 0.1),
    "eps of dropped_mass_rate": lambda flag: levygrad.dropped_mass_rate(1.5, flag),
    "t of inverse_moment": lambda flag: levygrad.inverse_moment(SPEC, flag, 0.5),
    "gamma of inverse_moment": lambda flag: levygrad.inverse_moment(SPEC, 1.0, flag),
    "t of default_eps_cut": lambda flag: levygrad.default_eps_cut(SPEC, flag),
    "t of default_level_R": lambda flag: levygrad.default_level_R(SPEC, flag),
    "eps of truncate_jumps": lambda flag: levygrad.truncate_jumps(PATH, flag),
    # only the cap_at_first_passage classmethod checked R: the constructor ran at R = True
    "R of the clock constructor": lambda flag: levygrad.ClockSpec(kind="cap_at_first_passage", R=flag),
    # the two samplers ran at horizon 1.0 when handed True
    "horizon of sample_terminal_values": lambda flag: levygrad.sample_terminal_values(
        SPEC, flag, 0.1, 4, np.random.default_rng(0)),
    "horizon of sample_jump_path": lambda flag: levygrad.sample_jump_path(
        SPEC, flag, 0.1, np.random.default_rng(0)),
    # the batch sampler ran at horizon 1.0 on True and failed with a bare TypeError on "1.0"
    "horizon of sample_jump_batch": lambda flag: engine.sample_jump_batch(
        1.5, flag, 0.1, 3, np.random.default_rng(0)),
}


@pytest.mark.parametrize("flag", [True, np.True_, "0.5", b"0.5"])
@pytest.mark.parametrize("case", sorted(FLOAT_SCALARS))
def test_float_scalars_refuse_booleans_and_strings(case, flag):
    with pytest.raises(ValueError, match=f"^{case.split()[0]} must be a number, got"):
        FLOAT_SCALARS[case](flag)


# np.asarray(..., dtype=float) read True as 1.0 and "1" as 1.0: x = [True, False]
# ran at (1, 0), and so did a knot (True, False)
ARRAYS = {
    "x": lambda vec: levygrad.estimate_gradient(
        x=vec, v=[1.0, 0.5], t=0.5, R="auto", n_paths=10, eps_cut=3e-2, seed=1,
        **{k: START[k] for k in ("f", "field", "spec")}),
    "v": lambda vec: levygrad.estimate_gradient(
        v=vec, t=0.5, R="auto", n_paths=10, eps_cut=3e-2, seed=1, **START),
    "a": lambda vec: levygrad.make_observable("linear", a=vec),
    "knots": lambda vec: levygrad.ClockSpec.piecewise_linear([[0.0, 0.0], vec]),
    "knots of the constructor": lambda vec: levygrad.ClockSpec(
        kind="piecewise_linear", knots=[[0.0, 0.0], vec]),
    # JumpPath(2.0, [0.5, True], ["0.25", 0.5]) held times (0.5, 1.0) and sizes (0.25, 0.5)
    "times of a path": lambda vec: levygrad.JumpPath(2.0, vec, [0.25, 0.5]),
    "sizes of a path": lambda vec: levygrad.JumpPath(2.0, [0.5, 1.0], vec),
}


@pytest.mark.parametrize("vec", [[True, False], [1.0, np.True_], np.array([True, False]), ["1", "0"],
                                 np.array(["1", "0"]), [b"1", 0.0], [1.0, 1j], [0.5, None]])
@pytest.mark.parametrize("case", sorted(ARRAYS))
def test_arrays_refuse_booleans_and_non_numbers(case, vec):
    with pytest.raises(ValueError, match=f"^{case.split()[0]} must hold numbers only, got"):
        ARRAYS[case](vec)


def test_number_arrays_of_any_kind_are_taken():
    # integer, float32 and numpy-scalar entries are real numbers, taken exactly
    for vec in ([1, 0], np.array([1.0, 0.0], dtype=np.float32), [np.float64(1.0), np.int64(0)]):
        f = levygrad.make_observable("linear", a=vec)
        assert np.array_equal(f(np.array([[2.0, 3.0]])), [2.0])
    clock = levygrad.ClockSpec.piecewise_linear(np.array([[0, 0], [1, 2]]))
    assert clock.knots.dtype == float and clock.knots.tolist() == [[0.0, 0.0], [1.0, 2.0]]


# the flag was read by truthiness: antithetic="no" ran the antithetic estimator
@pytest.mark.parametrize("flag", ["no", b"", 1, 0, None, 1.0])
def test_antithetic_refuses_anything_but_a_bool(flag):
    with pytest.raises(ValueError, match="^antithetic must be a boolean, got"):
        levygrad.estimate_gradient(v=[1.0, 0.5], t=0.5, R="auto", n_paths=10, eps_cut=3e-2, seed=1,
                                   antithetic=flag, **START)


def test_antithetic_takes_numpy_booleans():
    for flag, key in ((np.True_, {"antithetic": 1.0}), (np.False_, {})):
        res = levygrad.estimate_gradient(v=[1.0, 0.5], t=0.5, R="auto", n_paths=10, eps_cut=3e-2,
                                         seed=1, antithetic=flag, **START)
        assert {k: v for k, v in res.diagnostics.items() if k == "antithetic"} == key


# the flag was read by truthiness: compensate_small_jumps="no" added the dropped mass
@pytest.mark.parametrize("flag", ["no", b"", 1, 0, None, 1.0])
def test_compensate_small_jumps_refuses_anything_but_a_bool(flag):
    with pytest.raises(ValueError, match="^compensate_small_jumps must be a boolean, got"):
        levygrad.sample_terminal_values(SPEC, 1.0, 0.1, 4, np.random.default_rng(0),
                                        compensate_small_jumps=flag)


def test_compensate_small_jumps_takes_numpy_booleans():
    for flag in (np.True_, np.False_):
        got = levygrad.sample_terminal_values(SPEC, 1.0, 0.1, 4, np.random.default_rng(0),
                                              compensate_small_jumps=flag)
        want = levygrad.sample_terminal_values(SPEC, 1.0, 0.1, 4, np.random.default_rng(0),
                                               compensate_small_jumps=bool(flag))
        assert got.tobytes() == want.tobytes()


# n = 2.5 failed with numpy's bare TypeError, and n = True drew one path
@pytest.mark.parametrize("n", [2.5, "4", True, np.float64(2.5), None])
def test_sample_terminal_values_refuses_a_path_count_that_is_not_an_integer(n):
    with pytest.raises(ValueError, match="^n must be an integer, got"):
        levygrad.sample_terminal_values(SPEC, 1.0, 0.1, n, np.random.default_rng(0))


# the same counts failed with numpy's bare TypeError (True with a bare ValueError)
@pytest.mark.parametrize("n", [2.5, "4", True, np.float64(2.5), None, -1])
def test_sample_jump_batch_refuses_a_path_count_that_is_not_a_count(n):
    with pytest.raises(ValueError, match="^n must be"):
        engine.sample_jump_batch(1.5, 1.0, 0.1, n, np.random.default_rng(0))


def test_sample_jump_batch_takes_integral_counts_and_real_horizons():
    want = engine.sample_jump_batch(1.5, 1.0, 0.1, 3, np.random.default_rng(0))
    for horizon, n in ((np.float64(1.0), np.int64(3)), (1, 3.0)):
        got = engine.sample_jump_batch(1.5, horizon, 0.1, n, np.random.default_rng(0))
        assert (got.n, got.horizon) == (3, 1.0)
        assert got.times.tobytes() == want.times.tobytes() and got.sizes.tobytes() == want.sizes.tobytes()


# engine.flow_batch is public: a start, a direction or marks shaped for another
# dimension or jump count failed with bare broadcast or IndexErrors, a string
# or boolean start with a bare UFuncTypeError, and a NaN or negative cap level ran
FLOW_BATCH = engine.sample_jump_batch(1.5, 0.5, 3e-2, 5, np.random.default_rng(0))
FLOW_MARKS = np.zeros((FLOW_BATCH.total, 2))
FLOW_INPUTS = {
    "x0 of the wrong length": (dict(x0=[0.3, 0.0, 0.1]), "^x0 must hold the field's 2 coordinates"),
    "a stack of starts of the wrong length": (dict(x0=[[0.3], [0.1]], v=None, level=None),
                                              "^x0 must hold the field's 2 coordinates"),
    "v of the wrong length": (dict(v=[1.0]), r"^v must have shape \(2,\)"),
    "dW with a row too few": (dict(dW=FLOW_MARKS[1:]), r"^dW must have shape \(\d+, 2\)"),
    "dW of the wrong dimension": (dict(dW=np.zeros((FLOW_BATCH.total, 3))), r"^dW must have shape"),
    "a string x0": (dict(x0=["0.3", "0"]), "^x0 must hold numbers only"),
    "a boolean x0": (dict(x0=[True, False]), "^x0 must hold numbers only"),
    "a boolean v": (dict(v=np.array([True, False])), "^v must hold numbers only"),
    "a NaN level": (dict(level=float("nan")), "^level must be positive, got nan"),
    "a negative level": (dict(level=-1.0), "^level must be positive, got -1.0"),
    "a boolean level": (dict(level=True), "^level must be a number, got True"),
}


@pytest.mark.parametrize("case", sorted(FLOW_INPUTS))
def test_flow_batch_refuses_inputs_by_name(case):
    assert FLOW_BATCH.total > 1
    given, message = FLOW_INPUTS[case]
    args = {"x0": [0.3, 0.0], "v": [1.0, 0.5], "dW": FLOW_MARKS, "level": 1.0, **given}
    with pytest.raises(ValueError, match=message):
        engine.flow_batch(args["x0"], args["v"], START["field"], FLOW_BATCH, args["dW"], 10,
                          level=args["level"])
