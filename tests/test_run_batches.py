"""The batch-run skeleton shared by every estimator: counts, checks, determinism."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from levygrad import (
    BernsteinSpec,
    ClockSpec,
    JumpPath,
    burkholder_isometry_check,
    catalog,
    check_gradient_bound,
    counterexample_moments,
    default_eps_cut,
    default_level_R,
    dropped_mass_rate,
    estimate_gradient,
    estimate_gradient_fixed_clock,
    estimate_pt,
    fd_gradient,
    inverse_moment,
    make_observable,
    sample_jump_path,
    sample_terminal_values,
    tail_mass,
    truncate_jumps,
    truncation_convergence_check,
)
from levygrad.engine import (
    BATCH_SIZE,
    first_passage_levels,
    fixed_jump_batch,
    path_cumulatives,
    run_batches,
    sample_jump_batch,
)

SPEC = BernsteinSpec.alpha_stable(1.5)
F1 = catalog("additive_identity", 1)
TANH = make_observable("tanh1")
PATH = JumpPath(1.0, np.array([0.2, 0.5, 0.9]), np.array([0.3, 0.05, 0.7]))
CAP = ClockSpec.cap_at_first_passage(0.5)
X1, V1 = np.array([0.1]), np.array([1.0])


def test_run_batches_merges_columns_rejections_and_counters():
    n = BATCH_SIZE + 10

    def worker(bi, start, count):
        y = np.arange(start, start + count, dtype=float)
        return {
            "samples": {"y": y, "neg": -2.0 * y},
            "reject": y % 3 == 0,
            "counters": {"calls": 1, "paths": count},
            "first": start,
        }

    run = run_batches(n, 2, worker)
    y = np.arange(n, dtype=float)
    kept = y[y % 3 != 0]
    assert [p["first"] for p in run.parts] == [0, BATCH_SIZE]
    assert run.counters == {"calls": 2, "paths": n}
    assert run.n_samples == n
    assert run.n_rejected == n - kept.size
    mean, std_error = run.columns["y"].finalize()
    assert mean == pytest.approx(kept.mean(), rel=1e-14)
    assert std_error == pytest.approx(kept.std(ddof=1) / math.sqrt(kept.size), rel=1e-10)
    assert run.columns["neg"].mean == pytest.approx(-2.0 * kept.mean(), rel=1e-14)
    assert run.columns["neg"].max_abs == 2.0 * kept.max()
    res = run.result({"note": 1.0}, column="neg")
    assert res.n_samples == n and res.n_rejected == run.n_rejected
    assert res.diagnostics == {"note": 1.0, "max_abs_sample": 2.0 * kept.max()}


def test_run_batches_all_rejected_gives_nan():
    def worker(bi, start, count):
        return {"samples": {"y": np.ones(count)}, "reject": np.ones(count, dtype=bool)}

    run = run_batches(5, 1, worker)
    assert run.n_rejected == 5
    mean, std_error = run.columns["y"].finalize()
    assert math.isnan(mean) and math.isnan(std_error)
    assert run.columns["y"].max_abs == 0.0


def test_run_batches_keeps_one_batch_of_samples_at_a_time():
    # 64 batches of one float column would hold 16 MB if every column were kept
    n_batches = 64

    def worker(bi, start, count):
        return {"samples": {"y": np.full(count, float(bi))}}

    tracemalloc.start()
    try:
        run = run_batches(n_batches * BATCH_SIZE, 1, worker)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert run.columns["y"].mean == (n_batches - 1) / 2
    assert run.columns["y"].max_abs == n_batches - 1
    assert peak < 8 * BATCH_SIZE * 8  # eight batches' columns, 2 MB


def _column_run(values, workers, reject=None):
    """run_batches over one precomputed column, its batches sliced by position."""

    def worker(bi, start, count):
        part = {"samples": {"y": values[start:start + count]}}
        if reject is not None:
            part["reject"] = reject[start:start + count]
        return part

    return run_batches(values.size, workers, worker).columns["y"].finalize()


@pytest.mark.pin
def test_offset_column_keeps_its_standard_error():
    # a variance formed as sum(y**2) - n mean**2 cancels to nothing here
    values = 1e6 + 1e-3 * np.random.default_rng(5).standard_normal(100_000)
    one, two = _column_run(values, 1), _column_run(values, 2)
    assert one[0].hex() == two[0].hex() and one[1].hex() == two[1].hex()
    se = values.std(ddof=1) / math.sqrt(values.size)
    assert one[1] == pytest.approx(se, rel=1e-9)


def test_unequal_batches_merge_to_the_two_pass_statistics():
    # each batch keeps a different share of its paths, and the last is short
    rng = np.random.default_rng(11)
    values = 3.0 + rng.lognormal(0.0, 1.5, 3 * BATCH_SIZE + 123)
    reject = rng.random(values.size) < np.repeat([0.1, 0.7, 0.0, 0.4], BATCH_SIZE)[: values.size]
    kept = values[~reject]
    mean, std_error = _column_run(values, 2, reject)
    assert mean == pytest.approx(kept.mean(), rel=1e-12)
    assert std_error == pytest.approx(kept.std(ddof=1) / math.sqrt(kept.size), rel=1e-12)


# Every public estimator with the path count as its only free argument.
ESTIMATORS = {
    "estimate_gradient": lambda n: estimate_gradient(
        X1, V1, TANH, F1, SPEC, 1.0, "auto", n, 0.05, 1),
    "estimate_gradient_fixed_clock": lambda n: estimate_gradient_fixed_clock(
        X1, V1, TANH, catalog("pythagoras_1d"), PATH, CAP, 1.0, n, 2),
    "estimate_pt": lambda n: estimate_pt(X1, TANH, F1, SPEC, 1.0, n, 3, eps_cut=0.05),
    "fd_gradient": lambda n: fd_gradient(X1, V1, TANH, F1, SPEC, 1.0, 1e-3, n, 5, eps_cut=0.05),
    "check_gradient_bound": lambda n: check_gradient_bound(
        F1, SPEC, TANH, X1, 2.0, [0.5, 1.0], n, 6, eps_cut_at_1=0.05),
    "counterexample_moments": lambda n: counterexample_moments(0.1, n, 1e-3, 7),
    "burkholder_isometry_check": lambda n: burkholder_isometry_check([1.0, 2.0], PATH, CAP, n, 8),
    "truncation_convergence_check": lambda n: truncation_convergence_check(
        PATH, CAP, [1.0, 2.0], [0.5, 0.1], n, 9),
}


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
@pytest.mark.parametrize("n_paths", [0, -1])
def test_nonpositive_path_count_is_rejected(name, n_paths):
    with pytest.raises(ValueError, match="n_paths"):
        ESTIMATORS[name](n_paths)


# Every public estimator that takes substeps_per_unit, for any value of it.
SUBSTEPPED = {
    "estimate_gradient": lambda s: estimate_gradient(
        X1, V1, TANH, F1, SPEC, 1.0, "auto", 8, 0.05, 1, substeps_per_unit=s),
    "estimate_gradient_fixed_clock": lambda s: estimate_gradient_fixed_clock(
        X1, V1, TANH, F1, PATH, CAP, 1.0, 8, 2, substeps_per_unit=s),
    "estimate_pt": lambda s: estimate_pt(
        X1, TANH, F1, SPEC, 1.0, 8, 3, eps_cut=0.05, substeps_per_unit=s),
    "fd_gradient": lambda s: fd_gradient(
        X1, V1, TANH, F1, SPEC, 1.0, 1e-3, 8, 5, eps_cut=0.05, substeps_per_unit=s),
    "check_gradient_bound": lambda s: check_gradient_bound(
        F1, SPEC, TANH, X1, 2.0, [0.5, 1.0], 8, 6, eps_cut_at_1=0.05, substeps_per_unit=s),
}


@pytest.mark.parametrize("name", sorted(SUBSTEPPED))
@pytest.mark.parametrize("substeps", [0, -5])
def test_substeps_below_one_are_rejected(name, substeps):
    with pytest.raises(ValueError, match="substeps_per_unit"):
        SUBSTEPPED[name](substeps)


NAN = float("nan")
TILED = fixed_jump_batch(PATH, 1.0, 2)

# A positivity check written as `x <= 0` lets NaN through; each of these
# must stop at its own argument check. The zero and negative entries hold
# the same checks at the other end of their range.
NAN_ARGUMENTS = {
    "fd_gradient h": (lambda: fd_gradient(
        X1, V1, TANH, F1, SPEC, 1.0, NAN, 8, 5, eps_cut=0.05), "h must be positive"),
    "fd_gradient h inf": (lambda: fd_gradient(
        X1, V1, TANH, F1, SPEC, 1.0, math.inf, 8, 5, eps_cut=0.05), "h must be positive and finite"),
    "fd_gradient t": (lambda: fd_gradient(
        X1, V1, TANH, F1, SPEC, NAN, 1e-3, 8, 5, eps_cut=0.05), "t must be positive"),
    "estimate_gradient t": (lambda: estimate_gradient(
        X1, V1, TANH, F1, SPEC, NAN, "auto", 8, 0.05, 1), "t must be positive"),
    "estimate_gradient eps_cut": (lambda: estimate_gradient(
        X1, V1, TANH, F1, SPEC, 1.0, "auto", 8, NAN, 1), "eps_cut must be positive"),
    "estimate_gradient_fixed_clock t": (lambda: estimate_gradient_fixed_clock(
        X1, V1, TANH, F1, PATH, CAP, NAN, 8, 2), r"t must lie in \(0, horizon\]"),
    "estimate_pt t": (lambda: estimate_pt(
        X1, TANH, F1, SPEC, NAN, 8, 3, eps_cut=0.05), "t must be positive"),
    "burkholder_isometry_check xi": (lambda: burkholder_isometry_check(
        [1.0, NAN], PATH, CAP, 8, 8), "xi must be finite"),
    "truncation_convergence_check xi": (lambda: truncation_convergence_check(
        PATH, CAP, [NAN, 2.0], [0.5, 0.1], 8, 9), "xi must be finite"),
    "make_observable a": (lambda: make_observable("linear", [NAN]), "a must be finite"),
    "estimate_pt x": (lambda: estimate_pt(
        np.array([NAN]), TANH, F1, SPEC, 1.0, 8, 3, eps_cut=0.05), "x must be finite"),
    "fd_gradient x": (lambda: fd_gradient(
        np.array([NAN]), V1, TANH, F1, SPEC, 1.0, 1e-3, 8, 5, eps_cut=0.05), "x must be finite"),
    "fd_gradient v": (lambda: fd_gradient(
        X1, np.array([NAN]), TANH, F1, SPEC, 1.0, 1e-3, 8, 5, eps_cut=0.05), "v must be finite"),
    "counterexample_moments grid_step": (lambda: counterexample_moments(
        0.1, 8, NAN, 7), r"grid_step must lie in \(0, 1e-3\]"),
    "counterexample_moments grid_step 0": (lambda: counterexample_moments(
        0.1, 8, 0.0, 7), r"grid_step must lie in \(0, 1e-3\]"),
    "counterexample_moments grid_step negative": (lambda: counterexample_moments(
        0.1, 8, -1e-4, 7), r"grid_step must lie in \(0, 1e-3\]"),
    "run_batches workers 0": (lambda: run_batches(
        8, 0, lambda bi, start, count: {"samples": {}}), "workers must be at least 1"),
    "estimate_pt workers -3": (lambda: estimate_pt(
        X1, TANH, F1, SPEC, 1.0, 8, 3, eps_cut=0.05, workers=-3), "workers must be at least 1"),
    "estimate_pt eps_cut": (lambda: estimate_pt(
        X1, TANH, F1, SPEC, 1.0, 8, 3, eps_cut=NAN), "eps_cut must be positive"),
    "sample_jump_batch eps_cut": (lambda: sample_jump_batch(
        1.5, 1.0, NAN, 8, np.random.default_rng(0)), "eps_cut must be positive"),
    "sample_jump_path eps_cut": (lambda: sample_jump_path(
        SPEC, 1.0, NAN, np.random.default_rng(0)), "eps_cut must be positive"),
    "sample_jump_path horizon": (lambda: sample_jump_path(
        SPEC, NAN, 0.05, np.random.default_rng(0)), "horizon must be nonnegative"),
    "sample_terminal_values eps_cut": (lambda: sample_terminal_values(
        SPEC, 1.0, NAN, 8, np.random.default_rng(0)), "eps_cut must be positive"),
    "default_level_R t": (lambda: default_level_R(SPEC, NAN), "t must be positive"),
    "default_eps_cut t": (lambda: default_eps_cut(SPEC, NAN), "t must be positive"),
    "inverse_moment t": (lambda: inverse_moment(SPEC, NAN, 1.0), "t must be positive"),
    "tail_mass eps": (lambda: tail_mass(1.5, NAN), "eps must be positive"),
    "dropped_mass_rate eps": (lambda: dropped_mass_rate(1.5, NAN), "eps must be positive"),
    "estimate_gradient R": (lambda: estimate_gradient(
        X1, V1, TANH, F1, SPEC, 1.0, NAN, 8, 0.05, 1), "cap_at_first_passage needs a level R > 0"),
    "first_passage_levels R": (lambda: first_passage_levels(
        TILED, path_cumulatives(TILED)[1], NAN), "the passage level R must be positive"),
    "truncate_jumps eps": (lambda: truncate_jumps(PATH, NAN), "eps must be nonnegative"),
    "truncation_convergence_check eps_list": (lambda: truncation_convergence_check(
        PATH, CAP, [1.0], [NAN], 8, 16), "eps_list must contain positive cutoffs"),
    "inverse_moment gamma": (lambda: inverse_moment(SPEC, 1.0, NAN), "gamma must be positive"),
    "check_gradient_bound p": (lambda: check_gradient_bound(
        F1, SPEC, TANH, X1, NAN, [0.5, 1.0], 8, 3, eps_cut_at_1=0.05), "p must exceed 1"),
    "check_gradient_bound t_grid": (lambda: check_gradient_bound(
        F1, SPEC, TANH, X1, 2.0, [NAN, 1.0], 8, 3, eps_cut_at_1=0.05),
        r"t_grid must be a nonempty subset of \(0, 1\]"),
}


@pytest.mark.parametrize("case", sorted(NAN_ARGUMENTS))
def test_nan_fails_the_positivity_checks(case):
    run, message = NAN_ARGUMENTS[case]
    with pytest.raises(ValueError, match=f"^{message}"):
        run()


# A vector argument with an extra axis would broadcast into the wrong shape.
MATRIX_ARGUMENTS = {
    "burkholder_isometry_check xi": lambda: burkholder_isometry_check(
        [[1.0, 2.0]], PATH, CAP, 8, 8),
    "truncation_convergence_check xi": lambda: truncation_convergence_check(
        PATH, CAP, [[1.0], [2.0]], [0.5, 0.1], 8, 9),
    "make_observable a": lambda: make_observable("linear", [[1.0]]),
}


@pytest.mark.parametrize("case", sorted(MATRIX_ARGUMENTS))
def test_matrix_in_place_of_a_vector_is_refused(case):
    with pytest.raises(ValueError, match=f"^{case.split()[-1]} must be a vector$"):
        MATRIX_ARGUMENTS[case]()


# Integer arguments: int() would truncate 1.9 to 1 and run as seed 1, and a
# negative limit would slice rows from the end.
INTEGER_ARGUMENTS = {
    "estimate_gradient seed 1.9": (lambda: estimate_gradient(
        X1, V1, TANH, F1, SPEC, 1.0, "auto", 8, 0.05, 1.9), "seed must be an integer"),
    "estimate_gradient seed -1": (lambda: estimate_gradient(
        X1, V1, TANH, F1, SPEC, 1.0, "auto", 8, 0.05, -1), "seed must be at least 0"),
    "estimate_gradient_fixed_clock seed True": (lambda: estimate_gradient_fixed_clock(
        X1, V1, TANH, F1, PATH, CAP, 1.0, 8, True), "seed must be an integer"),
    "fd_gradient seed -1": (lambda: fd_gradient(
        X1, V1, TANH, F1, SPEC, 1.0, 1e-3, 8, -1, eps_cut=0.05), "seed must be at least 0"),
    "estimate_pt seed 3.5": (lambda: estimate_pt(
        X1, TANH, F1, SPEC, 1.0, 8, 3.5, eps_cut=0.05), "seed must be an integer"),
    "estimate_gradient collect_samples -3": (lambda: estimate_gradient(
        X1, V1, TANH, F1, SPEC, 1.0, "auto", 1000, 0.05, 1, collect_samples=-3),
        "collect_samples must be at least 0"),
    "estimate_gradient collect_samples 2.5": (lambda: estimate_gradient(
        X1, V1, TANH, F1, SPEC, 1.0, "auto", 8, 0.05, 1, collect_samples=2.5),
        "collect_samples must be an integer"),
    "estimate_gradient_fixed_clock collect_samples -1": (lambda: estimate_gradient_fixed_clock(
        X1, V1, TANH, F1, PATH, CAP, 1.0, 8, 2, collect_samples=-1),
        "collect_samples must be at least 0"),
    # ceil(gap * 50.5) steps would run with other bits than 50; F1 has no
    # drift, so these also reach the jump rounds at r = 0, which take no steps
    "estimate_gradient substeps_per_unit 50.5": (lambda: estimate_gradient(
        X1, V1, TANH, catalog("bounded_multiplicative", 1), SPEC, 1.0, "auto", 8, 0.05, 1,
        substeps_per_unit=50.5), "substeps_per_unit must be an integer"),
    "estimate_gradient drift-free substeps_per_unit 50.5": (lambda: estimate_gradient(
        X1, V1, TANH, F1, SPEC, 1.0, "auto", 8, 0.05, 1, substeps_per_unit=50.5),
        "substeps_per_unit must be an integer"),
    "estimate_pt drift-free substeps_per_unit 0": (lambda: estimate_pt(
        X1, TANH, F1, SPEC, 1.0, 8, 3, eps_cut=0.05, substeps_per_unit=0),
        "substeps_per_unit must be at least 1"),
    "fd_gradient drift-free substeps_per_unit -5": (lambda: fd_gradient(
        X1, V1, TANH, F1, SPEC, 1.0, 1e-3, 8, 5, eps_cut=0.05, substeps_per_unit=-5),
        "substeps_per_unit must be at least 1"),
    # range() would raise a bare TypeError, and True would run one path
    "estimate_gradient n_paths 100.5": (lambda: estimate_gradient(
        X1, V1, TANH, F1, SPEC, 1.0, "auto", 100.5, 0.05, 1), "n_paths must be an integer"),
    "estimate_gradient n_paths True": (lambda: estimate_gradient(
        X1, V1, TANH, F1, SPEC, 1.0, "auto", True, 0.05, 1), "n_paths must be an integer"),
    "estimate_pt n_paths 50.5": (lambda: estimate_pt(
        X1, TANH, F1, SPEC, 1.0, 50.5, 3, eps_cut=0.05), "n_paths must be an integer"),
    "estimate_pt n_paths 0": (lambda: estimate_pt(
        X1, TANH, F1, SPEC, 1.0, 0, 3, eps_cut=0.05), "n_paths must be at least 1"),
    # ThreadPoolExecutor(int(1.7)) would run on one thread
    "run_batches workers 1.7": (lambda: run_batches(
        8, 1.7, lambda bi, start, count: {"samples": {}}), "workers must be an integer"),
    "estimate_pt workers 1.7": (lambda: estimate_pt(
        X1, TANH, F1, SPEC, 1.0, 8, 3, eps_cut=0.05, workers=1.7), "workers must be an integer"),
}


@pytest.mark.parametrize("case", sorted(INTEGER_ARGUMENTS))
def test_integer_arguments_are_checked(case):
    run, message = INTEGER_ARGUMENTS[case]
    with pytest.raises(ValueError, match=f"^{message}"):
        run()


# The four estimators that evaluate a user observable, for any observable f.
OBSERVED = {
    "estimate_gradient": lambda f: estimate_gradient(X1, V1, f, F1, SPEC, 1.0, "auto", 8, 0.05, 1),
    "estimate_gradient_fixed_clock": lambda f: estimate_gradient_fixed_clock(
        X1, V1, f, F1, PATH, CAP, 1.0, 8, 2),
    "estimate_pt": lambda f: estimate_pt(X1, f, F1, SPEC, 1.0, 8, 3, eps_cut=0.05),
    "fd_gradient": lambda f: fd_gradient(X1, V1, f, F1, SPEC, 1.0, 1e-3, 8, 5, eps_cut=0.05),
}


@pytest.mark.parametrize("name", sorted(OBSERVED))
def test_observable_with_extra_axis_is_refused(name):
    # np.tanh(X) keeps the state axis: (n, 1) would broadcast against the
    # (n,) weight to an (n, n) matrix and silently corrupt the mean
    with pytest.raises(ValueError, match=r"shape \(8, 1\) on batch 0"):
        OBSERVED[name](lambda X: np.tanh(X))


@pytest.mark.parametrize("name", sorted(OBSERVED))
def test_non_finite_observable_is_refused(name):
    def f(X):
        out = np.tanh(X[:, 0])
        out[3] = np.nan
        return out

    with pytest.raises(ValueError, match="non-finite values on batch 0 .*path 3"):
        OBSERVED[name](f)


# A hook result of another shape could broadcast against the batch and
# corrupt every path without an error. Only the RK4 flow of a field without
# the drift_rate hint calls jvp_b.
BM2 = catalog("bounded_multiplicative", 2)
WRONG_HOOKS = {
    "jvp_b": (dataclasses.replace(BM2, jvp_b=lambda t, x, u: -u[0], drift_rate=None), r"\(2,\)",
              r"\(\d+, 2\)"),
    "dsigma": (dataclasses.replace(BM2, dsigma=lambda t, x, u: np.eye(2), sigma_scale=None), r"\(2, 2\)",
               r"\(\d+, 2, 2\)"),
}


@pytest.mark.parametrize("hook", sorted(WRONG_HOOKS))
def test_hook_of_the_wrong_shape_is_refused(hook):
    field, got, expected = WRONG_HOOKS[hook]
    with pytest.raises(ValueError, match=f"^{hook} returned shape {got}; it must return shape {expected}$"):
        estimate_gradient(np.array([0.3, 0.0]), np.array([1.0, 0.5]), TANH, field, SPEC, 0.5, "auto",
                          8, 0.05, 1)


def _as_data(result):
    if hasattr(result, "to_dict"):
        return result.to_dict()
    if isinstance(result, dict):
        return {k: _as_data(v) for k, v in result.items()}
    return result


# Zero-drift fields keep two batches of each run to seconds.
WORKER_RUNS = {
    "estimate_pt": lambda n, w: estimate_pt(X1, TANH, F1, SPEC, 1.0, n, 11, eps_cut=0.05,
                                            workers=w),
    "fd_gradient": lambda n, w: fd_gradient(X1, V1, TANH, catalog("pythagoras_1d"), SPEC, 1.0,
                                            1e-3, n, 12, eps_cut=0.05, workers=w),
    "estimate_gradient_fixed_clock": lambda n, w: estimate_gradient_fixed_clock(
        X1, V1, TANH, catalog("pythagoras_1d"), PATH, CAP, 1.0, n, 13, workers=w),
    "counterexample_moments": lambda n, w: counterexample_moments(0.1, n, 1e-3, 14, workers=w),
    "burkholder_isometry_check": lambda n, w: burkholder_isometry_check(
        [1.0, 2.0], PATH, CAP, n, 15, workers=w),
    "truncation_convergence_check": lambda n, w: truncation_convergence_check(
        PATH, CAP, [1.0, 2.0], [0.5, 0.1, 0.01], n, 16, workers=w),
}


@pytest.mark.parametrize("name", sorted(WORKER_RUNS))
def test_worker_count_does_not_change_a_bit(name):
    n = BATCH_SIZE + 64
    one = _as_data(WORKER_RUNS[name](n, 1))
    two = _as_data(WORKER_RUNS[name](n, 2))
    assert one == two
