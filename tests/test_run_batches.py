"""The batch-run skeleton shared by every estimator: counts, checks, determinism."""

import math

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
    estimate_gradient,
    estimate_gradient_fixed_clock,
    estimate_pt,
    estimate_pt_power,
    fd_gradient,
    make_observable,
    truncation_convergence_check,
)
from levygrad.engine import BATCH_SIZE, run_batches

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
    assert run.columns["y"].mean == pytest.approx(kept.mean(), rel=1e-14)
    assert run.columns["y"].std_error == pytest.approx(
        kept.std(ddof=1) / math.sqrt(kept.size), rel=1e-10
    )
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
    assert math.isnan(run.columns["y"].mean) and math.isnan(run.columns["y"].std_error)
    assert run.columns["y"].max_abs == 0.0


# Every public estimator with the path count as its only free argument.
ESTIMATORS = {
    "estimate_gradient": lambda n: estimate_gradient(
        X1, V1, TANH, F1, SPEC, 1.0, "auto", n, 0.05, 1),
    "estimate_gradient_fixed_clock": lambda n: estimate_gradient_fixed_clock(
        X1, V1, TANH, catalog("pythagoras_1d"), PATH, CAP, 1.0, n, 2),
    "estimate_pt": lambda n: estimate_pt(X1, TANH, F1, SPEC, 1.0, n, 3, eps_cut=0.05),
    "estimate_pt_power": lambda n: estimate_pt_power(
        X1, TANH, F1, SPEC, 1.0, 2.0, n, 4, eps_cut=0.05),
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
