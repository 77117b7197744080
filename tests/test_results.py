"""The comparison record and the estimate record."""

import math

import numpy as np
import pytest

from levygrad import (
    BernsteinSpec,
    ComparisonReport,
    EstimatorResult,
    catalog,
    compare,
    estimate_gradient,
)


def test_z_score_is_the_difference_over_the_combined_se():
    lhs = EstimatorResult(mean=1.3, std_error=0.5, n_samples=100)
    rhs = EstimatorResult(mean=0.5, std_error=0.4, n_samples=100)
    rep = compare(lhs, rhs)
    assert rep.combined_se == math.sqrt(0.5**2 + 0.4**2)
    assert rep.z_score == (1.3 - 0.5) / rep.combined_se
    assert rep.passed
    # an exact real contributes no variance, on either side
    assert compare(0.5, lhs).combined_se == 0.5
    assert compare(0.5, lhs).z_score == (0.5 - 1.3) / 0.5


def test_zero_se_gives_zero_or_infinite_z():
    same = compare(2.0, 2.0)
    assert same.combined_se == 0.0
    assert same.z_score == 0.0 and same.passed
    above = compare(2.5, 2.0)
    assert above.z_score == math.inf and not above.passed
    below = compare(EstimatorResult(mean=1.0, std_error=0.0, n_samples=4), 2.0)
    assert below.z_score == -math.inf and not below.passed


def test_threshold_is_three_se_plus_the_absolute_tolerance():
    se, tol = 0.25, 0.125
    edge = 3.0 * se + tol
    assert ComparisonReport(edge, 0.0, se, tolerance_abs=tol).passed
    assert ComparisonReport(-edge, 0.0, se, tolerance_abs=tol).passed
    beyond = math.nextafter(edge, math.inf)
    assert not ComparisonReport(beyond, 0.0, se, tolerance_abs=tol).passed
    assert not ComparisonReport(0.0, beyond, se, tolerance_abs=tol).passed


def test_to_dict_keys_and_order():
    rep = compare(EstimatorResult(mean=1.0, std_error=0.5, n_samples=10), 0.0,
                  tolerance_abs=0.1, label="demo")
    assert rep.to_dict() == {
        "label": "demo",
        "lhs_mean": 1.0,
        "rhs_mean": 0.0,
        "combined_se": 0.5,
        "z_score": 2.0,
        "threshold_se": 3.0,
        "tolerance_abs": 0.1,
        "passed": True,
    }
    assert list(rep.to_dict()) == [
        "label", "lhs_mean", "rhs_mean", "combined_se",
        "z_score", "threshold_se", "tolerance_abs", "passed",
    ]


def test_compare_takes_no_threshold():
    with pytest.raises(TypeError):
        compare(1.0, 0.0, 3.0)


def test_estimator_result_refuses_inconsistent_counts():
    with pytest.raises(ValueError, match="exceed"):
        EstimatorResult(mean=0.0, std_error=1.0, n_samples=3, n_rejected=4)
    with pytest.raises(ValueError, match="nonnegative"):
        EstimatorResult(mean=0.0, std_error=1.0, n_samples=-1, n_rejected=-2)
    with pytest.raises(ValueError, match="nonnegative"):
        EstimatorResult(mean=0.0, std_error=1.0, n_samples=3, n_rejected=-1)


def test_sample_rows_default_to_none_and_stay_out_of_to_dict():
    res = EstimatorResult(mean=0.0, std_error=1.0, n_samples=3)
    assert res.sample_rows is None
    assert "sample_rows" not in res.to_dict()


@pytest.mark.parametrize("k", [0, 5, 10_000])
def test_estimate_gradient_collects_min_k_accepted_rows(k):
    res = estimate_gradient(
        np.array([0.3, 0.0]), np.array([1.0, 0.5]), lambda X: np.tanh(X[:, 0]),
        catalog("bounded_multiplicative", 2), BernsteinSpec.alpha_stable(1.5),
        t=0.5, R="auto", n_paths=300, eps_cut=3e-3, seed=5, collect_samples=k,
    )
    if k == 0:
        assert res.sample_rows is None
    else:
        assert len(res.sample_rows) == min(k, res.n_used)
        assert all(len(row) == 7 for row in res.sample_rows)
    assert "sample_rows" not in res.to_dict()
