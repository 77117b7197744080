"""Semigroup estimators, finite differences, and the lemma-level checks."""

import math

import numpy as np
import pytest

import oracles
from levygrad import (
    BernsteinSpec,
    ClockSpec,
    JumpPath,
    burkholder_isometry_check,
    catalog,
    check_gradient_bound,
    counterexample_moments,
    estimate_gradient,
    estimate_pt,
    fd_gradient,
    make_observable,
    truncation_convergence_check,
)

SPEC15 = BernsteinSpec.alpha_stable(1.5)


def test_constant_observable_is_exact():
    F = catalog("additive_identity", 2)
    res = estimate_pt(np.zeros(2), make_observable("const1"), F, SPEC15,
                      1.0, 2000, seed=1, eps_cut=3e-3)
    assert res.mean == 1.0
    assert res.std_error == 0.0


def test_indicator_at_origin_is_half():
    F = catalog("additive_identity", 1)
    res = estimate_pt(np.zeros(1), make_observable("indicator1"), F, SPEC15,
                      1.0, 40_000, seed=2, eps_cut=3e-3)
    assert abs(res.mean - 0.5) <= 3.0 * res.std_error


def test_ou_linear_observable_decays_exponentially():
    F = catalog("ou_additive", 2)
    a = np.array([0.8, -0.3])
    x0 = np.array([0.4, 0.2])
    t = 0.7
    res = estimate_pt(x0, make_observable("linear", a), F, SPEC15,
                      t, 40_000, seed=3, eps_cut=3e-3)
    assert abs(res.mean - math.exp(-t) * (a @ x0)) <= 3.0 * res.std_error


def test_default_cutoff_is_used_when_omitted():
    F = catalog("additive_identity", 1)
    res = estimate_pt(np.zeros(1), make_observable("const1"), F, SPEC15,
                      1.0, 500, seed=4)
    assert res.diagnostics["eps_cut"] > 0.0
    assert res.mean == 1.0


def test_power_means_are_monotone_in_p():
    # Same seed, same paths: the empirical power mean inequality is exact.
    F = catalog("additive_identity", 1)
    f = make_observable("tanh1")
    per_p = [
        check_gradient_bound(F, SPEC15, f, np.array([0.3]), p, [0.5, 1.0], 4000, seed=5,
                             eps_cut_at_1=3e-3)["denominators"]
        for p in (1.5, 2.0, 4.0)
    ]
    for low, mid, high in zip(*per_p):
        assert low["mean"] <= mid["mean"] + 1e-15
        assert mid["mean"] <= high["mean"] + 1e-15


def test_power_mean_of_a_zero_observable_is_zero_without_an_error():
    # the delta method divides by the raw mean, so a mean of 0 has no SE
    report = check_gradient_bound(catalog("additive_identity", 1), SPEC15,
                                  lambda X: np.zeros(X.shape[0]), np.array([0.3]), 2.0, [0.5, 1.0],
                                  100, seed=5, eps_cut_at_1=3e-3)
    assert len(report["denominators"]) == 2
    for den in report["denominators"]:
        assert den["mean"] == 0.0 and math.isnan(den["std_error"])
        assert den["diagnostics"]["raw_mean"] == 0.0
    assert report["incomplete"] is True


def test_bound_denominators_are_the_root_of_an_independent_power_run():
    # each denominator is (m^{1/p}, s m^{1/p} / (p m)) of estimate_pt on |f|^p
    # at seed + 2i + 1 and cutoff eps_cut_at_1 t^{2/alpha}, bit for bit
    F = catalog("bounded_multiplicative", 2)
    x, f, p, eps1, seed = np.array([0.3, 0.0]), make_observable("tanh1"), 3.0, 2e-2, 17
    t_grid = [0.5, 1.0]
    report = check_gradient_bound(F, SPEC15, f, x, p, t_grid, 600, seed, eps_cut_at_1=eps1)
    for i, (t, den) in enumerate(zip(t_grid, report["denominators"])):
        raw = estimate_pt(x, lambda X: np.abs(f(X)) ** p, F, SPEC15, t, 600, seed + 2 * i + 1,
                          eps_cut=eps1 * t ** (2.0 / SPEC15.alpha))
        m, s = raw.mean, raw.std_error
        assert m > 0 and s > 0
        assert den["mean"] == m ** (1.0 / p)
        assert den["std_error"] == s * m ** (1.0 / p) / (p * m)
        assert den["n_samples"] == raw.n_samples
        assert den["diagnostics"] == {**raw.diagnostics, "power": p, "raw_mean": m,
                                      "raw_std_error": s}


def test_fd_additive_linear_is_deterministic():
    # Common random numbers cancel the noise for an additive model with a
    # linear observable: every sample difference is a @ v up to roundoff. The
    # samples take about a hundred distinct values, 2.5e-12 apart at most, so
    # the standard error is bounded by that spread over sqrt(3000).
    F = catalog("additive_identity", 2)
    a = np.array([0.7, -0.4])
    v = np.array([1.0, 0.5])
    res = fd_gradient(np.array([0.2, 0.1]), v, make_observable("linear", a),
                      F, SPEC15, 1.0, None, 3000, seed=6, eps_cut=3e-3)
    assert res.std_error <= 1e-13
    assert res.mean == pytest.approx(a @ v, rel=1e-12)


def test_fd_ou_linear_matches_closed_form():
    F = catalog("ou_additive", 2)
    a = np.array([0.8, -0.3])
    v = np.array([1.0, 0.5])
    t = 0.5
    res = fd_gradient(np.array([0.2, -0.1]), v, make_observable("linear", a),
                      F, SPEC15, t, None, 3000, seed=7, eps_cut=3e-3)
    # the paired shifted flows cancel the noise down to integrator roundoff
    assert res.std_error <= 1e-9
    assert abs(res.mean - math.exp(-t) * (a @ v)) <= 1e-6


def test_fd_reports_the_clock_it_sampled():
    # fd_gradient, estimate_pt and estimate_gradient draw the same stable
    # ClockDraw jumps at one seed, cutoff and t, so they report the same
    # truncated clock
    F = catalog("bounded_multiplicative", 2)
    x, v, f = np.array([0.3, 0.0]), np.array([1.0, 0.5]), make_observable("tanh1")
    fd = fd_gradient(x, v, f, F, SPEC15, 0.7, None, 500, seed=11, eps_cut=2e-3)
    pt = estimate_pt(x, f, F, SPEC15, 0.7, 500, seed=11, eps_cut=2e-3)
    grad = estimate_gradient(x, v, f, F, SPEC15, 0.7, "auto", 500, 2e-3, 11)
    for key in ("eps_cut", "mean_jump_count", "expected_dropped_clock_mass"):
        assert fd.diagnostics[key] == pt.diagnostics[key] == grad.diagnostics[key]
    assert fd.diagnostics["mean_jump_count"] > 0


def test_fd_richardson_second_order():
    # With one shared seed the estimate is a smooth function of h, so halving
    # h must shrink the central-difference bias by almost exactly 4.
    F = catalog("bounded_multiplicative", 2)
    f = make_observable("tanh1")
    x = np.array([0.3, 0.0])
    v = np.array([1.0, 0.0])
    vals = {
        h: fd_gradient(x, v, f, F, SPEC15, 0.5, h, 20_000, seed=17,
                       eps_cut=3e-3).mean
        for h in (0.4, 0.2, 0.1, 0.0125)
    }
    ref = vals[0.0125]
    r1 = abs(vals[0.4] - ref) / abs(vals[0.2] - ref)
    r2 = abs(vals[0.2] - ref) / abs(vals[0.1] - ref)
    assert 3.3 < r1 < 4.7
    assert 3.3 < r2 < 4.7


CRN_SCENARIOS = [
    ("additive_identity", 2, "linear", 0.5),
    ("additive_identity", 2, "tanh1", 1.0),
    ("additive_identity", 1, "sign", 1.0),
    ("ou_additive", 2, "linear", 0.5),
    ("ou_additive", 2, "tanh1", 1.0),
    ("ou_additive", 1, "indicator1", 0.5),
    ("pythagoras_1d", 1, "tanh1", 1.0),
    ("pythagoras_1d", 1, "linear", 0.5),
    ("bounded_multiplicative", 2, "tanh1", 0.5),
    ("bounded_multiplicative", 2, "linear", 1.0),
]


@pytest.mark.parametrize("name,d,fname,t", CRN_SCENARIOS)
def test_crn_differences_beat_independent_shifts(name, d, fname, t):
    F = catalog(name, d)
    a = np.full(d, 0.6) if fname == "linear" else None
    f = make_observable(fname, a)
    x = np.full(d, 0.25)
    v = np.zeros(d)
    v[0] = 1.0
    h = 1e-3 * (1.0 + np.linalg.norm(x))
    n = 3000
    crn = fd_gradient(x, v, f, F, SPEC15, t, h, n, seed=8, eps_cut=3e-3)
    plus = estimate_pt(x + h * v, f, F, SPEC15, t, n, seed=9, eps_cut=3e-3)
    minus = estimate_pt(x - h * v, f, F, SPEC15, t, n, seed=10, eps_cut=3e-3)
    se_indep = math.hypot(plus.std_error, minus.std_error) / (2.0 * h)
    assert crn.std_error <= se_indep


def test_gradient_bound_slope_matches_stable_index():
    out = check_gradient_bound(
        catalog("additive_identity", 1), SPEC15, make_observable("sign"),
        np.zeros(1), 2.0, [0.25, 0.5, 1.0], 6000, seed=3,
    )
    assert not out["incomplete"]
    assert out["passed"]
    assert out["slope_target"] == pytest.approx(-2.0 / 3.0)
    assert abs(out["slope"] - (-2.0 / 3.0)) <= 0.15
    assert out["constant_estimate"] > 0.0
    assert len(out["ratios"]) == 3
    assert all(g["mean"] > 0.0 for g in out["gradients"])
    assert all(q["mean"] > 0.0 for q in out["denominators"])


def test_gradient_bound_reports_incomplete_grid():
    # A cutoff too coarse for the smallest time leaves most paths jumpless;
    # the sweep must refuse to fit a slope rather than report garbage.
    out = check_gradient_bound(
        catalog("additive_identity", 1), SPEC15, make_observable("sign"),
        np.zeros(1), 2.0, [0.02, 0.5, 1.0], 3000, seed=3, eps_cut_at_1=0.5,
    )
    assert out["incomplete"]
    assert not out["passed"]
    assert math.isnan(out["slope"])


def test_gradient_bound_validation():
    F = catalog("additive_identity", 1)
    f = make_observable("sign")
    with pytest.raises(ValueError):
        check_gradient_bound(F, SPEC15, f, np.zeros(1), 1.0, [0.5, 1.0], 100, seed=0)
    with pytest.raises(ValueError):
        check_gradient_bound(F, SPEC15, f, np.zeros(1), 2.0, [0.5, 1.5], 100, seed=0)
    with pytest.raises(ValueError):
        check_gradient_bound(F, SPEC15, f, np.zeros(1), 2.0, [], 100, seed=0)


@pytest.mark.parametrize("t_grid", [[1.0], [0.5], [0.5, 0.5]])
def test_gradient_bound_needs_two_distinct_times(t_grid, capfd):
    # one distinct time fits no slope: [1.0] used to reach np.polyfit's SVD
    # failure (with LAPACK output on stdout), [0.5] a "slope" through one point
    with pytest.raises(ValueError, match="^t_grid must hold at least two distinct times"):
        check_gradient_bound(catalog("additive_identity", 1), SPEC15, make_observable("sign"),
                             np.zeros(1), 2.0, t_grid, 100, seed=0)
    assert capfd.readouterr().out == ""


def test_counterexample_moment_gap():
    out = counterexample_moments(0.1, 60_000, 1e-3, seed=11)
    jump = out["jump_moment"]
    moll = out["mollified_moment"]
    # single unit jump at time 1: E X_1^2 = 1 exactly
    assert abs(jump.mean - 1.0) <= 3.0 * jump.std_error
    # the mollified clock reproduces the classical chain, whose second moment
    # exceeds e - 1 and sits near e^{1 + eps} - 1
    target = math.exp(1.1) - 1.0
    assert abs(moll.mean - target) <= 3.0 * moll.std_error + 1e-2
    assert moll.mean > math.e - 1.0
    gap_z = (moll.mean - jump.mean) / math.hypot(moll.std_error, jump.std_error)
    assert gap_z >= 5.0


def test_counterexample_matches_discrete_scheme_mean():
    # The Euler chain on the mollified clock has an exact closed-form mean;
    # the sampled estimate must sit within noise of it.
    out = counterexample_moments(0.1, 60_000, 1e-3, seed=12)
    moll = out["mollified_moment"]
    exact = oracles.discrete_mollified_second_moment(0.1, 1e-3)
    assert abs(moll.mean - exact) <= 3.0 * moll.std_error


def test_counterexample_validation():
    with pytest.raises(ValueError):
        counterexample_moments(0.6, 100, 1e-3, seed=0)
    with pytest.raises(ValueError):
        counterexample_moments(0.1, 100, 5e-3, seed=0)
    with pytest.raises(ValueError):
        counterexample_moments(0.1, 1, 1e-3, seed=0)


def _lemma_path():
    return JumpPath(
        horizon=1.0,
        times=np.array([0.2, 0.4, 0.6, 0.8]),
        sizes=np.array([1.3, 0.9, 0.4, 0.05]),
    )


def test_isometry_identity_clock():
    path = _lemma_path()
    xi = np.array([0.8, -0.5])
    rep = burkholder_isometry_check(xi, path, ClockSpec.cap_at_first_passage(100.0),
                                    40_000, seed=13)
    target = float(xi @ xi) * float(np.cumsum(path.sizes)[-1])
    assert rep.rhs_mean == pytest.approx(target, rel=1e-12)
    assert rep.passed


def test_isometry_capped_clock():
    path = _lemma_path()
    xi = np.array([0.8, -0.5])
    rep = burkholder_isometry_check(xi, path, ClockSpec.cap_at_first_passage(2.0),
                                    40_000, seed=14)
    # cumulative sizes cross 2.0 at the second jump: 1.3 + 0.9 = 2.2
    assert rep.rhs_mean == pytest.approx(float(xi @ xi) * 2.2, rel=1e-12)
    assert rep.passed


def test_isometry_zero_integrand():
    path = _lemma_path()
    rep = burkholder_isometry_check(np.zeros(2), path,
                                    ClockSpec.cap_at_first_passage(2.0), 1000, seed=15)
    assert rep.lhs_mean == 0.0
    assert rep.rhs_mean == 0.0
    assert rep.passed


def test_truncation_gap_matches_closed_form_and_decreases():
    path = _lemma_path()
    clock = ClockSpec.cap_at_first_passage(2.0)
    xi = np.array([0.8, -0.5])
    out = truncation_convergence_check(path, clock, xi, [1.0, 0.5, 0.1, 0.01],
                                       30_000, seed=16)
    assert [row["dropped_jumps"] for row in out] == [3, 2, 1, 0]
    exact = [row["exact"] for row in out]
    assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(exact, exact[1:]))
    for row in out:
        assert row["passed"], row
        assert abs(row["z_score"]) <= 3.0
    # below the smallest jump nothing is dropped and the gap vanishes exactly
    assert out[-1]["exact"] == 0.0
    assert out[-1]["empirical"] == 0.0


def test_truncation_requires_decreasing_thresholds():
    path = _lemma_path()
    clock = ClockSpec.cap_at_first_passage(2.0)
    with pytest.raises(ValueError):
        truncation_convergence_check(path, clock, np.array([1.0, 0.0]),
                                     [0.5, 0.5], 100, seed=0)


BISMUT_FD_SCENARIOS = [
    ("bounded_multiplicative", 2, "tanh1", 1.5, 0.5, 30_000),
    ("pythagoras_1d", 1, "tanh1", 1.2, 1.0, 30_000),
    ("ou_additive", 2, "indicator1", 1.0, 0.5, 50_000),
]


@pytest.mark.parametrize("name,d,fname,alpha,t,n", BISMUT_FD_SCENARIOS)
def test_gradient_agrees_with_finite_differences(name, d, fname, alpha, t, n):
    spec = BernsteinSpec.alpha_stable(alpha)
    F = catalog(name, d)
    f = make_observable(fname)
    x = np.full(d, 0.3)
    v = np.zeros(d)
    v[0] = 1.0
    bis = estimate_gradient(x, v, f, F, spec, t, "auto", n, 3e-3, seed=18)
    fd = fd_gradient(x, v, f, F, spec, t, None, n, seed=19, eps_cut=3e-3)
    gap = abs(bis.mean - fd.mean)
    assert gap <= 3.0 * math.hypot(bis.std_error, fd.std_error)


def test_make_observable_catalog():
    X = np.array([[0.5, -1.0], [-0.2, 3.0]])
    assert np.array_equal(make_observable("sign")(X), [1.0, -1.0])
    assert np.array_equal(make_observable("indicator1")(X), [1.0, 0.0])
    assert np.array_equal(make_observable("const1")(X), [1.0, 1.0])
    assert np.allclose(make_observable("tanh1")(X), np.tanh([0.5, -0.2]))
    a = np.array([2.0, 1.0])
    assert np.array_equal(make_observable("linear", a)(X), X @ a)
    with pytest.raises(ValueError):
        make_observable("cubic")
    with pytest.raises(ValueError):
        make_observable("linear")  # needs coefficients


def test_estimate_pt_validation():
    F = catalog("additive_identity", 1)
    f = make_observable("const1")
    with pytest.raises(ValueError):
        estimate_pt(np.zeros(1), f, F, SPEC15, 0.0, 100, seed=0)
    with pytest.raises(ValueError):
        estimate_pt(np.zeros(2), f, F, SPEC15, 1.0, 100, seed=0)
    with pytest.raises(ValueError):
        estimate_pt(np.zeros(1), f, F, SPEC15, 1.0, 100, seed=0, eps_cut=1e-11)
