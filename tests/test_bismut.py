"""Weight accumulation and the gradient estimators."""

import itertools
import math

import numpy as np
import pytest

import oracles
from levygrad import (
    BernsteinSpec,
    ClockSpec,
    JumpPath,
    catalog,
    default_eps_cut,
    default_level_R,
    dropped_mass_rate,
    estimate_gradient,
    estimate_gradient_fixed_clock,
    make_observable,
    stable_median_s1,
    substream,
    tail_mass,
)
from levygrad import engine
from levygrad.bismut import ClockDraw
from levygrad.engine import fixed_jump_batch, path_cumulatives, sample_jump_batch, sample_mark_batch
from reference import (
    BismutWeight,
    PathRealization,
    RejectedPathError,
    accumulate_weight,
    clock_increments,
    simulate_flow,
)


def _single_jump_realization(w, size=1.0, time=0.5, horizon=1.0, aux=0.0):
    path = JumpPath(horizon=horizon, times=np.array([time]), sizes=np.array([size]))
    return PathRealization(path, np.array([[w]]), np.array([[aux]]))


def test_weight_terms_hand_example():
    # One unit jump from x = 1 with mark w, no drift, sigma = sqrt(1 + x^2):
    # sigma(1) = sqrt 2, directional slope 2^{-1/2}, so
    #   I1 = w / sqrt 2,  I2 = tr(sigma^{-1} D sigma) * 1 = 1/2,  I3 = w^2 / 2,
    # and the full clock value 1 is the normalizer.
    F = catalog("pythagoras_1d", 1)
    w = 0.8
    real = _single_jump_realization(w)
    snaps = simulate_flow(np.array([1.0]), np.array([1.0]), F, real, 1.0)
    got = accumulate_weight(snaps, F, real, ClockSpec.cap_at_first_passage(50.0), 1.0)
    assert got.I1 == pytest.approx(w / math.sqrt(2.0), rel=1e-14)
    assert got.I2 == pytest.approx(0.5, rel=1e-14)
    assert got.I3 == pytest.approx(w * w / 2.0, rel=1e-14)
    assert got.normalizer == 1.0
    # the trace term is subtracted in the combined weight
    assert got.weight == pytest.approx(got.I1 - got.I2 + got.I3, rel=1e-14)


def test_constant_sigma_kills_correction_terms_exactly():
    spec = BernsteinSpec.alpha_stable(1.5)
    F = catalog("ou_additive", 2)
    res = estimate_gradient(
        np.array([0.1, 0.2]), np.array([1.0, 0.0]),
        lambda X: np.tanh(X[:, 0]), F, spec,
        t=0.5, R="auto", n_paths=4000, eps_cut=3e-3, seed=5,
        collect_samples=4000,
    )
    assert res.diagnostics["term_I2_mean"] == 0.0
    assert res.diagnostics["term_I3_mean"] == 0.0
    rows = res.sample_rows
    assert len(rows) == res.n_used
    assert all(r[4] == 0.0 and r[5] == 0.0 for r in rows)
    # weight column reproduces (I1 - I2 + I3) / normalizer
    for r in rows[:50]:
        assert r[2] == pytest.approx((r[3] - r[4] + r[5]) / r[6], rel=1e-12)


def test_clock_flat_at_origin_rejects_path():
    F = catalog("additive_identity", 1)
    real = _single_jump_realization(0.3, size=0.5)
    snaps = simulate_flow(np.zeros(1), np.ones(1), F, real, 1.0)
    flat = ClockSpec.piecewise_linear([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]])
    with pytest.raises(RejectedPathError):
        accumulate_weight(snaps, F, real, flat, 1.0)
    with pytest.raises(ValueError):
        estimate_gradient_fixed_clock(
            np.zeros(1), np.ones(1), lambda X: X[:, 0],
            F, real.path, flat, 1.0, 100, seed=1,
        )


def test_fixed_clock_single_jump_linear_observable():
    a = np.array([0.7, -0.4])
    v = np.array([1.0, 0.5])
    F = catalog("additive_identity", 2)
    path = JumpPath(horizon=1.0, times=np.array([0.3]), sizes=np.array([1.0]))
    res = estimate_gradient_fixed_clock(
        np.array([0.2, 0.1]), v, lambda X: X @ a, F, path,
        ClockSpec.cap_at_first_passage(10.0), 1.0, 60_000, seed=12,
    )
    z = (res.mean - a @ v) / res.std_error
    assert abs(z) <= 3.0


def test_fixed_clock_constant_observable_has_zero_gradient():
    F = catalog("additive_identity", 2)
    path = JumpPath(horizon=1.0, times=np.array([0.3, 0.7]), sizes=np.array([0.5, 0.5]))
    res = estimate_gradient_fixed_clock(
        np.array([0.2, 0.1]), np.array([1.0, 0.0]),
        lambda X: np.ones(X.shape[0]), F, path,
        ClockSpec.cap_at_first_passage(10.0), 1.0, 40_000, seed=13,
    )
    assert abs(res.mean) <= 3.0 * res.std_error


def test_cap_clock_equals_equivalent_piecewise_clock():
    # A path whose cap lands exactly at clock value 1 is indistinguishable
    # from the explicit identity-then-flat clock; same seed, same estimate.
    F = catalog("bounded_multiplicative", 2)
    path = JumpPath(horizon=1.0, times=np.array([0.3]), sizes=np.array([1.0]))
    kw = dict(
        x=np.array([0.4, -0.2]), v=np.array([1.0, 0.5]),
        f=lambda X: np.tanh(X[:, 0]), field=F, path=path,
        t=1.0, n_paths=20_000, seed=44,
    )
    r_cap = estimate_gradient_fixed_clock(
        clock=ClockSpec.cap_at_first_passage(0.4), **kw
    )
    r_pw = estimate_gradient_fixed_clock(
        clock=ClockSpec.piecewise_linear([[0.0, 0.0], [1.0, 1.0], [2.0, 1.0]]), **kw
    )
    assert r_cap.mean == r_pw.mean
    assert r_cap.std_error == r_pw.std_error


def test_contributions_after_first_passage_vanish():
    # With the cap hit at the first jump, dropping the second jump from the
    # path (marks unchanged) must leave every weight term bit-identical.
    F = catalog("bounded_multiplicative", 2)
    clock = ClockSpec.cap_at_first_passage(0.5)
    times = np.array([0.3, 0.6])
    sizes = np.array([0.6, 0.7])
    rng = substream(91, 0)
    inc = rng.standard_normal((2, 2)) * np.sqrt(sizes)[:, None]
    aux = rng.standard_normal((2, 2))
    x0 = np.array([0.4, -0.2])
    v = np.array([1.0, 0.5])

    full = PathRealization(JumpPath(1.0, times, sizes), inc, aux)
    head = PathRealization(JumpPath(1.0, times[:1], sizes[:1]), inc[:1], aux[:1])
    w_full = accumulate_weight(simulate_flow(x0, v, F, full, 1.0), F, full, clock, 1.0)
    w_head = accumulate_weight(simulate_flow(x0, v, F, head, 1.0), F, head, clock, 1.0)
    assert w_full.I1 == w_head.I1
    assert w_full.I2 == w_head.I2
    assert w_full.I3 == w_head.I3
    assert w_full.normalizer == w_head.normalizer == 0.6


def test_gradient_linear_in_direction():
    spec = BernsteinSpec.alpha_stable(1.5)
    F = catalog("bounded_multiplicative", 2)
    f = lambda X: np.tanh(X[:, 0] + 0.5 * X[:, 1])
    x = np.array([0.3, 0.0])
    v1 = np.array([1.0, 0.0])
    v2 = np.array([0.0, 1.0])
    kw = dict(f=f, field=F, spec=spec, t=0.5, R="auto",
              n_paths=20_000, eps_cut=3e-3, seed=71)
    m1 = estimate_gradient(x, v1, **kw).mean
    m2 = estimate_gradient(x, v2, **kw).mean
    m12 = estimate_gradient(x, v1 + 2.0 * v2, **kw).mean
    assert abs(m12 - (m1 + 2.0 * m2)) <= 1e-10


def test_ou_linear_observable_matches_closed_form():
    spec = BernsteinSpec.alpha_stable(1.5)
    F = catalog("ou_additive", 2)
    a = np.array([0.8, -0.3])
    v = np.array([1.0, 0.5])
    t = 0.5
    res = estimate_gradient(
        np.array([0.2, -0.1]), v, lambda X: X @ a, F, spec,
        t=t, R="auto", n_paths=60_000, eps_cut=3e-3, seed=22,
    )
    target = math.exp(-t) * (a @ v)
    assert abs(res.mean - target) <= 3.0 * res.std_error
    assert res.diagnostics["flagged_invalid"] == 0.0


def test_antithetic_marks_stay_unbiased():
    spec = BernsteinSpec.alpha_stable(1.5)
    F = catalog("ou_additive", 2)
    a = np.array([0.8, -0.3])
    v = np.array([1.0, 0.5])
    res = estimate_gradient(
        np.array([0.2, -0.1]), v, lambda X: X @ a, F, spec,
        t=0.5, R="auto", n_paths=40_000, eps_cut=3e-3, seed=23,
        antithetic=True,
    )
    target = math.exp(-0.5) * (a @ v)
    assert abs(res.mean - target) <= 3.0 * res.std_error
    assert res.diagnostics["antithetic"] == 1.0


def test_sign_observable_matches_truncated_clock_target():
    # For f = sign at the origin in the additive model the estimator mean has
    # a closed form in terms of the truncated clock's Laplace transform; see
    # oracles.truncated_sign_gradient_target.
    eps = 3e-3
    spec = BernsteinSpec.alpha_stable(1.5)
    F = catalog("additive_identity", 1)
    res = estimate_gradient(
        np.zeros(1), np.ones(1), lambda X: np.sign(X[:, 0]), F, spec,
        t=1.0, R="auto", n_paths=150_000, eps_cut=eps, seed=90,
    )
    target = oracles.truncated_sign_gradient_target(1.5, 1.0, eps)
    assert abs(res.mean - target) <= 3.0 * res.std_error


@pytest.mark.parametrize("alpha", [0.3, 0.6])
def test_sign_target_and_rejections_at_small_alpha(alpha):
    # Below alpha = 1 the default cutoff lets single jumps dwarf the rest of a
    # batch, so a path's clock is right only as a sum over its own jumps; the
    # paths rejected for a zero clock are then exactly those without a jump.
    spec = BernsteinSpec.alpha_stable(alpha)
    n, eps = 200_000, default_eps_cut(spec, 1.0)
    res = estimate_gradient(
        np.zeros(1), np.ones(1), lambda X: np.sign(X[:, 0]), catalog("additive_identity", 1), spec,
        t=1.0, R="auto", n_paths=n, eps_cut=None, seed=2026,
    )
    target = oracles.truncated_sign_gradient_target(alpha, 1.0, eps)
    assert abs(res.mean - target) <= 3.0 * res.std_error
    p0 = math.exp(-tail_mass(alpha, eps))
    assert abs(res.diagnostics["rejection_fraction"] - p0) <= 3.0 * math.sqrt(p0 * (1.0 - p0) / n)


# The cap level R moves the weight's variance, not the estimate's mean: the
# level's default (the median of S_t, R = "auto"), 4x that and no cap at all.
# Path counts and seeds were fixed before the first run.
LEVEL_SCALES = [1.0, 4.0, math.inf]


@pytest.mark.parametrize("scale", LEVEL_SCALES)
def test_sign_target_holds_at_every_cap_level(scale):
    spec = BernsteinSpec.alpha_stable(1.5)
    res = estimate_gradient(
        np.zeros(1), np.ones(1), lambda X: np.sign(X[:, 0]), catalog("additive_identity", 1), spec,
        t=1.0, R=scale * default_level_R(spec, 1.0), n_paths=131_072, eps_cut=1e-2, seed=1837,
    )
    target = oracles.truncated_sign_gradient_target(1.5, 1.0, 1e-2)
    assert abs(res.mean - target) <= 3.0 * res.std_error


def test_quickstart_agrees_across_cap_levels():
    # the same seed draws the same paths at every level, so each pair of
    # levels is compared through the standard error of its per-path
    # differences, which is smaller than either level's own
    spec, n = BernsteinSpec.alpha_stable(1.5), 32_768
    runs = [estimate_gradient(
        np.array([0.3, 0.0]), np.array([1.0, 0.5]), make_observable("tanh1"),
        catalog("bounded_multiplicative", 2), spec, 0.5, scale * default_level_R(spec, 0.5), n, 3e-3,
        1838, collect_samples=n) for scale in LEVEL_SCALES]
    rows = [np.array([row[:3] for row in res.sample_rows]) for res in runs]
    for (a, ra), (b, rb) in itertools.combinations(zip(runs, rows), 2):
        assert np.array_equal(ra[:, 0], rb[:, 0])
        diff = ra[:, 1] * ra[:, 2] - rb[:, 1] * rb[:, 2]
        assert abs(a.mean - b.mean) <= 3.0 * diff.std(ddof=1) / math.sqrt(diff.size), (a.mean, b.mean)


def test_gradient_diagnostics_content():
    spec = BernsteinSpec.alpha_stable(1.5)
    F = catalog("additive_identity", 1)
    t, eps = 1.0, 3e-3
    res = estimate_gradient(
        np.zeros(1), np.ones(1), lambda X: np.sign(X[:, 0]), F, spec,
        t=t, R="auto", n_paths=8000, eps_cut=eps, seed=91,
    )
    d = res.diagnostics
    assert d["level_R"] == pytest.approx(default_level_R(spec, t))
    assert d["expected_dropped_clock_mass"] == pytest.approx(
        dropped_mass_rate(1.5, eps) * t, rel=1e-12
    )
    lam = 1.0 * 21.516814904378222  # tail mass at (1.5, 3e-3) times t
    assert abs(d["mean_jump_count"] - lam) <= 4.0 * math.sqrt(lam / 8000)
    assert 0.0 < d["cap_fraction"] < 1.0
    assert d["rejection_fraction"] == 0.0


def test_rejection_flag_trips_when_paths_are_mostly_empty():
    spec = BernsteinSpec.alpha_stable(1.5)
    F = catalog("additive_identity", 1)
    res = estimate_gradient(
        np.zeros(1), np.ones(1), lambda X: np.sign(X[:, 0]), F, spec,
        t=0.05, R="auto", n_paths=3000, eps_cut=0.5, seed=92,
    )
    assert res.n_rejected > 0
    assert res.diagnostics["rejection_fraction"] > 1e-3
    assert res.diagnostics["flagged_invalid"] == 1.0


def test_default_level_r_rules():
    spec = BernsteinSpec.alpha_stable(1.5)
    base = default_level_R(spec, 1.0)
    assert base == pytest.approx(stable_median_s1(spec))
    assert default_level_R(spec, 4.0) == pytest.approx(base * 4.0 ** (2.0 / 1.5), rel=1e-12)
    cauchy = BernsteinSpec.alpha_stable(1.0)
    r1 = default_level_R(cauchy, 1.0)
    assert np.isfinite(r1) and r1 > 0


def _one_jump_curves(clock, u):
    # one jump of size u covers the clock interval (0, u], so its increments
    # are beta(u) and lambda(u), and beta(u) is also the path's normalizer
    path = JumpPath(1.0, np.array([0.5]), np.array([u]))
    d_beta, d_lambda, normalizer, _ = clock.increments(fixed_jump_batch(path, 1.0, 1))
    assert d_beta[0] == normalizer[0]
    return normalizer[0], d_lambda[0]


def test_piecewise_clock_hand_values():
    clock = ClockSpec.piecewise_linear([[0.0, 0.0], [1.0, 0.5], [2.0, 0.5]])
    beta = lambda u: _one_jump_curves(clock, u)[0]
    lambda_beta = lambda u: _one_jump_curves(clock, u)[1]
    assert beta(0.5) == pytest.approx(0.25)
    assert beta(1.0) == pytest.approx(0.5)
    assert beta(1.7) == pytest.approx(0.5)
    assert lambda_beta(0.5) == pytest.approx(0.125)  # slope^2 * u
    assert lambda_beta(1.5) == pytest.approx(0.25)
    # beyond the last knot the final slope extends
    assert beta(3.0) == pytest.approx(0.5)


@pytest.mark.pin
@pytest.mark.parametrize("clock", [
    ClockSpec.cap_at_first_passage(1.3),
    ClockSpec.piecewise_linear([[0.0, 0.0], [0.5, 0.2], [1.0, 1.1], [3.0, 1.5]]),
], ids=["cap", "piecewise"])
def test_clock_increments_match_one_path_reference(clock):
    jb = sample_jump_batch(1.5, 1.0, 0.05, 300, substream(17, 1, 0))
    d_beta, d_lambda, normalizer, cap = clock.increments(jb)
    if clock.kind == "cap_at_first_passage":
        # a slope of 0 or 1: the mark is kept or zeroed, with no conditional part
        assert np.array_equal(d_lambda, d_beta)
        increments = clock.increments(jb)
        ratio, c = clock.mark_law(jb.sizes, increments)
        assert np.all((ratio == 0.0) | (ratio == 1.0)) and np.all(c == 0.0)
        # so keeping or zeroing each mark is the general law r dW + c Z, bit for bit
        dW = np.random.default_rng(3).standard_normal((jb.total, 2))
        marks = clock.beta_marks(jb.sizes, increments, dW, None)
        assert np.array_equal(marks, ratio[:, None] * dW)
        assert np.array_equal(np.signbit(marks), np.signbit(ratio[:, None] * dW))
    # the batch's cumulatives subtract each path's start from one running sum
    # over the whole batch, so they carry roundoff on the scale of its total
    tol = 1e-14 * jb.sizes.sum()
    kinds = set()
    for i in range(jb.n):
        lo, hi = jb.offsets[i], jb.offsets[i + 1]
        ref_beta, ref_lambda, ref_norm = clock_increments(clock, jb.sizes[lo:hi])
        assert normalizer[i] == pytest.approx(ref_norm, rel=1e-12, abs=tol)
        if clock.kind == "cap_at_first_passage":
            # the 0/1 rule: each jump counts whole or not at all
            assert np.array_equal(d_beta[lo:hi], ref_beta)
            # the clock value at the first jump whose per-path cumsum reaches R
            cum = np.cumsum(jb.sizes[lo:hi])
            reached = cum[cum >= clock.R]
            assert cap[i] == (np.inf if reached.size == 0 else pytest.approx(reached[0], abs=tol))
            kinds.add((reached.size == 0, bool(np.all(d_beta[lo:hi] > 0))))
        else:
            np.testing.assert_allclose(d_beta[lo:hi], ref_beta, rtol=1e-12, atol=4 * tol)
            np.testing.assert_allclose(d_lambda[lo:hi], ref_lambda, rtol=1e-12, atol=4 * tol)
            assert np.all(np.isinf(cap))
    if clock.kind == "piecewise_linear":
        # a jump with no knot strictly inside its clock interval lies in one
        # linear piece, where the conditional mark part is exactly 0
        ell_pre, ell_post, _ = path_cumulatives(jb)
        ku = clock.knots[:, 0]
        inside = ~np.any((ell_pre[:, None] < ku) & (ku < ell_post[:, None]), axis=1)
        _, c = clock.mark_law(jb.sizes, clock.increments(jb))
        assert inside.any() and not inside.all()
        assert np.all(c[inside] == 0.0) and np.any(c[~inside] > 0.0)
    if clock.kind == "cap_at_first_passage":
        # uncapped paths, paths capped before their last jump, and paths
        # capped at it all occur
        assert kinds == {(True, True), (False, False), (False, True)}


@pytest.mark.pin
@pytest.mark.parametrize("clock", [
    ClockSpec.cap_at_first_passage(1.3),
    ClockSpec.piecewise_linear([[0.0, 0.0], [0.5, 0.2], [1.0, 1.1], [3.0, 1.5]]),
], ids=["cap", "piecewise"])
def test_beta_marks_read_the_auxiliary_normals_as_an_array(clock):
    # a fixed ClockDraw draws the auxiliary normals from the marks' stream right after the marks
    path = JumpPath(1.0, np.array([0.1, 0.35, 0.6, 0.9]), np.array([0.4, 0.8, 0.3, 0.5]))
    jb, dW, aux = ClockDraw.fixed(path, 0.95, 2, 4).batch(1, 50)
    rng = substream(4, engine.PURPOSE_MARKS, 1)
    assert np.array_equal(dW, sample_mark_batch(jb, 2, rng))
    assert np.array_equal(aux, rng.standard_normal(dW.shape))
    increments = clock.increments(jb)
    marks = clock.beta_marks(jb.sizes, increments, dW, aux)
    ratio, c = clock.mark_law(jb.sizes, increments)
    if clock.kind == "cap_at_first_passage":
        # c = 0: the cap clock never reads them
        assert marks.tobytes() == clock.beta_marks(jb.sizes, increments, dW, None).tobytes()
    else:
        # kinks inside the clock intervals: some c > 0
        assert np.any(c > 0.0)
        assert marks.tobytes() == (ratio[:, None] * dW + c[:, None] * aux).tobytes()


def test_clock_validation():
    with pytest.raises(ValueError):
        ClockSpec.cap_at_first_passage(0.0)
    with pytest.raises(ValueError):
        ClockSpec.piecewise_linear([[0.0, 0.1], [1.0, 0.5]])  # must start at (0, 0)
    with pytest.raises(ValueError):
        ClockSpec.piecewise_linear([[0.0, 0.0], [1.0, 0.5], [0.5, 0.6]])
    with pytest.raises(ValueError):
        ClockSpec.piecewise_linear([[0.0, 0.0], [1.0, 0.5], [2.0, 0.2]])
    with pytest.raises(ValueError):
        ClockSpec.piecewise_linear([[0.0, 0.0]])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            ClockSpec.piecewise_linear([[0.0, 0.0], [1.0, 0.5], [2.0, bad]])
        with pytest.raises(ValueError, match="finite"):
            ClockSpec.piecewise_linear([[0.0, 0.0], [1.0, 0.5], [bad, 1.0]])
    with pytest.raises(ValueError, match="unknown clock kind"):
        ClockSpec(kind="exponential")


def test_weight_validation():
    with pytest.raises(ValueError):
        BismutWeight(I1=0.0, I2=0.0, I3=0.0, normalizer=0.0)
    w = BismutWeight(I1=1.0, I2=2.0, I3=3.0, normalizer=2.0)
    assert w.weight == (1.0 - 2.0 + 3.0) / 2.0


def test_estimator_input_validation():
    spec = BernsteinSpec.alpha_stable(1.5)
    F = catalog("additive_identity", 1)
    f = lambda X: X[:, 0]
    ok = dict(x=np.zeros(1), v=np.ones(1), f=f, field=F, spec=spec,
              t=1.0, R="auto", n_paths=10, eps_cut=3e-3, seed=0)
    with pytest.raises(ValueError):
        estimate_gradient(**{**ok, "t": 0.0})
    with pytest.raises(ValueError):
        estimate_gradient(**{**ok, "eps_cut": 0.0})
    with pytest.raises(ValueError):
        estimate_gradient(**{**ok, "eps_cut": 1e-11})  # jump intensity blows up
    with pytest.raises(ValueError):
        estimate_gradient(**{**ok, "x": np.zeros(2)})
    with pytest.raises(ValueError):
        estimate_gradient(**{**ok, "n_paths": 0})
    with pytest.raises(ValueError):
        estimate_gradient(**{**ok, "R": -1.0})
