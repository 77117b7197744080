"""Jump sampling, truncation, one-path clock values, and inverse moments."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

import oracles
from levygrad import (
    BernsteinSpec,
    JumpPath,
    default_eps_cut,
    default_level_R,
    dropped_mass_rate,
    inverse_moment,
    sample_jump_path,
    sample_terminal_values,
    stable_median_s1,
    substream,
    tail_mass,
    truncate_jumps,
)
from levygrad import subordinator
from levygrad.engine import (
    first_passage_levels,
    fixed_jump_batch,
    path_cumulatives,
    sample_jump_batch,
)

ALPHAS = (0.8, 1.0, 1.5, 1.9)
EPSES = (1e-4, 3e-3, 0.1, 1.0)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("eps", EPSES)
def test_tail_mass_matches_density_quadrature(alpha, eps):
    assert tail_mass(alpha, eps) == pytest.approx(
        oracles.tail_mass_quadrature(alpha, eps), rel=1e-10
    )


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("eps", EPSES)
def test_dropped_mass_rate_matches_density_quadrature(alpha, eps):
    assert dropped_mass_rate(alpha, eps) == pytest.approx(
        oracles.dropped_mass_quadrature(alpha, eps), rel=1e-10
    )


def test_jump_counts_are_poisson_with_tail_mass_rate():
    spec = BernsteinSpec.alpha_stable(1.5)
    lam = tail_mass(1.5, 3e-3) * 1.0
    rng = substream(42, 0)
    counts = [sample_jump_path(spec, 1.0, 3e-3, rng).times.size for _ in range(2000)]
    counts = np.asarray(counts, dtype=float)
    se = math.sqrt(lam / counts.size)
    assert abs(counts.mean() - lam) <= 3.0 * se
    # Poisson variance equals the mean; generous window for the second moment.
    assert counts.var() == pytest.approx(lam, rel=0.15)


def test_jump_times_sorted_sizes_above_cutoff():
    spec = BernsteinSpec.alpha_stable(1.2)
    rng = substream(7, 1)
    for _ in range(50):
        p = sample_jump_path(spec, 2.0, 1e-2, rng)
        assert np.all(np.diff(p.times) > 0)
        assert np.all(p.sizes >= 1e-2)
        assert np.all(p.times > 0) and np.all(p.times <= 2.0)


@pytest.mark.parametrize("horizon", [0.0, 0.3, 2.0])
def test_jump_path_is_the_one_path_batch_draw(horizon):
    spec = BernsteinSpec.alpha_stable(1.5)
    for seed in range(17):
        path = sample_jump_path(spec, horizon, 3e-2, substream(seed, 1))
        ref = sample_jump_batch(1.5, horizon, 3e-2, 1, substream(seed, 1)).extract_path(0)
        assert path.horizon == ref.horizon == horizon
        assert np.array_equal(path.times, ref.times)
        assert np.array_equal(path.sizes, ref.sizes)


def test_clock_samplers_refuse_excess_jump_intensity(monkeypatch):
    # tail_mass(1.5, 1e-2) is about 8.7 jumps per unit time
    monkeypatch.setattr(subordinator, "MAX_JUMPS_PER_PATH", 5.0)
    spec = BernsteinSpec.alpha_stable(1.5)
    with pytest.raises(ValueError, match="expected jumps per path"):
        sample_jump_path(spec, 1.0, 1e-2, substream(1, 1))
    with pytest.raises(ValueError, match="expected jumps per path"):
        sample_terminal_values(spec, 1.0, 1e-2, 4, substream(1, 2))
    assert sample_jump_path(spec, 0.5, 1e-2, substream(1, 1)).horizon == 0.5
    assert sample_terminal_values(spec, 0.5, 1e-2, 4, substream(1, 2)).shape == (4,)


def test_terminal_laplace_transform_matches_stable_law():
    # Compensated small-jump drift makes the truncation bias second order,
    # far below the Monte Carlo noise at this sample size.
    spec = BernsteinSpec.alpha_stable(1.2)
    vals = sample_terminal_values(spec, 1.0, 1e-3, 40_000, substream(11, 3),
                                  compensate_small_jumps=True)
    for u in (0.5, 1.0, 2.0):
        samples = np.exp(-u * vals)
        target = math.exp(-(u ** 0.6))
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - target) <= 3.0 * se


def test_terminal_zero_fraction_matches_poisson_atom():
    spec = BernsteinSpec.alpha_stable(1.5)
    eps = 0.5
    lam = tail_mass(1.5, eps) * 0.25
    vals = sample_terminal_values(spec, 0.25, eps, 40_000, substream(11, 4))
    frac = float(np.mean(vals == 0.0))
    p0 = math.exp(-lam)
    se = math.sqrt(p0 * (1.0 - p0) / vals.size)
    assert abs(frac - p0) <= 3.0 * se


@st.composite
def jump_paths(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    times = sorted(draw(st.lists(
        st.floats(min_value=1e-3, max_value=0.999, allow_nan=False),
        min_size=n, max_size=n, unique=True)))
    sizes = draw(st.lists(
        st.floats(min_value=1e-3, max_value=10.0, allow_nan=False),
        min_size=n, max_size=n))
    return JumpPath(horizon=1.0, times=np.asarray(times), sizes=np.asarray(sizes))


@given(jump_paths(), st.floats(min_value=1e-4, max_value=20.0))
@settings(max_examples=80, deadline=None)
def test_truncation_keeps_exactly_large_jumps(path, eps):
    out = truncate_jumps(path, eps)
    kept = path.sizes >= eps
    assert np.array_equal(out.sizes, path.sizes[kept])
    assert np.array_equal(out.times, path.times[kept])
    # Idempotent, and the terminal value never grows.
    again = truncate_jumps(out, eps)
    assert np.array_equal(again.sizes, out.sizes)
    assert _terminal_value(out) <= _terminal_value(path)


@given(jump_paths())
@settings(max_examples=50, deadline=None)
def test_truncation_at_zero_is_identity(path):
    out = truncate_jumps(path, 0.0)
    assert np.array_equal(out.sizes, path.sizes)


def _terminal_value(path):
    """The clock at the horizon, from the batch cumulatives of a one-path batch."""
    return path_cumulatives(fixed_jump_batch(path, path.horizon, 1))[2][0]


def test_path_value_left_limits():
    # each jump's clock interval (left limit, value) on a one-path batch
    p = JumpPath(horizon=1.0, times=np.array([0.3, 0.7]), sizes=np.array([2.0, 5.0]))
    ell_pre, ell_post, ell_T = path_cumulatives(fixed_jump_batch(p, 1.0, 1))
    assert ell_pre.tolist() == [0.0, 2.0]
    assert ell_post.tolist() == [2.0, 7.0]
    assert ell_T.tolist() == [7.0]
    # cut before the first jump, the clock is still 0
    assert path_cumulatives(fixed_jump_batch(p, 0.2, 1))[2].tolist() == [0.0]


@pytest.mark.parametrize(
    "horizon,times,sizes",
    [
        (1.0, [0.2, math.nan, 0.5], [1.0, 1.0, 1.0]),
        (1.0, [0.5], [math.nan]),
        (1.0, [0.5], [math.inf]),
        (math.nan, [0.5], [1.0]),
        (math.inf, [0.5], [1.0]),
    ],
    ids=["nan_time", "nan_size", "inf_size", "nan_horizon", "inf_horizon"],
)
def test_path_refuses_non_finite_data(horizon, times, sizes):
    with pytest.raises(ValueError, match="finite"):
        JumpPath(horizon, np.asarray(times), np.asarray(sizes))


@pytest.mark.parametrize(
    "times, sizes, message",
    [
        ([0.2, 0.5], [1.0], "equal length"),
        ([0.5, 0.5], [1.0, 1.0], "strictly increasing"),
        ([0.6, 0.2], [1.0, 1.0], "strictly increasing"),
        ([0.0, 0.5], [1.0, 1.0], r"\(0, horizon\]"),
        ([0.5, 1.5], [1.0, 1.0], r"\(0, horizon\]"),
        ([0.2, 0.5], [1.0, 0.0], "positive"),
        ([0.2, 0.5], [-1.0, 1.0], "positive"),
    ],
    ids=["unequal_shapes", "tied_times", "decreasing_times", "time_at_zero", "time_past_horizon",
         "zero_size", "negative_size"],
)
def test_path_refuses_malformed_jumps(times, sizes, message):
    with pytest.raises(ValueError, match=message):
        JumpPath(1.0, np.asarray(times), np.asarray(sizes))


def test_path_keeps_its_own_read_only_copy():
    # JumpPath used to take a float array as is and freeze it: the caller's
    # times and sizes turned read-only
    times, sizes = np.array([0.2, 0.5]), np.array([0.4, 0.8])
    p = JumpPath(1.0, times, sizes)
    times[0], sizes[0] = 0.1, 0.3
    assert p.times.tolist() == [0.2, 0.5] and p.sizes.tolist() == [0.4, 0.8]
    assert not (p.times.flags.writeable or p.sizes.flags.writeable)


def _crossing(path, R):
    """The crossing jump's index on a one-path batch (-1 if R is not reached) and its interval."""
    jb = fixed_jump_batch(path, path.horizon, 1)
    ell_pre, ell_post, _ = path_cumulatives(jb)
    j = int(first_passage_levels(jb, ell_post, R)[0])
    return (j, None) if j < 0 else (j, (ell_pre[j], ell_post[j]))


def test_first_passage_hand_path():
    p = JumpPath(horizon=1.0, times=np.array([0.3, 0.7]), sizes=np.array([2.0, 5.0]))
    assert _crossing(p, 1.0) == (0, (0.0, 2.0))
    assert _crossing(p, 3.0) == (1, (2.0, 7.0))
    assert _crossing(p, 8.0) == (-1, None)


def test_first_passage_at_exact_level():
    p = JumpPath(horizon=1.0, times=np.array([0.5]), sizes=np.array([1.0]))
    assert _crossing(p, 1.0) == (0, (0.0, 1.0))


@pytest.mark.parametrize("alpha,gamma", [(1.0, 0.5), (1.5, 0.5), (1.0, 1.0), (1.2, 0.7)])
def test_inverse_moment_closed_form(alpha, gamma):
    spec = BernsteinSpec.alpha_stable(alpha)
    got = inverse_moment(spec, 1.0, gamma)
    assert got == pytest.approx(
        oracles.inverse_moment_closed_form(alpha, 1.0, gamma), rel=1e-6
    )


def test_inverse_moment_self_similar_scaling():
    spec = BernsteinSpec.alpha_stable(1.5)
    base = inverse_moment(spec, 1.0, 0.5)
    for t in (0.25, 0.5, 2.0, 4.0):
        assert inverse_moment(spec, t, 0.5) == pytest.approx(
            base * t ** (-2.0 * 0.5 / 1.5), rel=1e-8
        )


def test_inverse_moment_monte_carlo_cross_check():
    spec = BernsteinSpec.alpha_stable(1.0)
    vals = sample_terminal_values(spec, 1.0, 1e-4, 40_000, substream(29, 5),
                                  compensate_small_jumps=True)
    samples = vals ** -0.5
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    assert abs(samples.mean() - 2.0 / math.sqrt(math.pi)) <= 3.0 * se


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.9])
@pytest.mark.parametrize("gamma", [0.3, 0.5, 1.0, 2.0])
def test_inverse_moment_matches_quadrature(alpha, gamma):
    got = inverse_moment(BernsteinSpec.alpha_stable(alpha), 1.0, gamma)
    assert got == pytest.approx(oracles.inverse_moment_quadrature(alpha, 1.0, gamma), rel=1e-9)


# The oracle of the small-jump compensation: each path's eps-truncated clock
# plus the dropped mean mass mu t.
def test_compensated_sign_target_lies_just_below_the_untruncated_one():
    # Jensen: the random small jumps replaced by their mean give a smaller
    # E (.)^{-1/2}; at eps = 2e-4 they carry little enough mass to stay within 1e-5
    full = math.sqrt(2.0 / math.pi) * inverse_moment(BernsteinSpec.alpha_stable(1.5), 1.0, 0.5)
    got = oracles.compensated_sign_gradient_target(1.5, 1.0, 2e-4)
    assert full - 1e-5 < got < full


def test_compensated_sign_target_falls_as_the_cut_grows():
    values = [oracles.compensated_sign_gradient_target(1.5, 1.0, eps) for eps in (2e-4, 1e-2, 3e-2, 1e-1)]
    assert all(a > b for a, b in zip(values, values[1:])), values


def test_compensated_sign_target_matches_the_sampled_clock():
    eps, t = 1e-2, 1.0
    batch = sample_jump_batch(1.5, t, eps, 1 << 16, substream(32, 4))
    ell_t = path_cumulatives(batch)[2]
    samples = math.sqrt(2.0 / math.pi) / np.sqrt(ell_t + dropped_mass_rate(1.5, eps) * t)
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    assert abs(samples.mean() - oracles.compensated_sign_gradient_target(1.5, t, eps)) <= 3.0 * se


def test_inverse_moment_past_the_gamma_overflow():
    # Gamma(1 + gamma/rho) = Gamma(201) overflows, but E S_t**(-gamma) is about 3e-58
    spec = BernsteinSpec.alpha_stable(0.3)
    got = inverse_moment(spec, 100.0, 30.0)
    assert got == pytest.approx(oracles.inverse_moment_quadrature(0.3, 100.0, 30.0), rel=1e-9)


def test_inverse_moment_beyond_the_float_range_names_its_arguments():
    # the log of E S_1**(-1) is about 863 at alpha = 0.01
    with pytest.raises(ValueError, match="alpha = 0.01, gamma = 1.0, t = 1.0"):
        inverse_moment(BernsteinSpec.alpha_stable(0.01), 1.0, 1.0)


def test_inverse_moment_below_the_float_range_names_its_arguments():
    # the log of E S_t**(-300) is about -8600 at alpha = 1.5, t = 1e10
    with pytest.raises(ValueError, match="underflows .* alpha = 1.5, gamma = 300.0, t = 10000000000.0"):
        inverse_moment(BernsteinSpec.alpha_stable(1.5), 1e10, 300.0)
    # a subnormal value would carry only part of its digits
    with pytest.raises(ValueError, match="underflows"):
        inverse_moment(BernsteinSpec.alpha_stable(1.0), 1e4, 50.5)


def test_stable_median_closed_form_at_alpha_1():
    # S_1 is Levy's law at alpha = 1: P(S_1 <= x) = erfc(1 / (2 sqrt(x)))
    median = stable_median_s1(BernsteinSpec.alpha_stable(1.0))
    assert median == pytest.approx(1.0 / (4.0 * special.erfcinv(0.5) ** 2), rel=1e-9)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 1.2, 1.5, 1.9, 1.99])
def test_stable_median_solves_the_cdf(alpha):
    median = stable_median_s1(BernsteinSpec.alpha_stable(alpha))
    assert abs(oracles.stable_cdf_kanter_quadrature(median, alpha) - 0.5) <= 1e-9
    if alpha != 1.99:  # scipy's stable cdf is nan there
        assert abs(oracles.stable_cdf(median, alpha) - 0.5) <= 1e-9


@pytest.mark.parametrize("alpha", [0.05, 1.99])
def test_stable_median_raises_no_warning_at_extreme_alpha(alpha):
    # the uncached function, so the rule runs here whatever ran before
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        median = stable_median_s1.__wrapped__(BernsteinSpec.alpha_stable(alpha))
    assert math.isfinite(median) and median > 0


def test_stable_median_beyond_the_float_range_names_alpha():
    # the median of S_1 is 8.4e158 at alpha = 0.002 and overflows below
    spec = BernsteinSpec.alpha_stable(0.001)
    for fn in (stable_median_s1, lambda s: default_level_R(s, 1.0),
               lambda s: default_eps_cut(s, 1.0)):
        with pytest.raises(ValueError, match="float range at alpha = 0.001"):
            fn(spec)
    assert math.isfinite(stable_median_s1(BernsteinSpec.alpha_stable(0.002)))


def test_stable_median_reproducible_and_plausible():
    spec = BernsteinSpec.alpha_stable(1.5)
    m1 = stable_median_s1(spec)
    m2 = stable_median_s1(spec)
    assert m1 == m2
    assert 0.5 < m1 < 1.5
    # Median must sit below the mean-free heavy tail scale but above the bulk
    # of the small-jump mass; the Laplace transform pins the plausible range.


def test_default_eps_cut_scales_self_similarly():
    spec = BernsteinSpec.alpha_stable(1.5)
    e1 = default_eps_cut(spec, 1.0)
    for t in (0.25, 0.5, 2.0):
        assert default_eps_cut(spec, t) == pytest.approx(
            e1 * t ** (2.0 / 1.5), rel=1e-12
        )


def test_substream_reproducible_and_keyed():
    a = substream(123, 1, 0).standard_normal(5)
    b = substream(123, 1, 0).standard_normal(5)
    c = substream(123, 2, 0).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError, match="nonnegative"):
        substream(123, 1, -1)


def test_spec_validation():
    with pytest.raises(ValueError):
        BernsteinSpec.alpha_stable(2.0)
    with pytest.raises(ValueError):
        BernsteinSpec.alpha_stable(0.0)
