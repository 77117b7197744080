"""Per-path reference flow: RK4 accuracy, jump updates, left limits, mark law.

Also the batched engine's blow-up guard, which the reference shares.
"""

import dataclasses
import math

import numpy as np
import pytest

import oracles
from levygrad import (
    BernsteinSpec,
    BlowUpError,
    ClockSpec,
    CoefficientField,
    JumpPath,
    catalog,
    default_level_R,
    estimate_gradient,
    estimate_pt,
    make_observable,
    substream,
)
from levygrad import engine
from levygrad.bismut import ClockDraw
from reference import (
    FlowState,
    PathRealization,
    apply_jump,
    evolve_drift,
    sample_increments,
    simulate_flow,
)


def _empty_realization(d, horizon=1.0):
    path = JumpPath(horizon=horizon, times=np.array([]), sizes=np.array([]))
    return PathRealization(path, np.zeros((0, d)), np.zeros((0, d)))


def test_zero_drift_is_exact_identity():
    F = catalog("additive_identity", 3)
    x0 = np.array([0.3, -1.0, 2.0])
    v = np.array([1.0, 0.5, 0.0])
    out = simulate_flow(x0, v, F, _empty_realization(3), 1.0)
    assert len(out) == 1
    assert np.array_equal(out[0].X, x0)
    assert np.array_equal(out[0].J, v)


def test_linear_drift_matches_exponential():
    F = catalog("ou_additive", 2)
    x0 = np.array([1.0, -2.0])
    v = np.array([0.5, 1.0])
    out = simulate_flow(x0, v, F, _empty_realization(2), 1.0, substeps_per_unit=100)
    target = oracles.ou_terminal(x0, 1.0)
    assert np.abs(out[-1].X - target).max() <= 1e-8
    assert np.abs(out[-1].J - math.exp(-1.0) * v).max() <= 1e-8


def test_rk4_error_is_fourth_order():
    F = catalog("ou_additive", 1)
    x0 = np.array([1.0])
    target = math.exp(-1.0)
    errs = []
    for substeps in (4, 8, 16):
        st = evolve_drift(FlowState.initial(x0, np.array([1.0])), F, 0.0, 1.0, substeps)
        errs.append(abs(st.X[0] - target))
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    assert 12.0 < r1 < 20.0
    assert 12.0 < r2 < 20.0


def test_apply_jump_hand_values():
    # sigma(1) = sqrt(2) and the directional slope there is 2^{-1/2}; with
    # mark 0.5 the state moves to 1 + sqrt(2)/2 and the derivative to 1 + 1/(2 sqrt 2).
    F = catalog("pythagoras_1d", 1)
    st = FlowState(0.4, np.array([1.0]), np.array([1.0]))
    out = apply_jump(st, F, 0.4, np.array([0.5]))
    assert out.X[0] == pytest.approx(1.0 + math.sqrt(2.0) / 2.0, rel=1e-14)
    assert out.J[0] == pytest.approx(1.0 + 0.5 / math.sqrt(2.0), rel=1e-14)
    assert out.s == 0.4


def test_snapshot_layout_and_left_limit_discipline():
    F = catalog("pythagoras_1d", 1)
    w = 0.7
    path = JumpPath(horizon=1.0, times=np.array([0.4]), sizes=np.array([0.9]))
    real = PathRealization(path, np.array([[w]]), np.array([[0.1]]))
    x0 = np.array([1.0])
    out = simulate_flow(x0, np.array([1.0]), F, real, 1.0)
    assert len(out) == 3  # pre, post, final
    pre, post, final = out
    # No drift: nothing moves before the jump or after it.
    assert np.array_equal(pre.X, x0)
    assert post.X[0] == pre.X[0] + math.sqrt(1.0 + pre.X[0] ** 2) * w
    assert np.array_equal(final.X, post.X)
    assert pre.s == 0.4 and post.s == 0.4 and final.s == 1.0


def test_jump_at_evaluation_time_is_included():
    F = catalog("additive_identity", 1)
    path = JumpPath(horizon=1.0, times=np.array([1.0]), sizes=np.array([0.5]))
    real = PathRealization(path, np.array([[2.0]]), np.array([[0.0]]))
    out = simulate_flow(np.zeros(1), np.ones(1), F, real, 1.0)
    assert len(out) == 3
    assert out[-1].X[0] == 2.0

    out_before = simulate_flow(np.zeros(1), np.ones(1), F, real, 0.999)
    assert len(out_before) == 1
    assert out_before[0].X[0] == 0.0


def test_mark_law_moments_and_reproducibility():
    path = JumpPath(horizon=1.0, times=np.array([0.2, 0.5, 0.9]),
                    sizes=np.array([4.0, 1.0, 0.25]))
    rng = substream(77, 0)
    z_all, aux_all = [], []
    for _ in range(3000):
        real = sample_increments(path, 2, rng)
        z_all.append(real.increments / np.sqrt(path.sizes)[:, None])
        aux_all.append(real.aux_normals)
    z = np.concatenate(z_all).ravel()
    aux = np.concatenate(aux_all).ravel()
    n = z.size
    assert abs(z.mean()) <= 3.0 / math.sqrt(n)
    assert abs(z.var() - 1.0) <= 3.0 * math.sqrt(2.0 / n)
    assert abs(aux.var() - 1.0) <= 3.0 * math.sqrt(2.0 / n)
    assert abs(np.mean(z * aux)) <= 3.0 / math.sqrt(n)

    a = sample_increments(path, 2, substream(5, 1, 2))
    b = sample_increments(path, 2, substream(5, 1, 2))
    assert np.array_equal(a.increments, b.increments)
    assert np.array_equal(a.aux_normals, b.aux_normals)


def _cubic_field():
    def b(t, x):
        with np.errstate(over="ignore"):
            return x ** 3

    def grad_b(t, x):
        with np.errstate(over="ignore"):
            return (3.0 * x ** 2)[..., None] * np.eye(1)

    def sigma(t, x):
        return np.ones(x.shape + (1,))

    def grad_sigma(t, x):
        return np.zeros(x.shape + (1, 1))

    return CoefficientField(
        dimension=1, b=b, grad_b=grad_b, sigma=sigma,
        grad_sigma=grad_sigma, sigma_inv=sigma,
        drift_rate=None, sigma_is_constant=True, name="cubic",
    )


def test_explosive_drift_raises_blow_up():
    F = _cubic_field()
    with pytest.raises(BlowUpError):
        simulate_flow(np.array([3.0]), np.array([1.0]), F, _empty_realization(1), 1.0)


def _fast_oscillating_drift_field():
    # b = sin(5000 x) stays bounded while grad_b = 5000 cos(5000 x) drives the
    # directional derivative past the float range: Jv overflows, X never does.
    base = catalog("additive_identity", 1)

    def b(t, x):
        return np.sin(5000.0 * np.asarray(x, dtype=float))

    def grad_b(t, x):
        return (5000.0 * np.cos(5000.0 * np.asarray(x, dtype=float)))[..., None]

    return CoefficientField(
        dimension=1, b=b, grad_b=grad_b, sigma=base.sigma,
        grad_sigma=base.grad_sigma, sigma_inv=base.sigma_inv,
        sigma_is_constant=True, name="fast_oscillating",
    )


# Both runs draw batch 0 of seed 5: t = 1, eps_cut = 3e-2, 200 paths.
BLOW_UP_SEED, BLOW_UP_EPS = 5, 3e-2


def _blow_up_through_estimate_pt():
    estimate_pt(np.array([3.0]), make_observable("tanh1"), _cubic_field(),
                BernsteinSpec.alpha_stable(1.5), 1.0, 200, BLOW_UP_SEED, eps_cut=BLOW_UP_EPS)


def _blow_up_through_estimate_gradient():
    estimate_gradient(np.array([0.3]), np.array([1.0]), make_observable("tanh1"),
                      _fast_oscillating_drift_field(), BernsteinSpec.alpha_stable(1.5),
                      1.0, "auto", 200, BLOW_UP_EPS, BLOW_UP_SEED)


@pytest.mark.parametrize(
    "run, field, x0",
    [(_blow_up_through_estimate_pt, _cubic_field, 3.0),
     (_blow_up_through_estimate_gradient, _fast_oscillating_drift_field, 0.3)],
    ids=["state_overflow", "jacobian_overflow"],
)
def test_batched_estimators_raise_blow_up(run, field, x0):
    # A non-finite X or Jv must stop the run, never turn the mean into NaN,
    # and the error must name a path that blows up again when replayed, at
    # the same s.
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError) as info:
        run()
    err = info.value
    assert err.batch == 0 and 0 <= err.path < 200
    assert f"on path {err.path} of batch 0" in str(err)
    jb = engine.sample_jump_batch(
        1.5, 1.0, BLOW_UP_EPS, 200, substream(BLOW_UP_SEED, engine.PURPOSE_JUMPS, err.batch)
    )
    dW = engine.sample_mark_batch(
        jb, 1, substream(BLOW_UP_SEED, engine.PURPOSE_MARKS, err.batch)
    )
    lo, hi = jb.offsets[err.path], jb.offsets[err.path + 1]
    replay = PathRealization(jb.extract_path(err.path), dW[lo:hi], np.zeros((hi - lo, 1)))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError) as ref:
        simulate_flow(np.array([x0]), np.ones(1), field(), replay, 1.0)
    assert ref.value.s == err.s


def _vanishing_sigma_field():
    # sigma = exp(-x^2) is subnormal at x = 27: sigma^{-1} is infinite while
    # the jumps move X by subnormal amounts, so X and J v stay finite
    def s(x):
        return np.exp(-np.asarray(x, dtype=float)[..., 0] ** 2)

    def grad_sigma(t, x):
        return (-2.0 * np.asarray(x, dtype=float)[..., 0] * s(x))[..., None, None, None]

    return dataclasses.replace(
        catalog("pythagoras_1d"), sigma=lambda t, x: s(x)[..., None, None],
        sigma_inv=lambda t, x: (1.0 / s(x))[..., None, None], grad_sigma=grad_sigma, dsigma=None,
        sigma_scale=None,
    )


def test_non_finite_weight_term_raises_blow_up():
    # the weight terms, not the state, go non-finite: the run must stop
    # instead of returning a NaN mean, and name a path that replays alone
    spec, t, eps, seed, n = BernsteinSpec.alpha_stable(1.5), 1.0, 1e-2, 1, 2000
    field, tanh = _vanishing_sigma_field(), make_observable("tanh1")
    x, v = np.array([27.0]), np.ones(1)
    fine = estimate_gradient(np.ones(1), v, tanh, field, spec, t, "auto", n, eps, seed)
    assert math.isfinite(fine.mean) and math.isfinite(fine.std_error)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError) as info:
        estimate_gradient(x, v, tanh, field, spec, t, "auto", n, eps, seed)
    err = info.value
    assert err.batch == 0 and 0 <= err.path < n
    jb, dW, _ = ClockDraw.stable(spec, t, eps, 1, seed).batch(err.batch, n)
    lo, hi = jb.offsets[err.path], jb.offsets[err.path + 1]
    one = engine.fixed_jump_batch(jb.extract_path(err.path), t, 1)
    clock = ClockSpec.cap_at_first_passage(default_level_R(spec, t))
    increments = clock.increments(one)
    dWb = clock.beta_marks(one.sizes, increments, dW[lo:hi], None)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError) as replay:
        engine.flow_batch(x, v, field, one, dW[lo:hi], 100, dWb, increments.d_beta)
    assert (replay.value.s, replay.value.path) == (err.s, 0)


def test_map_batches_names_the_batch_of_a_blow_up():
    def worker(bi, start, count):
        if bi == 1:
            raise BlowUpError(0.25, path=7)
        return bi

    for workers in (1, 2):
        with pytest.raises(BlowUpError, match="on path 7 of batch 1") as info:
            engine.map_batches(2 * engine.BATCH_SIZE, workers, worker)
        assert (info.value.s, info.value.path, info.value.batch) == (0.25, 7, 1)


def test_evolve_drift_validation():
    F = catalog("additive_identity", 1)
    st = FlowState.initial(np.zeros(1), np.ones(1))
    with pytest.raises(ValueError):
        evolve_drift(st, F, 1.0, 0.5, 4)
    with pytest.raises(ValueError):
        evolve_drift(st, F, 0.0, 1.0, 0)


def test_simulate_flow_validation():
    F = catalog("additive_identity", 1)
    with pytest.raises(ValueError):
        simulate_flow(np.zeros(1), np.ones(1), F, _empty_realization(1, horizon=0.5), 1.0)
    with pytest.raises(ValueError):
        PathRealization(
            JumpPath(horizon=1.0, times=np.array([0.5]), sizes=np.array([1.0])),
            np.zeros((2, 1)), np.zeros((2, 1)),
        )
    with pytest.raises(ValueError):
        FlowState(0.0, np.zeros(2), np.zeros((2, 2)))
