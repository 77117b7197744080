"""The sigma_scale hint, sigma = scale * I_d, against the (m, d, d) matrix route.

Every catalog field carries the hint, and a copy with it stripped
(dataclasses.replace(field, sigma_scale=None)) runs the matrix route. The
matrix products only add exact zeros to the hinted route's scalar products,
so both routes must give the same bytes: every flow_batch output (signs of
zeros included) and every estimator's whole result. The trace of A = a I
is einsum's sum of d equal terms, which d * a matches only for small d, so
the flows also run at d = 9. Also here: the refusals of a malformed hint or hook result,
and what the hint takes precedence over.
"""

import dataclasses
import json

import numpy as np
import pytest

from levygrad import (
    BernsteinSpec,
    catalog,
    estimate_gradient,
    estimate_pt,
    fd_gradient,
    make_observable,
    substream,
)
from levygrad import engine
from levygrad.coefficients import CATALOG_NAMES
from levygrad.engine import flow_batch, sample_jump_batch

SPEC = BernsteinSpec.alpha_stable(1.5)
TANH = make_observable("tanh1")
N = 1024


def _field(name, d):
    """A catalog field, or "bm_rk4": bounded_multiplicative without its drift_rate hint."""
    if name == "bm_rk4":
        return dataclasses.replace(catalog("bounded_multiplicative", d), drift_rate=None)
    return catalog(name, d)


# each flow route at d = 1..4: the jump rounds with r > 0, RK4, and the rounds
# with constant sigma at r = 0 (additive_identity) and at r > 0 (ou_additive)
FIELDS = [(name, d) for name in ("bounded_multiplicative", "bm_rk4", "additive_identity", "ou_additive")
          for d in (1, 2, 3, 4)] + [("pythagoras_1d", 1)]


def _stripped(field):
    assert field.sigma_scale is not None
    return dataclasses.replace(field, sigma_scale=None)


def _same_bytes(got, want):
    if want is None:
        return got is None
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _flow_inputs(d):
    """A sampled batch whose marks and beta-weighted marks hold signed zeros,
    from a state and a direction that hold -0.0: a path whose first jump has
    a -0.0 mark where its state (or J v) is -0.0 keeps +0.0 on the matrix
    route, where the product is summed with exact zeros."""
    jb = sample_jump_batch(1.5, 0.5, 3e-2, 300, substream(4, engine.PURPOSE_JUMPS, 0))
    dW = engine.sample_mark_batch(jb, d, substream(4, engine.PURPOSE_MARKS, 0))
    dWb = 0.5 * dW + np.random.default_rng(d).standard_normal(dW.shape) * np.sqrt(jb.sizes)[:, None]
    dW[::5, :2] = -0.0
    dW[1::7] = 0.0
    dWb[2::9, -1] = -0.0
    x0 = np.resize([-0.0, -0.0, -0.2, 0.1], d)
    v = np.resize([1.0, -0.0, -0.25, 0.75], d)
    return jb, dW, dWb, x0, v


# at d = 9, d * a is not einsum's sum of the trace's d equal terms
@pytest.mark.pin
@pytest.mark.parametrize("name, d", FIELDS + [("bounded_multiplicative", 9)])
@pytest.mark.parametrize("with_v", [True, False])
def test_hinted_flow_matches_the_matrix_route_bitwise(name, d, with_v):
    field = _field(name, d)
    jb, dW, dWb, x0, v = _flow_inputs(d)
    weight = (dWb, 0.7 * jb.sizes) if with_v else ()
    v = v if with_v else None
    hinted = flow_batch(x0, v, field, jb, dW, 100, *weight)
    matrix = flow_batch(x0, v, _stripped(field), jb, dW, 100, *weight)
    assert all(_same_bytes(got, want) for got, want in zip(hinted, matrix))
    # the trace and jump-measure terms are formed (slope != 0)
    assert not with_v or field.sigma_is_constant or np.any(hinted[3] != 0.0)


ESTIMATORS = {
    "estimate_gradient": lambda field, x, v: estimate_gradient(
        x, v, TANH, field, SPEC, 0.5, "auto", N, 1e-2, 318, collect_samples=N),
    "fd_gradient": lambda field, x, v: fd_gradient(
        x, v, TANH, field, SPEC, 0.5, 5e-3, N, 319, eps_cut=1e-2),
    "estimate_pt": lambda field, x, v: estimate_pt(x, TANH, field, SPEC, 0.5, N, 13, eps_cut=1e-2),
}


def _run(estimator, field, d):
    result = ESTIMATORS[estimator](field, np.resize([0.3, 0.0, -0.2, 0.1], d),
                                   np.resize([1.0, 0.5, -0.25, 0.75], d))
    return json.dumps(result.to_dict(), sort_keys=True), np.array(result.sample_rows).tobytes()


@pytest.mark.pin
@pytest.mark.parametrize("name, d", FIELDS)
@pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
def test_hinted_estimators_match_the_matrix_route_bitwise(name, d, estimator):
    field = _field(name, d)
    assert _run(estimator, field, d) == _run(estimator, _stripped(field), d)


CATALOG = [(name, d) for name in CATALOG_NAMES for d in (1, 2, 3, 4) if name != "pythagoras_1d" or d == 1]


@pytest.mark.pin
@pytest.mark.parametrize("name, d", CATALOG)
def test_catalog_hint_is_the_diagonal_of_its_matrices(name, d):
    # scale, 1/scale and slope are the diagonals of sigma, sigma_inv and
    # dsigma bit for bit, signs of zeros included, off-diagonals +0.0
    rng = np.random.default_rng(d)
    entries = np.array([-40.0, -1.3, -0.5, -0.0, 0.0, 0.5, 1.3, 40.0, 1e-300, -1e-300])
    x, u = rng.choice(entries, size=(500, d)), rng.choice(entries, size=(500, d))
    field = catalog(name, d)
    scale, slope = field.sigma_scale
    eye = np.eye(d, dtype=bool)
    for got, matrix in ((scale(0.25, x), field.sigma(0.25, x)),
                        (1.0 / scale(0.25, x), field.sigma_inv(0.25, x)),
                        (slope(0.25, x, u), field.dsigma(0.25, x, u))):
        assert got.shape == (500,)
        assert np.tile(got[:, None], d).tobytes() == matrix[:, eye].tobytes()
        assert matrix[:, ~eye].tobytes() == np.zeros((500, d * d - d)).tobytes()


BM2 = catalog("bounded_multiplicative", 2)
AI2 = catalog("additive_identity", 2)
_scale, _slope = BM2.sigma_scale
MALFORMED = r"^sigma_scale must be None or a pair \(scale, slope\) of callables"
HINT_REFUSALS = {
    # CoefficientField refuses a malformed hint when it is built
    "half given": (lambda: dataclasses.replace(BM2, sigma_scale=(_scale, None)), MALFORMED),
    "scale alone": (lambda: dataclasses.replace(BM2, sigma_scale=_scale), MALFORMED),
    "three callables": (
        lambda: dataclasses.replace(BM2, sigma_scale=(_scale, _slope, _slope)), MALFORMED),
    "not callable": (lambda: dataclasses.replace(BM2, sigma_scale=(_scale, 1.0)), MALFORMED),
    "a list": (lambda: dataclasses.replace(BM2, sigma_scale=[_scale, _slope]), MALFORMED),
    # the engine refuses a result not shaped (m,) before it can broadcast
    "scale of shape (m, 1)": (
        lambda: _gradient(dataclasses.replace(
            BM2, sigma_scale=(lambda t, x: _scale(t, x)[:, None], _slope))),
        r"^sigma_scale scale returned shape \(\d+, 1\); it must return shape \(\d+,\)$"),
    "slope of shape (m, d)": (
        lambda: _gradient(dataclasses.replace(
            BM2, sigma_scale=(_scale, lambda t, x, u: np.asarray(u) * 0.25))),
        r"^sigma_scale slope returned shape \(\d+, 2\); it must return shape \(\d+,\)$"),
    "drift-free scale of shape ()": (
        lambda: _gradient(dataclasses.replace(AI2, sigma_scale=(lambda t, x: 1.0, _slope))),
        r"^sigma_scale scale returned shape \(\); it must return shape \(\d+,\)$"),
}


def _gradient(field):
    return estimate_gradient(np.array([0.3, 0.0]), np.array([1.0, 0.5]), TANH, field, SPEC, 0.5,
                             "auto", 8, 0.05, 1)


@pytest.mark.parametrize("case", sorted(HINT_REFUSALS))
def test_malformed_hint_is_refused(case):
    run, message = HINT_REFUSALS[case]
    with pytest.raises(ValueError, match=message):
        run()


def _never(*args):
    raise AssertionError("the engine called a callable the hint stands in for")


@pytest.mark.parametrize("name", ["bounded_multiplicative", "ou_additive", "additive_identity"])
def test_hint_takes_precedence_over_the_matrix_callables(name):
    # with the hint the engine calls neither sigma, sigma_inv, dsigma nor
    # grad_sigma; with sigma_is_constant as well it calls no slope either
    field = catalog(name, 2)
    bare = dataclasses.replace(field, sigma=_never, sigma_inv=_never, dsigma=_never, grad_sigma=_never)
    if field.sigma_is_constant:
        bare = dataclasses.replace(bare, sigma_scale=(field.sigma_scale[0], _never))
    assert _gradient(bare).to_dict() == _gradient(field).to_dict()
