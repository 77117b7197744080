"""Coefficient catalog: analytic derivatives, inverses, inverse-diffusion bounds."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from levygrad import CoefficientField, catalog
from levygrad.coefficients import CATALOG_NAMES
from reference import directional_sigma_derivative

CASES = [
    ("additive_identity", 3),
    ("ou_additive", 2),
    ("pythagoras_1d", 1),
    ("bounded_multiplicative", 2),
]


def _points(d, n=12, seed=5):
    return np.random.default_rng(seed).normal(scale=1.5, size=(n, d))


def test_catalog_names_and_rejection():
    assert set(CATALOG_NAMES) == {
        "additive_identity", "ou_additive", "pythagoras_1d", "bounded_multiplicative"
    }
    with pytest.raises(ValueError):
        catalog("no_such_field", 2)
    with pytest.raises(ValueError):
        catalog("pythagoras_1d", 2)


@pytest.mark.parametrize("name,d", CASES)
def test_sigma_inverse_is_inverse(name, d):
    F = catalog(name, d)
    x = _points(d)
    s = F.sigma(0.0, x)
    si = F.sigma_inv(0.0, x)
    eye = np.broadcast_to(np.eye(d), s.shape)
    assert np.abs(np.einsum("nij,njk->nik", s, si) - eye).max() <= 1e-10
    assert np.abs(np.einsum("nij,njk->nik", si, s) - eye).max() <= 1e-10


@pytest.mark.parametrize("name,d", CASES)
def test_grad_b_matches_finite_differences(name, d):
    F = catalog(name, d)
    x = _points(d)
    g = F.grad_b(0.0, x)
    h = 1e-6
    for k in range(d):
        e = np.zeros((1, d))
        e[0, k] = h
        fd = (F.b(0.0, x + e) - F.b(0.0, x - e)) / (2 * h)
        assert np.abs(g[:, :, k] - fd).max() <= 1e-7


@pytest.mark.parametrize("name,d", CASES)
def test_grad_sigma_matches_finite_differences(name, d):
    F = catalog(name, d)
    x = _points(d)
    g = F.grad_sigma(0.0, x)
    h = 1e-6
    for k in range(d):
        e = np.zeros((1, d))
        e[0, k] = h
        fd = (F.sigma(0.0, x + e) - F.sigma(0.0, x - e)) / (2 * h)
        assert np.abs(g[:, :, :, k] - fd).max() <= 1e-7


def test_directional_derivative_hand_value():
    # sigma(x) = sqrt(1 + x^2) has slope x / sqrt(1 + x^2); at x = 1 with unit
    # direction that is exactly 2^{-1/2}.
    F = catalog("pythagoras_1d", 1)
    x = np.array([[1.0]])
    u = np.array([[1.0]])
    ds = directional_sigma_derivative(F, u, 0.0, x)
    assert ds[0, 0, 0] == pytest.approx(2.0 ** -0.5, rel=1e-12)


@pytest.mark.parametrize("name,d", CASES)
def test_directional_derivative_linear_in_direction(name, d):
    F = catalog(name, d)
    x = _points(d, n=4)
    rng = np.random.default_rng(9)
    u = rng.normal(size=(4, d))
    w = rng.normal(size=(4, d))
    lhs = directional_sigma_derivative(F, 2.0 * u + w, 0.0, x)
    rhs = 2.0 * directional_sigma_derivative(F, u, 0.0, x) \
        + directional_sigma_derivative(F, w, 0.0, x)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_bounded_multiplicative_inverse_diffusion_envelope():
    F = catalog("bounded_multiplicative", 2)
    x = _points(2, n=400, seed=17) * 3.0
    si = F.sigma_inv(0.0, x)
    opnorm = np.linalg.norm(si, ord=2, axis=(1, 2)).max()
    assert opnorm <= 4.0 / 3.0 + 1e-12


# Uniform bound on |sigma^{-1}(t, x)| per catalog field: sigma is the identity
# for the additive fields, sqrt(1 + x^2) >= 1 for pythagoras_1d, and
# (1 + kappa tanh(x_1)) I with kappa = 1/4 for bounded_multiplicative.
SIGMA_INV_BOUND = {
    "additive_identity": 1.0,
    "ou_additive": 1.0,
    "pythagoras_1d": 1.0,
    "bounded_multiplicative": 4.0 / 3.0,
}


@pytest.mark.parametrize("name,d", CASES)
def test_growth_envelope_holds_on_samples(name, d):
    F = catalog(name, d)
    x = _points(d, n=200, seed=23) * 4.0
    si = F.sigma_inv(0.0, x)
    opnorm = np.linalg.norm(si, ord=2, axis=(1, 2))
    assert np.all(opnorm <= SIGMA_INV_BOUND[name] + 1e-10)


@pytest.mark.parametrize("name,d", CASES)
def test_structure_flags_are_truthful(name, d):
    F = catalog(name, d)
    x1 = _points(d, n=1, seed=1)
    x2 = _points(d, n=1, seed=2)
    assert np.array_equal(F.b(0.0, x1), -F.drift_rate * x1)
    assert np.array_equal(F.jvp_b(0.0, x1, x2), -F.drift_rate * x2)
    if F.sigma_is_constant:
        assert np.array_equal(F.sigma(0.0, x1), F.sigma(0.0, x2))
        assert np.all(F.grad_sigma(0.0, x1) == 0.0)
    else:
        assert not np.array_equal(F.sigma(0.0, x1), F.sigma(0.0, x2))


def test_field_validation():
    with pytest.raises(ValueError):
        CoefficientField(
            dimension=0,
            b=lambda t, x: x,
            grad_b=lambda t, x: x,
            sigma=lambda t, x: x,
            grad_sigma=lambda t, x: x,
            sigma_inv=lambda t, x: x,
        )


@pytest.mark.parametrize("dimension", [2.5, True, "2", None])
def test_dimension_must_be_an_integer(dimension):
    # a field of dimension 2.5 would build and fail only at its first evaluation
    with pytest.raises(ValueError, match="^dimension must be an integer"):
        catalog("ou_additive", dimension)
    with pytest.raises(ValueError, match="^dimension must be an integer"):
        dataclasses.replace(catalog("ou_additive", 2), dimension=dimension)


@pytest.mark.parametrize("rate", [True, np.True_, "1.0", 1j, [1.0], math.nan, math.inf, -math.inf])
def test_drift_rate_must_be_a_finite_real_or_none(rate):
    # True would read as rate 1.0 and a NaN rate would scale every state to NaN
    with pytest.raises(ValueError, match="^drift_rate must be a finite real number or None"):
        dataclasses.replace(catalog("ou_additive", 2), drift_rate=rate)


@pytest.mark.parametrize("rate", [1, np.int64(2), np.float32(0.5), -3.0, 0.0, None])
def test_drift_rate_is_stored_as_float_or_none(rate):
    got = dataclasses.replace(catalog("ou_additive", 2), drift_rate=rate).drift_rate
    assert got is None if rate is None else (type(got) is float and got == float(rate))


def test_integral_dimension_is_stored_as_int():
    field = catalog("bounded_multiplicative", np.int64(2))
    assert type(field.dimension) is int and field.dimension == 2
    assert type(dataclasses.replace(field, dimension=2.0).dimension) is int
    assert catalog("ou_additive", 2.0).sigma(0.0, np.zeros((3, 2))).shape == (3, 2, 2)


# Bit pins of every catalog evaluator: SHA-256 of each output's shape and
# bytes at one fixed batch. The first column reaches x_1 = +-40, where a
# sech^2 written through cosh would overflow.
PIN_DIMS = {"additive_identity": 3, "ou_additive": 2, "pythagoras_1d": 1,
            "bounded_multiplicative": 3}
EVALUATORS = ("b", "grad_b", "jvp_b", "sigma", "grad_sigma", "dsigma", "sigma_inv")
DIRECTIONAL = ("jvp_b", "dsigma")  # evaluators that also take a direction u


def _pin_outputs(name):
    d = PIN_DIMS[name]
    first = np.array([-40.0, -1.3, -0.0, 0.0, 0.7, 2.1, 40.0])
    x = np.column_stack([first, *(np.linspace(-2.0, 2.5, first.size) * k for k in range(1, d))])
    u = np.cos(np.arange(x.size, dtype=float)).reshape(x.shape)
    F = catalog(name, d)
    return {c: getattr(F, c)(0.25, x, *([u] if c in DIRECTIONAL else [])) for c in EVALUATORS}


def _digest(a):
    a = np.asarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


EVALUATOR_PINS = {
    "additive_identity": {
        "b": "c42317bf91bb03fc3611c537a81075233ff7973738673a4fbbf227df3d938d17",
        "grad_b": "3f959c3dc548ed83b8c2ebbf75dd4902978fbf8791ab299ccad719357864a64c",
        "jvp_b": "c42317bf91bb03fc3611c537a81075233ff7973738673a4fbbf227df3d938d17",
        "sigma": "5c664bb5fa840a9f1472fd351b6f023062b5fd06d15d4f1ad256d86dcb54f47e",
        "grad_sigma": "85aba72aef8fdcf1f123ea5f458d852f87c75bfc1571cc9cccb3511bc5c524dc",
        "dsigma": "3f959c3dc548ed83b8c2ebbf75dd4902978fbf8791ab299ccad719357864a64c",
        "sigma_inv": "5c664bb5fa840a9f1472fd351b6f023062b5fd06d15d4f1ad256d86dcb54f47e",
    },
    "bounded_multiplicative": {
        "b": "439090b33474b2586f737af5c475e1f92dd1845fd20fc83552e38b5967bf81fe",
        "grad_b": "8aabe72d4dd14efac5031ad81297147b7a0b3be0d5cb3500092fd240fe3170f0",
        "jvp_b": "56b9308bb8773097479973147d1afe14f0f67f84759aa4c06f5516cf2706953c",
        "sigma": "3954aeaf3ca79c67b144b9492e1c70ef961479db2eab6c35124bcb833a637af3",
        "grad_sigma": "40b91f70ba77b8ff468f8ba35e9e62f9a7b5c38af7c3d0badfbfb3d9db54ddff",
        "dsigma": "e3348fa2332b9d9413762763d478b54169bb4597682b55c87a385b0419c87c4a",
        "sigma_inv": "c4cbf2ac3c803390d951581b0ead43ca92a93d7b6832eceda68eb7f85ae8163a",
    },
    "ou_additive": {
        "b": "ab8b2e0743d21db6ecbabd09b4743ee0e8de775c01a5c0a274065394f55c0d8b",
        "grad_b": "f20f36f39c63821a059276aad4813366a40ae4fe2099ed2b5f52bf9e08121ee8",
        "jvp_b": "df36814c02bf3bfb76ac43fa27423d11214a550dab1ca88c36e3427b08dba703",
        "sigma": "36972d498edfa03fdb83623999b265e08179131cd8d216f88a2257f6499e3e6d",
        "grad_sigma": "a3818c1cd8192f637fe5ff40f73ef9f493e58a0f5a9cbfded9d2caac5851c406",
        "dsigma": "9c486545ef858f731b0e8bda282e7c9b9b156fe4d23cfb6512f4802edf37e1b8",
        "sigma_inv": "36972d498edfa03fdb83623999b265e08179131cd8d216f88a2257f6499e3e6d",
    },
    "pythagoras_1d": {
        "b": "c8db61d66be2b15116a9164421367d41a4f92ae42aacea13cb79bea13bf378e0",
        "grad_b": "636a02d5aff14f51d9784fe06c18d6bdb8237b5e10f49c417854d7980cbab40d",
        "jvp_b": "c8db61d66be2b15116a9164421367d41a4f92ae42aacea13cb79bea13bf378e0",
        "sigma": "945d6b9d3ebec4a7ce4d8ecf508ae0ad03bf74c5ccf414728d9e2033cf17ccd7",
        "grad_sigma": "c0dbb21c5891792b8e690427d0f6e2f23742d99a91ca37dd41fc9b256fa6e75b",
        "dsigma": "b43893b69edbffda5f4a38512839c182dd7ff6744f9871ca6840ac883318636b",
        "sigma_inv": "810ec6c25a4b1d2952963ee5f0476b4d4b6cc76be194c34a15efd48396e13b48",
    },
}


# (drift_rate, sigma_is_constant): the engine skips work on these hints
HINTS = {
    "additive_identity": (0.0, True),
    "ou_additive": (1.0, True),
    "pythagoras_1d": (0.0, False),
    "bounded_multiplicative": (1.0, False),
}


@pytest.mark.pin
@pytest.mark.parametrize("name", sorted(PIN_DIMS))
def test_catalog_evaluators_match_pin(name):
    assert {c: _digest(a) for c, a in _pin_outputs(name).items()} == EVALUATOR_PINS[name]
    F = catalog(name, PIN_DIMS[name])
    assert (F.drift_rate, F.sigma_is_constant) == HINTS[name]


# The engine calls dsigma where it contracted grad_sigma with the direction,
# so on every catalog field the two must agree bit for bit, signs of zeros
# included. x and u hold +-0.0, so products of -0.0 and slopes of -0.0
# (pythagoras_1d at x_1 = -0.0) occur.
DSIGMA_CASES = [(name, d) for name in CATALOG_NAMES for d in (1, 2, 3, 4)
                if name != "pythagoras_1d" or d == 1]


@pytest.mark.pin
@pytest.mark.parametrize("name, d", DSIGMA_CASES)
def test_dsigma_equals_the_grad_sigma_contraction_bitwise(name, d):
    rng = np.random.default_rng(d)
    entries = np.array([-40.0, -1.3, -0.5, -0.0, 0.0, 0.5, 1.3, 40.0, 1e-300, -1e-300])
    x = rng.choice(entries, size=(500, d))
    u = rng.choice(entries, size=(500, d))
    t = rng.uniform(size=500)
    field = catalog(name, d)
    got = field.dsigma(t, x, u)
    expected = np.einsum("mijk,mk->mij", field.grad_sigma(t, x), u)
    assert got.shape == expected.shape == (500, d, d)
    assert got.tobytes() == expected.tobytes()
    assert (expected == 0.0).any()
    # a state-dependent sigma also gives negative entries (so signs are compared)
    assert field.sigma_is_constant or np.signbit(expected).any()
