"""Coefficient catalog: analytic derivatives, inverses, inverse-diffusion bounds."""

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
    if F.drift_is_zero:
        assert np.all(F.b(0.0, x1) == 0.0)
    else:
        assert np.any(F.b(0.0, x1) != 0.0)
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
