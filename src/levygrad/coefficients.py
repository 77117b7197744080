"""Drift and diffusion coefficient fields with analytic derivatives.

A CoefficientField bundles b, sigma, their spatial derivatives, and the
exact inverse sigma^{-1}. All evaluators are pure and broadcast over leading
batch axes: x may be shaped (d,) or (n, d), with t a scalar or an array
broadcastable against the batch shape. The optional jvp_b(t, x, u) returns
the Jacobian-vector product grad_b(t, x) @ u row by row, shaped like u; the
engine's drift ODE for the directional derivative calls it instead of
forming the (n, d, d) grad_b and contracting it, and falls back to grad_b
when a field leaves it None. Analytic derivatives and inverses are
required; finite differences appear only in self-checks, never in the
estimator hot path. The batched engine (levygrad.engine) is the only
consumer: it evaluates every coefficient on whole batches of paths at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["CoefficientField", "catalog", "CATALOG_NAMES"]


@dataclass(frozen=True)
class CoefficientField:
    dimension: int
    b: Callable
    grad_b: Callable  # (t, x) -> (..., d, d), entry (i, k) = d b_i / d x_k
    sigma: Callable  # (t, x) -> (..., d, d)
    grad_sigma: Callable  # (t, x) -> (..., d, d, d), entry (i, j, k) = d sigma_ij / d x_k
    sigma_inv: Callable
    name: str = ""
    # Exactness hints for the vectorized engine. drift_is_zero means b == 0
    # identically (the between-jump ODE step is skipped, which equals running
    # RK4 on the zero field). sigma_is_constant means grad_sigma == 0
    # identically (trace and jump-measure weight terms vanish exactly).
    drift_is_zero: bool = False
    sigma_is_constant: bool = False
    jvp_b: Callable | None = None  # (t, x, u) -> (..., d), equal to grad_b(t, x) @ u

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")


def _eye_like(x: np.ndarray, d: int) -> np.ndarray:
    out = np.broadcast_to(np.eye(d), x.shape[:-1] + (d, d))
    return np.ascontiguousarray(out)


def _zeros_rank3(x: np.ndarray, d: int) -> np.ndarray:
    return np.zeros(x.shape[:-1] + (d, d, d))


def _zero_jvp(t, x, u):
    return np.zeros_like(np.asarray(u, dtype=float))


def _minus_jvp(t, x, u):
    # grad_b = -I for b = -x
    return -np.asarray(u, dtype=float)


def _additive_identity(d: int) -> CoefficientField:
    def b(t, x):
        x = np.asarray(x, dtype=float)
        return np.zeros_like(x)

    def grad_b(t, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (d, d))

    def sigma(t, x):
        return _eye_like(np.asarray(x, dtype=float), d)

    def grad_sigma(t, x):
        return _zeros_rank3(np.asarray(x, dtype=float), d)

    return CoefficientField(
        dimension=d,
        b=b,
        grad_b=grad_b,
        sigma=sigma,
        grad_sigma=grad_sigma,
        sigma_inv=sigma,
        name="additive_identity",
        drift_is_zero=True,
        sigma_is_constant=True,
        jvp_b=_zero_jvp,
    )


def _ou_additive(d: int) -> CoefficientField:
    def b(t, x):
        x = np.asarray(x, dtype=float)
        return -x

    def grad_b(t, x):
        x = np.asarray(x, dtype=float)
        out = np.broadcast_to(-np.eye(d), x.shape[:-1] + (d, d))
        return np.ascontiguousarray(out)

    def sigma(t, x):
        return _eye_like(np.asarray(x, dtype=float), d)

    def grad_sigma(t, x):
        return _zeros_rank3(np.asarray(x, dtype=float), d)

    return CoefficientField(
        dimension=d,
        b=b,
        grad_b=grad_b,
        sigma=sigma,
        grad_sigma=grad_sigma,
        sigma_inv=sigma,
        name="ou_additive",
        sigma_is_constant=True,
        jvp_b=_minus_jvp,
    )


def _pythagoras_1d() -> CoefficientField:
    # d = 1, b = 0, sigma(x) = sqrt(1 + x^2); sigma'(x) = x / sqrt(1 + x^2).
    def b(t, x):
        x = np.asarray(x, dtype=float)
        return np.zeros_like(x)

    def grad_b(t, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (1, 1))

    def sigma(t, x):
        x = np.asarray(x, dtype=float)
        return np.sqrt(1.0 + x[..., 0] ** 2)[..., None, None]

    def grad_sigma(t, x):
        x = np.asarray(x, dtype=float)
        root = np.sqrt(1.0 + x[..., 0] ** 2)
        return (x[..., 0] / root)[..., None, None, None]

    def sigma_inv(t, x):
        x = np.asarray(x, dtype=float)
        return (1.0 / np.sqrt(1.0 + x[..., 0] ** 2))[..., None, None]

    return CoefficientField(
        dimension=1,
        b=b,
        grad_b=grad_b,
        sigma=sigma,
        grad_sigma=grad_sigma,
        sigma_inv=sigma_inv,
        name="pythagoras_1d",
        drift_is_zero=True,
        jvp_b=_zero_jvp,
    )


_KAPPA = 0.25


def _bounded_multiplicative(d: int) -> CoefficientField:
    # sigma(x) = (1 + kappa*tanh(x_1)) * I, b(x) = -x. The scalar factor lies in
    # [1 - kappa, 1 + kappa], so |sigma^{-1}| <= 1/(1 - kappa).
    def scalar(x):
        return 1.0 + _KAPPA * np.tanh(x[..., 0])

    def b(t, x):
        x = np.asarray(x, dtype=float)
        return -x

    def grad_b(t, x):
        x = np.asarray(x, dtype=float)
        out = np.broadcast_to(-np.eye(d), x.shape[:-1] + (d, d))
        return np.ascontiguousarray(out)

    def sigma(t, x):
        x = np.asarray(x, dtype=float)
        return scalar(x)[..., None, None] * np.eye(d)

    def grad_sigma(t, x):
        x = np.asarray(x, dtype=float)
        # sech^2 written to stay finite for huge |x_1| (cosh overflows there)
        e = np.exp(-2.0 * np.abs(x[..., 0]))
        ds = _KAPPA * 4.0 * e / (1.0 + e) ** 2
        out = np.zeros(x.shape[:-1] + (d, d, d))
        out[..., :, :, 0] = ds[..., None, None] * np.eye(d)
        return out

    def sigma_inv(t, x):
        x = np.asarray(x, dtype=float)
        return (1.0 / scalar(x))[..., None, None] * np.eye(d)

    return CoefficientField(
        dimension=d,
        b=b,
        grad_b=grad_b,
        sigma=sigma,
        grad_sigma=grad_sigma,
        sigma_inv=sigma_inv,
        name="bounded_multiplicative",
        jvp_b=_minus_jvp,
    )


CATALOG_NAMES = ("additive_identity", "ou_additive", "pythagoras_1d", "bounded_multiplicative")


def catalog(name: str, dimension: int = 1) -> CoefficientField:
    """Return a built-in coefficient field by name.

    All built-ins are autonomous (the t argument is accepted and ignored).
    pythagoras_1d exists only in dimension 1.
    """
    if name == "additive_identity":
        return _additive_identity(dimension)
    if name == "ou_additive":
        return _ou_additive(dimension)
    if name == "pythagoras_1d":
        if dimension != 1:
            raise ValueError("pythagoras_1d is one-dimensional")
        return _pythagoras_1d()
    if name == "bounded_multiplicative":
        return _bounded_multiplicative(dimension)
    raise ValueError(f"unknown coefficient field {name!r}; choose from {CATALOG_NAMES}")
