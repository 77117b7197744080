"""Drift and diffusion coefficient fields with analytic derivatives.

A CoefficientField bundles b, sigma, their spatial derivatives, and the
exact inverse sigma^{-1}. All evaluators are pure and broadcast over leading
batch axes: x may be shaped (d,) or (n, d), with t a scalar or an array
broadcastable against the batch shape. The optional jvp_b(t, x, u) returns
the Jacobian-vector product grad_b(t, x) @ u row by row, shaped like u; the
engine's drift ODE for the directional derivative calls it instead of
forming the (n, d, d) grad_b and contracting it, and falls back to grad_b
when a field leaves it None. The optional dsigma(t, x, u) does the same for
sigma: it returns sum_k grad_sigma(t, x)[..., k] u_k row by row, shaped
(..., d, d), and each jump of the flow calls it instead of forming the
(n, d, d, d) grad_sigma and contracting it. The engine refuses a jvp_b or
dsigma result of another shape. The catalog supplies both hooks, equal bit
for bit to the contractions they replace.

Three hints claim structure the engine may use. drift_rate = r claims
b(t, x) = -r x, so the flow between jumps is the exact scaling of X and J v
by exp(-r h) and the drift callables are never called (r = 0 skips the
drift altogether). sigma_is_constant claims grad_sigma = 0. sigma_scale =
(scale, slope) claims sigma(t, x) = scale(t, x) I_d, with scale(t, x) ->
(...,) and slope(t, x, u) -> (...,) the directional derivative
grad_x scale(t, x) . u; each jump then works on (n,) vectors instead of
(n, d, d) matrices, and the engine calls neither sigma, sigma_inv, dsigma
nor grad_sigma. sigma_scale takes precedence over dsigma; sigma_is_constant
still decides whether the derivative is formed, so with both set slope is
never called. The engine refuses a scale or slope result not shaped (n,),
and CoefficientField refuses a sigma_scale that is not a pair of callables.
The catalog sets all three. Its sigma_scale keeps the matrix route's bits:
each matrix product only adds exact zeros to the scalar one, 1/scale is
what its sigma_inv holds, and its slope adds +0.0 as its dsigma does, so a
-0.0 becomes the +0.0 those sums give. A field that leaves drift_rate None
gets the RK4 flow, and one that leaves sigma_scale None the matrix route:
the engine never infers a hint from the callables, and a hint copied by
dataclasses.replace onto other callables must be dropped (set to None)
along with them.
Analytic derivatives and inverses are required; finite differences appear
only in self-checks, never in the estimator hot path. The batched engine
(levygrad.engine) is the only consumer: it evaluates every coefficient on
whole batches of paths at once.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .streams import checked_integer

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
    # Exactness hints for the vectorized engine. drift_rate = r means
    # b(t, x) == -r x for every t and x: the flow between jumps is then the
    # exact X <- exp(-r h) X, J v <- exp(-r h) J v (nothing at all for r = 0)
    # instead of RK4; None claims nothing. sigma_is_constant means
    # grad_sigma == 0 identically (trace and jump-measure weight terms
    # vanish exactly). sigma_scale = (scale, slope) means sigma(t, x) ==
    # scale(t, x) I_d, with slope(t, x, u) == grad_x scale(t, x) . u.
    drift_rate: float | None = None
    sigma_is_constant: bool = False
    jvp_b: Callable | None = None  # (t, x, u) -> (..., d), equal to grad_b(t, x) @ u
    dsigma: Callable | None = None  # (t, x, u) -> (..., d, d), sum_k grad_sigma(t, x)[..., k] u_k
    sigma_scale: tuple[Callable, Callable] | None = None  # ((t, x) -> (...,), (t, x, u) -> (...,))

    def __post_init__(self) -> None:
        object.__setattr__(self, "dimension", checked_integer("dimension", self.dimension, minimum=1))
        rate = self.drift_rate
        if rate is not None:
            if isinstance(rate, bool) or not isinstance(rate, numbers.Real) or not math.isfinite(rate):
                raise ValueError(f"drift_rate must be a finite real number or None, got {rate!r}")
            object.__setattr__(self, "drift_rate", float(rate))
        hint = self.sigma_scale
        if hint is not None:
            if not isinstance(hint, tuple) or len(hint) != 2 or not all(map(callable, hint)):
                raise ValueError(
                    f"sigma_scale must be None or a pair (scale, slope) of callables, got {hint!r}")


def _isotropic(name: str, d: int, linear_drift: bool, s=None, ds=None) -> CoefficientField:
    """The catalog's one family: b = -x or 0, sigma = s(x_1) * I with ds = s'.

    s = None gives sigma = I. The engine's hints follow from the two choices;
    every member carries the sigma_scale hint.
    """

    def tiled(m, x):
        return np.ascontiguousarray(np.broadcast_to(m, x.shape[:-1] + m.shape))

    def b(t, x):
        x = np.asarray(x, dtype=float)
        return -x if linear_drift else np.zeros_like(x)

    def jvp_b(t, x, u):
        u = np.asarray(u, dtype=float)
        return -u if linear_drift else np.zeros_like(u)

    def grad_b(t, x):
        return tiled(-np.eye(d) if linear_drift else np.zeros((d, d)), np.asarray(x, dtype=float))

    if s is None:

        def sigma(t, x):
            return tiled(np.eye(d), np.asarray(x, dtype=float))

        def grad_sigma(t, x):
            return tiled(np.zeros((d, d, d)), np.asarray(x, dtype=float))

        def dsigma(t, x, u):
            return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(u)) + (d,))

        def scale(t, x):
            return np.ones(np.shape(x)[:-1])

        def slope(t, x, u):
            return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(u))[:-1])

        sigma_inv = sigma
    else:

        def scale(t, x):
            return s(np.asarray(x, dtype=float)[..., 0])

        def slope(t, x, u):
            # s'(x_1) u_1: the contraction of grad_sigma with u sums such
            # products with exact zeros, and + 0.0 turns a -0.0 into the
            # +0.0 such a sum gives
            x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
            return ds(x[..., 0]) * u[..., 0] + 0.0

        def sigma(t, x):
            return scale(t, x)[..., None, None] * np.eye(d)

        def grad_sigma(t, x):
            x = np.asarray(x, dtype=float)
            out = np.zeros(x.shape[:-1] + (d, d, d))
            out[..., :, :, 0] = ds(x[..., 0])[..., None, None] * np.eye(d)
            return out

        def dsigma(t, x, u):
            # slope on the diagonal and +0.0 off it
            diag = slope(t, x, u)
            out = np.zeros(diag.shape + (d, d))
            out[..., range(d), range(d)] = diag[..., None]
            return out

        def sigma_inv(t, x):
            return (1.0 / scale(t, x))[..., None, None] * np.eye(d)

    return CoefficientField(
        d, b, grad_b, sigma, grad_sigma, sigma_inv, name,
        drift_rate=1.0 if linear_drift else 0.0, sigma_is_constant=s is None, jvp_b=jvp_b,
        dsigma=dsigma, sigma_scale=(scale, slope),
    )


_KAPPA = 0.25


# _bounded and _bounded_slope take each operation of their expression in
# place, with its bits (IEEE + and * commute); a 0-d x_1 works too (the
# one-path reference evaluates a single state)


def _bounded(x1):
    # 1 + kappa tanh(x_1), in [1 - kappa, 1 + kappa], so |sigma^{-1}| <= 1/(1 - kappa)
    out = np.tanh(x1)
    out *= _KAPPA
    out += 1.0
    return out


def _bounded_slope(x1):
    # kappa sech^2 = kappa 4 e / (1 + e)^2 with e = exp(-2 |x_1|), which stays
    # finite for huge |x_1| (cosh overflows there)
    e = np.abs(x1, out=np.empty(np.shape(x1)))
    e *= -2.0
    np.exp(e, out=e)
    den = e + 1.0
    den *= den
    e *= _KAPPA * 4.0
    e /= den
    return e


# name -> (linear drift b = -x, s, s') of the family built by _isotropic
_CATALOG = {
    "additive_identity": (False, None, None),
    "ou_additive": (True, None, None),
    "pythagoras_1d": (False, lambda x1: np.sqrt(1.0 + x1**2), lambda x1: x1 / np.sqrt(1.0 + x1**2)),
    "bounded_multiplicative": (True, _bounded, _bounded_slope),
}
CATALOG_NAMES = tuple(_CATALOG)


def catalog(name: str, dimension: int = 1) -> CoefficientField:
    """Return a built-in coefficient field by name.

    Every built-in is b = -x or 0 with sigma = s(x_1) * I: additive_identity
    (0, I), ou_additive (-x, I), pythagoras_1d (0, sqrt(1 + x^2)) and
    bounded_multiplicative (-x, (1 + tanh(x_1) / 4) I). All are autonomous
    (the t argument is accepted and ignored). pythagoras_1d exists only in
    dimension 1.
    """
    if name not in _CATALOG:
        raise ValueError(f"unknown coefficient field {name!r}; choose from {CATALOG_NAMES}")
    dimension = checked_integer("dimension", dimension, minimum=1)
    if name == "pythagoras_1d" and dimension != 1:
        raise ValueError("pythagoras_1d is one-dimensional")
    return _isotropic(name, dimension, *_CATALOG[name])
