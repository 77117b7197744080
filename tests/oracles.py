"""Independent reference values used by the test suite.

Everything here is computed by a different route than the library code it
checks: direct quadrature against the jump density, closed forms for the
stable subordinator, and the exact Gaussian conditional mean for the sign
observable under a truncated clock.  Tests import these instead of trusting
the implementation under test.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special, stats


def jump_density_constant(alpha: float) -> float:
    rho = alpha / 2.0
    return rho / special.gamma(1.0 - rho)


def tail_mass_quadrature(alpha: float, eps: float) -> float:
    """nu([eps, inf)) by adaptive quadrature of the density itself."""
    rho = alpha / 2.0
    c = jump_density_constant(alpha)
    val, err = integrate.quad(lambda x: c * x ** (-1.0 - rho), eps, np.inf,
                              epsabs=0.0, epsrel=1e-12)
    assert err < 1e-9 * max(val, 1.0)
    return val


def dropped_mass_quadrature(alpha: float, eps: float) -> float:
    """integral of x nu(dx) over (0, eps) by adaptive quadrature."""
    rho = alpha / 2.0
    c = jump_density_constant(alpha)
    val, err = integrate.quad(lambda x: c * x ** (-rho), 0.0, eps,
                              epsabs=0.0, epsrel=1e-12)
    assert err < 1e-9 * max(val, 1.0)
    return val


def inverse_moment_closed_form(alpha: float, t: float, gamma: float) -> float:
    """E S_t^{-gamma} for the alpha-stable clock, via the gamma-function identity."""
    g = special.gamma
    return 2.0 * g(2.0 * gamma / alpha) / (alpha * g(gamma)) * t ** (-2.0 * gamma / alpha)


def inverse_moment_quadrature(alpha: float, t: float, gamma: float) -> float:
    """E S_t^{-gamma} = Gamma(gamma)^{-1} integral_0^inf u^{gamma-1} exp(-t u^{alpha/2}) du.

    Adaptive quadrature split at u = 1. On (0, 1] the substitution
    u = w^{1/gamma} removes the endpoint singularity exactly; on (1, inf)
    the substitution u = exp(y) gives the integrand exp(gamma y - t e^{rho y}).
    """
    rho = alpha / 2.0

    def low(w: float) -> float:
        return math.exp(-t * w ** (rho / gamma)) / gamma

    def high(y: float) -> float:
        lg = gamma * y - t * math.exp(rho * y) if rho * y < 700.0 else -math.inf
        return math.exp(lg) if lg > -745.0 else 0.0

    i_low, err_low = integrate.quad(low, 0.0, 1.0, epsabs=1e-300, epsrel=1e-11, limit=300)
    i_high, err_high = integrate.quad(high, 0.0, np.inf, epsabs=1e-300, epsrel=1e-11, limit=300)
    total = (i_low + i_high) / special.gamma(gamma)
    assert (err_low + err_high) / special.gamma(gamma) <= 1e-8 * total
    return total


def stable_cdf(x: float, alpha: float) -> float:
    """P(S_1 <= x) from scipy's stable law.

    S_1, with E exp(-u S_1) = exp(-u^{alpha/2}), is the totally skewed stable
    law of index rho = alpha/2 and scale cos(pi rho / 2)^{1/rho} in the S1
    parameterization (scipy's default).
    """
    rho = alpha / 2.0
    scale = math.cos(math.pi * rho / 2.0) ** (1.0 / rho)
    return float(stats.levy_stable.cdf(x, rho, 1.0, scale=scale))


def stable_cdf_kanter_quadrature(x: float, alpha: float) -> float:
    """P(S_1 <= x) by adaptive quadrature of Kanter's integral in log space.

    (1/pi) integral_0^pi exp(-x^{-rho/(1-rho)} A(theta)) dtheta with
    A(theta) = sin(rho theta)^{rho/(1-rho)} sin((1-rho) theta) / sin(theta)^{1/(1-rho)}.
    For alpha near 2 scipy's stable cdf returns nan (scipy 1.17: at
    alpha/2 = 0.995 its integrand overflows); this route does not.
    """
    rho = alpha / 2.0
    log_c = -rho / (1.0 - rho) * math.log(x)

    def integrand(theta: float) -> float:
        z = (log_c + rho / (1.0 - rho) * math.log(math.sin(rho * theta))
             + math.log(math.sin((1.0 - rho) * theta)) - math.log(math.sin(theta)) / (1.0 - rho))
        return math.exp(-math.exp(z)) if z < 700.0 else 0.0

    # breakpoints towards pi, where A(theta) blows up
    points = [math.pi - math.pi * 2.0 ** -k for k in range(1, 30)]
    val, err = integrate.quad(integrand, 0.0, math.pi, points=points,
                              epsabs=1e-13, epsrel=1e-13, limit=500)
    assert err < 1e-11
    return val / math.pi


def truncated_laplace_exponent(u: float, alpha: float, eps: float) -> float:
    """Laplace exponent of the clock with all jumps below eps removed.

    psi_eps(u) = integral over [eps, inf) of (1 - e^{-u x}) nu(dx), written
    in terms of the upper incomplete gamma function so the quadrature in
    truncated_sign_gradient_target stays cheap and accurate.
    """
    if u == 0.0:
        return 0.0
    rho = alpha / 2.0
    c = jump_density_constant(alpha)
    lam = eps ** (-rho) / special.gamma(1.0 - rho)
    x = u * eps
    upper = special.gammaincc(1.0 - rho, x) * special.gamma(1.0 - rho)
    return lam + (c / rho) * u ** rho * (upper - x ** (-rho) * math.exp(-x))


def truncated_sign_gradient_target(alpha: float, t: float, eps: float) -> float:
    """Exact mean of the gradient estimator for f = sign at the origin.

    For the one dimensional additive model started at 0 the pair
    (W at the full clock value, W at the capped clock value) is jointly
    Gaussian given the clock path, with covariance equal to the capped
    value.  The Gaussian identity E[sign(G) H] = Cov(G, H) sqrt(2/pi) / sd(G)
    makes the cap cancel against the normalizer, leaving

        sqrt(2/pi) * E[ ell_t^{-1/2} | ell_t > 0 ],

    where ell is the eps-truncated clock.  The conditional expectation is
    evaluated by Mellin quadrature against the truncated Laplace transform,
    subtracting the atom at zero and renormalizing.
    """
    rho = alpha / 2.0
    lam = eps ** (-rho) / special.gamma(1.0 - rho)
    p0 = math.exp(-t * lam)

    def integrand(u: float) -> float:
        return u ** (-0.5) * (math.exp(-t * truncated_laplace_exponent(u, alpha, eps)) - p0)

    val, err = integrate.quad(integrand, 0.0, np.inf, limit=400,
                              epsabs=1e-12, epsrel=1e-10)
    assert err < 1e-8
    cond = val / math.sqrt(math.pi) / (1.0 - p0)
    return math.sqrt(2.0 / math.pi) * cond


def compensated_sign_gradient_target(alpha: float, t: float, eps: float) -> float:
    """sqrt(2/pi) E[(ell_t + mu t)^{-1/2}] for the eps-truncated clock ell.

    mu t, with mu = dropped_mass_quadrature(alpha, eps) (the library's
    dropped_mass_rate), is the mean clock mass of the jumps below eps; adding
    it to every path is the small-jump compensation of Asmussen and Rosinski,
    J. Appl. Probab. 38 (2001). This is the sign gradient at the origin of
    the one-dimensional additive model on that compensated clock. The Mellin
    identity E Y^{-1/2} = pi^{-1/2} integral_0^inf u^{-1/2} E e^{-u Y} du with
    E e^{-u (ell_t + mu t)} = exp(-u mu t - t psi_eps(u)) gives it by
    quadrature; mu t > 0 leaves no atom at zero. The replaced small jumps are
    random, so by Jensen's inequality it lies below the untruncated
    sqrt(2/pi) E S_t^{-1/2}.
    """
    mu_t = dropped_mass_quadrature(alpha, eps) * t

    def integrand(u: float) -> float:
        return u ** (-0.5) * math.exp(-u * mu_t - t * truncated_laplace_exponent(u, alpha, eps))

    val, err = integrate.quad(integrand, 0.0, np.inf, limit=400, epsabs=1e-12, epsrel=1e-10)
    assert err < 1e-8
    return math.sqrt(2.0 / math.pi) * val / math.sqrt(math.pi)


def discrete_mollified_second_moment(eps: float, grid_step: float) -> float:
    """Exact mean of the Euler scheme for the mollified counterexample.

    X_{k+1} = X_k + sqrt(1 + X_k^2) sqrt(dl_k) Z_k gives
    E X_{k+1}^2 = E X_k^2 (1 + dl_k) + dl_k, so the product below is the
    exact expectation of the discretized estimator, jitter-free.
    """
    grid = np.arange(0.0, 1.0 + 0.5 * grid_step, grid_step)
    ell = eps * grid + np.clip((grid - (1.0 - eps)) / eps, 0.0, 1.0)
    dl = np.diff(ell)
    m = 0.0
    for step in dl:
        m = m * (1.0 + step) + step
    return float(m)


def ou_terminal(x0: np.ndarray, t: float) -> np.ndarray:
    return np.asarray(x0, dtype=float) * math.exp(-t)
