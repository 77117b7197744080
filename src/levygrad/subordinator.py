"""The alpha-stable subordinator: its law, its constants and its jump paths.

The clock S_t is the increasing Levy process with Laplace law
E exp(-u S_t) = exp(-t u**(alpha/2)), alpha in (0, 2). Its jump measure is

    nu(dx) = c * x**(-1 - alpha/2) dx,   c = (alpha/2) / Gamma(1 - alpha/2),

so the jumps of size >= eps form a marked Poisson process with finite
intensity and Pareto-distributed marks; engine.sample_jump_batch samples
them exactly and states the law. Paths are stored as finite pure-jump
lists; the mass of the discarded small jumps is known in closed form and is
reported (sample_terminal_values can add it back as a deterministic drift,
for plain clock statistics only).

The constants the defaults rest on are deterministic: inverse_moment is a
closed form, and stable_median_s1 solves Kanter's integral for the median
of S_1 with a fixed quadrature rule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .streams import checked_bool, checked_float, checked_integer, checked_reals

__all__ = [
    "BernsteinSpec",
    "JumpPath",
    "tail_mass",
    "checked_jump_intensity",
    "dropped_mass_rate",
    "sample_terminal_values",
    "truncate_jumps",
    "inverse_moment",
    "stable_median_s1",
    "default_level_R",
    "default_eps_cut",
]


@dataclass(frozen=True)
class BernsteinSpec:
    """The alpha-stable subordinator: E exp(-u S_t) = exp(-t u**(alpha/2)).

    alpha lies strictly in (0, 2). This is the one clock law the package
    samples; the paper's estimates are sharp for it.
    """

    alpha: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", checked_float("alpha", self.alpha))
        if not 0.0 < self.alpha < 2.0:
            raise ValueError("alpha must lie strictly in (0, 2)")

    @classmethod
    def alpha_stable(cls, alpha: float) -> "BernsteinSpec":
        return cls(alpha)


@dataclass(frozen=True, eq=False)
class JumpPath:
    """One finite-jump clock realization on [0, horizon]: finite jump times and sizes.

    engine.sample_jump_path draws one from the stable law; the engine's batch
    functions read its clock values on engine.fixed_jump_batch(path, horizon, 1).
    """

    horizon: float
    times: np.ndarray
    sizes: np.ndarray

    def __post_init__(self) -> None:
        t = np.atleast_1d(checked_reals("times", self.times))
        s = np.atleast_1d(checked_reals("sizes", self.sizes))
        object.__setattr__(self, "horizon", checked_float("horizon", self.horizon))
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "sizes", s)
        if not (math.isfinite(self.horizon) and self.horizon >= 0):
            raise ValueError("horizon must be finite and nonnegative")
        if t.shape != s.shape or t.ndim != 1:
            raise ValueError("times and sizes must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(s))):
            raise ValueError("jump times and sizes must be finite")
        if t.size:
            if np.any(np.diff(t) <= 0):
                raise ValueError("jump times must be strictly increasing")
            if not (t[0] > 0 and t[-1] <= self.horizon):
                raise ValueError("jump times must lie in (0, horizon]")
            if np.any(s <= 0):
                raise ValueError("jump sizes must be positive")
        t.setflags(write=False)
        s.setflags(write=False)


def tail_mass(alpha: float, eps: float) -> float:
    """nu([eps, inf)) = eps**(-alpha/2) / Gamma(1 - alpha/2)."""
    alpha, eps = checked_float("alpha", alpha), checked_float("eps", eps)
    if not eps > 0:
        raise ValueError("eps must be positive")
    rho = alpha / 2.0
    return eps ** (-rho) / math.gamma(1.0 - rho)


MAX_JUMPS_PER_PATH = 1e7


def checked_jump_intensity(alpha: float, eps_cut: float, horizon: float) -> float:
    """Expected jumps per path, horizon * tail_mass; refuses a horizon that is a bool or a
    string (True ran at 1.0) and more than MAX_JUMPS_PER_PATH."""
    horizon = checked_float("horizon", horizon)
    if not eps_cut > 0:
        raise ValueError("eps_cut must be positive")
    lam = horizon * tail_mass(alpha, eps_cut)
    if lam > MAX_JUMPS_PER_PATH:
        raise ValueError(
            f"eps_cut={eps_cut:g} implies {lam:.3g} expected jumps per path; "
            f"raise the cutoff (limit {MAX_JUMPS_PER_PATH:g})"
        )
    return lam


def dropped_mass_rate(alpha: float, eps: float) -> float:
    """Mean clock mass per unit time carried by jumps below eps.

    integral_0^eps x nu(dx) with nu(dx) = c x**(-1-rho) dx and
    c = rho / Gamma(1-rho), rho = alpha/2, which evaluates to
    rho * eps**(1-rho) / ((1-rho) * Gamma(1-rho)).
    """
    alpha, eps = checked_float("alpha", alpha), checked_float("eps", eps)
    if not eps > 0:
        raise ValueError("eps must be positive")
    rho = alpha / 2.0
    return rho * eps ** (1.0 - rho) / ((1.0 - rho) * math.gamma(1.0 - rho))


def _pareto_sizes(alpha: float, eps_cut: float, uniforms: np.ndarray) -> np.ndarray:
    """eps_cut * (1 - u) ** (-2 / alpha) for uniforms u in [0, 1), formed in their own buffer."""
    # P(size > y) = (y / eps_cut) ** (-alpha/2) for y >= eps_cut; 1 - u lies
    # in (0, 1], never 0
    np.subtract(1.0, uniforms, out=uniforms)
    uniforms **= -2.0 / alpha
    uniforms *= eps_cut
    return uniforms


def sample_terminal_values(
    spec: BernsteinSpec,
    horizon: float,
    eps_cut: float,
    n: int,
    rng: np.random.Generator,
    *,
    compensate_small_jumps: bool = False,
) -> np.ndarray:
    """Vectorized S_horizon draws for n independent paths (values only).

    Distributionally identical to summing the jumps of each path of
    engine.sample_jump_batch; jump times are irrelevant for the terminal
    value and are not drawn. n must be an integer and compensate_small_jumps
    a bool: "no" would read as true.
    """
    alpha = spec.alpha
    checked_jump_intensity(alpha, eps_cut, horizon)
    n = checked_integer("n", n, minimum=0)
    compensate_small_jumps = checked_bool("compensate_small_jumps", compensate_small_jumps)
    counts = rng.poisson(horizon * tail_mass(alpha, eps_cut), size=n)
    total = int(counts.sum())
    sizes = _pareto_sizes(alpha, eps_cut, rng.uniform(size=total))
    path_id = np.repeat(np.arange(n), counts)
    values = np.bincount(path_id, weights=sizes, minlength=n)
    if compensate_small_jumps:
        values = values + dropped_mass_rate(alpha, eps_cut) * horizon
    return values


def truncate_jumps(path: JumpPath, eps: float) -> JumpPath:
    """Keep exactly the jumps of size >= eps; times are preserved."""
    eps = checked_float("eps", eps)
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    keep = path.sizes >= eps
    return JumpPath(path.horizon, path.times[keep], path.sizes[keep])


def inverse_moment(spec: BernsteinSpec, t: float, gamma: float) -> float:
    """E S_t**(-gamma) = Gamma(1 + gamma/rho) / Gamma(1 + gamma) * t**(-gamma/rho).

    rho = alpha/2. This is the closed form of
    Gamma(gamma)**-1 * integral_0^inf u**(gamma-1) exp(-t u**rho) du. Where a
    factor overflows (Gamma(1 + gamma/rho) does past gamma/rho of about 170)
    it is evaluated with lgamma; a value beyond the float range, or below
    its smallest normal float, raises ValueError.
    """
    t, gamma = checked_float("t", t), checked_float("gamma", gamma)
    if not t > 0:
        raise ValueError("t must be positive")
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    q = gamma / (spec.alpha / 2.0)
    try:
        value = math.gamma(1.0 + q) / math.gamma(1.0 + gamma) * t ** (-q)
    except OverflowError:
        value = math.inf
    if np.finfo(float).tiny <= value < math.inf:
        return value
    # a factor or the product left the normal float range: the same form in logs
    log_value = math.lgamma(1.0 + q) - math.lgamma(1.0 + gamma) - q * math.log(t)
    where = f"at alpha = {spec.alpha}, gamma = {gamma}, t = {t}"
    if log_value > np.log(np.finfo(float).max):
        raise ValueError(f"E S_t**(-gamma) exceeds the float range {where}")
    if log_value < np.log(np.finfo(float).tiny):
        raise ValueError(f"E S_t**(-gamma) underflows the float range {where}")
    return math.exp(log_value)


def _kanter_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights averaging a function over (0, pi).

    16-point Gauss-Legendre on [0, pi/2] and on each panel of a mesh graded
    geometrically towards pi, down to width pi/4096: there Kanter's A(theta)
    blows up and the integrand exp(-c A(theta)) falls to 0 ever more steeply
    as alpha shrinks.
    """
    x, w = np.polynomial.legendre.leggauss(16)
    edges = np.append(np.pi - np.pi * 2.0 ** -np.arange(13.0), np.pi)
    lo, half = edges[:-1, None], np.diff(edges)[:, None] / 2.0
    return (lo + half * (x + 1.0)).ravel(), (half * w / np.pi).ravel()


def _kanter_log_a(rho: float, theta: np.ndarray) -> np.ndarray:
    """log A(theta) of Kanter's representation, as a sum: its factors overflow near alpha 2."""
    return (
        rho / (1.0 - rho) * np.log(np.sin(rho * theta))
        + np.log(np.sin((1.0 - rho) * theta))
        - np.log(np.sin(theta)) / (1.0 - rho)
    )


def _kanter_log_inverse_moment(spec: BernsteinSpec, t: float, gamma: float) -> float:
    """log E S_t**(-gamma) by Kanter's representation, independently of inverse_moment.

    S_t has the law of t**(1/rho) (A(theta) / E)**((1-rho)/rho) (stable_median_s1), so
    with q = gamma (1-rho)/rho the moment is t**(-gamma/rho) Gamma(1 + q) times the mean
    of A(theta)**(-q) over (0, pi), taken as a log-sum-exp on the same quadrature rule.
    """
    rho = spec.alpha / 2.0
    q = gamma * (1.0 - rho) / rho
    theta, weight = _kanter_rule()
    terms = np.log(weight) - q * _kanter_log_a(rho, theta)
    log_mean = float(np.logaddexp.reduce(terms))
    return math.lgamma(1.0 + q) + log_mean - gamma / rho * math.log(t)


@functools.cache
def stable_median_s1(spec: BernsteinSpec) -> float:
    """Median of S_1, by Kanter's representation; computed once per alpha.

    With rho = alpha/2, S_1 has the law of (A(theta) / E)**((1-rho)/rho) for
    theta uniform on (0, pi) and E standard exponential (Kanter, Ann. Probab.
    3, 1975), where
        A(theta) = sin(rho theta)**(rho/(1-rho)) sin((1-rho) theta)
                   / sin(theta)**(1/(1-rho)),
    so P(S_1 <= m) = (1/pi) integral_0^pi exp(-c A(theta)) dtheta with
    c = m**(-rho/(1-rho)). A fixed composite Gauss-Legendre rule evaluates
    the integral, with A in log space (its factors overflow for alpha near
    2), and bisection on log c solves for probability 1/2. Deterministic,
    and accurate to about 1e-13 relative for alpha >= 0.01.
    """
    rho = spec.alpha / 2.0
    theta, weight = _kanter_rule()
    log_a = _kanter_log_a(rho, theta)
    # Every term of the rule is at least 1/2 at c = ln 2 / max A and at most
    # 1/2 at c = ln 2 / min A, so log c is bracketed.
    lo, hi = math.log(math.log(2.0)) - log_a.max(), math.log(math.log(2.0)) - log_a.min()
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if weight @ np.exp(-np.exp(np.minimum(log_a + mid, 709.0))) > 0.5:
            lo = mid
        else:
            hi = mid
    log_median = -mid * (1.0 - rho) / rho
    if log_median > np.log(np.finfo(float).max):
        raise ValueError(f"the median of S_1 exceeds the float range at alpha = {spec.alpha}")
    return math.exp(log_median)


def default_level_R(spec: BernsteinSpec, t: float) -> float:
    """Passage level with P(tau < t) about one half: the median of S_t.

    That is median(S_1) * t**(2/alpha), with the median from the
    deterministic quadrature of stable_median_s1, so R = "auto" depends on
    alpha and t alone.
    """
    t = checked_float("t", t)
    if not t > 0:
        raise ValueError("t must be positive")
    return stable_median_s1(spec) * t ** (2.0 / spec.alpha)


def default_eps_cut(spec: BernsteinSpec, t: float) -> float:
    """Cutoff for which the mean dropped clock mass is 10% of the clock scale.

    The retained clock mass has no finite mean for the stable subordinator, so
    the comparison scale is the median of S_t, default_level_R(spec, t).
    Solves dropped_mass_rate(eps) * t = 0.1 * scale for eps; the result
    scales exactly as t**(2/alpha), keeping the per-path jump count and the
    relative truncation error t-independent.

    The 10% favors tractability over bias: the cutoff shrinks as the dropped
    share to the power 1/(1-alpha/2), so smaller shares get expensive fast
    and can be intractable for alpha near 2. Pass eps_cut explicitly for
    precision runs, and check the implied jump intensity
    t * tail_mass(alpha, eps) before launching large ones (the CLI does).
    """
    t, rho = checked_float("t", t), spec.alpha / 2.0
    # the dropped rate is coef * eps**(1-rho)
    coef = dropped_mass_rate(spec.alpha, 1.0)
    return (0.1 * default_level_R(spec, t) / (t * coef)) ** (1.0 / (1.0 - rho))
