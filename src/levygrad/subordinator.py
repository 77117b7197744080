"""Subordinator laws and jump-path realizations.

An increasing Levy process S_t (a random clock) is identified by its
Bernstein function B through the Laplace law E exp(-u S_t) = exp(-t B(u)).
The stable family B(u) = u**(alpha/2) is the main case. Its jump measure is

    nu(dx) = c * x**(-1 - alpha/2) dx,   c = (alpha/2) / Gamma(1 - alpha/2),

so the jumps of size >= eps form a marked Poisson process with finite
intensity and Pareto-distributed marks; engine.sample_jump_batch samples
them exactly and states the law. Paths are stored as finite pure-jump
lists; the mass of the discarded small jumps is known in closed form and is
reported (sample_terminal_values can add it back as a deterministic drift,
for plain clock statistics only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "BernsteinSpec",
    "JumpPath",
    "QuadratureDivergenceError",
    "tail_mass",
    "checked_jump_intensity",
    "dropped_mass_rate",
    "sample_terminal_values",
    "truncate_jumps",
    "inverse_moment",
    "stable_median_s1",
    "default_eps_cut",
]


class QuadratureDivergenceError(RuntimeError):
    """The inverse-moment integral does not converge for this Bernstein function."""


_CUSTOM_PROBE_GRID = np.geomspace(1e-6, 1e6, 25)


@dataclass(frozen=True)
class BernsteinSpec:
    """Laplace exponent B of a subordinator, E exp(-u S_t) = exp(-t B(u)).

    kind is one of:
      * "alpha_stable": B(u) = u**(alpha/2), alpha strictly in (0, 2);
      * "drift_only":   B(u) = rate * u, the deterministic clock S_t = rate * t;
      * "custom":       a user evaluator, spot-checked for B(0) = 0 and
        monotonicity on a fixed probe grid (complete monotonicity is not
        verifiable numerically and is the caller's responsibility).
    """

    kind: str
    alpha: float | None = None
    rate: float | None = None
    evaluator: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.kind == "alpha_stable":
            if self.alpha is None or not (0.0 < self.alpha < 2.0):
                raise ValueError("alpha must lie strictly in (0, 2)")
        elif self.kind == "drift_only":
            if self.rate is None or not self.rate > 0:
                raise ValueError("rate must be positive")
        elif self.kind == "custom":
            if self.evaluator is None:
                raise ValueError("custom spec needs an evaluator")
            b0 = float(self.evaluator(np.asarray(0.0)))
            if not abs(b0) <= 1e-12:
                raise ValueError(f"custom evaluator must satisfy B(0) = 0, got {b0!r}")
            vals = np.asarray(self.evaluator(_CUSTOM_PROBE_GRID), dtype=float)
            if np.any(np.diff(vals) < -1e-12 * np.maximum(1.0, np.abs(vals[:-1]))):
                raise ValueError("custom evaluator is decreasing on the probe grid")
        else:
            raise ValueError(f"unknown Bernstein kind {self.kind!r}")

    @classmethod
    def alpha_stable(cls, alpha: float) -> "BernsteinSpec":
        return cls(kind="alpha_stable", alpha=float(alpha))

    @classmethod
    def drift_only(cls, rate: float) -> "BernsteinSpec":
        return cls(kind="drift_only", rate=float(rate))

    @classmethod
    def custom(cls, evaluator: Callable) -> "BernsteinSpec":
        return cls(kind="custom", evaluator=evaluator)

    def evaluate(self, u):
        """B(u), vectorized over u >= 0."""
        u = np.asarray(u, dtype=float)
        if np.any(u < 0):
            raise ValueError("Bernstein functions are defined for u >= 0")
        if self.kind == "alpha_stable":
            return u ** (self.alpha / 2.0)
        if self.kind == "drift_only":
            return self.rate * u
        return np.asarray(self.evaluator(u), dtype=float)


@dataclass(frozen=True, eq=False)
class JumpPath:
    """One finite-jump clock realization on [0, horizon].

    value(t) = sum of sizes with time <= t is nondecreasing and cadlag with
    value(0) = 0. The horizon, times and sizes must be finite.
    engine.sample_jump_path draws one from the stable law.
    """

    horizon: float
    times: np.ndarray
    sizes: np.ndarray

    def __post_init__(self) -> None:
        t = np.atleast_1d(np.asarray(self.times, dtype=float))
        s = np.atleast_1d(np.asarray(self.sizes, dtype=float))
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

    @property
    def jump_count(self) -> int:
        return int(self.times.size)

    def cumulative_sizes(self) -> np.ndarray:
        return np.cumsum(self.sizes)

    def value(self, t):
        """Clock value at time t (cadlag: jumps at exactly t are included)."""
        idx = np.searchsorted(self.times, np.asarray(t, dtype=float), side="right")
        return np.concatenate(([0.0], self.cumulative_sizes()))[idx]

    def value_before(self, t):
        """Left limit of the clock at time t."""
        idx = np.searchsorted(self.times, np.asarray(t, dtype=float), side="left")
        return np.concatenate(([0.0], self.cumulative_sizes()))[idx]


def _require_stable(spec: BernsteinSpec) -> float:
    if spec.kind != "alpha_stable":
        raise ValueError("this operation requires an alpha_stable Bernstein spec")
    return float(spec.alpha)


def tail_mass(alpha: float, eps: float) -> float:
    """nu([eps, inf)) = eps**(-alpha/2) / Gamma(1 - alpha/2)."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    rho = alpha / 2.0
    return eps ** (-rho) / math.gamma(1.0 - rho)


MAX_JUMPS_PER_PATH = 1e7


def checked_jump_intensity(alpha: float, eps_cut: float, t: float) -> float:
    """Expected jumps per path, t * tail_mass; refuses more than MAX_JUMPS_PER_PATH."""
    if not eps_cut > 0:
        raise ValueError("eps_cut must be positive")
    lam = t * tail_mass(alpha, eps_cut)
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
    if not eps > 0:
        raise ValueError("eps must be positive")
    rho = alpha / 2.0
    return rho * eps ** (1.0 - rho) / ((1.0 - rho) * math.gamma(1.0 - rho))


def _pareto_sizes(alpha: float, eps_cut: float, unit_uniforms: np.ndarray) -> np.ndarray:
    # P(size > y) = (y / eps_cut) ** (-alpha/2) for y >= eps_cut; the map below
    # needs uniforms in (0, 1], never 0.
    return eps_cut * unit_uniforms ** (-2.0 / alpha)


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
    value and are not drawn.
    """
    alpha = _require_stable(spec)
    checked_jump_intensity(alpha, eps_cut, horizon)
    counts = rng.poisson(horizon * tail_mass(alpha, eps_cut), size=n)
    total = int(counts.sum())
    sizes = _pareto_sizes(alpha, eps_cut, 1.0 - rng.uniform(size=total))
    path_id = np.repeat(np.arange(n), counts)
    values = np.bincount(path_id, weights=sizes, minlength=n)
    if compensate_small_jumps:
        values = values + dropped_mass_rate(alpha, eps_cut) * horizon
    return values


def truncate_jumps(path: JumpPath, eps: float) -> JumpPath:
    """Keep exactly the jumps of size >= eps; times are preserved."""
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    keep = path.sizes >= eps
    return JumpPath(path.horizon, path.times[keep], path.sizes[keep])


def inverse_moment(spec: BernsteinSpec, t: float, gamma: float) -> float:
    """E S_t**(-gamma) = Gamma(gamma)**-1 * integral_0^inf u**(gamma-1) exp(-t B(u)) du.

    Quadrature is split at u = 1. On (0, 1] the substitution u = w**(1/gamma)
    removes the endpoint singularity exactly; on (1, inf) the substitution
    u = exp(y) turns the integrand into exp(gamma*y - t*B(exp(y))), which is
    scanned for decay before integrating (a bounded B makes the integral
    diverge and raises QuadratureDivergenceError).
    """
    if not t > 0:
        raise ValueError("t must be positive")
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    # imported at its only use: at module level, scipy.integrate took most of
    # the time of `import levygrad`
    from scipy.integrate import quad

    def log_upper_integrand(y: float) -> float:
        if y > 709.0:  # exp(y) exceeds the float range; the integrand is 0 there
            return -math.inf
        return gamma * y - t * float(spec.evaluate(math.exp(y)))

    # Divergence scan: the log-integrand must eventually fall without bound.
    probe = np.linspace(0.0, min(600.0, 700.0 / max(gamma, 1e-3)), 60)
    with np.errstate(over="raise"):
        try:
            logs = np.array([log_upper_integrand(y) for y in probe])
        except FloatingPointError as exc:  # B overflowed: certainly divergent-safe
            raise QuadratureDivergenceError("Bernstein evaluator overflowed during scan") from exc
    if logs[-1] > -30.0 or logs[-1] >= logs[0]:
        raise QuadratureDivergenceError(
            "integrand does not decay; B(u) must grow without bound"
        )

    def low(w: float) -> float:
        return math.exp(-t * float(spec.evaluate(w ** (1.0 / gamma)))) / gamma

    def high(y: float) -> float:
        lg = log_upper_integrand(y)
        return math.exp(lg) if lg > -745.0 else 0.0

    i_low, err_low = quad(low, 0.0, 1.0, epsabs=1e-300, epsrel=1e-11, limit=300)
    i_high, err_high = quad(high, 0.0, np.inf, epsabs=1e-300, epsrel=1e-11, limit=300)
    total = (i_low + i_high) / math.gamma(gamma)
    rel_err = (err_low + err_high) / math.gamma(gamma) / max(total, 1e-300)
    if rel_err > 1e-8:
        raise RuntimeError(f"quadrature uncertainty {rel_err:.2e} exceeds 1e-8")
    return total


_MEDIAN_SEED = 713  # internal, fixed: the median oracle must not depend on caller seeds
_MEDIAN_EPS = 1e-4
_MEDIAN_PATHS = 10_000
_median_cache: dict[float, float] = {}


def stable_median_s1(spec: BernsteinSpec) -> float:
    """Empirical median of S_1, estimated once per alpha and cached.

    Sampling uses the fixed internal seed and a compensated eps = 1e-4 clock,
    so the value is a deterministic function of alpha.
    """
    alpha = _require_stable(spec)
    key = round(alpha, 12)
    if key not in _median_cache:
        from .streams import substream

        rng = substream(_MEDIAN_SEED, 0)
        vals = sample_terminal_values(
            spec, 1.0, _MEDIAN_EPS, _MEDIAN_PATHS, rng, compensate_small_jumps=True
        )
        _median_cache[key] = float(np.median(vals))
    return _median_cache[key]


def default_eps_cut(spec: BernsteinSpec, t: float) -> float:
    """Cutoff for which the mean dropped clock mass is 10% of the clock scale.

    The retained clock mass has no finite mean for the stable subordinator, so
    the comparison scale is the median of S_t, i.e. median(S_1) * t**(2/alpha).
    Solves dropped_mass_rate(eps) * t = 0.1 * scale for eps; the result
    scales exactly as t**(2/alpha), keeping the per-path jump count and the
    relative truncation error t-independent.

    The 10% favors tractability over bias: the cutoff shrinks as the dropped
    share to the power 1/(1-alpha/2), so smaller shares get expensive fast
    and can be intractable for alpha near 2. Pass eps_cut explicitly for
    precision runs, and check the implied jump intensity
    t * tail_mass(alpha, eps) before launching large ones (the CLI does).
    """
    alpha = _require_stable(spec)
    if not t > 0:
        raise ValueError("t must be positive")
    rho = alpha / 2.0
    scale = stable_median_s1(spec) * t ** (2.0 / alpha)
    # dropped rate = rho * eps**(1-rho) / ((1-rho) Gamma(1-rho))
    coef = rho / ((1.0 - rho) * math.gamma(1.0 - rho))
    return (0.1 * scale / (t * coef)) ** (1.0 / (1.0 - rho))
