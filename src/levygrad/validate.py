"""Independent oracles and statistical checks for the gradient estimator.

Everything here avoids the Malliavin weight: plain semigroup averages,
central finite differences with common random numbers, scaling fits of the
gradient bound, a second-moment counterexample separating jump clocks from
their absolutely continuous mollifications, and two exact L2 identities for
the reparameterized Gaussian sums (an isometry and a truncation-coupling
formula). Agreement between these oracles and the weighted estimator is what
the test suite certifies.
"""

from __future__ import annotations

import math

import numpy as np

from . import engine
from .bismut import ClockSpec, _interval_data, estimate_gradient
from .coefficients import CoefficientField, catalog
from .results import ComparisonReport, EstimatorResult, compare
from .streams import substream
from .subordinator import (
    BernsteinSpec,
    JumpPath,
    checked_jump_intensity,
    default_eps_cut,
    dropped_mass_rate,
    truncate_jumps,
)

__all__ = [
    "OBSERVABLE_NAMES",
    "make_observable",
    "estimate_pt",
    "estimate_pt_power",
    "fd_gradient",
    "check_gradient_bound",
    "counterexample_moments",
    "burkholder_isometry_check",
    "truncation_convergence_check",
]

OBSERVABLE_NAMES = ("linear", "sign", "tanh1", "indicator1", "const1")


def make_observable(name: str, a=None):
    """Vectorized test function (n, d) -> (n,) from the named catalog.

    "linear" needs the coefficient vector a; the rest are bounded functions
    of the first coordinate. "sign" and "indicator1" are discontinuous at 0,
    which is the regime the weighted estimator exists for and finite
    differences do not.
    """
    if name == "linear":
        if a is None:
            raise ValueError("linear observable needs a coefficient vector a")
        a = np.asarray(a, dtype=float)
        if a.ndim != 1 or not np.all(np.isfinite(a)):
            raise ValueError("a must be a finite vector")
        return lambda X: np.asarray(X, dtype=float) @ a
    if name == "sign":
        return lambda X: np.sign(np.asarray(X, dtype=float)[..., 0])
    if name == "tanh1":
        return lambda X: np.tanh(np.asarray(X, dtype=float)[..., 0])
    if name == "indicator1":
        return lambda X: (np.asarray(X, dtype=float)[..., 0] > 0).astype(float)
    if name == "const1":
        return lambda X: np.ones(np.asarray(X).shape[0])
    raise ValueError(f"unknown observable {name!r}; choose from {OBSERVABLE_NAMES}")


def _prep(x, field: CoefficientField, spec: BernsteinSpec, t: float, eps_cut):
    if spec.kind != "alpha_stable":
        raise ValueError("semigroup estimation samples an alpha_stable clock")
    if t <= 0:
        raise ValueError("t must be positive")
    x = np.asarray(x, dtype=float)
    if x.shape != (field.dimension,):
        raise ValueError(f"x must be a vector of length {field.dimension}")
    eps = default_eps_cut(spec, t) if eps_cut is None else float(eps_cut)
    checked_jump_intensity(spec.alpha, eps, t)
    return x, eps


def estimate_pt(
    x,
    f,
    field: CoefficientField,
    spec: BernsteinSpec,
    t: float,
    n_paths: int,
    seed: int,
    *,
    eps_cut: float | None = None,
    substeps_per_unit: int = 100,
    workers: int = 1,
) -> EstimatorResult:
    """Plain Monte Carlo mean of f(X_t(x)); no weight, no rejection.

    Uses the same jump and mark streams as the gradient estimator at the same
    seed, so the two runs share paths (common random numbers).
    """
    x, eps = _prep(x, field, spec, t, eps_cut)
    d = field.dimension

    def worker(bi: int, start: int, count: int):
        jb = engine.sample_jump_batch(
            spec.alpha, t, eps, count, substream(seed, engine.PURPOSE_JUMPS, bi)
        )
        dW, _aux = engine.sample_mark_batch(jb, d, substream(seed, engine.PURPOSE_MARKS, bi))
        X, _, _, _, _ = engine.flow_batch(x, None, field, jb, dW, t, substeps_per_unit)
        return {
            "samples": {"y": engine.evaluate_observable(f, X, bi)},
            "counters": {"jumps": int(jb.total)},
        }

    run = engine.run_batches(n_paths, workers, worker)
    return run.result({
        "mean_jump_count": run.counters["jumps"] / n_paths,
        "expected_dropped_clock_mass": dropped_mass_rate(spec.alpha, eps) * t,
        "eps_cut": eps,
    })


def estimate_pt_power(
    x,
    f,
    field: CoefficientField,
    spec: BernsteinSpec,
    t: float,
    p: float,
    n_paths: int,
    seed: int,
    *,
    eps_cut: float | None = None,
    substeps_per_unit: int = 100,
    workers: int = 1,
) -> EstimatorResult:
    """(P_t |f|^p)^{1/p}(x): power applied per sample, root applied to the mean.

    The standard error is mapped through the root by the delta method. On
    fixed samples the result is nondecreasing in p (power-mean inequality).
    """
    if p <= 0:
        raise ValueError("p must be positive")
    raw = estimate_pt(
        x,
        lambda X: np.abs(np.asarray(f(X), dtype=float)) ** p,
        field,
        spec,
        t,
        n_paths,
        seed,
        eps_cut=eps_cut,
        substeps_per_unit=substeps_per_unit,
        workers=workers,
    )
    if raw.mean > 0:
        root = raw.mean ** (1.0 / p)
        se = raw.std_error * root / (p * raw.mean)
    else:
        root, se = 0.0, math.nan
    diagnostics = dict(raw.diagnostics)
    diagnostics.update({"power": p, "raw_mean": raw.mean, "raw_std_error": raw.std_error})
    return EstimatorResult(
        mean=root, std_error=se, n_samples=raw.n_samples, diagnostics=diagnostics
    )


def fd_gradient(
    x,
    v,
    f,
    field: CoefficientField,
    spec: BernsteinSpec,
    t: float,
    h: float | None,
    n_paths: int,
    seed: int,
    *,
    eps_cut: float | None = None,
    substeps_per_unit: int = 100,
    workers: int = 1,
) -> EstimatorResult:
    """Central difference (f(X_t(x+hv)) - f(X_t(x-hv))) / 2h under shared noise.

    Both trajectories of each sample use the identical jump path and marks,
    so smooth scenarios get heavily variance-reduced gradients. The standard
    error is that of the per-sample paired difference. Meaningless for
    discontinuous f (the difference is a rare-event indicator at scale h);
    use the weighted estimator there. h defaults to 1e-3 * (1 + |x|).
    """
    x, eps = _prep(x, field, spec, t, eps_cut)
    v = np.asarray(v, dtype=float)
    if v.shape != x.shape:
        raise ValueError("v must match the dimension of x")
    h_val = 1e-3 * (1.0 + float(np.linalg.norm(x))) if h is None else float(h)
    if h_val <= 0:
        raise ValueError("h must be positive")
    d = field.dimension
    xp = x + h_val * v
    xm = x - h_val * v

    def worker(bi: int, start: int, count: int):
        jb = engine.sample_jump_batch(
            spec.alpha, t, eps, count, substream(seed, engine.PURPOSE_JUMPS, bi)
        )
        dW, _aux = engine.sample_mark_batch(jb, d, substream(seed, engine.PURPOSE_MARKS, bi))
        Xp, _, _, _, _ = engine.flow_batch(xp, None, field, jb, dW, t, substeps_per_unit)
        Xm, _, _, _, _ = engine.flow_batch(xm, None, field, jb, dW, t, substeps_per_unit)
        fp = engine.evaluate_observable(f, Xp, bi)
        fm = engine.evaluate_observable(f, Xm, bi)
        return {"samples": {"y": (fp - fm) / (2.0 * h_val)}}

    run = engine.run_batches(n_paths, workers, worker)
    return run.result({"h": h_val, "eps_cut": eps})


def check_gradient_bound(
    field: CoefficientField,
    spec: BernsteinSpec,
    f,
    x,
    p: float,
    t_grid,
    n_paths: int,
    seed: int,
    *,
    v=None,
    eps_cut_at_1: float | None = None,
    R="auto",
    slope_tolerance: float = 0.15,
    substeps_per_unit: int = 100,
    workers: int = 1,
) -> dict:
    """Scaling check of |grad_v P_t f| <= C (P_t|f|^p)^{1/p} / t^{1/alpha} on (0, 1].

    For each t the ratio rho(t) = |gradient estimate| / (P_t|f|^p)^{1/p} is
    computed with independent seeds for numerator (seed + 2i) and denominator
    (seed + 2i + 1); the fitted log-log slope is compared against -1/alpha.
    The jump cutoff scales as eps_cut_at_1 * t^{2/alpha} so the per-path jump
    count and the relative truncation error are t-independent. The constant
    max rho(t) * t^{1/alpha} is reported as an estimate, never asserted.
    Any flagged estimator or nonpositive ratio marks the report incomplete.
    """
    if spec.kind != "alpha_stable":
        raise ValueError("the bound check needs an alpha_stable clock")
    t_grid = [float(t) for t in t_grid]
    if not t_grid or any(t <= 0 or t > 1 for t in t_grid):
        raise ValueError("t_grid must be a nonempty subset of (0, 1]")
    if p <= 1:
        raise ValueError("p must exceed 1")
    if v is None:
        v = np.zeros(field.dimension)
        v[0] = 1.0
    eps1 = default_eps_cut(spec, 1.0) if eps_cut_at_1 is None else float(eps_cut_at_1)
    alpha = spec.alpha

    ratios = []
    grads = []
    dens = []
    incomplete = False
    for i, t in enumerate(t_grid):
        eps_t = eps1 * t ** (2.0 / alpha)
        g = estimate_gradient(
            x, v, f, field, spec, t, R, n_paths, eps_t, seed + 2 * i,
            substeps_per_unit=substeps_per_unit, workers=workers,
        )
        den = estimate_pt_power(
            x, f, field, spec, t, p, n_paths, seed + 2 * i + 1,
            eps_cut=eps_t, substeps_per_unit=substeps_per_unit, workers=workers,
        )
        grads.append(g)
        dens.append(den)
        if g.diagnostics.get("flagged_invalid", 0.0) > 0 or not den.mean > 0:
            incomplete = True
            ratios.append(math.nan)
        else:
            ratios.append(abs(g.mean) / den.mean)

    if any(not r > 0 for r in ratios):
        incomplete = True
    slope_target = -1.0 / alpha
    if incomplete:
        slope = math.nan
        passed = False
    else:
        slope = float(np.polyfit(np.log(t_grid), np.log(ratios), 1)[0])
        passed = abs(slope - slope_target) <= slope_tolerance
    constant = max(
        (r * t ** (1.0 / alpha) for r, t in zip(ratios, t_grid) if r > 0), default=math.nan
    )
    return {
        "t_grid": t_grid,
        "ratios": ratios,
        "slope": slope,
        "slope_target": slope_target,
        "slope_tolerance": slope_tolerance,
        "constant_estimate": constant,
        "passed": passed,
        "incomplete": incomplete,
        "gradients": [g.to_dict() for g in grads],
        "denominators": [d.to_dict() for d in dens],
    }


def counterexample_moments(
    eps_mollify: float,
    n_paths: int,
    grid_step: float,
    seed: int,
    *,
    workers: int = 1,
) -> dict:
    """Second moments separating a jump clock from its mollification.

    Scenario: d = 1, b = 0, sigma(x) = sqrt(1 + x^2), X_0 = 0, t = 1. The
    clock jumping by 1 at time 1 gives E|X_1|^2 = 1. The absolutely
    continuous clock eps*t plus a linear ramp from 1-eps to 1 (total mass
    1 + eps at t = 1) gives E|X_1|^2 = e^{1+eps} - 1, which stays above
    e - 1 for every eps in (0, 1/2): no absolutely continuous clock
    reproduces the jump-clock moment, however small eps is.

    The mollified moment uses Euler steps X += sigma(X) sqrt(dl) Z on a
    uniform grid, so it carries an O(grid_step) bias on top of its SE.
    """
    if not 0.0 < eps_mollify < 0.5:
        raise ValueError("eps_mollify must lie in (0, 0.5)")
    if grid_step > 1e-3:
        raise ValueError("grid_step must be at most 1e-3")
    if n_paths < 2:
        raise ValueError("n_paths must be at least 2")
    field = catalog("pythagoras_1d")
    x0 = np.zeros(1)

    # Jump route: one clock jump of size 1 at time 1, flow evaluated at t = 1.
    path = JumpPath(1.0, np.array([1.0]), np.array([1.0]))

    def jump_worker(bi: int, start: int, count: int):
        jb = engine.fixed_jump_batch(path, 1.0, count)
        dW, _aux = engine.sample_mark_batch(jb, 1, substream(seed, engine.PURPOSE_MARKS, bi))
        X, _, _, _, _ = engine.flow_batch(x0, None, field, jb, dW, 1.0, 100)
        return {"samples": {"y": np.einsum("ni,ni->n", X, X)}}

    jump_moment = engine.run_batches(n_paths, workers, jump_worker).result(
        {"clock_mass_at_1": 1.0}
    )

    # Mollified route: deterministic increments of the absolutely continuous
    # clock l(t) = eps*t + clip((t - (1 - eps)) / eps, 0, 1) on a uniform grid.
    n_steps = int(math.ceil(1.0 / grid_step))
    grid = np.linspace(0.0, 1.0, n_steps + 1)
    ell = eps_mollify * grid + np.clip((grid - (1.0 - eps_mollify)) / eps_mollify, 0.0, 1.0)
    sqrt_dl = np.sqrt(np.diff(ell))

    def mollified_worker(bi: int, start: int, count: int):
        rng = substream(seed, engine.PURPOSE_MOLLIFIED, bi)
        X = np.zeros(count)
        for k in range(n_steps):
            z = rng.standard_normal(count)
            X = X + np.sqrt(1.0 + X * X) * (sqrt_dl[k] * z)
        return {"samples": {"y": X * X}}

    mollified_moment = engine.run_batches(n_paths, workers, mollified_worker).result({
        "clock_mass_at_1": 1.0 + eps_mollify,
        "grid_steps": float(n_steps),
        "eps_mollify": eps_mollify,
    })
    return {"jump_moment": jump_moment, "mollified_moment": mollified_moment}


def _mark_coefficients(resolved, sizes: np.ndarray):
    """Per-jump (r, c) with mark-sum contribution r*dW + c*aux per coordinate."""
    if sizes.size == 0:
        return np.empty(0), np.empty(0)
    post = np.cumsum(sizes)
    pre = np.concatenate(([0.0], post[:-1]))
    d_beta, d_lambda = _interval_data(resolved, pre, post, sizes)
    r = d_beta / sizes
    c = np.sqrt(np.maximum(d_lambda - d_beta * r, 0.0))
    return r, c


def burkholder_isometry_check(
    xi,
    path: JumpPath,
    clock: ClockSpec,
    n_paths: int,
    seed: int,
    *,
    workers: int = 1,
) -> ComparisonReport:
    """E (sum <xi, dW_beta_i>)^2 against the exact value |xi|^2 lambda_beta(l_T).

    For a deterministic integrand the second moment of the reparameterized
    Gaussian sum is an exact isometry, so the empirical mean must sit within
    3 SE of the closed form for any clock and any jump path.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 1 or not np.all(np.isfinite(xi)):
        raise ValueError("xi must be a finite vector")
    if path.compensation_drift != 0.0:
        raise ValueError("the isometry check needs a pure-jump path")
    d = xi.size
    resolved = clock.resolve(path)
    ell_T = float(np.sum(path.sizes))
    target = float(xi @ xi) * float(resolved.lambda_beta(ell_T))
    k = path.times.size
    r, c = _mark_coefficients(resolved, path.sizes)

    def worker(bi: int, start: int, count: int):
        jb = engine.fixed_jump_batch(path, path.horizon, count)
        dW, aux = engine.sample_mark_batch(jb, d, substream(seed, engine.PURPOSE_MARKS, bi))
        u = (dW @ xi).reshape(count, k)
        w = (aux @ xi).reshape(count, k)
        M = u @ r + w @ c
        return {"samples": {"y": M * M}}

    empirical = engine.run_batches(n_paths, workers, worker).result()
    return compare(empirical, target, label="second-moment isometry")


def truncation_convergence_check(
    path: JumpPath,
    clock: ClockSpec,
    xi,
    eps_list,
    n_paths: int,
    seed: int,
    *,
    workers: int = 1,
) -> list[dict]:
    """L2 gap between the mark sums of the full and the eps-truncated clock.

    Marks ride with jump times, so truncation keeps the surviving jumps'
    Gaussian draws and drops the rest (one coupled Brownian driver per
    sample, shared across all eps). Each entry reports the empirical mean
    square gap, its exact value

        |xi|^2 [ sum_dropped (r^2 dl + c^2)
                 + sum_kept ((r - r_eps)^2 dl + (c - c_eps)^2) ],

    and a 3 SE verdict. The exact gap vanishes once eps drops below the
    smallest jump.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 1 or not np.all(np.isfinite(xi)):
        raise ValueError("xi must be a finite vector")
    if path.compensation_drift != 0.0:
        raise ValueError("the truncation check needs a pure-jump path")
    eps_list = [float(e) for e in eps_list]
    if not eps_list or any(e <= 0 for e in eps_list):
        raise ValueError("eps_list must contain positive cutoffs")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    d = xi.size
    k = path.times.size
    xi_sq = float(xi @ xi)
    resolved = clock.resolve(path)
    r_full, c_full = _mark_coefficients(resolved, path.sizes)

    # Per eps: coefficient gaps on every jump of the full path (zero for the
    # coefficients of dropped jumps in the truncated sum), plus the exact gap.
    coeff_r = []
    coeff_c = []
    exact = []
    for eps in eps_list:
        trunc = truncate_jumps(path, eps)
        res_t = clock.resolve(trunc)
        kept = path.sizes >= eps
        r_t = np.zeros(k)
        c_t = np.zeros(k)
        if trunc.times.size:
            r_kept, c_kept = _mark_coefficients(res_t, trunc.sizes)
            r_t[kept] = r_kept
            c_t[kept] = c_kept
        dr = r_full - r_t
        dc = c_full - c_t
        coeff_r.append(dr)
        coeff_c.append(dc)
        exact.append(xi_sq * float(np.sum(dr * dr * path.sizes) + np.sum(dc * dc)))

    n_eps = len(eps_list)

    def worker(bi: int, start: int, count: int):
        jb = engine.fixed_jump_batch(path, path.horizon, count)
        dW, aux = engine.sample_mark_batch(jb, d, substream(seed, engine.PURPOSE_MARKS, bi))
        u = (dW @ xi).reshape(count, k)
        w = (aux @ xi).reshape(count, k)
        gaps = (u @ coeff_r[j] + w @ coeff_c[j] for j in range(n_eps))
        return {"samples": {j: D * D for j, D in enumerate(gaps)}}

    run = engine.run_batches(n_paths, workers, worker)
    entries = []
    for j, eps in enumerate(eps_list):
        gap = run.result(column=j)
        rep = compare(gap, exact[j], label=f"truncation gap at eps={eps:g}")
        entries.append(
            {
                "eps": eps,
                "empirical": gap.mean,
                "std_error": gap.std_error,
                "exact": exact[j],
                "z_score": rep.z_score,
                "passed": rep.passed,
                "dropped_jumps": int(np.sum(path.sizes < eps)),
            }
        )
    return entries
