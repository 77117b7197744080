"""Independent oracles and statistical checks for the gradient estimator.

Everything here avoids the Malliavin weight: plain semigroup averages,
central finite differences with common random numbers, scaling fits of the
gradient bound against (P_t|f|^p)^{1/p}, a second-moment counterexample
separating jump clocks from their absolutely continuous mollifications, and
two exact L2 identities for the reparameterized Gaussian sums (an isometry
and a truncation-coupling formula). The semigroup averages, the finite
differences and the counterexample's jump-clock moment share one unweighted
worker, _semigroup_run, which reads a bismut.ClockDraw and flows each
piece from all its starts in one engine.flow_batch call. Agreement between
these oracles and the weighted estimator is what the test suite certifies.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import partial

import numpy as np

from . import engine
from .bismut import ClockDraw, ClockSpec, checked_vector, estimate_gradient
from .coefficients import CoefficientField, catalog
from .results import ComparisonReport, EstimatorResult, compare
from .streams import checked_float, substream
from .subordinator import (
    BernsteinSpec,
    JumpPath,
    default_eps_cut,
    truncate_jumps,
)

__all__ = [
    "OBSERVABLE_NAMES",
    "make_observable",
    "estimate_pt",
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
        a = checked_vector("a", a)

        def linear(X):
            if (X := np.asarray(X, dtype=float)).shape[-1:] != a.shape:
                raise ValueError(f"linear observable's a has {a.size} entries; X has shape {X.shape}")
            return X @ a
        return linear
    if name == "sign":
        return lambda X: np.sign(np.asarray(X, dtype=float)[..., 0])
    if name == "tanh1":
        return lambda X: np.tanh(np.asarray(X, dtype=float)[..., 0])
    if name == "indicator1":
        return lambda X: (np.asarray(X, dtype=float)[..., 0] > 0).astype(float)
    if name == "const1":
        return lambda X: np.ones(np.asarray(X).shape[0])
    raise ValueError(f"unknown observable {name!r}; choose from {OBSERVABLE_NAMES}")


def _semigroup_run(draw, starts, f, combine, field, n_paths, substeps_per_unit, workers):
    """Run of combine(f(X_t(x0)) for x0 in starts), every start flowed with no weight.

    Each batch is drawn from the ClockDraw draw and flowed one piece at a
    time (engine.over_row_blocks); every start reads the same draws (common
    random numbers): one flow_batch call flows a piece from the stacked
    starts, whose jump rounds then gather each round's draws once. The run
    counts the jumps it flowed.
    """
    starts = np.stack(starts)

    def stage(block, dW, aux):
        return block.counts, *engine.flow_batch(starts, None, field, block, dW, substeps_per_unit)[0]

    def worker(bi: int, start: int, count: int):
        counts, *X = engine.over_row_blocks(partial(draw.blocks, bi, count), stage)
        y = combine(*(engine.evaluate_observable(f, Xi, bi) for Xi in X))
        return {"samples": {"y": y}, "counters": {"jumps": int(counts.sum())}}

    return engine.run_batches(n_paths, workers, worker)


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
    draw = ClockDraw.stable(spec, t, eps_cut, field.dimension, seed)
    x = checked_vector("x", x, field.dimension)
    run = _semigroup_run(draw, (x,), f, lambda y: y, field, n_paths, substeps_per_unit, workers)
    return run.result(draw.diagnostics(run))


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
    draw = ClockDraw.stable(spec, t, eps_cut, field.dimension, seed)
    x = checked_vector("x", x, field.dimension)
    v = checked_vector("v", v, field.dimension)
    h_val = 1e-3 * (1.0 + float(np.linalg.norm(x))) if h is None else checked_float("h", h)
    if not 0 < h_val < math.inf:
        raise ValueError("h must be positive and finite")
    run = _semigroup_run(draw, (x + h_val * v, x - h_val * v), f, lambda fp, fm: (fp - fm) / (2.0 * h_val),
                         field, n_paths, substeps_per_unit, workers)
    return run.result({"h": h_val, **draw.diagnostics(run)})


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
    t_grid must hold at least two distinct times, or no slope can be fitted.

    Each denominator is m^{1/p} with the delta-method SE s m^{1/p} / (p m),
    where m and s (raw_mean, raw_std_error) are the mean and SE of
    estimate_pt on |f|^p; m = 0 gives 0.0 with a NaN SE, and no exception.
    """
    t_grid = [checked_float("t_grid", t) for t in t_grid]
    if not t_grid or any(not 0 < t <= 1 for t in t_grid):
        raise ValueError("t_grid must be a nonempty subset of (0, 1]")
    if len(set(t_grid)) < 2:
        raise ValueError(f"t_grid must hold at least two distinct times to fit a slope, got {t_grid}")
    p = checked_float("p", p)
    if not p > 1:
        raise ValueError("p must exceed 1")
    if not 0 <= (slope_tolerance := checked_float("slope_tolerance", slope_tolerance)) < math.inf:
        raise ValueError(f"slope_tolerance must be nonnegative and finite, got {slope_tolerance}")
    if v is None:
        v = np.zeros(field.dimension)
        v[0] = 1.0
    eps1 = default_eps_cut(spec, 1.0) if eps_cut_at_1 is None else checked_float("eps_cut_at_1", eps_cut_at_1)
    alpha = spec.alpha

    ratios, grads, dens = [], [], []
    for i, t in enumerate(t_grid):
        eps_t = eps1 * t ** (2.0 / alpha)
        g = estimate_gradient(
            x, v, f, field, spec, t, R, n_paths, eps_t, seed + 2 * i,
            substeps_per_unit=substeps_per_unit, workers=workers,
        )
        raw = estimate_pt(
            x, lambda X: np.abs(np.asarray(f(X), dtype=float)) ** p, field, spec, t, n_paths,
            seed + 2 * i + 1, eps_cut=eps_t, substeps_per_unit=substeps_per_unit, workers=workers,
        )
        m, s = raw.mean, raw.std_error
        root = m ** (1.0 / p) if m > 0 else 0.0
        se = s * root / (p * m) if m > 0 else math.nan
        diagnostics = {**raw.diagnostics, "power": p, "raw_mean": m, "raw_std_error": s}
        grads.append(g)
        dens.append(replace(raw, mean=root, std_error=se, diagnostics=diagnostics))
        unusable = g.diagnostics.get("flagged_invalid", 0.0) > 0 or not root > 0
        ratios.append(math.nan if unusable else abs(g.mean) / root)

    incomplete = any(not r > 0 for r in ratios)
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
    eps_mollify = checked_float("eps_mollify", eps_mollify)
    if not 0.0 < eps_mollify < 0.5:
        raise ValueError("eps_mollify must lie in (0, 0.5)")
    grid_step = checked_float("grid_step", grid_step)
    if not 0 < grid_step <= 1e-3:
        raise ValueError("grid_step must lie in (0, 1e-3]")
    if n_paths < 2:
        raise ValueError("n_paths must be at least 2")
    field = catalog("pythagoras_1d")

    # Jump route: one clock jump of size 1 at time 1, flow evaluated at t = 1.
    path = JumpPath(1.0, np.array([1.0]), np.array([1.0]))

    jump_moment = _semigroup_run(
        ClockDraw.fixed(path, 1.0, 1, seed), (np.zeros(1),),
        lambda X: np.einsum("ni,ni->n", X, X), lambda y: y, field, n_paths, 100, workers,
    ).result({"clock_mass_at_1": 1.0})

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


def _mark_sum_squares(path: JumpPath, xi: np.ndarray, laws, n_paths: int, seed: int, workers):
    """Run whose column j holds (sum_k <xi, r_k dW_k + c_k Z_k>)^2 for the j-th (r, c) of laws.

    The sum runs over the jumps of path; every law reads the same draws of one
    fixed ClockDraw, built as is: a path of horizon 0 has no jumps to check.
    """
    k = path.times.size
    draw = ClockDraw("fixed", path.horizon, xi.size, seed, path=path)

    def worker(bi: int, start: int, count: int):
        _, dW, aux = draw.batch(bi, count)
        u = (dW @ xi).reshape(count, k)
        w = (aux @ xi).reshape(count, k)
        sums = (u @ r + w @ c for r, c in laws)
        return {"samples": {j: M * M for j, M in enumerate(sums)}}

    return engine.run_batches(n_paths, workers, worker)


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
    xi = checked_vector("xi", xi)
    jumps = engine.fixed_jump_batch(path, path.horizon, 1)
    increments = clock.increments(jumps)
    ell_T = float(engine.path_cumulatives(jumps)[2][0])
    target = float(xi @ xi) * float(clock.curves(ell_T, increments.cap[0])[1])
    law = clock.mark_law(jumps.sizes, increments)
    empirical = _mark_sum_squares(path, xi, [law], n_paths, seed, workers).result(column=0)
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
    xi = checked_vector("xi", xi)
    eps_list = [checked_float("eps_list", e) for e in eps_list]
    if not eps_list or any(not e > 0 for e in eps_list):
        raise ValueError("eps_list must contain positive cutoffs")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    k = path.times.size
    xi_sq = float(xi @ xi)
    laws = []
    for p in [path] + [truncate_jumps(path, eps) for eps in eps_list]:
        jumps = engine.fixed_jump_batch(p, p.horizon, 1)
        laws.append(clock.mark_law(jumps.sizes, clock.increments(jumps)))
    (r_full, c_full), *truncated = laws

    # Per eps: coefficient gaps on every jump of the full path (zero for the
    # coefficients of dropped jumps in the truncated sum), plus the exact gap.
    gaps = []
    exact = []
    for eps, (r_kept, c_kept) in zip(eps_list, truncated):
        kept = path.sizes >= eps
        r_t, c_t = np.zeros(k), np.zeros(k)
        r_t[kept], c_t[kept] = r_kept, c_kept
        dr, dc = r_full - r_t, c_full - c_t
        gaps.append((dr, dc))
        exact.append(xi_sq * float(np.sum(dr * dr * path.sizes) + np.sum(dc * dc)))

    run = _mark_sum_squares(path, xi, gaps, n_paths, seed, workers)
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
