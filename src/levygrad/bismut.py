"""Malliavin weight computation and Monte Carlo gradient estimation.

For a clock path ell with jumps at s_1 < s_2 < ... and an increasing
reparameterization beta with beta(0) = 0, the directional derivative of the
semigroup acting on a bounded measurable f is an expectation of f at the
endpoint times a weight built from three sums over jumps:

    I1 = sum <sigma^{-1}(X_{s-}) grad_v X_{s-}, dW^beta>
    I2 = sum Tr(sigma^{-1} grad_{grad_v X_{s-}} sigma)(X_{s-}) * dbeta
    I3 = sum <sigma^{-1} grad_{grad_v X_{s-}} sigma(X_{s-}) dW^beta, dW>

combined as (I1 - I2 + I3) and normalized by beta(ell_t). The trace term
enters with a minus sign: it is the divergence correction of the Gaussian
integration by parts (the perturbation direction depends on the mark it
perturbs, and the product rule delta(F u) = F delta(u) - D_u F subtracts the
derivative part). Two checks pin the sign: a divergence has zero mean, and
E[I1 + I3] = E[I2] makes I1 - I2 + I3 the only mean-zero combination; and
only this combination reproduces finite-difference gradients for
state-dependent sigma. Every coefficient is evaluated at the left limit.
dW is the jump's Gaussian mark and dW^beta the mark of the beta-weighted
integral over the same clock interval; their joint law per coordinate is
Gaussian with covariance [[d_ell, d_beta], [d_beta, d_lambda]], where
lambda(u) is the integral of the squared slope of beta.

The random-level clock beta(u) = u ^ ell_tau (cap at the clock value of the
first passage over R) yields an unbiased estimator of grad_v P_t f with
normalizer S_{t ^ tau}; since the cap sits exactly on a jump boundary, no
jump interval ever straddles it, and jumps after the passage contribute
nothing to any term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .coefficients import CoefficientField, directional_sigma_derivative
from .results import EstimatorResult
from .streams import substream
from .subordinator import (
    BernsteinSpec,
    JumpPath,
    checked_jump_intensity,
    dropped_mass_rate,
    first_passage,
    stable_median_s1,
)

__all__ = [
    "ClockSpec",
    "BismutWeight",
    "RejectedPathError",
    "accumulate_weight",
    "estimate_gradient",
    "estimate_gradient_fixed_clock",
    "default_level_R",
    "REJECTION_FLAG_THRESHOLD",
]

REJECTION_FLAG_THRESHOLD = 1e-3


class RejectedPathError(RuntimeError):
    """The clock reparameterization vanished at t; the path carries no weight."""


@dataclass(frozen=True, eq=False)
class ClockSpec:
    """Reparameterization beta of the clock-value axis.

    kind "cap_at_first_passage" realizes beta(u) = u ^ ell_tau for the given
    level R > 0, resolved per path. kind "piecewise_linear" is a deterministic
    nondecreasing piecewise-linear function given by (u, beta) knots starting
    at (0, 0); beyond the last knot the final segment's slope continues.
    """

    kind: str
    R: float | None = None
    knots: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind == "cap_at_first_passage":
            if self.R is None or not self.R > 0:
                raise ValueError("cap_at_first_passage needs a level R > 0")
        elif self.kind == "piecewise_linear":
            k = np.asarray(self.knots, dtype=float)
            if k.ndim != 2 or k.shape[1] != 2 or k.shape[0] < 2:
                raise ValueError("knots must be an (m, 2) array with m >= 2")
            if not (k[0, 0] == 0.0 and k[0, 1] == 0.0):
                raise ValueError("the first knot must be (0, 0)")
            if np.any(np.diff(k[:, 0]) <= 0):
                raise ValueError("knot positions must be strictly increasing")
            if np.any(np.diff(k[:, 1]) < 0):
                raise ValueError("beta values must be nondecreasing")
            if not np.all(np.isfinite(k)):
                raise ValueError("knots must be finite")
            k.setflags(write=False)
            object.__setattr__(self, "knots", k)
        else:
            raise ValueError(f"unknown clock kind {self.kind!r}")

    @classmethod
    def cap_at_first_passage(cls, R: float) -> "ClockSpec":
        return cls(kind="cap_at_first_passage", R=float(R))

    @classmethod
    def piecewise_linear(cls, knots) -> "ClockSpec":
        return cls(kind="piecewise_linear", knots=np.asarray(knots, dtype=float))

    def resolve(self, path: JumpPath) -> "ResolvedClock":
        """Bind the clock to one path (evaluates the first passage for cap kind)."""
        if self.kind == "piecewise_linear":
            return ResolvedClock.from_knots(self.knots)
        fp = first_passage(path, self.R)
        cap = math.inf if fp is None else fp.value_at
        return ResolvedClock.cap(cap)


@dataclass(frozen=True, eq=False)
class ResolvedClock:
    """Piecewise-linear beta on the clock-value axis, with its lambda integral.

    slopes[j] applies on [ku[j], ku[j+1]) and slopes[-1] beyond the last knot;
    cumlam[j] = lambda(ku[j]) with lambda(u) the integral of the squared slope.
    """

    ku: np.ndarray
    kb: np.ndarray
    slopes: np.ndarray
    cumlam: np.ndarray
    cap_level: float = math.inf  # finite only for resolved cap clocks

    @classmethod
    def from_knots(cls, knots: np.ndarray) -> "ResolvedClock":
        ku = knots[:, 0].copy()
        kb = knots[:, 1].copy()
        seg = np.diff(kb) / np.diff(ku)
        slopes = np.append(seg, seg[-1])
        cumlam = np.concatenate(([0.0], np.cumsum(seg**2 * np.diff(ku))))
        return cls(ku, kb, slopes, cumlam)

    @classmethod
    def cap(cls, cap_level: float) -> "ResolvedClock":
        if math.isinf(cap_level):
            return cls(np.array([0.0]), np.array([0.0]), np.array([1.0]), np.array([0.0]), math.inf)
        return cls(
            np.array([0.0, cap_level]),
            np.array([0.0, cap_level]),
            np.array([1.0, 0.0]),
            np.array([0.0, cap_level]),
            float(cap_level),
        )

    def _segment(self, u: np.ndarray) -> np.ndarray:
        return np.clip(np.searchsorted(self.ku, u, side="right") - 1, 0, self.ku.size - 1)

    def beta(self, u):
        u = np.asarray(u, dtype=float)
        j = self._segment(u)
        return self.kb[j] + self.slopes[j] * (u - self.ku[j])

    def lambda_beta(self, u):
        u = np.asarray(u, dtype=float)
        j = self._segment(u)
        return self.cumlam[j] + self.slopes[j] ** 2 * (u - self.ku[j])


@dataclass(frozen=True)
class BismutWeight:
    """The three weight terms of one path and their normalizer beta(ell_t)."""

    I1: float
    I2: float
    I3: float
    normalizer: float

    def __post_init__(self) -> None:
        if not self.normalizer > 0:
            raise ValueError("normalizer must be positive (rejected paths never get here)")

    @property
    def weight(self) -> float:
        # trace term negative: divergence correction of the integration by parts
        return (self.I1 - self.I2 + self.I3) / self.normalizer


def _interval_data(resolved: ResolvedClock, ell_pre, ell_post, sizes):
    """(d_beta, d_lambda) over clock intervals, with exact 0/1 handling for caps.

    A cap sits on a jump's post value, so every interval is either fully
    covered or fully beyond it; taking the increment as the jump size itself
    (rather than a difference of cumulatives) keeps d_beta == d_ell exact,
    which in turn keeps the conditional mark variance identically zero.
    """
    if math.isfinite(resolved.cap_level) or resolved.ku.size == 1:
        d_beta = np.where(ell_post <= resolved.cap_level, sizes, 0.0)
        return d_beta, d_beta.copy()
    d_beta = resolved.beta(ell_post) - resolved.beta(ell_pre)
    d_lambda = resolved.lambda_beta(ell_post) - resolved.lambda_beta(ell_pre)
    return np.maximum(d_beta, 0.0), np.maximum(d_lambda, 0.0)


def accumulate_weight(
    snapshots,
    field: CoefficientField,
    realization,
    clock: ClockSpec,
    t: float,
) -> BismutWeight:
    """Three-term weight along one simulated path (reference, one path at a time).

    snapshots must come from simulate_flow(x0, v, field, realization, t) in
    directional mode: [pre_1, post_1, ..., pre_m, post_m, final]. Raises
    RejectedPathError when beta(ell_t) is not positive.
    """
    path = realization.path
    m = int(np.searchsorted(path.times, t, side="right"))
    if len(snapshots) != 2 * m + 1:
        raise ValueError("snapshots do not match the jumps with time <= t")
    if any(s.mode != "directional" for s in snapshots):
        raise ValueError("weights need directional-mode snapshots")
    resolved = clock.resolve(path)
    ell_post = np.cumsum(path.sizes[:m])
    ell_t = float(ell_post[-1]) if m else 0.0
    normalizer = float(resolved.beta(ell_t))
    if normalizer <= 0:
        raise RejectedPathError("beta(ell_t) <= 0")
    if m == 0:
        return BismutWeight(0.0, 0.0, 0.0, normalizer)

    ell_pre = np.concatenate(([0.0], ell_post[:-1]))
    d_ell = path.sizes[:m]
    d_beta, d_lambda = _interval_data(resolved, ell_pre, ell_post, d_ell)
    ratio = d_beta / d_ell
    cvar = np.maximum(d_lambda - d_beta * ratio, 0.0)
    dW = realization.increments[:m]
    dWb = ratio[:, None] * dW + np.sqrt(cvar)[:, None] * realization.aux_normals[:m]

    I1 = I2 = I3 = 0.0
    for i in range(m):
        s_i = float(path.times[i])
        pre = snapshots[2 * i]
        s_inv = np.asarray(field.sigma_inv(s_i, pre.X), dtype=float)
        I1 += float(s_inv @ pre.J @ dWb[i])
        if not field.sigma_is_constant:
            dir_s = directional_sigma_derivative(field, pre.J, s_i, pre.X)
            A = s_inv @ dir_s
            I2 += float(np.trace(A)) * float(d_beta[i])
            I3 += float((A @ dWb[i]) @ dW[i])
    return BismutWeight(I1, I2, I3, normalizer)


def default_level_R(spec: BernsteinSpec, t: float) -> float:
    """Passage level with P(tau < t) about one half: median(S_1) * t**(2/alpha).

    Deterministic clocks get R = rate * t exactly. Custom specs have no
    generic scale; the caller must supply R explicitly.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if spec.kind == "drift_only":
        return spec.rate * t
    if spec.kind == "alpha_stable":
        return stable_median_s1(spec) * t ** (2.0 / spec.alpha)
    raise ValueError("no default level for custom Bernstein specs; pass R explicitly")


def _check_vector(name: str, value, d: int) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (d,):
        raise ValueError(f"{name} must be a vector of length {d}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _gradient_batch_worker(
    x,
    v,
    f,
    field,
    alpha,
    t,
    R,
    eps_cut,
    seed,
    substeps_per_unit,
    antithetic,
):
    """Build the per-batch closure shared by estimate_gradient."""

    def worker(bi: int, start: int, count: int):
        jb = engine.sample_jump_batch(
            alpha, t, eps_cut, count, substream(seed, engine.PURPOSE_JUMPS, bi)
        )
        dW, aux = engine.sample_mark_batch(jb, x.size, substream(seed, engine.PURPOSE_MARKS, bi))
        ell_pre, ell_post, ell_T = engine.path_cumulatives(jb)
        cap = engine.first_passage_levels(jb, ell_post, R)
        cap_rep = np.repeat(cap, jb.counts)
        # the cap is itself a post value, so intervals never straddle it and
        # covered increments equal the jump sizes exactly
        d_beta = np.where(ell_post <= cap_rep, jb.sizes, 0.0)
        normalizer = np.minimum(ell_T, cap)
        reject = normalizer <= 0.0

        safe = np.where(reject, 1.0, normalizer)

        def one_pass(dW_s, aux_s):
            Xf, Jvf, X_pre, Jv_pre, sup_g = engine.flow_batch(
                x, v, field, jb, dW_s, t, substeps_per_unit
            )
            I1, I2, I3 = engine.weight_terms(field, jb, dW_s, aux_s, X_pre, Jv_pre, d_beta, d_beta)
            fv = engine.evaluate_observable(f, Xf, bi)
            return fv, I1, I2, I3, sup_g

        fv, I1, I2, I3, sup_g = one_pass(dW, aux)
        t1, t2, t3 = fv * I1 / safe, fv * I2 / safe, fv * I3 / safe
        if antithetic:
            fv2, K1, K2, K3, sup_g2 = one_pass(-dW, -aux)
            t1 = 0.5 * (t1 + fv2 * K1 / safe)
            t2 = 0.5 * (t2 + fv2 * K2 / safe)
            t3 = 0.5 * (t3 + fv2 * K3 / safe)
            sup_g = np.maximum(sup_g, sup_g2)
        return {
            "samples": _term_samples(t1, t2, t3, sup_g),
            "reject": reject,
            "counters": {"jumps": int(jb.total), "capped": int(np.isfinite(cap).sum())},
            "rows": (start, fv, I1, I2, I3, normalizer, reject),
        }

    return worker


def _term_samples(t1, t2, t3, sup_g) -> dict:
    """Per-path sample columns of a weighted estimator: y = f * weight and its parts."""
    return {"y": t1 - t2 + t3, "t1": t1, "t2": t2, "t3": t3, "sup_g": sup_g}


def _term_diagnostics(run: engine.BatchRun) -> dict:
    c = run.columns
    return {
        "term_I1_mean": c["t1"].mean,
        "term_I2_mean": c["t2"].mean,
        "term_I3_mean": c["t3"].mean,
        "sup_grad_sq_mean": c["sup_g"].mean,
    }


def _with_sample_rows(result: EstimatorResult, run: engine.BatchRun, limit: int):
    """Attach the first `limit` accepted per-path rows, in the CSV column order."""
    if not limit:
        return result
    rows: list[tuple] = []
    for start, fv, I1, I2, I3, norm, reject in (part["rows"] for part in run.parts):
        i = np.flatnonzero(~reject)[: limit - len(rows)]
        weight = (I1[i] - I2[i] + I3[i]) / norm[i]
        rows.extend(zip(
            (start + i).tolist(), fv[i].tolist(), weight.tolist(),
            I1[i].tolist(), I2[i].tolist(), I3[i].tolist(), norm[i].tolist(),
        ))
    object.__setattr__(result, "_sample_rows", rows)
    return result


def estimate_gradient(
    x,
    v,
    f,
    field: CoefficientField,
    spec: BernsteinSpec,
    t: float,
    R,
    n_paths: int,
    eps_cut: float,
    seed: int,
    *,
    substeps_per_unit: int = 100,
    workers: int = 1,
    antithetic: bool = False,
    collect_samples: int = 0,
) -> EstimatorResult:
    """Monte Carlo mean of f(X_t) * weight over random clock paths.

    R is the first-passage level of the cap clock; pass "auto" (or None) for
    default_level_R. The estimate is unbiased for the sampled finite-jump
    clock law up to the ODE substep error; the small-jump cutoff eps_cut
    controls how closely that law tracks the ideal clock. Paths whose clock
    never jumps before t carry no weight and are rejected and counted; the
    estimator is flagged invalid in diagnostics when the rejected fraction
    exceeds 1e-3. With antithetic=True each sample is the average over a
    Gaussian sign flip, and n_samples counts pairs.
    """
    if spec.kind != "alpha_stable":
        raise ValueError("gradient estimation samples an alpha_stable clock")
    if t <= 0:
        raise ValueError("t must be positive")
    checked_jump_intensity(spec.alpha, eps_cut, t)
    d = field.dimension
    x = _check_vector("x", x, d)
    v = _check_vector("v", v, d)
    if R is None or (isinstance(R, str) and R == "auto"):
        R_val = default_level_R(spec, t)
    else:
        R_val = float(R)
    if R_val <= 0:
        raise ValueError("R must be positive")

    worker = _gradient_batch_worker(
        x, v, f, field, spec.alpha, t, R_val, eps_cut, seed, substeps_per_unit, antithetic
    )
    run = engine.run_batches(n_paths, workers, worker)
    frac = run.n_rejected / n_paths
    diagnostics = {
        "rejection_fraction": frac,
        "flagged_invalid": 1.0 if frac > REJECTION_FLAG_THRESHOLD else 0.0,
        "mean_jump_count": run.counters["jumps"] / n_paths,
        "expected_dropped_clock_mass": dropped_mass_rate(spec.alpha, eps_cut) * t,
        "cap_fraction": run.counters["capped"] / n_paths,
        **_term_diagnostics(run),
        "level_R": R_val,
    }
    if antithetic:
        diagnostics["antithetic"] = 1.0
    return _with_sample_rows(run.result(diagnostics), run, collect_samples)


def estimate_gradient_fixed_clock(
    x,
    v,
    f,
    field: CoefficientField,
    path: JumpPath,
    clock: ClockSpec,
    t: float,
    n_paths: int,
    seed: int,
    *,
    substeps_per_unit: int = 100,
    workers: int = 1,
    collect_samples: int = 0,
) -> EstimatorResult:
    """Gradient estimate with one deterministic jump path shared by all samples.

    Only the Gaussian marks are resampled. Requires beta(ell_t) > 0, which for
    a deterministic clock is a precondition, not a rejection event.
    """
    if t <= 0 or t > path.horizon:
        raise ValueError("t must lie in (0, horizon]")
    if path.compensation_drift != 0.0:
        raise ValueError("the fixed clock must be pure-jump")
    d = field.dimension
    x = _check_vector("x", x, d)
    v = _check_vector("v", v, d)
    resolved = clock.resolve(path)
    m = int(np.searchsorted(path.times, t, side="right"))
    ell_post = np.cumsum(path.sizes[:m])
    ell_t = float(ell_post[-1]) if m else 0.0
    normalizer = float(resolved.beta(ell_t))
    if normalizer <= 0:
        raise ValueError("beta(ell_t) must be positive for the fixed-clock estimator")
    ell_pre = np.concatenate(([0.0], ell_post[:-1])) if m else np.empty(0)
    d_beta_1, d_lambda_1 = _interval_data(resolved, ell_pre, ell_post, path.sizes[:m])

    def worker(bi: int, start: int, count: int):
        jb = engine.fixed_jump_batch(path, t, count)
        dW, aux = engine.sample_mark_batch(jb, d, substream(seed, engine.PURPOSE_MARKS, bi))
        Xf, Jvf, X_pre, Jv_pre, sup_g = engine.flow_batch(
            x, v, field, jb, dW, t, substeps_per_unit
        )
        d_beta = np.tile(d_beta_1, count)
        d_lambda = np.tile(d_lambda_1, count)
        I1, I2, I3 = engine.weight_terms(field, jb, dW, aux, X_pre, Jv_pre, d_beta, d_lambda)
        fv = engine.evaluate_observable(f, Xf, bi)
        t1, t2, t3 = fv * I1 / normalizer, fv * I2 / normalizer, fv * I3 / normalizer
        return {
            "samples": _term_samples(t1, t2, t3, sup_g),
            "rows": (start, fv, I1, I2, I3, np.full(count, normalizer), np.zeros(count, bool)),
        }

    run = engine.run_batches(n_paths, workers, worker)
    diagnostics = {
        "rejection_fraction": 0.0,
        "flagged_invalid": 0.0,
        "mean_jump_count": float(m),
        "normalizer": normalizer,
        **_term_diagnostics(run),
    }
    return _with_sample_rows(run.result(diagnostics), run, collect_samples)
