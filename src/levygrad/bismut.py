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

ClockSpec defines beta on a batch of clock paths, for the cap clock and
for deterministic piecewise-linear clocks alike: increments gives each
jump's (d_beta, d_lambda) and each path's normalizer, mark_law each jump's
(r, c) with dW^beta = r dW + c Z (Z an independent normal), and beta_marks
forms dW^beta. engine.flow_batch, run on each row block of a batch, sums
I1, I2 and I3 at each jump's left limit as it applies the jump; it takes a
piecewise clock's dW^beta and d_beta as arrays, and evaluates the cap clock
itself from R, with the bits of increments and beta_marks.

ClockDraw is the one place a run draws its clock: the stable clock truncated
at a cutoff, or one fixed jump path. Its constructors check t and the cutoff,
blocks draws a batch's jumps and marks row block by row block (and
mark_law's auxiliary normals for a fixed path, which is drawn whole), batch
draws them whole, and diagnostics reports the clock a run sampled. Both estimators
here and the unweighted runs in validate draw only through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from . import engine
from .coefficients import CoefficientField
from .results import EstimatorResult
from .streams import checked_bool, checked_float, checked_integer, checked_reals, substream
from .subordinator import (
    BernsteinSpec,
    JumpPath,
    checked_jump_intensity,
    default_eps_cut,
    default_level_R,
    dropped_mass_rate,
)

__all__ = [
    "ClockSpec",
    "estimate_gradient",
    "estimate_gradient_fixed_clock",
    "default_level_R",
    "REJECTION_FLAG_THRESHOLD",
]

REJECTION_FLAG_THRESHOLD = 1e-3


class ClockIncrements(NamedTuple):
    """ClockSpec.increments of one batch."""

    d_beta: np.ndarray  # (M,) beta(ell_post) - beta(ell_pre) per jump
    d_lambda: np.ndarray  # (M,) the same for lambda; d_beta itself under the cap clock
    normalizer: np.ndarray  # (n,) beta(ell_t) per path
    cap: np.ndarray  # (n,) clock value at the first passage over R; inf if none


@dataclass(frozen=True, eq=False)
class ClockSpec:
    """Reparameterization beta of the clock-value axis, with lambda(u) = int_0^u beta'^2.

    kind "cap_at_first_passage" realizes beta(u) = u ^ ell_tau for the given
    level R > 0, where ell_tau is each path's clock value at its first
    passage over R. kind "piecewise_linear" is a deterministic nondecreasing
    piecewise-linear function given by (u, beta) knots starting at (0, 0);
    beyond the last knot the final segment's slope continues.

    increments(batch) evaluates either kind on clock paths, and mark_law and
    beta_marks carry a jump's mark over to beta (the flow runs the cap clock).
    """

    kind: str
    R: float | None = None
    knots: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind == "cap_at_first_passage":
            R = None if self.R is None else checked_float("R", self.R)
            if R is None or not R > 0:
                raise ValueError("cap_at_first_passage needs a level R > 0")
            object.__setattr__(self, "R", R)
        elif self.kind == "piecewise_linear":
            k = checked_reals("knots", self.knots)
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
            # slopes[j] applies from knot j on (the last one past the last
            # knot) and cumlam[j] = lambda at knot j
            seg = np.diff(k[:, 1]) / np.diff(k[:, 0])
            cumlam = np.concatenate(([0.0], np.cumsum(seg**2 * np.diff(k[:, 0]))))
            object.__setattr__(self, "_slopes", np.append(seg, seg[-1]))
            object.__setattr__(self, "_cumlam", cumlam)
        else:
            raise ValueError(f"unknown clock kind {self.kind!r}")

    @classmethod
    def cap_at_first_passage(cls, R: float) -> "ClockSpec":
        return cls(kind="cap_at_first_passage", R=R)

    @classmethod
    def piecewise_linear(cls, knots) -> "ClockSpec":
        return cls(kind="piecewise_linear", knots=knots)

    def curves(self, u, cap):
        """(beta(u), lambda(u)) at clock values u of a path whose cap is cap."""
        if self.kind == "cap_at_first_passage":
            capped = np.minimum(u, cap)
            return capped, capped
        ku = self.knots[:, 0]
        j = np.clip(np.searchsorted(ku, u, side="right") - 1, 0, ku.size - 1)
        du = u - ku[j]
        return self.knots[j, 1] + self._slopes[j] * du, self._cumlam[j] + self._slopes[j] ** 2 * du

    def increments(self, batch: engine.JumpBatch) -> ClockIncrements:
        """Each jump's (d_beta, d_lambda) and each path's normalizer beta(ell_t).

        The increments are taken over the jump's clock interval
        (ell_pre, ell_post]; ell_t is the path's clock value at the batch
        horizon.
        """
        ell_pre, ell_post, ell_T = engine.path_cumulatives(batch)
        cap = np.full(batch.n, np.inf)
        if self.kind == "cap_at_first_passage":
            crossing = engine.first_passage_levels(batch, ell_post, self.R)
            hit = crossing >= 0
            cap[hit] = ell_post[crossing[hit]]
            # The cap is itself a post value, so no interval straddles it.
            # Taking a covered jump's size itself keeps d_beta == d_ell exact;
            # a slope of 0 or 1 makes d_lambda = d_beta.
            d_beta = np.where(ell_post <= np.repeat(cap, batch.counts), batch.sizes, 0.0)
            d_lambda = d_beta
        else:
            beta_pre, lam_pre = self.curves(ell_pre, cap)
            beta_post, lam_post = self.curves(ell_post, cap)
            d_beta = np.maximum(beta_post - beta_pre, 0.0)
            d_lambda = np.maximum(lam_post - lam_pre, 0.0)
            # d_lambda = d_beta^2 / d_ell inside one linear piece, so mark_law's c is exactly 0
            ku = self.knots[:, 0]
            one_piece = np.searchsorted(ku, ell_pre, "right") == np.searchsorted(ku, ell_post, "left")
            d_lambda = np.where(one_piece, d_beta * (d_beta / batch.sizes), d_lambda)
        return ClockIncrements(d_beta, d_lambda, self.curves(ell_T, cap)[0], cap)

    def mark_law(self, sizes, increments: ClockIncrements):
        """Per-jump (r, c) with dW_beta = r dW + c Z, Z ~ N(0, I) independent of dW.

        With d_ell the jump sizes, r = d_beta / d_ell and
        c = sqrt(d_lambda - d_beta^2 / d_ell), clamped at 0, realize the joint
        per-coordinate covariance [[d_ell, d_beta], [d_beta, d_lambda]] of a
        jump's mark dW and its beta-weighted mark. For 0/1-slope clocks r is
        exactly 1 or 0 and c vanishes identically; so does c of a jump whose
        clock interval lies inside one linear piece of beta (see increments).
        """
        ratio = increments.d_beta / sizes
        return ratio, np.sqrt(np.maximum(increments.d_lambda - increments.d_beta * ratio, 0.0))

    def beta_marks(self, sizes, increments: ClockIncrements, dW, aux):
        """Each jump's mark dW^beta = r dW + c aux by mark_law.

        aux holds the auxiliary normals, shaped like dW; it is read only when
        some c > 0, so it may be None under the cap clock, whose r is
        exactly 1 or 0 and c = 0.
        """
        ratio, c = self.mark_law(sizes, increments)
        dWb = engine.scale_rows(ratio, dW)
        if np.any(c > 0.0):
            dWb += engine.scale_rows(c, aux)
        return dWb


def checked_vector(name: str, value, d: int | None = None) -> np.ndarray:
    """value as a float vector (of length d when given), refused unless every entry is a finite number."""
    arr = checked_reals(name, value)
    if arr.ndim != 1 or d is not None and arr.size != d:
        raise ValueError(f"{name} must be a vector" + ("" if d is None else f" of length {d}"))
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class ClockDraw:
    """What a run draws its clock from, batch by batch, with the checks run once.

    kind "stable" is the stable clock truncated at eps_cut on (0, t]: each
    batch samples fresh jumps, so runs at one seed, cutoff and t share them.
    kind "fixed" tiles one deterministic jump path (its jumps up to t) across
    every batch and draws the auxiliary normals of ClockSpec.mark_law from
    the marks' stream right after the marks. d is the dimension of the marks.
    """

    kind: str
    t: float
    d: int
    seed: int
    spec: BernsteinSpec | None = None
    eps_cut: float | None = None
    path: JumpPath | None = None

    @classmethod
    def stable(cls, spec: BernsteinSpec, t, eps_cut, d: int, seed: int) -> "ClockDraw":
        """Refuses a t that is not positive and an intractable cutoff (default_eps_cut when None)."""
        if not (t := checked_float("t", t)) > 0:
            raise ValueError("t must be positive")
        eps = default_eps_cut(spec, t) if eps_cut is None else checked_float("eps_cut", eps_cut)
        checked_jump_intensity(spec.alpha, eps, t)
        return cls("stable", t, d, seed, spec=spec, eps_cut=eps)

    @classmethod
    def fixed(cls, path: JumpPath, t, d: int, seed: int) -> "ClockDraw":
        """Refuses a t outside (0, path.horizon]."""
        if not 0 < (t := checked_float("t", t)) <= path.horizon:
            raise ValueError("t must lie in (0, horizon]")
        return cls("fixed", t, d, seed, path=path)

    def blocks(self, bi: int, count: int, budget):
        """Batch bi's (jumps, marks, aux) in row blocks of at most budget jumps (engine.over_row_blocks).

        aux, the auxiliary normals, is None for the stable kind, whose blocks
        are drawn one at a time (engine.sample_row_blocks). A fixed path is
        drawn whole, its aux right after its marks, whatever the budget.
        """
        rng = substream(self.seed, engine.PURPOSE_MARKS, bi)
        if self.kind == "stable":
            jumps = substream(self.seed, engine.PURPOSE_JUMPS, bi)
            for jb, dW in engine.sample_row_blocks(self.spec.alpha, self.t, self.eps_cut, count, jumps,
                                                   rng, self.d, budget):
                yield jb, dW, None
            return
        jb = engine.fixed_jump_batch(self.path, self.t, count)
        dW = engine.sample_mark_batch(jb, self.d, rng)
        yield jb, dW, rng.standard_normal(dW.shape)

    def batch(self, bi: int, count: int):
        """Batch bi's (jumps, marks, aux) drawn whole: the one block of an unbounded budget."""
        (whole,) = self.blocks(bi, count, math.inf)
        return whole

    def diagnostics(self, run: engine.BatchRun) -> dict:
        """Jumps per path of a run that counted them; a stable clock adds its cutoff and dropped mass."""
        report = {"mean_jump_count": run.counters["jumps"] / run.n_samples}
        if self.kind == "fixed":
            return report
        dropped = dropped_mass_rate(self.spec.alpha, self.eps_cut) * self.t
        return {**report, "expected_dropped_clock_mass": dropped, "eps_cut": self.eps_cut}


def _weighted_run(x, v, f, field, draw: ClockDraw, clock: ClockSpec, n_paths, substeps_per_unit,
                  workers, antithetic, collect_samples, diagnostics: dict) -> EstimatorResult:
    """The run of both weighted estimators, with diagnostics appended to the shared ones.

    Each batch is drawn from draw and run one row block at a time
    (engine.over_row_blocks): each block's (jumps, marks, aux) is flowed,
    which sums the weight terms, with the cap clock's level, which the flow
    evaluates, or a piecewise clock's increments and beta-weighted marks;
    the worker then splits f(X_t) * weight into its three parts. Paths with
    a normalizer that is not positive are rejected. With antithetic each
    sample is the average over a sign flip of every Gaussian, which negates
    both marks. A stable draw also reports the fraction of capped paths; a
    fixed path caps all of its samples or none. collect_samples = k > 0,
    checked before any batch runs, fills sample_rows with the first
    min(k, accepted) accepted paths' rows.
    """
    limit = checked_integer("collect_samples", collect_samples, minimum=0)
    capped = clock.kind == "cap_at_first_passage"

    def stage(block, dW, aux):
        if not capped:
            inc = clock.increments(block)
            dWb = clock.beta_marks(block.sizes, inc, dW, aux)

        def flow(flip):
            marks = -dW if flip else dW
            if capped:
                return engine.flow_batch(x, v, field, block, marks, substeps_per_unit, level=clock.R)
            return engine.flow_batch(x, v, field, block, marks, substeps_per_unit, -dWb if flip else dWb,
                                     inc.d_beta) + (inc.normalizer, inc.cap)

        X, _, *I = flow(False)
        if not antithetic:
            return block.counts, X, *I
        X2, _, *K = flow(True)
        return block.counts, X, *I, X2, *K[:3]

    def worker(bi: int, start: int, count: int):
        counts, X, I1, I2, I3, normalizer, cap, *flipped = engine.over_row_blocks(
            partial(draw.blocks, bi, count), stage, engine.FLOW_ROWS)
        reject = normalizer <= 0.0
        safe = np.where(reject, 1.0, normalizer)
        fv = engine.evaluate_observable(f, X, bi)
        terms = [fv * I / safe for I in (I1, I2, I3)]
        if antithetic:
            X2, *K = flipped
            fv2 = engine.evaluate_observable(f, X2, bi)
            terms = [0.5 * (a + fv2 * k / safe) for a, k in zip(terms, K)]
        t1, t2, t3 = terms
        return {
            "samples": {"y": t1 - t2 + t3, "t1": t1, "t2": t2, "t3": t3},
            "reject": reject,
            "counters": {"jumps": int(counts.sum()), "capped": int(np.isfinite(cap).sum())},
            "rows": (start, fv, I1, I2, I3, normalizer, reject) if limit else None,
        }

    run = engine.run_batches(n_paths, workers, worker)
    frac = run.n_rejected / n_paths
    result = run.result({
        "rejection_fraction": frac,
        "flagged_invalid": 1.0 if frac > REJECTION_FLAG_THRESHOLD else 0.0,
        **draw.diagnostics(run),
        **({"cap_fraction": run.counters["capped"] / n_paths} if draw.kind == "stable" else {}),
        **{f"term_I{j}_mean": run.columns[f"t{j}"].mean for j in (1, 2, 3)},
        **diagnostics,
    })
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
    return replace(result, sample_rows=rows)


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
    clock law, up to the ODE substep error for a field without the
    drift_rate hint (a hinted field's flow between jumps is exact); the
    small-jump cutoff eps_cut controls how closely that law tracks the
    ideal clock. Paths whose clock never jumps before t carry no weight and
    are rejected and counted; the estimator is flagged invalid in
    diagnostics when the rejected fraction exceeds 1e-3. With
    antithetic=True each sample is the average over a Gaussian sign flip,
    n_samples counts pairs, and a sample row holds the unflipped half of its
    pair. collect_samples = k > 0 fills sample_rows with the first
    min(k, accepted) accepted paths' rows; 0 leaves it None.
    """
    draw = ClockDraw.stable(spec, t, eps_cut, field.dimension, seed)
    x = checked_vector("x", x, field.dimension)
    v = checked_vector("v", v, field.dimension)
    antithetic = checked_bool("antithetic", antithetic)
    if R is None or (isinstance(R, str) and R == "auto"):
        R = default_level_R(spec, draw.t)
    clock = ClockSpec.cap_at_first_passage(R)
    own = {"level_R": clock.R, **({"antithetic": 1.0} if antithetic else {})}
    return _weighted_run(x, v, f, field, draw, clock, n_paths, substeps_per_unit, workers,
                         antithetic, collect_samples, own)


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
    collect_samples fills sample_rows as in estimate_gradient.
    """
    d = field.dimension
    draw = ClockDraw.fixed(path, t, d, seed)
    x = checked_vector("x", x, d)
    v = checked_vector("v", v, d)
    normalizer = float(clock.increments(engine.fixed_jump_batch(path, draw.t, 1)).normalizer[0])
    if normalizer <= 0:
        raise ValueError("beta(ell_t) must be positive for the fixed-clock estimator")
    return _weighted_run(x, v, f, field, draw, clock, n_paths, substeps_per_unit, workers,
                         False, collect_samples, {"normalizer": normalizer})
