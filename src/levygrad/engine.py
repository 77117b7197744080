"""Vectorized batch evaluation of paths, flows, and weight terms.

Estimators process paths in fixed-size batches. Each batch draws from its
own counter-based stream keyed by (seed, purpose, batch index), and merged
statistics are reduced in batch order, so results are bit-identical for any
worker count and any path can be regenerated by replaying its batch. The
batch size is a fixed constant: changing it changes which stream a path
draws from, hence the sampled numbers.

Every estimator runs through run_batches: its per-batch worker returns named
per-path sample columns (plus an optional rejection mask and integer
counters), and run_batches merges them into means, standard errors and
counts. That one skeleton also checks the path count, and
evaluate_observable checks what a user's f returns.

Per-path flat layout: a batch of n paths stores all jumps in flat arrays
(times, sizes) sorted by (path, time), with counts per path and prefix
offsets. Round r of the flow loop advances every path that still has an
r-th jump; between jumps each active path integrates its drift ODE with
per-path RK4 substeps.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientField
from .flow import BlowUpError
from .results import EstimatorResult
from .subordinator import JumpPath, _pareto_sizes, tail_mass

__all__ = [
    "BATCH_SIZE",
    "PURPOSE_JUMPS",
    "PURPOSE_MARKS",
    "JumpBatch",
    "sample_jump_batch",
    "fixed_jump_batch",
    "sample_mark_batch",
    "flow_batch",
    "path_cumulatives",
    "first_passage_levels",
    "weight_terms",
    "map_batches",
    "RunningStats",
    "ColumnStats",
    "BatchRun",
    "run_batches",
    "evaluate_observable",
]

BATCH_SIZE = 1 << 15

# Stream purposes (second label of a substream key).
PURPOSE_JUMPS = 1
PURPOSE_MARKS = 2
PURPOSE_MOLLIFIED = 3


@dataclass(frozen=True, eq=False)
class JumpBatch:
    """Flat jump arrays for a batch of paths, time-sorted within each path."""

    n: int
    horizon: float
    counts: np.ndarray  # (n,) int
    offsets: np.ndarray  # (n+1,) int prefix sums
    times: np.ndarray  # (M,) float
    sizes: np.ndarray  # (M,) float

    @property
    def total(self) -> int:
        return int(self.offsets[-1])

    @property
    def path_id(self) -> np.ndarray:
        return np.repeat(np.arange(self.n), self.counts)

    def extract_path(self, i: int) -> JumpPath:
        """Materialize path i of the batch as a JumpPath."""
        lo, hi = int(self.offsets[i]), int(self.offsets[i + 1])
        return JumpPath(self.horizon, self.times[lo:hi], self.sizes[lo:hi])


def sample_jump_batch(
    alpha: float, horizon: float, eps_cut: float, n: int, rng: np.random.Generator
) -> JumpBatch:
    """Batch analogue of sample_jump_path: same marginal law per path.

    Draw order is fixed: Poisson counts, then all times, then all sizes.
    Float-identical jump times within one path are merged (sizes added).
    """
    if eps_cut <= 0:
        raise ValueError("eps_cut must be positive")
    counts = rng.poisson(horizon * tail_mass(alpha, eps_cut), size=n).astype(np.int64)
    total = int(counts.sum())
    raw_times = horizon - rng.uniform(0.0, horizon, size=total)
    sizes = _pareto_sizes(alpha, eps_cut, 1.0 - rng.uniform(size=total))
    path_id = np.repeat(np.arange(n), counts)
    order = np.lexsort((raw_times, path_id))
    times = raw_times[order]
    sizes = sizes[order]
    path_id = path_id[order]
    if total > 1:
        tie = (path_id[1:] == path_id[:-1]) & (times[1:] == times[:-1])
        if np.any(tie):
            keep = np.concatenate(([True], ~tie))
            group = np.cumsum(keep) - 1
            merged_sizes = np.bincount(group, weights=sizes)
            times = times[keep]
            path_id = path_id[keep]
            sizes = merged_sizes
            counts = np.bincount(path_id, minlength=n).astype(np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    return JumpBatch(n, float(horizon), counts, offsets, times, sizes)


def fixed_jump_batch(path: JumpPath, t: float, n: int) -> JumpBatch:
    """Tile one deterministic jump path (jumps with time <= t) across n paths."""
    if path.compensation_drift != 0.0:
        raise ValueError("fixed-clock batches need a pure-jump path")
    keep = path.times <= t
    k = int(keep.sum())
    counts = np.full(n, k, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    times = np.tile(path.times[keep], n)
    sizes = np.tile(path.sizes[keep], n)
    return JumpBatch(n, float(t), counts, offsets, times, sizes)


def sample_mark_batch(batch: JumpBatch, d: int, rng: np.random.Generator):
    """Gaussian jump marks dW ~ N(0, size * I_d) and auxiliary unit normals."""
    z = rng.standard_normal((batch.total, d))
    aux = rng.standard_normal((batch.total, d))
    dW = z * np.sqrt(batch.sizes)[:, None]
    return dW, aux


def _rk4_segment(
    field: CoefficientField,
    X: np.ndarray,
    Jv: np.ndarray | None,
    s0: np.ndarray,
    s1: np.ndarray,
    substeps_per_unit: int,
):
    """Advance each row of X (and Jv) from s0[row] to s1[row] under the drift ODE."""
    gaps = s1 - s0
    act = gaps > 0
    if not np.any(act):
        return X, Jv
    steps = np.zeros(gaps.shape, dtype=np.int64)
    steps[act] = np.ceil(gaps[act] * substeps_per_unit).astype(np.int64)
    np.maximum(steps, act.astype(np.int64), out=steps)
    h = np.where(steps > 0, gaps / np.maximum(steps, 1), 0.0)

    def rhs(s, x, j):
        dX = np.asarray(field.b(s, x), dtype=float)
        if j is None:
            return dX, None
        G = np.asarray(field.grad_b(s, x), dtype=float)
        return dX, np.einsum("mij,mj->mi", G, j)

    kmax = int(steps.max())
    for k in range(kmax):
        rows = np.nonzero(steps > k)[0]
        hh = h[rows][:, None]
        s = s0[rows] + k * h[rows]
        x = X[rows]
        j = None if Jv is None else Jv[rows]
        k1x, k1j = rhs(s, x, j)
        k2x, k2j = rhs(s + 0.5 * h[rows], x + 0.5 * hh * k1x, None if j is None else j + 0.5 * hh * k1j)
        k3x, k3j = rhs(s + 0.5 * h[rows], x + 0.5 * hh * k2x, None if j is None else j + 0.5 * hh * k2j)
        k4x, k4j = rhs(s + h[rows], x + hh * k3x, None if j is None else j + hh * k3j)
        X[rows] = x + (hh / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        if Jv is not None:
            Jv[rows] = j + (hh / 6.0) * (k1j + 2.0 * k2j + 2.0 * k3j + k4j)
        if not np.all(np.isfinite(X[rows])):
            raise BlowUpError(float(np.max(s + h[rows])))
    return X, Jv


def flow_batch(
    x0: np.ndarray,
    v: np.ndarray | None,
    field: CoefficientField,
    batch: JumpBatch,
    dW: np.ndarray,
    t: float,
    substeps_per_unit: int,
):
    """Evolve every path of the batch to time t through its jumps.

    Returns (X_final (n,d), Jv_final, X_pre (M,d), Jv_pre, sup_grad_sq (n,)),
    where the pre arrays hold the left-limit state at each jump, in flat batch
    order. Jv outputs are None when v is None (plain trajectory run). The
    running sup of |grad_v X|^2 is recorded at jump and terminal times.
    """
    n, d = batch.n, x0.shape[0]
    X = np.tile(x0, (n, 1))
    Jv = None if v is None else np.tile(np.asarray(v, dtype=float), (n, 1))
    X_pre = np.empty((batch.total, d))
    Jv_pre = np.empty((batch.total, d)) if Jv is not None else None
    sup_g = np.einsum("mi,mi->m", Jv, Jv) if Jv is not None else np.zeros(n)
    prev_t = np.zeros(n)
    kmax = int(batch.counts.max()) if n else 0
    for r in range(kmax):
        sel = np.nonzero(batch.counts > r)[0]
        flat = batch.offsets[sel] + r
        s_jump = batch.times[flat]
        x = X[sel]
        j = None if Jv is None else Jv[sel]
        if not field.drift_is_zero:
            x, j = _rk4_segment(field, x, j, prev_t[sel], s_jump, substeps_per_unit)
        X_pre[flat] = x
        if Jv_pre is not None:
            Jv_pre[flat] = j
        Sg = np.asarray(field.sigma(s_jump, x), dtype=float)
        dw = dW[flat]
        x_new = x + np.einsum("mij,mj->mi", Sg, dw)
        if j is not None:
            if field.sigma_is_constant:
                j_new = j
            else:
                gs = np.asarray(field.grad_sigma(s_jump, x), dtype=float)
                dir_s = np.einsum("mijk,mk->mij", gs, j)
                j_new = j + np.einsum("mij,mj->mi", dir_s, dw)
            Jv[sel] = j_new
            sup_g[sel] = np.maximum(sup_g[sel], np.einsum("mi,mi->m", j_new, j_new))
        X[sel] = x_new
        prev_t[sel] = s_jump
        if not np.all(np.isfinite(x_new)):
            raise BlowUpError(float(np.max(s_jump)))
    if not field.drift_is_zero:
        X, Jv = _rk4_segment(field, X, Jv, prev_t, np.full(n, float(t)), substeps_per_unit)
    if Jv is not None:
        sup_g = np.maximum(sup_g, np.einsum("mi,mi->m", Jv, Jv))
    return X, Jv, X_pre, Jv_pre, sup_g


def path_cumulatives(batch: JumpBatch):
    """Per-jump clock interval ends and per-path terminal clock values.

    Returns (ell_pre, ell_post, ell_T). Intervals tile (0, ell_T] exactly:
    ell_pre[i] is the identical float of the previous jump's ell_post, so
    interval masks and telescoping sums are exact.
    """
    cs = np.cumsum(batch.sizes)
    pad = np.concatenate(([0.0], cs))
    start = pad[batch.offsets[:-1]]
    ell_post = cs - np.repeat(start, batch.counts)
    ell_pre = np.empty_like(ell_post)
    if batch.total:
        ell_pre[batch.offsets[:-1][batch.counts > 0]] = 0.0
        interior = np.ones(batch.total, dtype=bool)
        interior[batch.offsets[:-1][batch.counts > 0]] = False
        ell_pre[interior] = ell_post[np.nonzero(interior)[0] - 1]
    ell_T = np.zeros(batch.n)
    nonempty = batch.counts > 0
    ell_T[nonempty] = ell_post[batch.offsets[1:][nonempty] - 1]
    return ell_pre, ell_post, ell_T


def first_passage_levels(batch: JumpBatch, ell_post: np.ndarray, R: float) -> np.ndarray:
    """Per-path clock value at first passage over R (inf when not reached)."""
    if R <= 0:
        raise ValueError("the passage level R must be positive")
    M = batch.total
    cap = np.full(batch.n, np.inf)
    if M == 0:
        return cap
    pos = np.arange(M) - np.repeat(batch.offsets[:-1], batch.counts)
    cand = np.where(ell_post >= R, pos, M + 1)
    # sentinel keeps every reduceat index in bounds without truncating a segment
    cand_ext = np.append(cand, M + 1)
    first = np.minimum.reduceat(cand_ext, batch.offsets[:-1])
    nonempty = batch.counts > 0
    hit = nonempty & (first < batch.counts)
    cap[hit] = ell_post[batch.offsets[:-1][hit] + first[hit]]
    return cap


def weight_terms(
    field: CoefficientField,
    batch: JumpBatch,
    dW: np.ndarray,
    aux: np.ndarray,
    X_pre: np.ndarray,
    Jv_pre: np.ndarray,
    d_beta: np.ndarray,
    d_lambda: np.ndarray,
):
    """Per-path weight terms (I1, I2, I3) from per-jump clock increments.

    The beta-weighted mark over a jump's clock interval is reconstructed from
    the stored mark and the auxiliary normal through the conditional law

        dW_beta = (d_beta / d_ell) dW + sqrt(d_lambda - d_beta^2 / d_ell) Z,

    which realizes the joint per-coordinate covariance
    [[d_ell, d_beta], [d_beta, d_lambda]]. For 0/1-slope clocks the ratio is
    exactly 1 or 0 and the conditional part vanishes identically.
    """
    n = batch.n
    if batch.total == 0:
        zero = np.zeros(n)
        return zero, zero.copy(), zero.copy()
    d_ell = batch.sizes
    ratio = d_beta / d_ell
    cvar = np.maximum(d_lambda - d_beta * ratio, 0.0)
    dWb = ratio[:, None] * dW
    if np.any(cvar > 0.0):
        dWb = dWb + np.sqrt(cvar)[:, None] * aux
    pid = batch.path_id
    s_inv = np.asarray(field.sigma_inv(batch.times, X_pre), dtype=float)
    u = np.einsum("mij,mj->mi", s_inv, Jv_pre)
    c1 = np.einsum("mi,mi->m", u, dWb)
    I1 = np.bincount(pid, weights=c1, minlength=n)
    if field.sigma_is_constant:
        return I1, np.zeros(n), np.zeros(n)
    gs = np.asarray(field.grad_sigma(batch.times, X_pre), dtype=float)
    dir_s = np.einsum("mijk,mk->mij", gs, Jv_pre)
    A = np.einsum("mij,mjk->mik", s_inv, dir_s)
    c2 = np.einsum("mii->m", A) * d_beta
    c3 = np.einsum("mi,mi->m", np.einsum("mik,mk->mi", A, dWb), dW)
    I2 = np.bincount(pid, weights=c2, minlength=n)
    I3 = np.bincount(pid, weights=c3, minlength=n)
    return I1, I2, I3


def map_batches(n_total: int, workers: int, worker_fn):
    """Run worker_fn(batch_index, start, count) over fixed-size batches.

    Results are returned as a list ordered by batch index regardless of
    completion order, so downstream reduction is deterministic.
    """
    spans = [
        (bi, start, min(BATCH_SIZE, n_total - start))
        for bi, start in enumerate(range(0, n_total, BATCH_SIZE))
    ]
    if workers <= 1:
        return [worker_fn(bi, start, count) for bi, start, count in spans]
    with ThreadPoolExecutor(max_workers=int(workers)) as pool:
        futures = [pool.submit(worker_fn, bi, start, count) for bi, start, count in spans]
        return [f.result() for f in futures]


class RunningStats:
    """Streaming mean/SE and max absolute value of one sample column.

    Per-batch float sums are merged in batch order.
    """

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.total_sq = 0.0
        self.max_abs = 0.0

    def update(self, values: np.ndarray) -> None:
        self.count += int(values.size)
        self.total += float(values.sum())
        self.total_sq += float(np.square(values).sum())
        if values.size:
            self.max_abs = max(self.max_abs, float(np.max(np.abs(values))))

    def finalize(self):
        """Return (mean, std_error); NaN for both when no sample was seen."""
        if self.count == 0:
            return math.nan, math.nan
        mean = self.total / self.count
        if self.count > 1:
            var = max(self.total_sq - self.count * mean * mean, 0.0) / (self.count - 1)
        else:
            var = 0.0
        return mean, math.sqrt(var / self.count)


@dataclass(frozen=True)
class ColumnStats:
    """Mean, standard error and max |sample| of one column over accepted paths."""

    mean: float
    std_error: float
    max_abs: float


@dataclass(frozen=True, eq=False)
class BatchRun:
    """Merged outcome of run_batches; parts are the worker outputs in batch order."""

    n_samples: int
    n_rejected: int
    columns: dict  # column key -> ColumnStats
    counters: dict[str, int]
    parts: list

    def result(self, diagnostics: dict | None = None, column="y") -> EstimatorResult:
        """EstimatorResult of one column, with its max |sample| among the diagnostics."""
        stats = self.columns[column]
        return EstimatorResult(
            mean=stats.mean,
            std_error=stats.std_error,
            n_samples=self.n_samples,
            n_rejected=self.n_rejected,
            diagnostics={**(diagnostics or {}), "max_abs_sample": stats.max_abs},
        )


def run_batches(n_total: int, workers: int, worker_fn) -> BatchRun:
    """Run worker_fn over fixed-size batches and merge its samples in batch order.

    worker_fn(batch_index, start, count) returns a dict with
      "samples": {column key: (count,) float array}, one value per path;
      "reject" (optional): (count,) bool mask of paths left out of every column;
      "counters" (optional): {name: int}, summed over batches;
    plus any keys of its own, handed back untouched in BatchRun.parts.
    """
    if n_total < 1:
        raise ValueError("n_paths must be at least 1")
    parts = map_batches(n_total, workers, worker_fn)
    stats: dict = {}
    counters: dict[str, int] = {}
    n_rejected = 0
    for part in parts:
        reject = part.get("reject")
        if reject is not None:
            n_rejected += int(reject.sum())
            keep = ~reject
        for name, values in part["samples"].items():
            column = stats.setdefault(name, RunningStats())
            column.update(values if reject is None else values[keep])
        for name, value in part.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
    columns = {
        name: ColumnStats(*column.finalize(), column.max_abs) for name, column in stats.items()
    }
    return BatchRun(n_total, n_rejected, columns, counters, parts)


def evaluate_observable(f, X: np.ndarray, batch_index: int) -> np.ndarray:
    """f(X) as a float array, checked to hold one finite value per path."""
    fv = np.asarray(f(X), dtype=float)
    n = X.shape[0]
    if fv.shape != (n,):
        raise ValueError(
            f"observable returned shape {fv.shape} on batch {batch_index}; "
            f"it must return a finite float array of shape ({n},)"
        )
    bad = np.flatnonzero(~np.isfinite(fv))
    if bad.size:
        raise ValueError(
            f"observable returned {bad.size} non-finite values on batch {batch_index} "
            f"(first at path {bad[0]} of the batch)"
        )
    return fv
