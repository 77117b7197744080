"""Vectorized batch evaluation of paths, flows, and weight terms.

Estimators process paths in fixed-size batches. Each batch draws from its
own counter-based stream keyed by (seed, purpose, batch index), so any path
can be regenerated by replaying its batch. The batch size is a fixed
constant: changing it changes which stream a path draws from, hence the
sampled numbers.

Every estimator runs through run_batches: its per-batch worker returns named
per-path sample columns (plus an optional rejection mask and integer
counters), and run_batches reduces each column to a RunningStats (count,
mean, M2, max |value|) as the worker hands it back, so a run holds one
batch's samples at a time, then merges the records by Chan's formula in
batch order, so results are bit-identical for any worker count. That one
skeleton also checks the path count, and evaluate_observable checks what a
user's f returns.

Per-path flat layout: a batch of n paths stores all jumps in flat arrays
(times, sizes) sorted by (path, time), with counts per path and prefix
offsets. The sampler sorts each path's times alone and leaves the i.i.d.
sizes in draw order, so a path's k-th jump in time has its k-th size drawn.

Memory: a batch runs one piece at a time (over_row_blocks): consecutive
paths holding at most JUMP_BLOCK jumps and, for the weighted estimators,
FLOW_ROWS paths (so a jump round's per-row state stays in L2), or one path
with more. The draw makes that one cut. A stable batch draws its Poisson
counts whole, since they fix the pieces, then each piece's times, sizes and
marks where they sit in the whole batch's draw (sample_row_blocks), so the
pieces concatenate to that draw bit for bit; a fixed path is drawn whole
and cut. A piece's flow (with the clock it evaluates, or a piecewise
clock's arrays formed ahead of it) runs before the next piece is drawn.
Each of those operations is per path, so the pieces give the whole batch's
bits; only their per-path outputs are joined, before the observable and
the reduction. Every stable draw, whole or in pieces, goes into one
batch-scope buffer sized for its largest piece, the batch's one large
allocation: it lifts glibc's mmap and trim thresholds above the
temporaries, which the heap then reuses. The sampler sorts the paths of
one jump count at a time, as the rows of one block, and forms a flat tie
mask only when a piece holds a tie. A BlowUpError in a piece draws and
flows the whole batch, raising an unblocked run's error.

The flow runs in jump rounds (see flow_batch): round k applies every path's
k-th jump to a row-major prefix of the state, its rows in jump-count order,
in place, and shares its count order, gathers and decay among a stack of
starts (fd_gradient's x + hv and x - hv). Between jumps a field with the
drift_rate hint is scaled exactly; any other takes RK4 substeps at the start
of each round, its rows in step-count order, so that each substep runs on a
prefix of them, handed to b as a column-major copy. The jump update does
only the work the field needs (a constant sigma's J v is not written back,
and the clock increments are formed only for c2), in one order and with no
check: every hook on the left limit, then the state's jump, the weight
terms, J v's jump and the sums. A non-finite state, directional derivative
or weight sum (which can overflow from finite terms) raises BlowUpError:
the rounds run unchecked and check X, J v and I1-I3 once (a non-finite
value there stays so in every later round), and a sweep that fails or
raises runs again one start at a time, checking after each RK4 substep
and each round's jumps; the first start that raises names the error.

A path gets the same bits in any batch, alone included, so extract_path
replays it. einsum's order of summing a row follows the memory layout,
which numpy may give a one-row array, or a field's result for one row,
differently; so the engine contracts only row-major arrays (copying a
callable's matrices and J v where needed).

The flow also sums the weight, in the same sweep: weight_terms forms a
jump's terms from the left limit and sigma's directional derivative that
the jump update holds, and each path adds them up in jump order, so no left
limit is stored. The cap clock is evaluated in that sweep too (_BetaRows),
so no per-jump clock array is formed. The field's optional hooks give the two directional derivatives, jvp_b in
the drift ODE and dsigma in the jump update, without forming grad_b or
grad_sigma; a field without them gets the einsum of the full derivative,
and a hook's result of the wrong shape is refused.

A field with the sigma_scale hint (sigma = scale I_d, every catalog field)
runs its jump rounds and weight terms on (m,) vectors: x+ = x + scale dw
and (J v)+ = J v + g dw with g = slope(J v); c1 = <(1/scale) J v, dW^beta>,
and with a = g / scale, c2 = Tr(a I) d_beta and c3 = <a dW^beta, dw>. The
matrix products these replace only add exact zeros, so each result keeps
the matrix route's bits: a product gets + 0.0, the +0.0 a sum of it with
exact zeros gives in place of a -0.0, and the trace adds a to itself d
times in einsum's order. A scale or slope result not shaped (m,) is
refused.

Each per-row scaling of an (m, d) array (scale dw and slope dw, the rounds'
exp(-r h), (1/scale) J v and a dW^beta, the beta-weighted marks and the
marks' sqrt(size)) goes through scale_rows. For 2 to SCALE_BY_COORDINATE
coordinates it takes the products one coordinate at a time: the broadcast
runs an inner loop of length d once per row, which at d = 2 took twice as
long. Each element is one product either way, so the bits are the same.
From d = 4 on the strided columns cost more and the broadcast is kept. The
arrays stay row-major: a coordinate-major state would change einsum's bits
at d >= 3. Likewise each row dot of the weight terms (_row_dot) sums its
two products one coordinate at a time at d = 2, plus the 0.0 einsum starts
from, and keeps einsum at every other d, since at d = 3 einsum sums
(p0 q0 + p2 q2) + p1 q1.

On a whole batch, clock values come from path_cumulatives (each jump's
clock interval and each path's terminal value, a running sum over that
path's jumps alone, so no other path's jump costs it precision) and first
passages from first_passage_levels (each path's crossing jump over a level,
as a flat index); bismut.ClockSpec turns them into the clock increments and
beta-weighted marks a piecewise clock hands the flow, and the flow's cap
clock has their bits. A single path is a batch of one (fixed_jump_batch),
and sample_jump_path is the one-path view of sample_jump_batch.

This is the only flow and weight implementation in the package. The test
suite checks it against a one-path-at-a-time reference (tests/reference.py).
"""

from __future__ import annotations

import copy
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientField
from .results import EstimatorResult
from .streams import checked_float, checked_integer, checked_reals
from .subordinator import BernsteinSpec, JumpPath, _pareto_sizes, tail_mass
from .subordinator import checked_jump_intensity

__all__ = [
    "BlowUpError",
    "BATCH_SIZE",
    "PURPOSE_JUMPS",
    "PURPOSE_MARKS",
    "JumpBatch",
    "sample_jump_batch",
    "sample_row_blocks",
    "sample_jump_path",
    "fixed_jump_batch",
    "sample_mark_batch",
    "flow_batch",
    "path_cumulatives",
    "first_passage_levels",
    "weight_terms",
    "scale_rows",
    "over_row_blocks",
    "map_batches",
    "RunningStats",
    "BatchRun",
    "run_batches",
    "evaluate_observable",
]

BATCH_SIZE = 1 << 15

# A batch is drawn and flowed in pieces of at most this many jumps
# (over_row_blocks); a path with more is a piece of its own.
JUMP_BLOCK = 1 << 19

# The weighted estimators draw and flow each batch in pieces of at most this
# many paths, so a jump round's per-row state (X, J v, the weight sums, the
# clock value and cap, each row's last jump time, the gathered marks) stays
# in L2: 16,384 timed best on quickstart and 8,192 close to it. A plain flow
# is not cut by paths: its pieces cost more than they saved at two workers.
FLOW_ROWS = 1 << 14

# scale_rows takes rows of 2 to this many coordinates one coordinate at a
# time: one column timed alike either way, and from 4 on the broadcast was
# faster (measured at d = 4 and 9).
SCALE_BY_COORDINATE = 3

# Stream purposes (second label of a substream key).
PURPOSE_JUMPS = 1
PURPOSE_MARKS = 2
PURPOSE_MOLLIFIED = 3


class BlowUpError(RuntimeError):
    """The flow produced a non-finite state, directional derivative or weight term.

    s is the time at which the first non-finite path went non-finite and path
    its index within the batch; map_batches fills in batch. Re-drawing that
    batch and calling extract_path(path) replays the path.
    """

    def __init__(self, s: float, path: int | None = None, batch: int | None = None):
        super().__init__(s, path, batch)
        self.s = float(s)
        self.path = path
        self.batch = batch

    def __str__(self) -> str:
        where = "" if self.path is None else f" on path {self.path}"
        if self.batch is not None:
            where += f" of batch {self.batch}"
        return f"non-finite state or weight term at s = {self.s}{where}"


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

    def extract_path(self, i: int) -> JumpPath:
        """Materialize path i of the batch as a JumpPath."""
        lo, hi = int(self.offsets[i]), int(self.offsets[i + 1])
        return JumpPath(self.horizon, self.times[lo:hi], self.sizes[lo:hi])


def _sort_rows(times, counts, offsets) -> bool:
    """Sort each path's slice of the flat times in place, the paths of each count c >= 2 as
    the rows of one gathered (paths, c) block; whether a path holds equal times."""
    order, sizes = np.argsort(counts), np.bincount(counts)
    ends = np.cumsum(sizes)  # the paths of count c are order[ends[c - 1]:ends[c]]
    tie = False
    for c in np.flatnonzero(sizes[2:]) + 2:
        at = offsets[order[ends[c - 1]:ends[c]], None] + np.arange(c)
        block = times[at]
        block.sort(axis=1)
        times[at] = block
        tie = tie or bool((block[:, 1:] == block[:, :-1]).any())
    return tie


def _jump_counts(alpha, horizon, eps_cut, n, rng) -> np.ndarray:
    """n paths' Poisson(horizon * tail_mass) jump counts, the first draw of a stable batch."""
    if not eps_cut > 0:
        raise ValueError("eps_cut must be positive")
    if not horizon >= 0:
        raise ValueError("horizon must be nonnegative")
    return rng.poisson(horizon * tail_mass(alpha, eps_cut), size=n).astype(np.int64)


def _uniforms(rng, m: int, out, at: int) -> np.ndarray:
    """m uniforms on [0, 1) from rng, written to out[at:at + m] when out is given."""
    return rng.random(m) if out is None else rng.random(out=out[at:at + m])


def sample_jump_batch(
    alpha: float, horizon: float, eps_cut: float, n: int, rng: np.random.Generator,
    *, counts=None, size_stream=None, out=None,
) -> JumpBatch:
    """Sample the jumps of size >= eps_cut of n stable subordinator paths on (0, horizon].

    Per path, the jump count is Poisson(horizon * tail_mass), the times are
    uniform on (0, horizon] and the sizes are Pareto with tail index alpha/2
    at scale eps_cut. Draw order is fixed: Poisson counts, then all times,
    then all sizes. Each path's times are sorted and its sizes stay in draw
    order, so its k-th jump in time takes its k-th size drawn: the sizes are
    i.i.d. and independent of the times, so this is the same law as sorting
    (time, size) pairs, and sorting values alone gives the same result with
    any sort algorithm. Float-identical jump times within one path are
    merged, their sizes added in draw order.

    The keywords draw one piece of a larger batch (sample_row_blocks):
    counts are its paths' counts, drawn already, and size_stream a generator
    that stands at its first size while rng stands at its first time; out, a
    float array of at least 2 M entries, then holds its times and sizes.
    """
    horizon, n = checked_float("horizon", horizon), checked_integer("n", n, minimum=0)
    if counts is None:
        counts = _jump_counts(alpha, horizon, eps_cut, n, rng)
    total = int(counts.sum())
    times = _uniforms(rng, total, out, 0)
    times *= horizon
    np.subtract(horizon, times, out=times)
    uniforms = _uniforms(rng if size_stream is None else size_stream, total, out, total)
    sizes = _pareto_sizes(alpha, eps_cut, uniforms)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    if total > 1 and _sort_rows(times, counts, offsets):
        # merge float-identical times within a path; a path's first jump
        # never merges into the previous path's last
        tie = times[1:] == times[:-1]
        starts = offsets[1:-1]
        tie[starts[(starts > 0) & (starts < total)] - 1] = False
        keep = np.concatenate(([True], ~tie))
        sizes = np.bincount(np.cumsum(keep) - 1, weights=sizes)
        times = times[keep]
        path_id = np.repeat(np.arange(n), counts)[keep]
        counts = np.bincount(path_id, minlength=n).astype(np.int64)
        offsets = np.concatenate(([0], np.cumsum(counts)))
    return JumpBatch(n, float(horizon), counts, offsets, times, sizes)


def _skipped(rng: np.random.Generator, k: int) -> np.random.Generator:
    """A copy of the Philox stream rng that stands k outputs further on.

    Philox hands out a block of 4 outputs per counter step: the copy drains
    what is left of its current block, advances the counter over whole
    blocks and draws the rest. (An advance empties the current block, so
    none is made over no block.)
    """
    ahead = copy.deepcopy(rng)
    drained = min(4 - ahead.bit_generator.state["buffer_pos"], k)
    ahead.random(drained)
    steps, rest = divmod(k - drained, 4)
    if steps:
        ahead.bit_generator.advance(steps)
    ahead.random(rest)
    return ahead


def sample_row_blocks(alpha: float, horizon: float, eps_cut: float, n: int, jumps: np.random.Generator,
                      marks: np.random.Generator, d: int, budget: float, rows: float = math.inf):
    """A stable batch's (JumpBatch, marks), one piece of at most budget jumps and rows paths at a time.

    The Poisson counts are drawn whole from jumps, since they fix the
    pieces. Each piece's times, sizes and marks are then drawn where they
    sit in the whole draw of sample_jump_batch and sample_mark_batch: the
    times next in jumps, the sizes next in a copy of jumps that skips all
    the times, the marks next in marks (Philox streams). So the pieces
    concatenate to the whole draw, the one piece of budget and rows
    math.inf, bit for bit. Every draw goes into one buffer sized for the
    largest piece: each piece is valid until the next one is drawn. d = 0
    draws no marks and never reads marks; each piece's marks are then None.
    """
    counts = _jump_counts(alpha, horizon, eps_cut, n, jumps)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    bounds = list(_row_bounds(offsets, budget, rows)) or [(0, 0)]
    size_stream = _skipped(jumps, int(offsets[-1]))
    # times, sizes and marks of the largest piece
    out = np.empty((2 + d) * max(int(offsets[r1] - offsets[r0]) for r0, r1 in bounds))
    for r0, r1 in bounds:
        block = sample_jump_batch(alpha, horizon, eps_cut, r1 - r0, jumps, counts=counts[r0:r1],
                                  size_stream=size_stream, out=out)
        m = int(offsets[r1] - offsets[r0])
        yield block, sample_mark_batch(block, d, marks, out=out[2 * m:]) if d else None


def sample_jump_path(
    spec: BernsteinSpec, horizon: float, eps_cut: float, rng: np.random.Generator
) -> JumpPath:
    """One stable subordinator path: the single path of sample_jump_batch(n = 1)."""
    checked_jump_intensity(spec.alpha, eps_cut, horizon)
    return sample_jump_batch(spec.alpha, horizon, eps_cut, 1, rng).extract_path(0)


def fixed_jump_batch(path: JumpPath, t: float, n: int) -> JumpBatch:
    """Tile one deterministic jump path (jumps with time <= t) across n paths."""
    keep = path.times <= t
    k = int(keep.sum())
    counts = np.full(n, k, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    times = np.tile(path.times[keep], n)
    sizes = np.tile(path.sizes[keep], n)
    return JumpBatch(n, float(t), counts, offsets, times, sizes)


def sample_mark_batch(batch: JumpBatch, d: int, rng: np.random.Generator, out=None) -> np.ndarray:
    """Gaussian jump marks dW ~ N(0, size * I_d), one row per jump in flat batch order.

    out, a float array of at least M d entries, holds them when given.
    """
    shape = (batch.total, d)
    if out is None:
        z = rng.standard_normal(shape)
    else:
        z = rng.standard_normal(out=out[:batch.total * d].reshape(shape))
    return scale_rows(np.sqrt(batch.sizes), z, out=z)


def _hook_result(name: str, value, shape: tuple) -> np.ndarray:
    """A field hook's result as a float array, refused unless it has the given shape."""
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} returned shape {arr.shape}; it must return shape {shape}")
    return arr


def _drift_rhs(field: CoefficientField, s, x, j):
    """(b(s, x), grad_b(s, x) j) row by row; the second part is None when j is."""
    dX = np.asarray(field.b(s, x), dtype=float)
    if j is None:
        return dX, None
    if field.jvp_b is not None:
        return dX, _hook_result("jvp_b", field.jvp_b(s, x, j), j.shape)
    G = np.ascontiguousarray(field.grad_b(s, x), dtype=float)
    return dX, np.einsum("mij,mj->mi", G, np.ascontiguousarray(j))


def _dsigma(field: CoefficientField, s, x, u):
    """sigma's directional derivative sum_k d_k sigma(s, x) u_k row by row, shaped (m, d, d)."""
    if field.dsigma is not None:
        D = _hook_result("dsigma", field.dsigma(s, x, u), u.shape + u.shape[-1:])
        return np.ascontiguousarray(D)
    return np.einsum("mijk,mk->mij", np.ascontiguousarray(field.grad_sigma(s, x), dtype=float), u)


def _sigma_scale(field: CoefficientField, which: int, *args) -> np.ndarray:
    """sigma_scale's scale (which = 0) or slope (1) on m rows, refused unless shaped (m,)."""
    name = ("scale", "slope")[which]
    return _hook_result(f"sigma_scale {name}", field.sigma_scale[which](*args), args[1].shape[:1])


def scale_rows(c, w, out=None):
    """c[:, None] * w for (m,) factors c and a row-major (m, d) array w, into out when given.

    Each element is the one product c[r] * w[r, i] either way, so the bits
    are the broadcast's; out=w scales w in place. From 2 to SCALE_BY_COORDINATE
    columns the products are taken one coordinate at a time, since the
    broadcast runs an inner loop of length d once per row; a single column
    and wider rows keep the broadcast. A new array is row-major.
    """
    if not 1 < w.shape[1] <= SCALE_BY_COORDINATE:
        return np.multiply(c[:, None], w, out=out)
    if out is None:
        out = np.empty(w.shape, np.result_type(c, w))
    for i in range(w.shape[1]):
        np.multiply(c, w[:, i], out=out[:, i])
    return out


def _row_dot(p, q):
    """einsum("mi,mi->m", p, q) for row-major (m, d) arrays, with its bits.

    At d = 2 the two products are summed one coordinate at a time, plus the
    0.0 einsum starts from (which turns a -0.0 sum into +0.0): the einsum
    ran three times as long. At d = 3 einsum sums (p0 q0 + p2 q2) + p1 q1,
    so every other d keeps it.
    """
    if p.shape[1] != 2:
        return np.einsum("mi,mi->m", p, q)
    out = p[:, 0] * q[:, 0]
    out += p[:, 1] * q[:, 1]
    out += 0.0
    return out


def _times_rows(c, w):
    """c[:, None] * w + 0.0: a matrix product c I w sums each c w_i with exact
    zeros, which turns a -0.0 into +0.0."""
    out = scale_rows(c, w)
    out += 0.0
    return out


def _stage(y, c, k):
    """y + c * k for an RK4 stage, built in a fresh array of y's layout (k is never written).

    So every stage hands b and jvp_b the state's own layout, whatever layout b returns.
    """
    out = np.multiply(c, k, out=np.empty_like(y))
    out += y
    return out


def _rk4_step(field: CoefficientField, s, h, x, j):
    """One RK4 step of size h[row] from time s[row] for each row of x (and j).

    Each stage argument and the final combination is built in place in a
    fresh array, with the float operations of x + 0.5 h k1, ...,
    x + h/6 (k1 + 2 k2 + 2 k3 + k4) in the same order; IEEE + and * commute,
    so swapping the operands of one operation keeps every bit.
    """
    hh = h[:, None]
    half, sixth = 0.5 * hh, hh / 6.0
    s_mid = s + 0.5 * h
    k1x, k1j = _drift_rhs(field, s, x, j)
    k2x, k2j = _drift_rhs(field, s_mid, _stage(x, half, k1x), None if j is None else _stage(j, half, k1j))
    k3x, k3j = _drift_rhs(field, s_mid, _stage(x, half, k2x), None if j is None else _stage(j, half, k2j))
    k4x, k4j = _drift_rhs(field, s + h, _stage(x, hh, k3x), None if j is None else _stage(j, hh, k3j))

    def combined(y, k1, k2, k3, k4):
        # shaped like y from the start, so a b that returns one row for all
        # (a constant drift) still broadcasts as the expression does
        acc = np.multiply(k2, 2.0, out=np.empty_like(y))
        acc += k1
        acc += 2.0 * k3
        acc += k4
        acc *= sixth
        acc += y
        return acc

    return combined(x, k1x, k2x, k3x, k4x), None if j is None else combined(j, k1j, k2j, k3j, k4j)


def _raise_non_finite(s, paths, *arrays):
    """Raise BlowUpError at the lowest path paths[row] among the rows not finite in one of the
    arrays (one row each, None skipped), at time s[row], or at s when it is a scalar."""
    arrays = [a for a in arrays if a is not None]
    if all(np.isfinite(a).all() for a in arrays):
        return
    bad = np.zeros(arrays[0].shape[0], dtype=bool)
    for a in arrays:
        bad |= ~np.isfinite(a).reshape(a.shape[0], -1).all(axis=1)
    rows = np.flatnonzero(bad)
    row = rows[np.argmin(paths[rows])]
    raise BlowUpError(s if np.ndim(s) == 0 else s[row], path=int(paths[row]))


def _rk4_rows(field, X, Jv, s0, ends, substeps_per_unit, paths, checked):
    """Run RK4 on the first m = ends.size rows of the starts X (k, n, d) and of J v (n, d)
    from s0[row] to ends[row], in place.

    A row with gap g = ends - s0 > 0 takes ceil(g * substeps_per_unit)
    substeps (at least one) of size g / steps, and one with g = 0 none.
    The rows, each with its k starts, go in step-count order, largest first,
    so substep i runs on the prefix of rows with more than i steps, handed to
    b and jvp_b as a column-major array (substep i - 1's own when no row
    finished there); only the rows it finishes are written back. A prefix of
    one row among more takes a spare row, which steps by 0 and is not written
    back (one row is also a row-major array; a step of 0 turns -0.0 into
    +0.0). When checked, a non-finite state or J v raises BlowUpError at the
    end of the substep, at the lowest path paths[row] among such rows.
    """
    m = ends.size
    gaps = ends - s0[:m]
    steps = np.where(gaps > 0, np.maximum(np.ceil(gaps * substeps_per_unit), 1), 0).astype(np.int64)
    h = np.where(steps > 0, gaps / np.maximum(steps, 1), 0.0)
    widths = steps.size - np.cumsum(np.bincount(steps))[:-1]  # #(steps > i), i = 0, 1, ...
    if not widths.size:
        return
    k, d = X.shape[0], X.shape[2]
    by = np.argsort(-steps)
    # row r of start c at r k + c, so each prefix holds its rows' every start
    y = Y = np.asfortranarray(X[:, by].transpose(1, 0, 2).reshape(-1, d))
    j = J = None if Jv is None else np.asfortranarray(Jv[by])
    s0, h, paths = (np.repeat(a[by], k) for a in (s0[:m], h, paths[:m]))
    rows = (k * widths).tolist() + [0]
    for i, w in enumerate(rows[:-1]):
        q = max(w, min(2, Y.shape[0]))
        step = h[:q] if q == w else np.concatenate((h[:w], [0.0]))
        s = s0[:q] + i * step
        y, j = np.asfortranarray(y[:q]), None if J is None else np.asfortranarray(j[:q])
        y, j = _rk4_step(field, s, step, y, j)
        done = slice(rows[i + 1], w)
        Y[done] = y[done]
        if J is not None:
            J[done] = j[done]
        if checked:
            _raise_non_finite(s[:w] + h[:w], paths, y[:w], None if J is None else j[:w])
    X[:, by] = Y.reshape(-1, k, d).transpose(1, 0, 2)
    if Jv is not None:
        Jv[by] = J


class _BetaRows:
    """Each round's dW^beta and d_beta rows: gathered from given arrays, or from the cap
    clock at a level R, run here in jump order. Each row adds its jump's size to its
    clock value ell (from 0.0, in sequence as np.cumsum adds), takes the first
    ell_post >= R as its cap (inf until then) and covers the jump when ell_post <= cap:
    dW^beta = covered dw and d_beta = size or 0.0, the bits of ClockSpec.increments and
    beta_marks. d_beta is formed only for c2 (a non-constant sigma)."""

    def __init__(self, batch, c2, dWb, d_beta, level):
        self.sizes, self.c2, self.dWb, self.d_beta, self.level = batch.sizes, c2, dWb, d_beta, level
        self.ell, self.cap = np.zeros(batch.n), np.full(batch.n, np.inf)

    def take(self, flat, w, dw):
        """(dW^beta, d_beta or None) of the jumps at flat, which the first w rows of the
        state take; their clock values and caps are updated in place."""
        if self.level is None:
            return np.take(self.dWb, flat, axis=0), self.d_beta[flat] if self.c2 else None
        size = self.sizes[flat]
        post, cap = self.ell[:w], self.cap[:w]
        post += size
        # ell_post never falls along a path, so the least passing ell_post is the first
        np.putmask(cap, (post >= self.level) & (post < cap), post)
        # 1.0 or 0.0: covered * x is x or the 0.0 * x of a boolean mask's product
        covered = np.less_equal(post, cap, out=np.empty(post.shape))
        if self.c2:
            size *= covered
        return scale_rows(covered, dw), size if self.c2 else None


def _jump_update(field, s, x, j, flat, dw, beta, sums):
    """Each row's jump at time s[row] with mark dw[row], applied in place to its left limits
    x and j (row-major: einsum sums a row of d > 2 in the layout's order) and, with j, its
    weight_terms (c1, c2, c3) added to sums[:, :rows]; beta (a _BetaRows) gives dW^beta and
    d_beta. Every hook reads the left limits, and is called first: sigma (or scale), its
    directional derivative (or slope), then sigma^{-1} (or 1/scale). Then x jumps, the
    terms are formed from the left limit j, j jumps and the terms join the sums; so a
    caller's np.errstate meets the state's add before the terms' multiplies. Nothing is
    checked here (see _jump_rounds). A constant sigma's jump leaves J v as it is.
    """
    hinted = field.sigma_scale is not None
    if hinted:
        scale = _sigma_scale(field, 0, s, x)
        dx = _times_rows(scale, dw)
    else:
        dx = np.einsum("mij,mj->mi", np.ascontiguousarray(field.sigma(s, x), dtype=float), dw)
    dir_s = None
    if j is not None:
        if not field.sigma_is_constant:
            dir_s = _sigma_scale(field, 1, s, x, j) if hinted else _dsigma(field, s, x, j)
        s_inv = np.ascontiguousarray(1.0 / scale if hinted else field.sigma_inv(s, x), dtype=float)
    x += dx
    if j is None:
        return
    terms = weight_terms(s_inv, j, dir_s, dw, *beta.take(flat, flat.size, dw))
    if dir_s is not None:
        j += _times_rows(dir_s, dw) if hinted else np.einsum("mij,mj->mi", dir_s, dw)
    for total, term in zip(sums, terms):
        if term is not None:
            total[:flat.size] += term


def _jump_rounds(starts, v, field, batch, dW, substeps_per_unit, weight, checked):
    """flow_batch's jump rounds from each start of the (k, d) stack, with v its weight inputs
    (dWb, d_beta, level), checking for a blow-up when checked.

    Row i of each start's state is path order[i], largest jump count first,
    so round k covers exactly the first #(counts > k) rows, whose times,
    marks and decay it forms once for all the starts; the outputs (X shaped
    (k, n, d)) go back to batch order at the end. Without drift_rate, round
    k first runs RK4 on the #(counts >= k) rows that reach it, up to their
    k-th jump or to t, and a last round runs the longest paths to t. No
    output depends on how equal counts are ordered: each row's operations
    are its own, and a blow-up names the lowest bad path.

    When checked, each RK4 substep checks its rows' X and J v, each round
    checks its rows' X and J v after their jump updates, then their I1-I3,
    raising at the round's jump times, and the last scaling checks X and
    J v at t. A constant sigma's jump leaves J v as it is, so the round
    does not check it: a non-finite J v makes c1 = <sigma^{-1} J v, dW^beta>
    non-finite (inf * 0 is NaN), and with it I1 in the same round.
    """
    n, t, rate = batch.n, batch.horizon, field.drift_rate
    order = np.argsort(-batch.counts)
    first = batch.offsets[order]  # flat index of each row's first jump
    widths = n - np.cumsum(np.bincount(batch.counts))[:-1]  # #(counts > k), k = 0, 1, ...
    X = np.tile(starts[:, None], (1, n, 1))
    Jv = None if v is None else np.tile(v, (n, 1))
    sums = None if v is None else np.zeros((3, n))
    s0 = np.zeros(n)  # each row's last jump time, or 0
    beta = None if v is None else _BetaRows(batch, not field.sigma_is_constant, *weight)
    wide = n  # #(counts >= k), the rows that reach round k
    for k, w in enumerate(widths.tolist()):
        flat = first[:w] + k
        s = batch.times[flat]
        j = None if Jv is None else Jv[:w]
        if rate is None:
            _rk4_rows(field, X, Jv, s0, np.concatenate((s, np.full(wide - w, t))), substeps_per_unit, order,
                      checked)
            s0[:w] = s
        elif rate:
            # the left limit: the flow of b = -rate x over the gap since s0; a
            # state that overflows here stays non-finite
            decay = s - s0[:w]
            decay *= -rate
            np.exp(decay, out=decay)
            if j is not None:
                scale_rows(decay, j, out=j)
            s0[:w] = s
        dw = np.take(dW, flat, axis=0)
        for x in X[:, :w]:
            if rate:
                scale_rows(decay, x, out=x)
            _jump_update(field, s, x, j, flat, dw, beta, sums)
        if checked:
            _raise_non_finite(s, order[:w], *X[:, :w], None if field.sigma_is_constant else j)
            if sums is not None:
                _raise_non_finite(s, order[:w], *sums[:, :w])
        del dw  # held into the next round's gather, it raised quickstart's peak RSS by 1.6 MB
        wide = w
    if rate is None:
        _rk4_rows(field, X, Jv, s0, np.full(wide, t), substeps_per_unit, order, checked)
    elif rate:
        decay = np.exp(-rate * (t - s0))
        if Jv is not None:
            scale_rows(decay, Jv, out=Jv)
        for x in X:
            scale_rows(decay, x, out=x)
        if checked:
            _raise_non_finite(t, order, *X, Jv)
    # freed first, the round bookkeeping leaves its heap space to the outputs
    # (held, it raised a quickstart run's peak RSS by 3 MB)
    del first
    X_out = np.empty_like(X)
    for out, x in zip(X_out, X):
        out[order] = x
    if Jv is None:
        return X_out, None, None, None, None
    Jv_out, I = np.empty_like(Jv), np.empty((5, n))
    Jv_out[order] = Jv
    I[:, order] = *sums, np.minimum(beta.ell, beta.cap), beta.cap
    return X_out, Jv_out, *I


def flow_batch(
    x0: np.ndarray,
    v: np.ndarray | None,
    field: CoefficientField,
    batch: JumpBatch,
    dW: np.ndarray,
    substeps_per_unit: int,
    dWb: np.ndarray | None = None,
    d_beta: np.ndarray | None = None,
    *,
    level: float | None = None,
):
    """Evolve every path of the batch to its horizon t through its jumps, summing its weight.

    Returns (X_final (n,d), Jv_final, I1, I2, I3). The weight inputs come
    exactly with v: each jump's beta-weighted mark dWb (M,d) and clock
    increment d_beta (M,), in flat batch order, or the level R of the cap
    clock, which the flow evaluates as it applies each jump (_BetaRows); the
    return then gains each path's normalizer and cap (inf if R is not
    reached). I1, I2 and I3 sum weight_terms over each path's jumps in jump
    order; they and Jv_final are None when v is None (a plain trajectory
    run). t is batch.horizon, the end of the interval the batch's jumps
    were drawn on.

    Every field runs jump rounds, round k being every path's k-th jump, on
    its paths ordered by jump count, largest first, each round a row-major
    prefix of the state. A field with drift_rate r takes no substep and
    never reads substeps_per_unit: a path's X and J v are scaled by
    exp(-r g) when it reaches its next jump, and by exp(-r (t - s)) from its
    last jump s (or 0) to t after the last round; r = 0 scales nothing. Any
    other field's round k first runs RK4 on each path from its last jump (or
    0) to its k-th jump, or to t once its jumps are done, and a last round
    with no jump runs the longest paths to t. A gap g takes
    max(ceil(g * substeps_per_unit), 1) substeps of size g / steps.

    Without v, x0 may be a stack of starts (k, d): X_final is then (k, n, d),
    each start's slice the bytes of flow_batch on that start alone. The
    rounds form their count order, gathers, decays and RK4 substeps once for
    all the starts.

    A BlowUpError names the earliest round with a non-finite path, its RK4
    substeps in turn before its jumps, and the lowest such path in the first
    substep that has one, or else among the round's non-finite states and
    J v, or else its non-finite weight sums (a sum of finite terms can
    overflow); or t and the lowest path whose last scaling overflows. The
    rounds run once unchecked; only a sweep that ends non-finite or raises
    is replayed with these checks, one start at a time in order (numpy's
    warnings before the error may repeat): the first start that raises
    names the error, else the replays' outputs are stacked. Arrays shaped
    for another dimension or jump count, entries that are not numbers and a
    level that is not positive are refused by name.
    """
    substeps_per_unit = checked_integer("substeps_per_unit", substeps_per_unit, minimum=1)
    if (dWb is None) != (d_beta is None) or (dWb is not None) + (level is not None) != (v is not None):
        raise ValueError("pass the weight inputs, dWb and d_beta or level, exactly when v is given")
    d, x0 = field.dimension, checked_reals("x0", x0)
    if x0.ndim > 2 or x0.ndim == 2 and v is not None:
        raise ValueError("x0 must be one start (d,), or a stack of starts (k, d) when v is None")
    starts = np.atleast_2d(x0)
    if starts.shape[1] != d:
        raise ValueError(f"x0 must hold the field's {d} coordinates per start, got shape {x0.shape}")
    v = None if v is None else checked_reals("v", v)
    for name, a, shape in (("v", v, (d,)), ("dW", dW, (batch.total, d)), ("dWb", dWb, (batch.total, d)),
                           ("d_beta", d_beta, (batch.total,))):
        if a is not None and np.shape(a) != shape:
            raise ValueError(f"{name} must have shape {shape}, got {np.shape(a)}")
    if level is not None and not checked_float("level", level) > 0:
        raise ValueError(f"level must be positive, got {level!r}")
    rounds = v, field, batch, dW, substeps_per_unit, (dWb, d_beta, level)
    try:
        out = _jump_rounds(starts, *rounds, checked=False)
        finite = all(a is None or np.isfinite(a).all() for a in out[:5])
    except Exception:  # re-raised by the checked rounds, or the error they meet first
        finite = False
    if not finite:
        outs = [_jump_rounds(x[None], *rounds, checked=True) for x in starts]
        out = np.concatenate([o[0] for o in outs]), *outs[0][1:]
    return (out[0] if x0.ndim == 2 else out[0][0], *out[1:5 if level is None else 7])


def path_cumulatives(batch: JumpBatch):
    """Per-jump clock interval ends and per-path terminal clock values.

    Returns (ell_pre, ell_post, ell_T). Each path's values are its own
    running sum, the floats of np.cumsum over its sizes alone, whatever
    the other paths hold. Intervals tile (0, ell_T] exactly: ell_pre[i] is
    the identical float of the previous jump's ell_post, so interval masks
    and telescoping sums are exact.
    """
    c = batch.counts
    real = np.arange(c.max(initial=0)) < c[:, None]
    # column k of a path's zero-started row holds its clock after k jumps
    cum = np.zeros((batch.n, real.shape[1] + 1))
    cum[:, 1:][real] = batch.sizes
    np.cumsum(cum, axis=1, out=cum)
    return cum[:, :-1][real], cum[:, 1:][real], cum[np.arange(batch.n), c]


def first_passage_levels(batch: JumpBatch, ell_post: np.ndarray, R: float) -> np.ndarray:
    """Flat index of each path's first jump with ell_post >= R, -1 when R is not reached."""
    if not R > 0:
        raise ValueError("the passage level R must be positive")
    # ell_post is nondecreasing within a path, so its count of jumps below R
    # is the crossing's position in the path
    first = batch.offsets[:-1].copy()
    jumped = batch.counts > 0
    if jumped.any():
        first[jumped] += np.add.reduceat(ell_post < R, first[jumped], dtype=np.int64)
    return np.where(first < batch.offsets[1:], first, -1)


def weight_terms(s_inv, j, dir_s, dw, dwb, d_beta):
    """Each jump's weight terms (c1, c2, c3) at its left limit, one row per jump.

    s_inv is sigma^{-1}(s, X_{s-}) and j the left limit grad_v X_{s-}, both
    row-major; dir_s is the matrix grad_j sigma(s, X_{s-}) of the jump update
    (None for a constant sigma, whose c2 and c3 are then None), dw and dwb
    the mark and beta-weighted mark and d_beta the clock increment. With
    A = s_inv dir_s (a batched np.matmul), c1 = <s_inv j, dwb>,
    c2 = Tr(A) d_beta and c3 = <A dwb, dw>. For a field with the sigma_scale
    hint, s_inv and dir_s are the (m,) factors 1/scale and slope of I_d, and
    the same sums are formed on vectors with the matrix route's bits: A is
    a I with a = s_inv dir_s, and its trace adds a to itself d times in
    einsum's order.
    """
    if s_inv.ndim == 1:
        c1 = _row_dot(scale_rows(s_inv, j), dwb)
        if dir_s is None:
            return c1, None, None
        a = s_inv * dir_s
        trace = a + 0.0
        for _ in range(j.shape[1] - 1):
            trace += a
        trace *= d_beta
        return c1, trace, _row_dot(scale_rows(a, dwb), dw)
    c1 = _row_dot(np.einsum("mij,mj->mi", s_inv, j), dwb)
    if dir_s is None:
        return c1, None, None
    A = np.matmul(s_inv, dir_s)
    c2 = np.einsum("mii->m", A) * d_beta
    c3 = _row_dot(np.einsum("mik,mk->mi", A, dwb), dw)
    return c1, c2, c3


def _row_bounds(offsets, budget: float, rows: float = math.inf):
    """(r0, r1) of consecutive pieces of at most budget jumps and rows paths (one path at least)."""
    n, r0 = offsets.size - 1, 0
    while r0 < n:
        r1 = max(int(np.searchsorted(offsets, offsets[r0] + budget, side="right")) - 1, r0 + 1)
        r1 = min(r1, r0 + rows)
        yield r0, r1
        r0 = r1


def _row_blocks(batch: JumpBatch, *per_jump, budget: float, rows: float = math.inf):
    """A drawn batch in consecutive pieces of at most budget jumps and rows paths (one
    path at least), each (JumpBatch view with offsets rebased to 0, *its slice of each
    per-jump array), a None among them passed as is: a fixed path's pieces."""
    if batch.total <= budget and batch.n <= rows:
        yield batch, *per_jump
        return
    offsets = batch.offsets
    for r0, r1 in _row_bounds(offsets, budget, rows):
        lo, hi = offsets[r0], offsets[r1]
        yield (JumpBatch(r1 - r0, batch.horizon, batch.counts[r0:r1], offsets[r0:r1 + 1] - lo,
                         batch.times[lo:hi], batch.sizes[lo:hi]),
               *(None if a is None else a[lo:hi] for a in per_jump))


def over_row_blocks(draw, stage, rows: float = math.inf):
    """stage(piece, *per_jump) over a batch's pieces, its per-path outputs joined.

    draw(budget, rows) yields the batch as consecutive (piece, *per_jump) of
    at most budget jumps and rows paths (one path at least), per_jump being
    arrays with one row per jump in flat piece order (marks, auxiliary
    normals) or None. The draw makes the only cut: each piece of
    draw(JUMP_BLOCK, rows) is run before the next is drawn (the weighted
    estimators pass rows = FLOW_ROWS). stage returns a tuple of per-path
    arrays, each concatenated over the pieces in row order; every operation
    of a stage is per path, so they have the bits of stage on the whole
    batch. A BlowUpError in a piece runs stage on draw(math.inf, math.inf),
    the whole batch, which raises the unblocked run's error: the path the
    whole batch's flow reaches first may sit in a later piece.
    """
    try:
        parts = [stage(*piece) for piece in draw(JUMP_BLOCK, rows)]
    except BlowUpError:
        (whole,) = draw(math.inf, math.inf)
        return stage(*whole)
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(column) for column in zip(*parts))


def map_batches(n_total: int, workers: int, worker_fn):
    """Run worker_fn(batch_index, start, count) over fixed-size batches.

    Results are returned as a list ordered by batch index regardless of
    completion order, so downstream reduction is deterministic. A
    BlowUpError leaves with the index of the batch that raised it.
    """
    spans = [
        (bi, start, min(BATCH_SIZE, n_total - start))
        for bi, start in enumerate(range(0, n_total, BATCH_SIZE))
    ]

    def run(bi, start, count):
        try:
            return worker_fn(bi, start, count)
        except BlowUpError as exc:
            exc.batch = bi
            raise

    if workers <= 1:
        return [run(bi, start, count) for bi, start, count in spans]
    with ThreadPoolExecutor(max_workers=int(workers)) as pool:
        futures = [pool.submit(run, bi, start, count) for bi, start, count in spans]
        return [f.result() for f in futures]


class RunningStats:
    """Count, mean, M2 (sum of squared deviations) and max |value| of a column.

    A batch's mean and M2 take two passes over its values, and records merge
    by the pairwise update of Chan, Golub and LeVeque (1979).
    """

    def __init__(self) -> None:
        self.count, self.mean, self.m2, self.max_abs = 0, math.nan, 0.0, 0.0

    def update(self, values: np.ndarray) -> None:
        if values.size:
            batch = RunningStats()
            batch.count = int(values.size)
            batch.mean = float(values.sum()) / batch.count
            batch.max_abs = float(np.max(np.abs(values)))
            # one batch-sized temporary at a time: with two alive it ran 3x slower
            dev = values - batch.mean
            batch.m2 = float(np.square(dev, out=dev).sum())
            self.merge(batch)

    def merge(self, other: "RunningStats") -> None:
        """Fold in another record; into an empty one it is copied exactly."""
        if not self.count:
            vars(self).update(vars(other))
        elif other.count:
            n = self.count + other.count
            delta = other.mean - self.mean
            share = other.count / n
            self.mean += delta * share
            self.m2 += other.m2 + delta * delta * self.count * share
            self.count = n
            self.max_abs = max(self.max_abs, other.max_abs)

    def finalize(self):
        """Return (mean, std_error); NaN for both when no sample was seen."""
        if self.count == 0:
            return math.nan, math.nan
        # one value has M2 exactly 0, so its divisor is moot
        return self.mean, math.sqrt(self.m2 / max(self.count - 1, 1) / self.count)


@dataclass(frozen=True, eq=False)
class BatchRun:
    """Merged outcome of run_batches; parts are the workers' own keys in batch order."""

    n_samples: int
    n_rejected: int
    columns: dict  # column key -> RunningStats
    counters: dict[str, int]
    parts: list

    def result(self, diagnostics: dict | None = None, column="y") -> EstimatorResult:
        """EstimatorResult of one column, with its max |sample| among the diagnostics."""
        stats = self.columns[column]
        mean, std_error = stats.finalize()
        return EstimatorResult(
            mean=mean,
            std_error=std_error,
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
    plus any keys of its own, handed back in BatchRun.parts. Each batch's
    columns are reduced to a RunningStats as soon as its worker returns, so
    a run holds one batch's samples at a time, and the reductions are merged
    by Chan's formula in batch order, so the result is the same for any
    worker count.
    """
    n_total = checked_integer("n_paths", n_total, minimum=1)
    workers = checked_integer("workers", workers, minimum=1)

    def reduced(bi: int, start: int, count: int):
        part = worker_fn(bi, start, count)
        reject = part.pop("reject", None)
        stats = {}
        for name, values in part.pop("samples").items():
            stats[name] = column = RunningStats()
            column.update(values if reject is None else values[~reject])
        return stats, 0 if reject is None else int(reject.sum()), part

    columns: dict = {}
    counters: dict[str, int] = {}
    n_rejected = 0
    parts = []
    for batch_stats, rejected, part in map_batches(n_total, workers, reduced):
        n_rejected += rejected
        for name, batch_column in batch_stats.items():
            columns.setdefault(name, RunningStats()).merge(batch_column)
        for name, value in part.pop("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        parts.append(part)
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
