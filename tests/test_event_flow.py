"""The event-driven flow loop, the jvp_b and dsigma hooks and the jump sampler.

The hex pins and row digests below were recorded from the round-by-round
flow loop (one jump round at a time, RK4 on gathered rows, the Jacobian term
as an einsum over grad_b) with the lexsort jump sampler. The engine promises
the same float operations per path, so every pinned estimate and every
per-path sample must still match bit for bit. The runs with R = "auto" were
recorded again once, when the median of S_1 behind default_level_R became a
deterministic quadrature; the older engine gives the same bits at that median.
The runs at d = 3 and d = 4 and on pythagoras_1d were recorded from the
engine that stored every jump's left limit and formed the weight terms in a
second pass over the jumps; the flow now sums them as it applies each jump.
The piecewise-clock runs were recorded again once, when the conditional mark
part of a jump inside one linear piece of beta became exactly 0 instead of
the square root of a roundoff-sized difference. The standard errors of
fd_crn, pythagoras_1d, quickstart_d3, quickstart_d4 and sign_fine_cut were
recorded again once, by 1-2 ulp, when the variance came to be merged from
per-batch (count, mean, M2) by Chan's formula; no mean moved. The runs with
a stable clock and R = "auto" were recorded again once, within 4e-11
relative, when each path's clock values came to be its own running sum
instead of differences of one sum over the batch. Every run with a stable
clock (and both trajectory digests) was recorded again once, to a fresh
draw of the same law, when the jump sampler came to sort times alone and
leave the sizes in draw order; each new mean lies within 0.92 combined
standard errors of its old pin. Every run on bounded_multiplicative (and its
trajectory digest) was recorded again once, when the catalog's linear drift
came to be flowed exactly between jumps instead of by RK4: each mean moved
by at most 1.4e-11, under 4e-9 combined standard errors. sign_fine_cut and
pythagoras_1d have no drift and kept their bits.
"""

import dataclasses
import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from levygrad import (
    BernsteinSpec,
    ClockSpec,
    JumpPath,
    catalog,
    estimate_gradient,
    estimate_gradient_fixed_clock,
    estimate_pt,
    fd_gradient,
    make_observable,
    substream,
)
from levygrad import engine
from levygrad.bismut import ClockDraw
from levygrad.coefficients import CATALOG_NAMES
from levygrad.engine import JumpBatch, flow_batch, sample_jump_batch
from reference import FlowState, PathRealization, accumulate_weight, apply_jump, evolve_drift

SPEC = BernsteinSpec.alpha_stable(1.5)
BM = catalog("bounded_multiplicative", 2)
BM3 = catalog("bounded_multiplicative", 3)
# BM without its drift_rate hint: its flow runs RK4, as tests/reference.py does
BM_RK4 = dataclasses.replace(BM, drift_rate=None)
PYTHAGORAS = catalog("pythagoras_1d")
TANH = make_observable("tanh1")
X0, V0 = np.array([0.3, 0.0]), np.array([1.0, 0.5])
N = 4096
PATH = JumpPath(1.0, np.array([0.1, 0.35, 0.6, 0.9]), np.array([0.4, 0.8, 0.3, 0.5]))
# beta has kinks inside the clock intervals of PATH, so the conditional mark
# part is nonzero and the fixed-clock estimator reads its auxiliary normals
PIECEWISE = ClockSpec.piecewise_linear([[0.0, 0.0], [0.5, 0.2], [1.0, 1.1], [3.0, 1.5]])
# einsum may sum a row in another order once d > 2
X3, V3 = np.array([0.3, 0.0, -0.2]), np.array([1.0, 0.5, -0.25])
X4, V4 = np.array([0.3, 0.0, -0.2, 0.1]), np.array([1.0, 0.5, -0.25, 0.75])

RUNS = {
    # the three benchmark configurations at their default seeds
    "quickstart": lambda field=BM, **kw: estimate_gradient(
        X0, V0, TANH, field, SPEC, 0.5, "auto", N, 3e-3, 318, **kw),
    "sign_fine_cut": lambda **kw: estimate_gradient(
        np.zeros(1), np.ones(1), make_observable("sign"), catalog("additive_identity", 1),
        SPEC, 1.0, "auto", N, 2e-4, 303, **kw),
    "fd_crn": lambda field=BM: fd_gradient(
        X0, V0, TANH, field, SPEC, 0.5, 5e-3, N, 319, eps_cut=3e-3, workers=2),
    "fixed_clock_piecewise": lambda field=BM, **kw: estimate_gradient_fixed_clock(
        X0, V0, TANH, field, PATH, PIECEWISE, 0.95, N, 16, **kw),
    # the cap clock on one fixed path: its marks are kept or zeroed, never mixed
    "fixed_clock_cap": lambda field=BM, **kw: estimate_gradient_fixed_clock(
        X0, V0, TANH, field, PATH, ClockSpec.cap_at_first_passage(1.3), 0.95, N, 16, **kw),
    "estimate_pt": lambda field=BM: estimate_pt(X0, TANH, field, SPEC, 0.5, N, 13, eps_cut=3e-3),
    "antithetic": lambda field=BM, **kw: estimate_gradient(
        X0, V0, TANH, field, SPEC, 0.5, "auto", N, 3e-3, 7, antithetic=True, **kw),
    "quickstart_d3": lambda field=BM3, **kw: estimate_gradient(
        X3, V3, TANH, field, SPEC, 0.5, "auto", N, 3e-3, 318, **kw),
    "quickstart_d4": lambda **kw: estimate_gradient(
        X4, V4, TANH, catalog("bounded_multiplicative", 4), SPEC, 0.5, "auto", N, 3e-3, 318, **kw),
    "fixed_clock_piecewise_d3": lambda **kw: estimate_gradient_fixed_clock(
        X3, V3, TANH, catalog("bounded_multiplicative", 3), PATH, PIECEWISE, 0.95, N, 16, **kw),
    # no drift and a state-dependent sigma: the event loop's jump rounds alone
    "pythagoras_1d": lambda field=PYTHAGORAS, **kw: estimate_gradient(
        np.array([0.3]), np.ones(1), TANH, field, SPEC, 0.5, "auto", N, 3e-3, 318, **kw),
}

PINS = {
    "quickstart": ("0x1.f4e02fc88c056p-2", "0x1.9fdd57bedf1b2p-7"),
    "sign_fine_cut": ("0x1.c214c5c72def4p-1", "0x1.b1fe975cabcc7p-7"),
    "fd_crn": ("0x1.e652de79f742ap-2", "0x1.3b85a99bb23ddp-9"),
    "fixed_clock_piecewise": ("0x1.ced05ee966a97p-3", "0x1.020be535f7987p-7"),
    "fixed_clock_cap": ("0x1.c573a2f317939p-3", "0x1.a5b676fc04b97p-8"),
    "estimate_pt": ("0x1.31d037474d826p-3", "0x1.baef105094c25p-8"),
    "antithetic": ("0x1.f43c222b7b03ep-2", "0x1.720c8e442b971p-7"),
    "quickstart_d3": ("0x1.d4f0d82e6c35bp-2", "0x1.94adcd6f2aa90p-7"),
    "quickstart_d4": ("0x1.edc8bcec9384ap-2", "0x1.ed8e78fb59178p-7"),
    "fixed_clock_piecewise_d3": ("0x1.d6dd61055c9d2p-3", "0x1.1383210eef724p-7"),
    "pythagoras_1d": ("0x1.535f02350bf52p-1", "0x1.1dee7b655a41fp-6"),
}


# SHA-256 (first 32 hex digits) of every per-path sample row (index, f, weight,
# I1, I2, I3, normalizer) as float64 bytes. A mean absorbs last-bit changes
# of single paths; these digests do not.
ROW_DIGESTS = {
    "quickstart": "ec09d929b9046a8055d20d6b1273e834",
    "sign_fine_cut": "da54a3eb962a80920973647dcad13861",
    "fixed_clock_piecewise": "53a4f4ac6ed65312cf2ea0746041a54c",
    "fixed_clock_cap": "87184d38f32eb7821541ef0349c9a0e1",
    "antithetic": "c8261288c44900cdeeec2c00f0c71661",
    "quickstart_d3": "a151571fc3e5b8b55c85902519c06319",
    "quickstart_d4": "df0ad38b1542b93aec05f87671fa3532",
    "fixed_clock_piecewise_d3": "fa4db28146b9705db36ff9be9466a1ed",
    "pythagoras_1d": "ff9e9f6ea02a68b03ef4f70310be3e50",
}


def _bits(result):
    return result.mean.hex(), result.std_error.hex()


def _row_digest(result):
    rows = np.array(result.sample_rows, dtype=float)
    assert rows.shape == (N, 7)
    return hashlib.sha256(rows.tobytes()).hexdigest()[:32]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_estimates_match_pinned_bits(name):
    assert _bits(RUNS[name]()) == PINS[name]


@pytest.mark.parametrize("name", sorted(ROW_DIGESTS))
def test_per_path_samples_match_pinned_digest(name):
    assert _row_digest(RUNS[name](collect_samples=N)) == ROW_DIGESTS[name]


# SHA-256 (first 32 hex digits) of the terminal states of a plain trajectory
# run (v = None) from x0 + h v and then x0 - h v, h = 5e-3, on batch 0 (4096
# paths) of the fd_crn draw: t = 0.5, eps_cut = 3e-3, seed 319. fd_gradient's
# pin holds only a mean and an SE of such runs. pythagoras_1d has no drift,
# so its run is the event loop's jump rounds alone.
FLOW_DIGESTS = {
    "bounded_multiplicative": (BM, X0, V0, "c410f1470389947b471a814f254f34f2"),
    "pythagoras_1d": (PYTHAGORAS, np.array([0.3]), np.ones(1), "9110b3ae9f95a8cefbbc122ea31c1b83"),
}


@pytest.mark.parametrize("name", sorted(FLOW_DIGESTS))
def test_trajectory_flow_matches_pinned_digest(name):
    field, x0, v, want = FLOW_DIGESTS[name]
    jb, dW, _ = ClockDraw.stable(SPEC, 0.5, 3e-3, x0.size, 319).batch(0, N)
    starts = [x0 + sign * 5e-3 * v for sign in (1.0, -1.0)]
    runs = [flow_batch(start, None, field, jb, dW, 100) for start in starts]
    assert all(run[1] is None and run[2] is None for run in runs)
    assert hashlib.sha256(b"".join(run[0].tobytes() for run in runs)).hexdigest()[:32] == want
    # one call flowing both starts gives the same bytes
    stacked = flow_batch(np.stack(starts), None, field, jb, dW, 100)[0]
    assert hashlib.sha256(stacked.tobytes()).hexdigest()[:32] == want


def test_piecewise_pin_reads_the_conditional_mark_part():
    increments = PIECEWISE.increments(engine.fixed_jump_batch(PATH, PATH.horizon, 1))
    _, c = PIECEWISE.mark_law(PATH.sizes, increments)
    assert np.any(c > 0.0)


def _same_bits_without(hook, name, field):
    """Run RUNS[name] on field without its drift_rate and sigma_scale hints,
    with and without the hook: the RK4 flow and the matrix jump rounds of
    the unhinted field reach both hooks."""
    unhinted = dataclasses.replace(field, drift_rate=None, sigma_scale=None)
    assert getattr(unhinted, hook) is not None
    with_hook = RUNS[name](unhinted, collect_samples=N)
    without = RUNS[name](dataclasses.replace(unhinted, **{hook: None}), collect_samples=N)
    assert _bits(without) == _bits(with_hook)
    assert _row_digest(without) == _row_digest(with_hook)


@pytest.mark.parametrize("name", ["quickstart", "fixed_clock_piecewise", "antithetic"])
def test_field_without_jvp_gives_the_same_bits(name):
    # the grad_b einsum fallback and the direct product are the same floats
    _same_bits_without("jvp_b", name, BM)


@pytest.mark.parametrize("name, field", [
    ("quickstart", BM), ("antithetic", BM), ("fixed_clock_piecewise", BM), ("quickstart_d3", BM3),
    ("pythagoras_1d", PYTHAGORAS),
])
def test_field_without_dsigma_gives_the_same_bits(name, field):
    # the grad_sigma einsum fallback and the directional hook are the same floats
    assert not field.sigma_is_constant
    _same_bits_without("dsigma", name, field)


@pytest.mark.parametrize(
    "name, d", [(name, d) for name in CATALOG_NAMES for d in (1, 3) if name != "pythagoras_1d" or d == 1]
)
def test_catalog_jvp_equals_grad_b_product(name, d):
    field = catalog(name, d)
    assert field.jvp_b is not None
    rng = np.random.default_rng(5)
    x = rng.standard_normal((64, d))
    u = rng.standard_normal((64, d))
    t = rng.uniform(size=64)
    expected = np.einsum("mij,mj->mi", field.grad_b(t, x), u)
    got = field.jvp_b(t, x, u)
    assert got.shape == u.shape
    assert np.array_equal(got, expected)


# ---------------------------------------------------------------------------
# edge cases of the event loop, against the one-path reference steps


def _reference_path(field, x0, v, times, dW, t, spu):
    """Pre-jump states and final state of one path via tests/reference.py."""
    state = FlowState.initial(x0, v)
    pre = []
    for s, w in zip(times, dW):
        if s > state.s:
            state = evolve_drift(state, field, state.s, s, max(1, math.ceil((s - state.s) * spu)))
        pre.append(state)
        state = apply_jump(state, field, s, w)
    if t > state.s:
        state = evolve_drift(state, field, state.s, t, max(1, math.ceil((t - state.s) * spu)))
    return pre, state


def _weight_inputs(batch, clock, d, seed):
    """Marks, auxiliary normals, beta-weighted marks and clock increments of a batch."""
    rng = np.random.default_rng(seed)
    dW = rng.standard_normal((batch.total, d)) * 0.5
    aux = rng.standard_normal((batch.total, d))
    increments = clock.increments(batch)
    return dW, aux, clock.beta_marks(batch.sizes, increments, dW, aux), increments.d_beta


# The sizes 0.2 sum to the knots 1 and 3 of PIECEWISE up to roundoff. A clock
# value off by 2e-16 would let the next jump's clock interval straddle a knot,
# where the conditional mark part c = sqrt(d_lambda - d_beta^2 / d_ell) is
# about 1e-8 instead of 0; the engine's clock values are each path's own sums,
# as the reference's are, so both clocks agree to roundoff.
EDGE_CLOCKS = [(ClockSpec.cap_at_first_passage(0.5), 1e-12), (PIECEWISE, 1e-12)]


# additive_identity runs the jump rounds at r = 0
EDGE_FIELDS = {"bounded_multiplicative": BM_RK4, "additive_identity": catalog("additive_identity", 2)}


@pytest.mark.parametrize("name", ["bounded_multiplicative", "additive_identity"])
def test_event_loop_edge_paths(name):
    # path 0: no jumps; path 1: two jumps tied in time; path 2: a jump tied
    # with path 1's; path 3: a jump exactly at t; path 4: many short gaps.
    # Each path's weight terms read its left limits at the jumps, which the
    # reference weight takes from its own one-path flow.
    field = EDGE_FIELDS[name]
    t, spu = 0.8, 50
    times = [[], [0.3, 0.3], [0.3], [0.8], list(np.linspace(0.01, 0.79, 17))]
    counts = np.array([len(p) for p in times])
    offsets = np.concatenate(([0], np.cumsum(counts)))
    flat_times = np.concatenate([np.asarray(p, dtype=float) for p in times])
    sizes = np.full(flat_times.size, 0.2)
    batch = JumpBatch(len(times), t, counts, offsets, flat_times, sizes)
    for clock, rtol in EDGE_CLOCKS:
        dW, aux, dWb, d_beta = _weight_inputs(batch, clock, 2, 3)
        X, Jv, I1, I2, I3 = flow_batch(X0, V0, field, batch, dW, spu, dWb, d_beta)
        assert I1[0] == I2[0] == I3[0] == 0.0
        for i, path_times in enumerate(times):
            lo, hi = offsets[i], offsets[i + 1]
            pre, final = _reference_path(field, X0, V0, path_times, dW[lo:hi], t, spu)
            np.testing.assert_allclose(X[i], final.X, rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(Jv[i], final.J, rtol=1e-13, atol=1e-15)
            if not pre:
                continue
            # JumpPath refuses the tied times a batch may hold, so the reference
            # weight reads the path's arrays through a plain namespace; it reads
            # only the pre-jump snapshots [pre_1, _, pre_2, _, ..., final]
            path = SimpleNamespace(times=flat_times[lo:hi], sizes=sizes[lo:hi])
            real = PathRealization(path, dW[lo:hi], aux[lo:hi])
            snaps = [state for p in pre for state in (p, p)] + [final]
            ref = accumulate_weight(snaps, field, real, clock, t)
            for got, want in ((I1[i], ref.I1), (I2[i], ref.I2), (I3[i], ref.I3)):
                np.testing.assert_allclose(got, want, rtol=rtol, atol=1e-14)
        # a jump at t leaves no drift after it: the final state is the post-jump
        # state, whose left limit is path 0's state (the same RK4 steps over (0, t])
        assert np.array_equal(X[3], X[0] + field.sigma(t, X[0]) @ dW[offsets[3]])


def test_event_loop_without_jumps_is_pure_drift():
    batch = JumpBatch(3, 1.0, np.zeros(3, dtype=np.int64), np.zeros(4, dtype=np.int64),
                      np.empty(0), np.empty(0))
    field = BM_RK4
    X, Jv, I1, I2, I3 = flow_batch(
        X0, V0, field, batch, np.empty((0, 2)), 100, np.empty((0, 2)), np.empty(0))
    for I in (I1, I2, I3):
        assert np.array_equal(I, np.zeros(3)) and not np.signbit(I).any()
    _, final = _reference_path(field, X0, V0, [], [], 1.0, 100)
    assert np.array_equal(X, np.tile(X[0], (3, 1)))
    np.testing.assert_allclose(X[0], final.X, rtol=1e-14)
    np.testing.assert_allclose(Jv[0], final.J, rtol=1e-14)


def test_drift_of_one_row_broadcasts_over_the_paths():
    # a constant b may return one row for the whole batch, as the RK4
    # expressions broadcast it
    b = np.array([1.0, -0.5])
    field = dataclasses.replace(
        catalog("additive_identity", 2), b=lambda t, x: b, jvp_b=None, drift_rate=None)
    batch = JumpBatch(3, 1.0, np.zeros(3, dtype=np.int64), np.zeros(4, dtype=np.int64),
                      np.empty(0), np.empty(0))
    X, Jv, *_ = flow_batch(X0, V0, field, batch, np.empty((0, 2)), 100, np.empty((0, 2)), np.empty(0))
    assert np.array_equal(X, np.tile(X[0], (3, 1))) and np.array_equal(Jv, np.tile(V0, (3, 1)))
    np.testing.assert_allclose(X[0], X0 + b, rtol=1e-14)


def test_rk4_stages_hand_b_the_states_layout():
    # b and jvp_b return row-major arrays; each RK4 stage must still hand
    # them the state's own column-major layout, as stage 1 does
    B = 0.3 * np.ones((3, 3)) - 1.3 * np.eye(3)
    layouts = []

    def spy(name, a):
        layouts.append((name, a.flags.f_contiguous, a.flags.c_contiguous))
        return np.ascontiguousarray(np.asarray(a) @ B)

    field = dataclasses.replace(
        BM3, b=lambda t, x: spy("b", x), jvp_b=lambda t, x, u: spy("jvp_b", u), drift_rate=None)
    batch = sample_jump_batch(1.5, 0.5, 3e-2, 20, substream(5, engine.PURPOSE_JUMPS, 0))
    dW = engine.sample_mark_batch(batch, 3, substream(5, engine.PURPOSE_MARKS, 0))
    flow_batch(X3, V3, field, batch, dW, 10, dW, batch.sizes)
    assert {name for name, *_ in layouts} == {"b", "jvp_b"} and len(layouts) >= 8
    assert all(f and not c for _, f, c in layouts), layouts[:8]


def test_rk4_substeps_run_only_on_the_rows_that_step():
    # substep i of a gap runs on the rows with more than i steps, and at most
    # one spare row, rather than on the whole batch: b receives at most four
    # rows (one per stage) per substep of a path, plus one spare row per stage
    rows = []

    def b(t, x):
        rows.append(len(x))
        return BM_RK4.b(t, x)

    spu = 4
    batch = sample_jump_batch(1.5, 0.5, 3e-2, 200, substream(6, engine.PURPOSE_JUMPS, 0))
    dW = engine.sample_mark_batch(batch, 2, substream(6, engine.PURPOSE_MARKS, 0))
    flow_batch(X0, V0, dataclasses.replace(BM_RK4, b=b), batch, dW, spu, dW, batch.sizes)
    substeps = 0
    for p in range(batch.n):
        ends = np.concatenate(([0.0], batch.times[batch.offsets[p]:batch.offsets[p + 1]], [batch.horizon]))
        gaps = np.diff(ends)
        substeps += int(np.maximum(np.ceil(gaps[gaps > 0] * spu), 1).sum())
    passes, stages = divmod(len(rows), 4)
    assert stages == 0 and substeps > batch.n
    assert sum(rows) <= 4 * (substeps + passes)


def _dense_drift_field():
    """BM3's sigma with b(x) = x B for a dense B and no jvp_b: the engine's
    grad_b einsum sums each row of three terms in an order that follows the
    memory layout of J v and of grad_b, which np.tile of the transposed B
    lays out column-major for one path and row-major for more."""
    B = 0.3 * np.ones((3, 3)) - 1.3 * np.eye(3)
    return dataclasses.replace(
        BM3, b=lambda t, x: np.asarray(x) @ B, jvp_b=None,
        grad_b=lambda t, x: np.tile(B.T, np.shape(x)[:-1] + (1, 1)), drift_rate=None,
    )


def _dense_sigma_field(derivative):
    """sigma = s(x_1) T for a dense T where, like grad_b above, sigma, its
    inverse and its derivative come from np.tile of column-major arrays: on
    BM3 with the derivative from grad_sigma or from the dsigma hook, or with
    s = 1 on additive_identity, which runs the jump rounds at r = 0."""
    T = np.eye(3) + 0.3 * np.triu(np.ones((3, 3)), 1) - 0.2 * np.tril(np.ones((3, 3)), -1)
    grad_T = np.zeros((3, 3, 3))
    grad_T[..., 0] = T
    T_f, T_inv_f, grad_T_f = (np.asfortranarray(M) for M in (T, np.linalg.inv(T), grad_T))

    def times_tiled(c, M):
        c = np.asarray(c)
        return c.reshape(c.shape + (1,) * M.ndim) * np.tile(M, c.shape + (1,) * M.ndim)

    if derivative == "constant":
        return dataclasses.replace(
            catalog("additive_identity", 3), sigma=lambda t, x: times_tiled(np.ones(np.shape(x)[:-1]), T_f),
            sigma_inv=lambda t, x: times_tiled(np.ones(np.shape(x)[:-1]), T_inv_f), sigma_scale=None,
        )

    def s(x):
        return 1.0 + 0.25 * np.tanh(np.asarray(x)[..., 0])

    def ds(x):
        return 0.25 / np.cosh(np.asarray(x)[..., 0]) ** 2

    def dsigma(t, x, u):
        return times_tiled(ds(x) * np.asarray(u)[..., 0], T_f)

    return dataclasses.replace(
        BM3, sigma=lambda t, x: times_tiled(s(x), T_f),
        sigma_inv=lambda t, x: times_tiled(1.0 / s(x), T_inv_f),
        grad_sigma=lambda t, x: times_tiled(ds(x), grad_T_f),
        dsigma=dsigma if derivative == "dsigma" else None, sigma_scale=None,
    )


def _sub_batch(jb, paths):
    """The given paths of jb as a batch of their own, with the flat indices of their jumps."""
    flat = np.concatenate([np.arange(jb.offsets[p], jb.offsets[p + 1]) for p in paths])
    counts = jb.counts[paths]
    offsets = np.concatenate(([0], np.cumsum(counts)))
    return JumpBatch(len(paths), jb.horizon, counts, offsets, jb.times[flat], jb.sizes[flat]), flat


# at d = 9 einsum sums |v|^2 in a column-major batch and in a one-path batch
# (row-major) in different orders, and the column-major sum is the larger
V9 = np.random.default_rng(1).standard_normal(9)


@pytest.mark.parametrize("route", [
    "rk4", "exact_scaling", "closed_form", "dense_sigma", "dense_dsigma", "closed_form_dense_sigma",
])
def test_a_paths_flow_does_not_depend_on_its_batch(route):
    # the replay contract of BlowUpError and extract_path: a path flowed
    # alone, or among any other paths, gets the bits it gets in its batch.
    # Each route contracts arrays whose layout numpy may pick by the row
    # count (see the fields and V9). Each path of the 50-path stretch also
    # runs alone: a sub-batch of many paths has the whole batch's layouts.
    field, x0, v = {
        "rk4": (_dense_drift_field(), X3, V3),
        "exact_scaling": (catalog("bounded_multiplicative", 9), np.zeros(9), V9),
        "closed_form": (catalog("additive_identity", 9), np.zeros(9), V9),
        "dense_sigma": (_dense_sigma_field("grad_sigma"), X3, V3),
        "dense_dsigma": (_dense_sigma_field("dsigma"), X3, V3),
        "closed_form_dense_sigma": (_dense_sigma_field("constant"), X3, V3),
    }[route]
    jb = sample_jump_batch(1.5, 0.5, 3e-2, 500, substream(2, engine.PURPOSE_JUMPS, 0))
    dW = engine.sample_mark_batch(jb, x0.size, substream(2, engine.PURPOSE_MARKS, 0))
    whole = flow_batch(x0, v, field, jb, dW, 100, -dW, jb.sizes)
    stretch = np.arange(100, 150)
    for paths in [[p] for p in stretch] + [[0, 499], stretch, np.arange(0, 500, 7)]:
        sub, flat = _sub_batch(jb, paths)
        part = flow_batch(x0, v, field, sub, dW[flat], 100, -dW[flat], sub.sizes)
        for got, want in zip(part, whole):
            assert np.array_equal(got, want[paths])


def test_jump_sampler_sorts_times_and_keeps_sizes_in_draw_order():
    # re-draw the raw arrays from the same stream and sort the times by (path, time)
    alpha, horizon, eps, n = 1.5, 0.7, 2e-2, 300
    jb = sample_jump_batch(alpha, horizon, eps, n, substream(9, engine.PURPOSE_JUMPS, 0))
    rng = substream(9, engine.PURPOSE_JUMPS, 0)
    counts = rng.poisson(horizon * engine.tail_mass(alpha, eps), size=n)
    raw = horizon - rng.uniform(0.0, horizon, size=counts.sum())
    sizes = eps * (1.0 - rng.uniform(size=counts.sum())) ** (-2.0 / alpha)
    order = np.lexsort((raw, np.repeat(np.arange(n), counts)))
    assert np.array_equal(jb.counts, counts)
    assert np.array_equal(jb.times, raw[order])
    assert np.array_equal(jb.sizes, sizes)
