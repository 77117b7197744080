"""The event-driven flow loop, the jvp_b and dsigma hooks and the sort-free jump sampler.

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
from levygrad.coefficients import CATALOG_NAMES
from levygrad.engine import JumpBatch, flow_batch, sample_jump_batch
from reference import FlowState, PathRealization, accumulate_weight, apply_jump, evolve_drift

SPEC = BernsteinSpec.alpha_stable(1.5)
BM = catalog("bounded_multiplicative", 2)
BM3 = catalog("bounded_multiplicative", 3)
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
    "quickstart": ("0x1.e6955b1b3b470p-2", "0x1.966d79a700249p-7"),
    "sign_fine_cut": ("0x1.ca7c4d2bea30ap-1", "0x1.b4b748dabf141p-7"),
    "fd_crn": ("0x1.e31cf45545569p-2", "0x1.4009df9b958aep-9"),
    "fixed_clock_piecewise": ("0x1.ced05ee9c5b6fp-3", "0x1.020be5369b97fp-7"),
    "fixed_clock_cap": ("0x1.c573a2f38eeecp-3", "0x1.a5b676fc3da56p-8"),
    "estimate_pt": ("0x1.2acd635b1a629p-3", "0x1.bc278f5a01a56p-8"),
    "antithetic": ("0x1.f24a063ce23ecp-2", "0x1.7345008e2cd23p-7"),
    "quickstart_d3": ("0x1.e21c18cb42a4ep-2", "0x1.9f53f7a3cf3ffp-7"),
    "quickstart_d4": ("0x1.e298eca3656c4p-2", "0x1.e9e4f66347a40p-7"),
    "fixed_clock_piecewise_d3": ("0x1.d6dd61056c62ap-3", "0x1.1383210f7cb9fp-7"),
    "pythagoras_1d": ("0x1.56b2b8521b9bdp-1", "0x1.1c931eafcefc1p-6"),
}


# SHA-256 (first 32 hex digits) of every per-path sample row (index, f, weight,
# I1, I2, I3, normalizer) as float64 bytes. A mean absorbs last-bit changes
# of single paths; these digests do not.
ROW_DIGESTS = {
    "quickstart": "362e17ced116407d300cd85d192a6a7e",
    "sign_fine_cut": "1181381b7932ceb1f2d9de0207a728f2",
    "fixed_clock_piecewise": "cd6a06c8b6f6a67ef74a26578b117e1a",
    "fixed_clock_cap": "59753dff04fae029e63c89383d266063",
    "antithetic": "3a08a91c654d9cf52782aefa9a23061d",
    "quickstart_d3": "0a6a427e294d97c4bb0ec45ce9e156df",
    "quickstart_d4": "de6f08dfea5c9aef28dbe210362489ee",
    "fixed_clock_piecewise_d3": "87f531fffcd77ea0aff4ba9b9b27ce96",
    "pythagoras_1d": "55258d002930e071f948f24aa392f124",
}


def _bits(result):
    return result.mean.hex(), result.std_error.hex()


def _row_digest(result):
    rows = np.array(result._sample_rows, dtype=float)
    assert rows.shape == (N, 7)
    return hashlib.sha256(rows.tobytes()).hexdigest()[:32]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_estimates_match_pinned_bits(name):
    assert _bits(RUNS[name]()) == PINS[name]


@pytest.mark.parametrize("name", sorted(ROW_DIGESTS))
def test_per_path_samples_match_pinned_digest(name):
    assert _row_digest(RUNS[name](collect_samples=N)) == ROW_DIGESTS[name]


def test_piecewise_pin_reads_the_conditional_mark_part():
    increments = PIECEWISE.increments(engine.fixed_jump_batch(PATH, PATH.horizon, 1))
    _, c = PIECEWISE.mark_law(PATH.sizes, increments)
    assert np.any(c > 0.0)


@pytest.mark.parametrize("name", ["quickstart", "fixed_clock_piecewise", "antithetic"])
def test_field_without_jvp_gives_the_same_bits(name):
    # the grad_b einsum fallback and the direct product are the same floats
    assert BM.jvp_b is not None
    result = RUNS[name](dataclasses.replace(BM, jvp_b=None), collect_samples=N)
    assert _bits(result) == PINS[name]
    assert _row_digest(result) == ROW_DIGESTS[name]


@pytest.mark.parametrize("name, field", [
    ("quickstart", BM), ("antithetic", BM), ("fixed_clock_piecewise", BM), ("quickstart_d3", BM3),
    ("pythagoras_1d", PYTHAGORAS),
])
def test_field_without_dsigma_gives_the_same_bits(name, field):
    # the grad_sigma einsum fallback and the directional hook are the same floats
    assert field.dsigma is not None and not field.sigma_is_constant
    result = RUNS[name](dataclasses.replace(field, dsigma=None), collect_samples=N)
    assert _bits(result) == PINS[name]
    assert _row_digest(result) == ROW_DIGESTS[name]


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
    """Pre-jump states, final state and sup |Jv|^2 of one path via tests/reference.py."""
    state = FlowState.initial(x0, v)
    pre = []
    sup = float(v @ v)
    for s, w in zip(times, dW):
        if s > state.s:
            state = evolve_drift(state, field, state.s, s, max(1, math.ceil((s - state.s) * spu)))
        pre.append(state)
        state = apply_jump(state, field, s, w)
        sup = max(sup, float(state.J @ state.J))
    if t > state.s:
        state = evolve_drift(state, field, state.s, t, max(1, math.ceil((t - state.s) * spu)))
    return pre, state, max(sup, float(state.J @ state.J))


def _weight_inputs(batch, clock, d, seed):
    """Marks, auxiliary normals, beta-weighted marks and clock increments of a batch."""
    rng = np.random.default_rng(seed)
    dW = rng.standard_normal((batch.total, d)) * 0.5
    aux = rng.standard_normal((batch.total, d))
    increments = clock.increments(batch)
    return dW, aux, clock.beta_marks(batch.sizes, increments, dW, aux), increments.d_beta


# On a jump whose clock interval lies inside one piece of beta, the conditional
# mark part c = sqrt(d_lambda - d_beta^2 / d_ell) is the square root of a
# roundoff-sized difference (about 1e-8), taken differently by the engine and
# the reference; the cap clock has no such part.
EDGE_CLOCKS = [(ClockSpec.cap_at_first_passage(0.5), 1e-12), (PIECEWISE, 1e-7)]


@pytest.mark.parametrize("name", ["bounded_multiplicative", "additive_identity"])
def test_event_loop_edge_paths(name):
    # path 0: no jumps; path 1: two jumps tied in time; path 2: a jump tied
    # with path 1's; path 3: a jump exactly at t; path 4: many short gaps.
    # Each path's weight terms read its left limits at the jumps, which the
    # reference weight takes from its own one-path flow.
    field = catalog(name, 2)
    t, spu = 0.8, 50
    times = [[], [0.3, 0.3], [0.3], [0.8], list(np.linspace(0.01, 0.79, 17))]
    counts = np.array([len(p) for p in times])
    offsets = np.concatenate(([0], np.cumsum(counts)))
    flat_times = np.concatenate([np.asarray(p, dtype=float) for p in times])
    sizes = np.full(flat_times.size, 0.2)
    batch = JumpBatch(len(times), t, counts, offsets, flat_times, sizes)
    for clock, rtol in EDGE_CLOCKS:
        dW, aux, dWb, d_beta = _weight_inputs(batch, clock, 2, 3)
        X, Jv, I1, I2, I3, sup_g = flow_batch(X0, V0, field, batch, dW, spu, dWb, d_beta)
        assert I1[0] == I2[0] == I3[0] == 0.0
        for i, path_times in enumerate(times):
            lo, hi = offsets[i], offsets[i + 1]
            pre, final, sup = _reference_path(field, X0, V0, path_times, dW[lo:hi], t, spu)
            np.testing.assert_allclose(X[i], final.X, rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(Jv[i], final.J, rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(sup_g[i], sup, rtol=1e-13)
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
    X, Jv, I1, I2, I3, _ = flow_batch(
        X0, V0, BM, batch, np.empty((0, 2)), 100, np.empty((0, 2)), np.empty(0))
    for I in (I1, I2, I3):
        assert np.array_equal(I, np.zeros(3)) and not np.signbit(I).any()
    _, final, _ = _reference_path(BM, X0, V0, [], [], 1.0, 100)
    assert np.array_equal(X, np.tile(X[0], (3, 1)))
    np.testing.assert_allclose(X[0], final.X, rtol=1e-14)
    np.testing.assert_allclose(Jv[0], final.J, rtol=1e-14)


def test_drift_of_one_row_broadcasts_over_the_paths():
    # a constant b may return one row for the whole batch, as the RK4
    # expressions broadcast it
    b = np.array([1.0, -0.5])
    field = dataclasses.replace(
        catalog("additive_identity", 2), b=lambda t, x: b, jvp_b=None, drift_is_zero=False)
    batch = JumpBatch(3, 1.0, np.zeros(3, dtype=np.int64), np.zeros(4, dtype=np.int64),
                      np.empty(0), np.empty(0))
    X, Jv, *_ = flow_batch(X0, V0, field, batch, np.empty((0, 2)), 100, np.empty((0, 2)), np.empty(0))
    assert np.array_equal(X, np.tile(X[0], (3, 1))) and np.array_equal(Jv, np.tile(V0, (3, 1)))
    np.testing.assert_allclose(X[0], X0 + b, rtol=1e-14)


def test_full_width_and_gathered_passes_agree_bitwise(monkeypatch):
    jb = sample_jump_batch(1.5, 0.5, 3e-3, 500, substream(2, engine.PURPOSE_JUMPS, 0))
    dW = engine.sample_mark_batch(jb, 2, substream(2, engine.PURPOSE_MARKS, 0))
    outs = []
    for share in (0.0, 2.0):  # every pass full width; every pass on gathered rows
        monkeypatch.setattr(engine, "FULL_WIDTH_SHARE", share)
        outs.append(flow_batch(X0, V0, BM, jb, dW, 100, -dW, jb.sizes))
    for a, b in zip(*outs):
        assert np.array_equal(a, b)


def test_jump_sampler_order_is_the_stable_path_time_sort():
    # re-draw the raw arrays from the same stream and sort them by (path, time)
    alpha, horizon, eps, n = 1.5, 0.7, 2e-2, 300
    jb = sample_jump_batch(alpha, horizon, eps, n, substream(9, engine.PURPOSE_JUMPS, 0))
    rng = substream(9, engine.PURPOSE_JUMPS, 0)
    counts = rng.poisson(horizon * engine.tail_mass(alpha, eps), size=n)
    raw = horizon - rng.uniform(0.0, horizon, size=counts.sum())
    sizes = eps * (1.0 - rng.uniform(size=counts.sum())) ** (-2.0 / alpha)
    order = np.lexsort((raw, np.repeat(np.arange(n), counts)))
    assert np.array_equal(jb.counts, counts)
    assert np.array_equal(jb.times, raw[order])
    assert np.array_equal(jb.sizes, sizes[order])
