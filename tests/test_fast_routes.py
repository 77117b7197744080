"""The grouped jump sort and the jump rounds at drift_rate 0, bit for bit,
and the exact flow of a linear drift.

sample_jump_batch sorts each path's times, the paths of one jump count
together, and leaves the sizes in draw order. flow_batch runs a field with drift_rate 0
(b == 0) in jump rounds that scale nothing between jumps. Both promise the
floats of another route: a stable lexsort of the times by (path, time)
with the sizes in draw order and tied times merged, and the RK4 rounds of
the same field without the hint (the jump rounds with RK4 segments between
jumps), which step b = 0 and name the same path of a blow-up. The rounds at
r = 0 give the RK4 rounds' bits but one: a path that never jumps keeps a
-0.0 start coordinate in them, where an RK4 step turns it into +0.0. A field with a nonzero drift_rate r is
scaled by exp(-r h) between jumps; that promises the flow of b = -r x,
which RK4 at fine steps and, on ou_additive, the Gaussian sum approach.
"""

import dataclasses
import math

import numpy as np
import pytest

from levygrad import BlowUpError, CoefficientField, catalog, substream
from levygrad import engine
from levygrad.engine import JumpBatch, flow_batch, sample_jump_batch

pytestmark = pytest.mark.pin


class FixedDraws:
    """A generator stand-in that hands the sampler fixed draws, in its draw order:
    the Poisson counts, then the time uniforms, then the size uniforms."""

    def __init__(self, counts, time_draws, size_draws):
        self.counts = np.asarray(counts, dtype=np.int64)
        self.uniforms = [np.asarray(time_draws, dtype=float), np.asarray(size_draws, dtype=float)]

    def poisson(self, lam, size):
        assert size == self.counts.size
        return self.counts.copy()

    def random(self, size=None, out=None):
        u = self.uniforms.pop(0)
        if out is None:
            assert u.size == size
            return u.copy()
        out[...] = u
        return out


def _reference_batch(counts, time_draws, size_draws, horizon, alpha, eps):
    """Each path's times by a stable (path, time) lexsort, its sizes in draw order,
    and float-identical times within a path merged, their sizes added in draw order."""
    raw = horizon - horizon * np.asarray(time_draws, dtype=float)
    drawn = eps * (1.0 - np.asarray(size_draws, dtype=float)) ** (-2.0 / alpha)
    ordered = raw[np.lexsort((raw, np.repeat(np.arange(len(counts)), counts)))]
    offsets = np.concatenate(([0], np.cumsum(counts)))
    out_counts, times, sizes = [], [], []
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        k = 0
        for s, size in zip(ordered[lo:hi], drawn[lo:hi]):
            if k and s == times[-1]:
                sizes[-1] += size
            else:
                times.append(s)
                sizes.append(size)
                k += 1
        out_counts.append(k)
    return np.array(out_counts, dtype=np.int64), np.array(times), np.array(sizes)


def _assert_sampler_matches_reference(counts, time_draws, size_draws, horizon=1.0):
    alpha, eps = 1.5, 0.01
    draws = FixedDraws(counts, time_draws, size_draws)
    jb = sample_jump_batch(alpha, horizon, eps, len(counts), draws)
    ref_counts, ref_times, ref_sizes = _reference_batch(
        counts, time_draws, size_draws, horizon, alpha, eps)
    assert np.array_equal(jb.counts, ref_counts)
    assert np.array_equal(jb.offsets, np.concatenate(([0], np.cumsum(ref_counts))))
    assert np.array_equal(jb.times, ref_times)
    assert np.array_equal(jb.sizes, ref_sizes)
    return jb


def test_sampler_ties_within_and_across_paths():
    # path 0 empty; path 1: a 2-way and a 3-way tie; path 2 empty; path 3
    # starts with path 1's last time and ends with path 4's only time, which
    # path 4 draws twice: only the tie within path 4 merges; path 5 empty
    draws = [
        [],
        [0.5, 0.25, 0.5, 0.75, 0.25, 0.1, 0.25],
        [],
        [0.05, 0.1],
        [0.05, 0.05],
        [],
    ]
    counts = [len(p) for p in draws]
    time_draws = np.concatenate([np.asarray(p, dtype=float) for p in draws])
    size_draws = np.linspace(0.05, 0.9, time_draws.size)
    jb = _assert_sampler_matches_reference(counts, time_draws, size_draws)
    assert list(jb.counts) == [0, 4, 0, 2, 1, 0]
    assert list(jb.times) == [1 - 0.75, 1 - 0.5, 1 - 0.25, 1 - 0.1, 1 - 0.1, 1 - 0.05, 1 - 0.05]
    # a path's k-th jump in time takes its k-th size drawn, and a merged size
    # is the sum in draw order of the sizes at the tied positions
    r = 0.01 * (1.0 - size_draws) ** (-2.0 / 1.5)
    assert list(jb.sizes) == [r[0], r[1] + r[2], r[3] + r[4] + r[5], r[6], r[7], r[8], r[9] + r[10]]


@pytest.mark.parametrize("n", [1, 2, 5, 4095, 4096, 4097, 8195])
@pytest.mark.parametrize("draws", ["continuous", "grid", "tie_in_last_block"])
def test_sampler_block_boundaries(n, draws):
    rng = np.random.default_rng(n)
    counts = rng.poisson(6.0, size=n)
    counts[rng.uniform(size=n) < 0.1] = 0
    if draws == "tie_in_last_block":
        counts[-1] = max(counts[-1], 2)
    total = int(counts.sum())
    if draws == "grid":
        # 1/64 steps: nearly every count's group holds exact ties
        time_draws = rng.integers(0, 64, size=total) / 64.0
    else:
        time_draws = rng.uniform(size=total)
    if draws == "tie_in_last_block":
        # one tie, in the last path, so only that path merges
        time_draws[-1] = time_draws[-2]
    _assert_sampler_matches_reference(counts, time_draws, rng.uniform(size=total))


def _random_draws(counts):
    rng = np.random.default_rng(len(counts))
    return [rng.uniform(size=c) for c in counts]


# Each path's time uniforms (a time is 1 - u at horizon 1), and the counts
# after merging. The sort takes the paths of one count together.
SORT_EDGE_CASES = {
    "every_count_equal": (_random_draws([6] * 50), [6] * 50),
    "every_count_zero_or_one": (_random_draws([0, 1, 1, 0, 1, 0, 0, 1]), [0, 1, 1, 0, 1, 0, 0, 1]),
    "one_long_path_among_empty_ones": (_random_draws([0, 0, 0, 500, 0, 0]), [0, 0, 0, 500, 0, 0]),
    # path 1 draws 0.3 twice: the tie merges
    "in_path_tie": ([[0.2, 0.9, 0.5], [0.3, 0.7, 0.3], [0.6, 0.1, 0.4]], [3, 2, 3]),
    # path 0 ends at 1 - 0.3, where path 1, of the same count, starts: no merge
    "equal_time_across_adjacent_paths": ([[0.3, 0.8, 0.5], [0.1, 0.3, 0.2], [0.6, 0.4, 0.7]], [3, 3, 3]),
}


@pytest.mark.parametrize("case", sorted(SORT_EDGE_CASES))
def test_sampler_sort_edge_cases(case):
    draws, merged_counts = SORT_EDGE_CASES[case]
    time_draws = np.concatenate([np.asarray(p, dtype=float) for p in draws])
    jb = _assert_sampler_matches_reference([len(p) for p in draws], time_draws,
                                           np.linspace(0.05, 0.9, time_draws.size))
    assert list(jb.counts) == merged_counts


@pytest.mark.parametrize("n", [1, 4097, 8195])
def test_sampler_stream_sorts_times_and_keeps_sizes_in_draw_order(n):
    # re-draw the raw arrays from the same stream and sort the times by (path, time)
    alpha, horizon, eps = 1.5, 0.6, 2e-2
    jb = sample_jump_batch(alpha, horizon, eps, n, substream(21, engine.PURPOSE_JUMPS, 0))
    rng = substream(21, engine.PURPOSE_JUMPS, 0)
    counts = rng.poisson(horizon * engine.tail_mass(alpha, eps), size=n)
    raw = horizon - rng.uniform(0.0, horizon, size=counts.sum())
    sizes = eps * (1.0 - rng.uniform(size=counts.sum())) ** (-2.0 / alpha)
    order = np.lexsort((raw, np.repeat(np.arange(n), counts)))
    assert np.array_equal(jb.counts, counts)
    assert np.array_equal(jb.times, raw[order])
    assert np.array_equal(jb.sizes, sizes)


# ---------------------------------------------------------------------------
# the jump rounds at r = 0 against the RK4 rounds of the field without the hint


def _time_dependent_sigma_field(d):
    """b == 0 and a non-diagonal sigma that depends on t only, with its dense inverse.

    The inverse has no exact zeros, so the weight's sigma^{-1} J v sums each
    row in full: einsum takes d > 2 terms in an order that follows the
    layout of J v, and the two routes must hand it the same layout.
    """
    base = np.eye(d) + 0.3 * np.triu(np.ones((d, d)), 1) - 0.2 * np.tril(np.ones((d, d)), -1)
    base_inv = np.linalg.inv(base)

    def sigma(t, x):
        t = np.asarray(t, dtype=float)
        return (1.0 + t)[..., None, None] * base

    def sigma_inv(t, x):
        t = np.asarray(t, dtype=float)
        return (1.0 / (1.0 + t))[..., None, None] * base_inv

    zero = catalog("additive_identity", d)
    return CoefficientField(
        dimension=d, b=zero.b, grad_b=zero.grad_b, sigma=sigma, grad_sigma=zero.grad_sigma,
        sigma_inv=sigma_inv, drift_rate=0.0, sigma_is_constant=True,
        jvp_b=zero.jvp_b, name="time_dependent_sigma",
    )


def _edge_batch(n_extra):
    """Empty paths and one-jump paths ahead of n_extra sampled paths."""
    handmade = [[], [0.4], [], [0.2, 0.2], [0.7]]
    sampled = sample_jump_batch(1.5, 1.0, 5e-3, n_extra, substream(8, engine.PURPOSE_JUMPS, 0))
    counts = np.concatenate(([len(p) for p in handmade], sampled.counts)).astype(np.int64)
    times = np.concatenate([np.asarray(p, dtype=float) for p in handmade] + [sampled.times])
    sizes = np.concatenate((np.full(4, 0.3), sampled.sizes))
    offsets = np.concatenate(([0], np.cumsum(counts)))
    return JumpBatch(counts.size, 1.0, counts, offsets, times, sizes)


def _weight_inputs(v, batch, dW):
    """(dWb, d_beta) for a run with direction v, an empty tuple without one."""
    if v is None:
        return ()
    return 0.5 * dW[:, ::-1] + 0.25, batch.sizes


def _both_routes(field, x0, v, batch, dW):
    weight = _weight_inputs(v, batch, dW)
    rounds = flow_batch(x0, v, field, batch, dW, 50, *weight)
    rk4 = flow_batch(
        x0, v, dataclasses.replace(field, drift_rate=None), batch, dW, 50, *weight
    )
    return rounds, rk4


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("field_name", ["additive_identity", "time_dependent_sigma"])
@pytest.mark.parametrize("with_v", [True, False])
@pytest.mark.parametrize("n_extra", [0, 300, 4098])
def test_rounds_at_zero_rate_equal_the_rk4_rounds(d, field_name, with_v, n_extra):
    # the RK4 rounds step b = 0, which adds exact zeros
    if field_name == "additive_identity":
        field = catalog(field_name, d)
    else:
        field = _time_dependent_sigma_field(d)
    batch = _edge_batch(n_extra)
    dW = engine.sample_mark_batch(batch, d, substream(8, engine.PURPOSE_MARKS, 0))
    rng = np.random.default_rng(d)
    x0 = rng.standard_normal(d)
    x0[0] = -0.0  # an empty path must keep its signed zero
    v = rng.standard_normal(d) if with_v else None
    rounds, rk4 = _both_routes(field, x0, v, batch, dW)
    assert rounds[0].shape == (batch.n, d)
    for got, want in zip(rounds, rk4):
        if want is None:
            assert got is None
            continue
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    assert np.signbit(rounds[0][0, 0])
    if not with_v:
        assert rounds[2] is None and rk4[2] is None
    else:
        assert np.any(rounds[2] != 0.0)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("with_v", [True, False])
def test_rk4_rounds_turn_a_never_jumping_paths_negative_zero_positive(d, with_v):
    # the one bit the rounds at r = 0 do not share with the RK4 rounds: on a
    # path that never jumps, RK4 adds h/6 times b = 0 to a -0.0 start
    # coordinate, which gives +0.0, while the rounds leave it as it is; a
    # jump's x + scale dw overwrites the start on both routes
    field = catalog("additive_identity", d)
    batch = _edge_batch(0)
    dW = engine.sample_mark_batch(batch, d, substream(8, engine.PURPOSE_MARKS, 0))
    rounds, rk4 = _both_routes(field, np.full(d, -0.0), np.ones(d) if with_v else None, batch, dW)
    still = batch.counts == 0
    assert still.any() and not still.all()
    assert np.array_equal(rounds[0], rk4[0])
    assert np.all(np.signbit(rounds[0][still])) and not np.any(np.signbit(rk4[0][still]))
    assert np.array_equal(np.signbit(rounds[0][~still]), np.signbit(rk4[0][~still]))
    for got, want in zip(rounds[1:], rk4[1:]):
        assert (got is None and want is None) or got.tobytes() == want.tobytes()


def test_rounds_at_zero_rate_match_the_rk4_rounds_in_high_dimension():
    # at d = 9 einsum sums a row of a column-major and of a row-major array
    # in different orders, as it does for this v; the rounds at r = 0 must
    # still give the RK4 rounds' bits
    d = 9
    v = np.random.default_rng(1).standard_normal(d)
    rows = np.tile(v, (5, 1))
    cols = np.asfortranarray(rows)
    assert np.einsum("mi,mi->m", rows, rows)[0] != np.einsum("mi,mi->m", cols, cols)[0]
    batch = _edge_batch(50)
    dW = engine.sample_mark_batch(batch, d, substream(8, engine.PURPOSE_MARKS, 0))
    rounds, rk4 = _both_routes(catalog("additive_identity", d), np.zeros(d), v, batch, dW)
    for got, want in zip(rounds, rk4):
        assert np.array_equal(got, want)


def _blow_up(field, x0, v, batch, dW):
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError) as info:
        flow_batch(x0, v, field, batch, dW, 50, *_weight_inputs(v, batch, dW))
    return info.value.s, info.value.path


@pytest.mark.parametrize("with_v", [True, False])
def test_blow_up_names_the_same_time_and_path(with_v):
    # path 0 overflows at its 3rd jump, paths 2 and 3 at their 2nd, path 4
    # never: both routes stop in round 1, at its lowest path (2). Path
    # 4097, far down the batch, overflows in round 1 too.
    huge = 1e308
    plan = {0: [0.0, 0.0, huge], 1: [0.0], 2: [0.0, huge, 0.0], 3: [1.0, huge], 4: [0.0, 0.0],
            4097: [0.0, huge]}
    n = 4099
    counts = np.zeros(n, dtype=np.int64)
    for i, marks in plan.items():
        counts[i] = len(marks)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    times = np.concatenate([np.linspace(0.1, 0.9, c) for c in counts])
    batch = JumpBatch(n, 1.0, counts, offsets, times, np.full(times.size, 0.1))
    dW = np.zeros((times.size, 2))
    for i, marks in plan.items():
        dW[offsets[i]:offsets[i + 1], 1] = marks
    field = catalog("additive_identity", 2)
    rk4_field = dataclasses.replace(field, drift_rate=None)
    x0 = np.array([0.0, 1.7e308])
    v = np.array([1.0, 0.0]) if with_v else None
    rounds = _blow_up(field, x0, v, batch, dW)
    assert rounds == _blow_up(rk4_field, x0, v, batch, dW)
    assert rounds == (times[offsets[2] + 1], 2)


@pytest.mark.parametrize("with_v", [True, False])
def test_rk4_segments_blow_up_in_the_earliest_round(with_v):
    # one rule for every field: the earliest round wins, and within a round
    # its RK4 substeps come before its jumps. Path 0 overflows at its only
    # jump (0.9, round 0), path 1 at its 2nd (0.02, round 1), so a field
    # without the hint names path 0 at 0.9, as the hinted rounds do, although
    # path 1 reaches its bad jump after fewer RK4 substeps
    batch = JumpBatch(2, 1.0, np.array([1, 2]), np.array([0, 1, 3]), np.array([0.9, 0.01, 0.02]),
                      np.full(3, 0.1))
    dW = np.array([[1e308], [0.0], [1e308]])
    field = catalog("additive_identity", 1)
    x0, v = np.array([1.7e308]), np.ones(1) if with_v else None
    hinted = _blow_up(field, x0, v, batch, dW)
    assert _blow_up(dataclasses.replace(field, drift_rate=None), x0, v, batch, dW) == hinted == (0.9, 0)


def test_blow_up_parity_on_a_sampled_batch():
    # near the float range every path's walk may overflow, in any round. The
    # rounds at r = 0 name the first bad jump round's lowest path, as the
    # same rounds with a state-dependent sigma do; with drift a round's RK4
    # substeps run before its jumps and may overflow another path first.
    field = catalog("additive_identity", 1)
    twin = dataclasses.replace(field, sigma_is_constant=False)
    x0, v = np.array([1.7e308]), np.ones(1)
    for seed in range(3, 13):
        batch = sample_jump_batch(1.5, 1.0, 1e-2, 500, substream(seed, engine.PURPOSE_JUMPS, 0))
        with np.errstate(over="ignore"):
            dW = 3e306 * engine.sample_mark_batch(batch, 1, substream(seed, engine.PURPOSE_MARKS, 0))
        assert _blow_up(field, x0, v, batch, dW) == _blow_up(twin, x0, v, batch, dW), seed


def test_non_finite_v_stops_at_the_first_jump_round():
    # the rounds at r = 0 stop in their first jump round, at the first path
    # with a jump (path 0 has none).
    # (The RK4 rounds of a field with drift stop earlier, at the end of
    # round 0's first RK4 substep of J v.)
    batch = _edge_batch(20)
    dW = engine.sample_mark_batch(batch, 1, substream(8, engine.PURPOSE_MARKS, 0))
    field = catalog("additive_identity", 1)
    assert _blow_up(field, np.zeros(1), np.array([np.nan]), batch, dW) == (0.4, 1)


# ---------------------------------------------------------------------------
# the exact flow of a linear drift b = -r x between jumps (drift_rate = r)


def _sampled_batch(d, seed, n=300, t=0.5):
    batch = sample_jump_batch(1.5, t, 3e-3, n, substream(seed, engine.PURPOSE_JUMPS, 0))
    return batch, engine.sample_mark_batch(batch, d, substream(seed, engine.PURPOSE_MARKS, 0))


@pytest.mark.parametrize("name, d", [("bounded_multiplicative", 2), ("bounded_multiplicative", 3),
                                     ("ou_additive", 2)])
def test_exact_linear_flow_matches_fine_rk4(name, d):
    # RK4 at 1000 substeps per unit is within about 1e-15 of the exact flow here
    field = catalog(name, d)
    for seed in (4, 5):
        batch, dW = _sampled_batch(d, seed)
        rng = np.random.default_rng(seed)
        x0, v = rng.standard_normal(d), rng.standard_normal(d)
        weight = _weight_inputs(v, batch, dW)
        exact = flow_batch(x0, v, field, batch, dW, 1000, *weight)
        rk4 = flow_batch(x0, v, dataclasses.replace(field, drift_rate=None), batch, dW, 1000, *weight)
        for got, want in zip(exact, rk4):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())


def test_exact_ou_flow_is_the_gaussian_sum():
    # on ou_additive X_t = e^-t x + sum_i e^-(t - tau_i) dW_i and J v = e^-t v
    d, t = 2, 0.5
    batch, dW = _sampled_batch(d, 6, t=t)
    x0, v = np.array([0.7, -1.2]), np.array([1.0, 0.5])
    X, Jv, *_ = flow_batch(x0, v, catalog("ou_additive", d), batch, dW, 100, *_weight_inputs(v, batch, dW))
    path = np.repeat(np.arange(batch.n), batch.counts)
    terms = np.exp(-(t - batch.times))[:, None] * dW

    def per_path(a):
        return np.stack([np.bincount(path, weights=a[:, i], minlength=batch.n) for i in range(d)], axis=1)

    # the bound is relative to the sum of the terms' magnitudes
    assert np.all(np.abs(X - (math.exp(-t) * x0 + per_path(terms)))
                  <= 1e-13 * (math.exp(-t) * np.abs(x0) + per_path(np.abs(terms))))
    np.testing.assert_allclose(Jv, np.tile(math.exp(-t) * v, (batch.n, 1)), rtol=1e-13)


def _growing_field(rate):
    """ou_additive in d = 1 with b = -rate x, hinted so."""
    return dataclasses.replace(
        catalog("ou_additive", 1), drift_rate=rate, b=lambda t, x: -rate * np.asarray(x, dtype=float),
        jvp_b=lambda t, x, u: -rate * np.asarray(u, dtype=float),
        grad_b=lambda t, x: np.full(np.shape(x) + (1,), -rate),
    )


def _batch_of(paths, t):
    counts = np.array([len(p) for p in paths], dtype=np.int64)
    times = np.concatenate([np.asarray(p, dtype=float) for p in paths])
    return JumpBatch(len(paths), t, counts, np.concatenate(([0], np.cumsum(counts))), times,
                     np.full(times.size, 0.1))


@pytest.mark.parametrize("with_v", [True, False])
def test_growth_past_the_float_range_names_the_path_and_time(with_v):
    # x grows by e^(10 s) from 1e307: past the float range after s = 0.289
    field, x0 = _growing_field(-10.0), np.array([1e307])
    v = np.ones(1) if with_v else None
    # in a jump round: path 1's left limit at 0.3 overflows, path 2's at 0.25 does not
    batch = _batch_of([[0.2], [0.3], [0.25, 0.5]], 1.0)
    assert _blow_up(field, x0, v, batch, np.zeros((batch.total, 1))) == (0.3, 1)
    # at t: path 0's jump at 0.1 cancels its state exactly, path 1 has no jump
    batch = _batch_of([[0.1], []], 0.5)
    dW = np.array([[-(1e307 * math.exp(10.0 * 0.1))]])
    assert _blow_up(field, x0, v, batch, dW) == (0.5, 1)
