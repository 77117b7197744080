"""Batched engine against the single-path reference implementation."""

import dataclasses
import math

import numpy as np
import pytest

from levygrad import (
    BernsteinSpec,
    ClockSpec,
    JumpPath,
    catalog,
    estimate_gradient,
    substream,
)
from levygrad import engine
from levygrad.engine import (
    BATCH_SIZE,
    JumpBatch,
    first_passage_levels,
    fixed_jump_batch,
    flow_batch,
    map_batches,
    path_cumulatives,
    sample_jump_batch,
    sample_mark_batch,
    weight_terms,
)
from reference import PathRealization, accumulate_weight, simulate_flow


def _sample_setup(n=40, alpha=1.5, t=1.0, eps=0.05, d=2, seed=101):
    jb = sample_jump_batch(alpha, t, eps, n, substream(seed, engine.PURPOSE_JUMPS, 0))
    rng = substream(seed, engine.PURPOSE_MARKS, 0)
    dW = sample_mark_batch(jb, d, rng)
    aux = rng.standard_normal((jb.total, d))
    return jb, dW, aux


def test_batched_flow_and_weights_match_single_path_reference():
    # Same jumps and marks pushed through the vectorized engine and through
    # the plain one-path-at-a-time flow must coincide to roundoff; without its
    # drift_rate hint the field's flow runs RK4, as the reference does.
    field = dataclasses.replace(catalog("bounded_multiplicative", 2), drift_rate=None)
    t, R = 1.0, 1.3
    x0 = np.array([0.4, -0.2])
    v = np.array([1.0, 0.5])
    jb, dW, aux = _sample_setup()
    clock = ClockSpec.cap_at_first_passage(R)
    increments = clock.increments(jb)
    normalizer = increments.normalizer
    dWb = clock.beta_marks(jb.sizes, increments, dW, aux)
    X, Jv, I1, I2, I3 = flow_batch(x0, v, field, jb, dW, 100, dWb, increments.d_beta)

    worst = 0.0
    for i in range(jb.n):
        lo, hi = jb.offsets[i], jb.offsets[i + 1]
        if lo == hi:
            assert I1[i] == 0.0 and I2[i] == 0.0 and I3[i] == 0.0
            continue
        path = jb.extract_path(i)
        real = PathRealization(path, dW[lo:hi], aux[lo:hi])
        snaps = simulate_flow(x0, v, field, real, t, 100)
        w = accumulate_weight(snaps, field, real, clock, t)
        for got, ref in ((I1[i], w.I1), (I2[i], w.I2), (I3[i], w.I3)):
            scale = max(abs(ref), 1.0)
            worst = max(worst, abs(got - ref) / scale)
        worst = max(worst, np.abs(X[i] - snaps[-1].X).max())
        worst = max(worst, np.abs(Jv[i] - snaps[-1].J).max())
        assert normalizer[i] == pytest.approx(w.normalizer, rel=1e-13)
    assert worst <= 1e-11


def test_results_do_not_depend_on_worker_count():
    field = catalog("ou_additive", 2)
    spec = BernsteinSpec.alpha_stable(1.5)
    kw = dict(
        x=np.array([0.2, -0.1]), v=np.array([1.0, 0.0]),
        f=lambda X: np.tanh(X[:, 0]), field=field, spec=spec,
        t=0.5, R="auto", n_paths=2 * BATCH_SIZE + 4464, eps_cut=3e-3, seed=99,
    )
    r1 = estimate_gradient(**kw, workers=1)
    r4 = estimate_gradient(**kw, workers=4)
    assert r1.mean == r4.mean
    assert r1.std_error == r4.std_error
    assert r1.n_rejected == r4.n_rejected
    assert r1.diagnostics == r4.diagnostics


def _per_path_crossings(batch, R):
    """Oracle: flat index of each path's first k with cumsum(sizes)[k] >= R, or -1."""
    out = []
    for i in range(batch.n):
        lo, hi = batch.offsets[i], batch.offsets[i + 1]
        hits = np.flatnonzero(np.cumsum(batch.sizes[lo:hi]) >= R)
        out.append(lo + hits[0] if hits.size else -1)
    return out


def _hand_batch(sizes_per_path):
    counts = np.array([len(p) for p in sizes_per_path], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    times = np.concatenate([np.linspace(0.1, 0.9, c) for c in counts])
    sizes = np.concatenate([np.asarray(p, dtype=float) for p in sizes_per_path])
    return JumpBatch(counts.size, 1.0, counts, offsets, times, sizes)


# sampled paths (eps 0.2 leaves many empty ones), dyadic sizes whose sums hit
# each level exactly, and a last path crossing at its last jump before empty ones
ORACLE_BATCHES = {
    "sampled": lambda: _sample_setup(n=200, eps=0.2, seed=55)[0],
    "exact_levels": lambda: _hand_batch(
        [[0.5, 0.5], [], [0.25, 0.25, 1.0], [1.0], [0.125], [1.5, 0.5]]),
    "final_jump_before_empty": lambda: _hand_batch([[0.25], [0.375, 0.75], [], []]),
}


def test_first_passage_levels_agrees_with_single_path():
    for name, make in ORACLE_BATCHES.items():
        jb = make()
        assert np.any(jb.counts == 0), name
        _, ell_post, _ = path_cumulatives(jb)
        crossed = 0
        for R in (0.3, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 2.5):
            crossing = first_passage_levels(jb, ell_post, R)
            assert crossing.tolist() == _per_path_crossings(jb, R), (name, R)
            crossed += np.count_nonzero(crossing >= 0)
        assert crossed, name


def test_path_cumulatives_agree_with_per_path_sums():
    for name, make in ORACLE_BATCHES.items():
        jb = make()
        _assert_per_path_sums(jb)


def _assert_per_path_sums(jb):
    """Each path's clock values are the floats of np.cumsum over its own sizes."""
    ell_pre, ell_post, ell_T = path_cumulatives(jb)
    for i in range(jb.n):
        lo, hi = jb.offsets[i], jb.offsets[i + 1]
        cum = np.append(0.0, np.cumsum(jb.sizes[lo:hi]))
        assert np.array_equal(ell_post[lo:hi], cum[1:])
        assert np.array_equal(ell_pre[lo:hi], cum[:-1])
        assert ell_T[i] == cum[-1]


@pytest.mark.pin
def test_path_cumulatives_are_each_paths_own_sum():
    # a sum over the whole batch would lose every bit of path 1 to path 0's jump
    _assert_per_path_sums(_hand_batch([[1e38], [0.5, 0.25], [], [0.1, 0.2, 0.3]]))
    _, ell_post, ell_T = path_cumulatives(_hand_batch([[1e38], [0.5, 0.25]]))
    assert ell_post.tolist() == [1e38, 0.5, 0.75] and ell_T.tolist() == [1e38, 0.75]


def test_first_passage_levels_crossing_at_final_jump_before_empty_paths():
    # The last nonempty path crosses only at its very last jump, and empty
    # paths trail it; the reduction must still see that crossing.
    counts = np.array([2, 0, 0])
    offsets = np.array([0, 2, 2, 2])
    jb = JumpBatch(
        n=3, horizon=1.0, counts=counts, offsets=offsets,
        times=np.array([0.2, 0.8]), sizes=np.array([0.4, 0.7]),
    )
    _, ell_post, _ = path_cumulatives(jb)
    crossing = first_passage_levels(jb, ell_post, 1.0)
    assert crossing.tolist() == [1, -1, -1]
    assert ell_post[crossing[0]] == pytest.approx(1.1)


def test_path_cumulatives_tile_exactly():
    jb, _, _ = _sample_setup(n=300, eps=0.02, seed=7)
    ell_pre, ell_post, ell_T = path_cumulatives(jb)
    for i in range(jb.n):
        lo, hi = jb.offsets[i], jb.offsets[i + 1]
        if lo == hi:
            assert ell_T[i] == 0.0
            continue
        assert ell_pre[lo] == 0.0
        # consecutive intervals share their endpoint as the same float
        assert np.array_equal(ell_pre[lo + 1:hi], ell_post[lo:hi - 1])
        assert ell_T[i] == ell_post[hi - 1]
        assert np.all(ell_post[lo:hi] > ell_pre[lo:hi])


def test_extract_path_roundtrip():
    jb, _, _ = _sample_setup(n=50, eps=0.1, seed=13)
    total = 0
    for i in range(jb.n):
        p = jb.extract_path(i)
        assert p.horizon == jb.horizon
        assert p.times.size == jb.counts[i]
        total += p.times.size
        lo, hi = jb.offsets[i], jb.offsets[i + 1]
        assert np.array_equal(p.times, jb.times[lo:hi])
        assert np.array_equal(p.sizes, jb.sizes[lo:hi])
    assert total == jb.total


def test_fixed_jump_batch_tiles_the_path():
    path = JumpPath(horizon=1.0, times=np.array([0.25, 0.8]), sizes=np.array([1.0, 2.0]))
    jb = fixed_jump_batch(path, 0.5, 4)
    assert jb.n == 4
    assert np.all(jb.counts == 1)  # only the first jump happens by t = 0.5
    assert np.array_equal(jb.times, np.full(4, 0.25))
    jb_full = fixed_jump_batch(path, 1.0, 3)
    assert np.all(jb_full.counts == 2)
    assert jb_full.total == 6


def test_mark_batch_law_and_reproducibility():
    jb, dW, aux = _sample_setup(n=4000, eps=0.05, seed=21, d=2)
    z = dW / np.sqrt(jb.sizes)[:, None]
    n = z.size
    assert abs(z.mean()) <= 3.0 / math.sqrt(n)
    assert abs(z.var() - 1.0) <= 3.0 * math.sqrt(2.0 / n)
    assert abs(aux.var() - 1.0) <= 3.0 * math.sqrt(2.0 / n)
    assert abs(np.mean(z * aux)) <= 3.0 / math.sqrt(n)

    _, dW2, aux2 = _sample_setup(n=4000, eps=0.05, seed=21, d=2)
    assert np.array_equal(dW, dW2) and np.array_equal(aux, aux2)


def test_weight_terms_vanish_exactly_for_constant_sigma():
    field = catalog("ou_additive", 2)
    jb, dW, aux = _sample_setup()
    _, _, I1, I2, I3 = flow_batch(np.zeros(2), np.ones(2), field, jb, dW, 50, aux, jb.sizes)
    assert np.all(I2 == 0.0)
    assert np.all(I3 == 0.0)
    assert np.any(I1 != 0.0)
    # without a dir_s there are no trace and jump-measure terms to form, on
    # the (m, d, d) matrices of sigma^{-1} and on the 1/scale of sigma_scale
    j = np.ones((jb.total, 2))
    for s_inv in (np.tile(np.eye(2), (jb.total, 1, 1)), np.ones(jb.total)):
        c1, c2, c3 = weight_terms(s_inv, j, None, dW, aux, jb.sizes)
        assert c2 is None and c3 is None and c1.shape == (jb.total,)


def test_weight_inputs_travel_with_v():
    jb, dW, aux = _sample_setup(n=5)
    field = catalog("bounded_multiplicative", 2)
    x0, v = np.zeros(2), np.ones(2)
    for args in ((v, None, jb.sizes), (v, aux, None), (None, aux, jb.sizes), (None, None, jb.sizes)):
        with pytest.raises(ValueError, match="exactly when v is given"):
            flow_batch(x0, args[0], field, jb, dW, 50, *args[1:])


def test_map_batches_spans_and_order():
    calls = []

    def worker(bi, start, count):
        calls.append((bi, start, count))
        return bi

    n = 2 * BATCH_SIZE + 123
    out = map_batches(n, 1, worker)
    assert out == [0, 1, 2]
    assert [c[2] for c in sorted(calls)] == [BATCH_SIZE, BATCH_SIZE, 123]
    assert [c[1] for c in sorted(calls)] == [0, BATCH_SIZE, 2 * BATCH_SIZE]

    calls.clear()
    out4 = map_batches(n, 4, worker)
    assert out4 == [0, 1, 2]
    assert sorted(c[1] for c in calls) == [0, BATCH_SIZE, 2 * BATCH_SIZE]


def test_jump_batch_sampling_matches_poisson_counts():
    alpha, eps, t = 1.2, 0.1, 0.7
    lam = engine.tail_mass(alpha, eps) * t
    jb = sample_jump_batch(alpha, t, eps, 20_000, substream(3, 1, 0))
    mean = jb.counts.mean()
    se = math.sqrt(lam / jb.n)
    assert abs(mean - lam) <= 3.0 * se
    assert np.all(jb.sizes >= eps)
    # times strictly increase within every path
    d = np.diff(jb.times)
    boundary = np.zeros(jb.total, dtype=bool)
    boundary[jb.offsets[1:-1]] = True
    assert np.all(d[~boundary[1:]] > 0)
