"""Row blocks of at most JUMP_BLOCK jumps, bit for bit against whole batches.

Each estimator's worker runs a batch one row block at a time
(engine.over_row_blocks): a stable clock draws each block's times, sizes
and marks where they sit in the whole batch's draw (engine.sample_row_blocks,
after the batch's Poisson counts), and the flow, which evaluates the cap
clock as it applies each jump (a piecewise clock's increments and
beta-weighted marks are formed ahead of it), runs on the block before the
next one is drawn; a fixed path is drawn whole and cut into blocks. The block draws must
concatenate to the whole draw byte for byte, and each operation on a block
is per path, so every jump budget must give the bits of an unbounded one:
the same to_dict() bytes and the same sample rows, at one worker and at two.
The budgets 1 (every path a block of its own, empty paths folded into their
neighbours) and 37 (blocks of several paths) are compared with a budget that
no batch reaches. A blow-up in a block draws and re-flows the whole batch,
so the error names the (s, path, batch) of an unblocked run. The peak
memory of one fine-cut batch and of one quickstart batch is bounded, since
bounding it is what the blocks are for.
"""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from levygrad import (
    BernsteinSpec,
    BlowUpError,
    ClockSpec,
    JumpPath,
    catalog,
    default_level_R,
    estimate_gradient,
    estimate_gradient_fixed_clock,
    estimate_pt,
    fd_gradient,
    make_observable,
    substream,
)
from levygrad import engine
from levygrad.engine import (JumpBatch, over_row_blocks, sample_jump_batch, sample_mark_batch,
                             sample_row_blocks)

SPEC = BernsteinSpec.alpha_stable(1.5)
BM = catalog("bounded_multiplicative", 2)
TANH = make_observable("tanh1")
X0, V0 = np.array([0.3, 0.0]), np.array([1.0, 0.5])
PATH = JumpPath(1.0, np.array([0.1, 0.35, 0.6, 0.9]), np.array([0.4, 0.8, 0.3, 0.5]))
# kinks inside PATH's clock intervals: c > 0, so each block reads its auxiliary normals
PIECEWISE = ClockSpec.piecewise_linear([[0.0, 0.0], [0.5, 0.2], [1.0, 1.1], [3.0, 1.5]])
UNBOUNDED = 1 << 62
N = 150
# small batches, so that two workers share a run's batches
BATCH = 64

RUNS = {
    "cap": lambda **kw: estimate_gradient(
        X0, V0, TANH, BM, SPEC, 0.5, "auto", N, 3e-3, 318, collect_samples=N, **kw),
    "cap_antithetic": lambda **kw: estimate_gradient(
        X0, V0, TANH, BM, SPEC, 0.5, "auto", N, 3e-3, 7, antithetic=True, collect_samples=N, **kw),
    # RK4 passes, with the drift's Jacobian term
    "cap_rk4": lambda **kw: estimate_gradient(
        X0, V0, TANH, dataclasses.replace(BM, drift_rate=None), SPEC, 0.5, "auto", N, 3e-2, 5,
        collect_samples=N, **kw),
    # jump rounds at r = 0 with constant sigma
    "cap_sign": lambda **kw: estimate_gradient(
        np.zeros(1), np.ones(1), make_observable("sign"), catalog("additive_identity", 1), SPEC,
        1.0, "auto", N, 1e-2, 303, collect_samples=N, **kw),
    "fixed_clock_piecewise": lambda **kw: estimate_gradient_fixed_clock(
        X0, V0, TANH, BM, PATH, PIECEWISE, 0.95, N, 16, collect_samples=N, **kw),
    "estimate_pt": lambda **kw: estimate_pt(X0, TANH, BM, SPEC, 0.5, N, 13, eps_cut=3e-3, **kw),
    "fd_gradient": lambda **kw: fd_gradient(
        X0, V0, TANH, BM, SPEC, 0.5, 5e-3, N, 319, eps_cut=3e-3, **kw),
}


def _run(monkeypatch, name, budget, workers):
    monkeypatch.setattr(engine, "BATCH_SIZE", BATCH)
    monkeypatch.setattr(engine, "JUMP_BLOCK", budget)
    result = RUNS[name](workers=workers)
    return json.dumps(result.to_dict(), sort_keys=True), result.sample_rows


def test_blocks_tile_the_batch_within_the_budget(monkeypatch):
    batch = sample_jump_batch(1.5, 0.3, 3e-2, 200, substream(3, engine.PURPOSE_JUMPS, 0))
    assert np.any(batch.counts == 0) and batch.counts.max() > 1
    dW = np.arange(2.0 * batch.total).reshape(batch.total, 2)
    for budget in (1, 37):
        monkeypatch.setattr(engine, "JUMP_BLOCK", budget)
        blocks = list(engine._row_blocks(batch, dW))
        for block, dW_block in blocks:
            assert block.offsets[0] == 0 and block.total == dW_block.shape[0]
            assert np.array_equal(block.offsets, np.concatenate(([0], np.cumsum(block.counts))))
            assert block.total <= budget or block.n == 1
        for name in ("counts", "times", "sizes"):
            assert np.array_equal(np.concatenate([getattr(b, name) for b, _ in blocks]),
                                  getattr(batch, name))
        assert np.array_equal(np.concatenate([w for _, w in blocks]), dW)
        # every per-jump array is handed over in its block's rows, a None as is
        seen = []

        def stage(block, w, sizes, none):
            seen.append((w, sizes, none))
            assert w.shape[0] == block.total and np.array_equal(sizes, 2.0 * block.sizes)
            return (block.counts,)

        # a draw that yields the batch whole is cut to the budget
        (counts,) = over_row_blocks(lambda budget: iter([(batch, dW, 2.0 * batch.sizes, None)]), stage)
        assert len(seen) == len(blocks) > 1 and all(none is None for *_, none in seen)
        assert np.array_equal(np.concatenate([w for w, *_ in seen]), dW)
        assert np.array_equal(counts, batch.counts)
    # a batch within the budget is handed over whole
    monkeypatch.setattr(engine, "JUMP_BLOCK", batch.total)
    whole = over_row_blocks(lambda budget: iter([(batch, dW)]), lambda block, w: (block, w))
    assert whole == (batch, dW)


def _streams(seed):
    return substream(seed, engine.PURPOSE_JUMPS, 0), substream(seed, engine.PURPOSE_MARKS, 0)


def _blocks(n, d, budget):
    """sample_row_blocks at seed 12; at d = 0 it is handed no marks stream, which it must not read."""
    jumps, marks = _streams(12)
    return sample_row_blocks(1.5, 1.0, 2e-4, n, jumps, marks if d else None, d, budget)


@pytest.mark.parametrize("budget", [1, 37, engine.JUMP_BLOCK])
@pytest.mark.parametrize("d", [0, 1, 3])
def test_block_draws_concatenate_to_the_whole_draw(budget, d):
    # eps = 2e-4 puts about 164 jumps on a path, more than budgets 1 and 37
    # hold; 4,000 paths hold more than JUMP_BLOCK jumps. d = 0 (levygrad
    # sample-subordinator) draws no marks
    n = 4000 if budget == engine.JUMP_BLOCK else 60
    ((whole, marks),) = _blocks(n, d, math.inf)
    # sample_jump_batch and sample_mark_batch draw the batch whole as its one block
    jumps, rng = _streams(12)
    alone = sample_jump_batch(1.5, 1.0, 2e-4, n, jumps)
    for name in ("counts", "offsets", "times", "sizes"):
        assert getattr(alone, name).tobytes() == getattr(whole, name).tobytes()
    assert marks is None if d == 0 else sample_mark_batch(alone, d, rng).tobytes() == marks.tobytes()
    # each block is a view of one buffer until the next is drawn, so copy it
    counts, offsets, times, sizes, block_marks = zip(*(
        (b.counts.copy(), b.offsets.copy(), b.times.copy(), b.sizes.copy(), w if w is None else w.copy())
        for b, w in _blocks(n, d, budget)))
    totals = [int(o[-1]) for o in offsets]
    assert len(totals) > 1
    assert all(m <= budget or c.size == 1 for m, c in zip(totals, counts))
    assert any(m > budget for m in totals) == (budget < engine.JUMP_BLOCK)
    starts = np.cumsum([0] + totals[:-1])
    joined = np.concatenate([[0]] + [o[1:] + s for o, s in zip(offsets, starts)])
    assert joined.tobytes() == whole.offsets.tobytes()
    for name, parts in (("counts", counts), ("times", times), ("sizes", sizes)):
        assert np.concatenate(parts).tobytes() == getattr(whole, name).tobytes(), name
    if d == 0:
        assert all(w is None for w in block_marks)
    else:
        assert np.concatenate(block_marks).tobytes() == marks.tobytes()


@pytest.mark.parametrize("k", range(13))
def test_a_skipped_stream_stands_k_outputs_on(k):
    # every position in Philox's 4-output block: 0-3 doubles drawn before
    for drawn in range(4):
        rng = substream(5, engine.PURPOSE_JUMPS, 0)
        rng.random(drawn)
        ahead = engine._skipped(rng, k)
        rng.random(k)
        assert ahead.random(9).tobytes() == rng.random(9).tobytes()


@pytest.mark.parametrize("name", sorted(RUNS))
@pytest.mark.parametrize("workers", [1, 2])
def test_blocked_runs_match_the_unbounded_budget(monkeypatch, name, workers):
    whole = _run(monkeypatch, name, UNBOUNDED, workers)
    for budget in (1, 37):
        assert _run(monkeypatch, name, budget, workers) == whole, budget


def _growing_field():
    """bounded_multiplicative in d = 1 with b = +10 x, hinted so: from 1e307 a
    state leaves the float range after s = 0.289."""
    field = catalog("bounded_multiplicative", 1)
    return dataclasses.replace(
        field, drift_rate=-10.0, b=lambda t, x: 10.0 * np.asarray(x, dtype=float),
        jvp_b=lambda t, x, u: 10.0 * np.asarray(u, dtype=float),
        grad_b=lambda t, x: np.full(np.shape(x) + (1,), 10.0),
    )


def _blow_up(monkeypatch, budget, run):
    monkeypatch.setattr(engine, "BATCH_SIZE", BATCH)
    monkeypatch.setattr(engine, "JUMP_BLOCK", budget)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError) as info:
        run()
    return info.value.s, info.value.path, info.value.batch


def test_blow_up_in_a_block_names_the_unblocked_path(monkeypatch):
    # a path whose first jump comes after s = 0.289 overflows in the first
    # jump round; one that jumps before it, only in a later round. A block of
    # early jumpers alone would stop at a later round, on one of its own paths.
    def run():
        estimate_gradient(np.array([1e307]), np.ones(1), TANH, _growing_field(), SPEC, 1.0, 5.0,
                          N, 1e-2, 4)

    whole = _blow_up(monkeypatch, UNBOUNDED, run)
    assert whole[2] == 0 and whole[1] > 0
    for budget in (1, 37):
        assert _blow_up(monkeypatch, budget, run) == whole, budget


def test_blow_up_on_the_auxiliary_normals_names_the_unblocked_path(monkeypatch):
    # sigma^{-1} = 1e308 with J v = 0.6: a jump's weight term overflows once
    # |dW^beta| > 3, which the auxiliary normals decide at the second jump, so
    # the whole batch's re-flow must read the batch's own normals, not a block's
    base = catalog("additive_identity", 1)
    field = dataclasses.replace(
        base, sigma=lambda t, x: np.full(np.shape(x) + (1,), 1e-308),
        sigma_inv=lambda t, x: np.full(np.shape(x) + (1,), 1e308), sigma_scale=None,
    )

    def run():
        estimate_gradient_fixed_clock(np.zeros(1), np.array([0.6]), TANH, field, PATH, PIECEWISE,
                                      0.95, N, 16)

    whole = _blow_up(monkeypatch, UNBOUNDED, run)
    assert whole[1] > 0
    for budget in (1, 37):
        assert _blow_up(monkeypatch, budget, run) == whole, budget


def test_blow_up_parity_of_a_hand_batch():
    # path 0 overflows at its 3rd jump, path 2 at its 1st: the unblocked flow
    # stops in round 1 at path 2, while a block of path 0 alone would stop in
    # round 3 at path 0
    plan = {0: [0.0, 0.0, 1e308], 1: [0.0], 2: [1e308], 3: [0.0, 0.0]}
    counts = np.array([len(plan[i]) for i in range(4)], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    times = np.concatenate([np.linspace(0.1, 0.9, c) for c in counts])
    batch = JumpBatch(4, 1.0, counts, offsets, times, np.full(times.size, 0.1))
    dW = np.concatenate([plan[i] for i in range(4)])[:, None]
    field = catalog("additive_identity", 1)

    def stage(block, dW):
        return engine.flow_batch(np.array([1.7e308]), None, field, block, dW, 50)[:1]

    for budget in (1, 3):
        # through over_row_blocks, and by a direct flow_batch call, which
        # ignores JUMP_BLOCK
        for run in (lambda: over_row_blocks(lambda budget: iter([(batch, dW)]), stage),
                    lambda: stage(batch, dW)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engine, "JUMP_BLOCK", budget)
                with np.errstate(over="ignore"), pytest.raises(BlowUpError) as info:
                    run()
            assert (info.value.s, info.value.path) == (0.1, 2)


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_of_one_fine_cut_batch():
    # one 16,384-path batch at eps = 2e-4 (sign_fine_cut) draws about 2.7M
    # jumps, whose times, sizes and marks alone are 65 MB. Drawn and run over
    # row blocks of 2^19 jumps it peaks at 24.6 MB of traced allocations;
    # drawn whole and run over the blocks it peaked at 102 MB, and under an
    # unbounded budget at 248 MB
    field = catalog("additive_identity", 1)
    peak = _traced_peak(lambda: estimate_gradient(
        np.zeros(1), np.ones(1), make_observable("sign"), field, SPEC, 1.0, 5.0, 16_384, 2e-4, 303))
    assert peak < 28e6


def test_peak_memory_of_one_quickstart_batch():
    # one 32,768-path batch of the README quickstart (about 350k jumps, one
    # row block, flowed in two pieces of FLOW_ROWS paths) peaks at 18.2 MB of
    # traced allocations, the cap clock being evaluated in the flow with no
    # per-jump clock array; flowed whole it peaked at 22.6 MB
    R = default_level_R(SPEC, 0.5)
    peak = _traced_peak(lambda: estimate_gradient(
        X0, V0, TANH, BM, SPEC, 0.5, R, engine.BATCH_SIZE, 3e-3, 318))
    assert peak < 21e6


def test_peak_memory_of_one_fd_crn_call():
    # one 65,536-path fd_gradient call (the fd_crn benchmark's configuration
    # at one worker: two batches, each one row block flowed from both starts
    # in one call) peaks at 16.3-17.1 MB of traced allocations, with one
    # stacked flow per block as with a flow per start
    peak = _traced_peak(lambda: fd_gradient(X0, V0, TANH, BM, SPEC, 0.5, 5e-3, 1 << 16, 319, eps_cut=3e-3))
    assert peak < 19.7e6
