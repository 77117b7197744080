"""The weighted estimators' pieces of at most FLOW_ROWS paths, and the jump rounds' row dot.

Both weighted estimators (estimate_gradient and estimate_gradient_fixed_clock)
flow each drawn block in pieces of at most engine.FLOW_ROWS paths, so the
per-row state of a jump round stays in cache. Every operation of the flow is
per path, so every row bound must give the bits of an unbounded one: the
same to_dict() bytes (mean, standard error, n_rejected and diagnostics) and
the same sample rows, antithetic included, at one worker and at two. A
blow-up in a later piece re-flows the batch whole, so its error names the
(s, path, batch) of an unblocked run.

engine._row_dot stands for einsum("mi,mi->m") in the weight terms and must
carry its bytes at every width, signed zeros, infinities and NaNs included.
"""

import dataclasses
import json

import numpy as np
import pytest

from levygrad import (
    BernsteinSpec,
    BlowUpError,
    ClockSpec,
    JumpPath,
    catalog,
    estimate_gradient,
    estimate_gradient_fixed_clock,
    make_observable,
)
from levygrad import engine
from levygrad.engine import JumpBatch, over_row_blocks
from test_row_blocks import _growing_field

SPEC = BernsteinSpec.alpha_stable(1.5)
BM = catalog("bounded_multiplicative", 2)
TANH = make_observable("tanh1")
X0, V0 = np.array([0.3, 0.0]), np.array([1.0, 0.5])
PATH = JumpPath(1.0, np.array([0.1, 0.35, 0.6, 0.9]), np.array([0.4, 0.8, 0.3, 0.5]))
# kinks inside PATH's clock intervals: the flow reads the auxiliary normals
PIECEWISE = ClockSpec.piecewise_linear([[0.0, 0.0], [0.5, 0.2], [1.0, 1.1], [3.0, 1.5]])
UNBOUNDED = 1 << 62

# (paths, batch size, run): 150 paths in batches of 64 for the bounds 1 and 7,
# and 9,000 in batches of 4,500 for 4,096, so that each batch is cut and two
# workers share a run's batches
SMALL, LARGE = (150, 64), (9000, 4500)
RUNS = {
    "cap": lambda n, **kw: estimate_gradient(
        X0, V0, TANH, BM, SPEC, 0.5, "auto", n, 3e-3, 318, collect_samples=n, **kw),
    "cap_antithetic": lambda n, **kw: estimate_gradient(
        X0, V0, TANH, BM, SPEC, 0.5, "auto", n, 3e-3, 7, antithetic=True, collect_samples=n, **kw),
    # a coarse cut, so that some paths never jump and are rejected
    "cap_rejecting": lambda n, **kw: estimate_gradient(
        X0, V0, TANH, BM, SPEC, 0.05, "auto", n, 0.2, 11, collect_samples=n, **kw),
    # the RK4 event loop, with the drift's Jacobian term
    "cap_rk4": lambda n, **kw: estimate_gradient(
        X0, V0, TANH, dataclasses.replace(BM, drift_rate=None), SPEC, 0.5, "auto", n, 3e-2, 5,
        collect_samples=n, **kw),
    # jump rounds at r = 0 with constant sigma, d = 1
    "cap_sign": lambda n, **kw: estimate_gradient(
        np.zeros(1), np.ones(1), make_observable("sign"), catalog("additive_identity", 1), SPEC,
        1.0, "auto", n, 1e-2, 303, collect_samples=n, **kw),
    "fixed_clock_piecewise": lambda n, **kw: estimate_gradient_fixed_clock(
        X0, V0, TANH, BM, PATH, PIECEWISE, 0.95, n, 16, collect_samples=n, **kw),
}


def _run(monkeypatch, name, size, rows, workers):
    """The run's to_dict() bytes and sample rows, its blocks flowed in pieces of at most rows paths."""
    n, batch = size
    monkeypatch.setattr(engine, "BATCH_SIZE", batch)
    monkeypatch.setattr(engine, "FLOW_ROWS", rows)
    flow, pieces = engine.flow_batch, []

    def spy(x0, v, field, block, *args, **kw):
        pieces.append(block.n)
        return flow(x0, v, field, block, *args, **kw)

    monkeypatch.setattr(engine, "flow_batch", spy)
    result = RUNS[name](n, workers=workers)
    monkeypatch.setattr(engine, "flow_batch", flow)
    # every piece within the bound, and the batches cut where they hold more
    assert max(pieces) == min(rows, batch)
    return json.dumps(result.to_dict(), sort_keys=True), result.sample_rows


def test_rejecting_run_rejects(monkeypatch):
    # the run that covers n_rejected must reject some paths
    assert json.loads(_run(monkeypatch, "cap_rejecting", SMALL, UNBOUNDED, 1)[0])["n_rejected"] > 0


@pytest.mark.parametrize("name", sorted(RUNS))
@pytest.mark.parametrize("workers", [1, 2])
def test_pieces_match_the_unbounded_row_bound(monkeypatch, name, workers):
    whole = _run(monkeypatch, name, SMALL, UNBOUNDED, workers)
    for rows in (1, 7):
        assert _run(monkeypatch, name, SMALL, rows, workers) == whole, rows


@pytest.mark.parametrize("name", ["cap_antithetic", "fixed_clock_piecewise"])
@pytest.mark.parametrize("workers", [1, 2])
def test_pieces_of_4096_paths_match_the_unbounded_row_bound(monkeypatch, name, workers):
    assert _run(monkeypatch, name, LARGE, 4096, workers) == _run(
        monkeypatch, name, LARGE, UNBOUNDED, workers)


def test_pieces_cut_a_block_by_paths_and_by_jumps(monkeypatch):
    counts = np.array([3, 0, 1, 5, 2, 0, 0, 4], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    times = np.concatenate([np.linspace(0.1, 0.9, c) for c in counts])
    batch = JumpBatch(counts.size, 1.0, counts, offsets, times, np.full(times.size, 0.1))
    seen = []

    def stage(block, w):
        seen.append((block.n, block.total))
        return (block.counts,)

    for rows, jumps, want in ((3, UNBOUNDED, [(3, 4), (3, 7), (2, 4)]),
                              (3, 5, [(3, 4), (1, 5), (3, 2), (1, 4)]),
                              (UNBOUNDED, UNBOUNDED, [(8, 15)])):
        seen.clear()
        monkeypatch.setattr(engine, "JUMP_BLOCK", jumps)
        (joined,) = over_row_blocks(lambda budget: iter([(batch, None)]), stage, rows)
        assert seen == want
        assert np.array_equal(joined, counts)


def _blow_up(monkeypatch, rows):
    monkeypatch.setattr(engine, "BATCH_SIZE", 64)
    monkeypatch.setattr(engine, "FLOW_ROWS", rows)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError) as info:
        estimate_gradient(np.array([1e307]), np.ones(1), TANH, _growing_field(), SPEC, 1.0, 5.0,
                          150, 1e-2, 4)
    return info.value.s, info.value.path, info.value.batch


def test_blow_up_in_a_later_piece_names_the_unblocked_path(monkeypatch):
    # a path whose first jump comes after s = 0.289 overflows in the first
    # jump round; a piece of paths that jump earlier stops at a later round,
    # on one of its own paths
    whole = _blow_up(monkeypatch, UNBOUNDED)
    assert whole[2] == 0 and whole[1] >= 7
    for rows in (1, 7):
        assert _blow_up(monkeypatch, rows) == whole, rows


SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-310, -2.5, 1e308, -1e-200])


@pytest.mark.parametrize("d", [1, 2, 3, 4, 9])
def test_row_dot_is_einsums_bitwise(d):
    rng = np.random.default_rng(d)
    m = 4000
    p = rng.standard_normal((m, d)) * 10.0 ** rng.integers(-3, 4, (m, d))
    q = rng.standard_normal((m, d))
    # the first rows pair every special value with every other, in every
    # coordinate; the next rows draw specials at random positions
    k = SPECIALS.size ** 2
    p[:k] = SPECIALS[np.arange(k) // SPECIALS.size, None]
    q[:k] = SPECIALS[np.arange(k) % SPECIALS.size, None]
    pick = rng.random((m, d)) < 0.3
    pick[:k] = False
    p[pick] = rng.choice(SPECIALS, pick.sum())
    q[pick] = rng.choice(SPECIALS, pick.sum())
    with np.errstate(invalid="ignore", over="ignore"):
        want = np.einsum("mi,mi->m", p, q)
        got = engine._row_dot(p, q)
        # and on a row prefix of a larger C-order array, as the rounds hand it
        prefix = engine._row_dot(np.concatenate([p, p])[:m], q)
        # rows whose products are all -0.0 occur, so einsum's leading 0.0 is exercised
        assert np.any(np.all(np.signbit(p * q) & (p * q == 0.0), axis=1))
    assert got.shape == (m,)
    assert got.tobytes() == want.tobytes()
    assert prefix.tobytes() == want.tobytes()
