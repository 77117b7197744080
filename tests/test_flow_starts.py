"""A stack of starts in one flow_batch call, bit for bit against one call per start.

flow_batch takes x0 shaped (k, d) when v is None and returns X_final shaped
(k, n, d). The jump rounds of a drift_rate field do each round's shared work
once for all the starts (the count order, the gathers of times and marks,
the decay), then each start's own per-row operations; without the hint,
each RK4 substep runs on the stepping rows of every start at once. Each
start's slice must carry the bytes of
flow_batch on that start alone, signed zeros included. A stacked sweep that
blows up is replayed with checks one start at a time, in order, up to the
first start that raises, so it raises the error the separate flows raise,
the first start's, even when a later start blows up in an earlier round. fd_gradient and estimate_pt flow each block once for
all their starts and must keep every byte of their reports.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from levygrad import BernsteinSpec, BlowUpError, catalog, estimate_pt, fd_gradient, make_observable
from levygrad import engine
from levygrad.bismut import ClockDraw
from levygrad.engine import flow_batch
from test_jump_rounds import EDGE_BATCHES, _batch_of, _growing_field

pytestmark = pytest.mark.pin

SPEC = BernsteinSpec.alpha_stable(1.5)
BM = catalog("bounded_multiplicative", 2)
TANH = make_observable("tanh1")
X0, V0 = np.array([0.3, 0.0]), np.array([1.0, 0.5])
# starts with signed zeros, which a never-jumping path keeps at r = 0
STARTS = np.array([[-0.0, 0.4, -1.1], [0.0, -0.0, 0.7], [0.3, -2.0, -0.0]])

ROUTES = {
    "rounds_r1": lambda d: catalog("bounded_multiplicative", d),
    "rounds_r0": lambda d: catalog("additive_identity", d),
    # r = 0 with a state-dependent sigma
    "rounds_r0_pythagoras": lambda d: catalog("pythagoras_1d", 1),
    "rk4_rounds": lambda d: dataclasses.replace(catalog("bounded_multiplicative", d), drift_rate=None),
}


def _sampled(d):
    jb, dW, _ = ClockDraw.stable(SPEC, 0.5, 3e-2, d, 41).batch(0, 60)
    return jb, dW


def _edge(name, d):
    batch = _batch_of(EDGE_BATCHES[name])
    return batch, np.random.default_rng(d).standard_normal((batch.total, d)) * 0.7


BATCHES = {
    "sampled": _sampled,
    **{name: (lambda d, name=name: _edge(name, d))
       for name in ("empty_paths_between", "all_equal", "one_long_path", "all_empty")},
}


@pytest.mark.parametrize("batch_name", sorted(BATCHES))
@pytest.mark.parametrize("route, d", [(route, d) for route in sorted(ROUTES) for d in (1, 2, 3)
                                      if route != "rounds_r0_pythagoras" or d == 1])
@pytest.mark.parametrize("k", [1, 3])
def test_each_start_gets_the_bytes_it_gets_alone(batch_name, route, d, k):
    field = ROUTES[route](d)
    batch, dW = BATCHES[batch_name](d)
    starts = np.ascontiguousarray(STARTS[:k, :d])
    stacked = flow_batch(starts, None, field, batch, dW, 100)
    assert stacked[0].shape == (k, batch.n, d) and stacked[0].flags["C_CONTIGUOUS"]
    assert stacked[1:] == (None,) * 4
    for x0, got in zip(starts, stacked[0]):
        alone = flow_batch(x0, None, field, batch, dW, 100)
        assert got.tobytes() == alone[0].tobytes(), (route, batch_name)
    if batch_name == "all_empty" and route != "rk4_rounds":
        # the rounds only scale a never-jumping path, so its -0.0 stays
        assert np.signbit(stacked[0][stacked[0] == 0.0]).any()


def test_a_stack_is_refused_with_v():
    batch, dW = _sampled(2)
    with pytest.raises(ValueError, match="stack of starts"):
        flow_batch(np.stack([X0, -X0]), V0, BM, batch, dW, 100, level=1.0)
    with pytest.raises(ValueError, match="stack of starts"):
        flow_batch(np.zeros((1, 2, 2)), None, BM, batch, dW, 100)


def _error(run):
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError) as info:
        run()
    return info.value.s, info.value.path


def _first_error_of_separate_flows(field, starts, batch, dW):
    for x0 in starts:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                flow_batch(x0, None, field, batch, dW, 100)
        except BlowUpError as exc:
            return exc.s, exc.path
    raise AssertionError("no start blows up")


HUGE = 1e308
# (field, starts, paths, marks of the second coordinate or the one of d = 1, the
# error of each start alone (None: it never blows up))
BLOW_UPS = {
    # additive_identity adds each mark exactly: start 1 overflows at path 1's
    # 2nd jump, start 0 reaches 1e308 and stays finite
    "only_start_1": (catalog("additive_identity", 2), [[0.0, 0.0], [0.0, HUGE]],
                     [[0.5], [0.2, 0.6], [0.1, 0.3]], [0.0, 0.0, HUGE, 0.0, 0.0],
                     [None, (0.6, 1)]),
    # start 1 overflows in round 1 (path 1 and path 2), start 0 only in round 2
    # (path 2's 3rd jump): the stacked sweep meets start 1's error first
    "start_1_in_an_earlier_round": (catalog("additive_identity", 2), [[0.0, 0.0], [0.0, HUGE]],
                                    [[0.5], [0.2, 0.6], [0.1, 0.3, 0.7]],
                                    [0.0, 0.0, HUGE, 0.0, HUGE, HUGE],
                                    [(0.7, 2), (0.6, 1)]),
    # x grows by e^(10 s): start 1 overflows in the left limit of round 0,
    # start 0 only in the last scaling to t = 0.5 (path 0's jump cancels it)
    "start_0_at_the_last_scaling": (_growing_field(-10.0), [[1e307], [1e308]],
                                    [[0.1], [0.15], [], [0.05, 0.1, 0.15, 0.2]],
                                    [-(1e307 * math.exp(1.0)), 0.0, 0.0, 0.0, 0.0, 0.0],
                                    [(0.5, 1), (0.1, 0)]),
    # start 0 never overflows, start 1 only in the last scaling
    "start_1_at_the_last_scaling": (_growing_field(-10.0), [[1e300], [1e307]],
                                    [[0.1], [0.15], [], [0.05, 0.1, 0.15, 0.2]],
                                    [0.0] * 6, [None, (0.5, 0)]),
}


@pytest.mark.parametrize("case", sorted(BLOW_UPS))
def test_a_stack_raises_the_error_of_the_separate_flows(case):
    field, starts, paths, marks, alone = BLOW_UPS[case]
    starts = np.array(starts)
    batch = _batch_of(paths, 0.5 if field.dimension == 1 else 1.0)
    dW = np.zeros((batch.total, starts.shape[1]))
    dW[:, -1] = marks
    for x0, want in zip(starts, alone):
        if want is None:
            with np.errstate(over="ignore", invalid="ignore"):
                assert np.isfinite(flow_batch(x0, None, field, batch, dW, 100)[0]).all()
        else:
            assert _error(lambda: flow_batch(x0, None, field, batch, dW, 100)) == want
    want = _first_error_of_separate_flows(field, starts, batch, dW)
    assert _error(lambda: flow_batch(starts, None, field, batch, dW, 100)) == want
    # and so do the RK4 rounds of the field without the hint
    if field.drift_rate == 0.0:
        rk4 = dataclasses.replace(field, drift_rate=None)
        want = _first_error_of_separate_flows(rk4, starts, batch, dW)
        assert _error(lambda: flow_batch(starts, None, rk4, batch, dW, 100)) == want


@pytest.mark.parametrize("case", sorted(BLOW_UPS))
def test_a_failed_stack_replays_each_start_once_until_one_blows_up(monkeypatch, case):
    # the unchecked stacked sweep, then one checked sweep per start in order,
    # up to the first start that blows up: 2 sweeps when start 0 does, else 3
    field, starts, paths, marks, alone = BLOW_UPS[case]
    batch = _batch_of(paths, 0.5 if field.dimension == 1 else 1.0)
    dW = np.zeros((batch.total, len(starts[0])))
    dW[:, -1] = marks
    rounds, sweeps = engine._jump_rounds, []

    def spy(starts, *args, checked):
        sweeps.append((starts.shape[0], checked))
        return rounds(starts, *args, checked=checked)

    monkeypatch.setattr(engine, "_jump_rounds", spy)
    _error(lambda: flow_batch(np.array(starts), None, field, batch, dW, 100))
    replays = [(1, True)] * (1 if alone[0] is not None else 2)
    assert sweeps == [(2, False), *replays]


# small batches, so that two workers share a run's batches
N, BATCH = 150, 64
SEMIGROUP_RUNS = {
    "fd_gradient": lambda field, **kw: fd_gradient(
        X0, V0, TANH, field, SPEC, 0.5, 5e-3, N, 319, eps_cut=3e-3, **kw),
    "estimate_pt": lambda field, **kw: estimate_pt(X0, TANH, field, SPEC, 0.5, N, 13, eps_cut=3e-3, **kw),
}


def _one_call_per_start(monkeypatch):
    """Make flow_batch flow a stack of starts by one call per start."""
    flow = engine.flow_batch

    def separate(x0, *args, **kw):
        if np.ndim(x0) < 2:
            return flow(x0, *args, **kw)
        return np.stack([flow(x, *args, **kw)[0] for x in x0]), None, None, None, None

    monkeypatch.setattr(engine, "flow_batch", separate)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("budget", [1, 37, engine.JUMP_BLOCK])
@pytest.mark.parametrize("route", ["rounds_r1", "rk4_rounds"])
@pytest.mark.parametrize("name", sorted(SEMIGROUP_RUNS))
def test_semigroup_runs_keep_their_bytes(monkeypatch, name, route, budget, workers):
    monkeypatch.setattr(engine, "BATCH_SIZE", BATCH)
    monkeypatch.setattr(engine, "JUMP_BLOCK", budget)
    field = ROUTES[route](2)
    stacked = json.dumps(SEMIGROUP_RUNS[name](field, workers=workers).to_dict(), sort_keys=True)
    _one_call_per_start(monkeypatch)
    separate = json.dumps(SEMIGROUP_RUNS[name](field, workers=workers).to_dict(), sort_keys=True)
    assert stacked == separate


@pytest.mark.parametrize("budget", [37, engine.JUMP_BLOCK])
def test_fd_gradient_flows_each_block_once(monkeypatch, budget):
    monkeypatch.setattr(engine, "BATCH_SIZE", BATCH)
    monkeypatch.setattr(engine, "JUMP_BLOCK", budget)
    flow, calls = engine.flow_batch, []

    def spy(x0, v, field, block, *args, **kw):
        calls.append((np.shape(x0), block.n))
        return flow(x0, v, field, block, *args, **kw)

    monkeypatch.setattr(engine, "flow_batch", spy)
    SEMIGROUP_RUNS["fd_gradient"](BM)
    # every call flows both starts, and every path is flowed in exactly one call
    assert all(shape == (2, 2) for shape, _ in calls)
    assert sum(n for _, n in calls) == N
    batches = math.ceil(N / BATCH)
    if budget == 37:
        assert len(calls) > batches
    else:
        assert len(calls) == batches
