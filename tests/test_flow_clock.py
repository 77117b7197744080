"""The cap clock evaluated inside the flow, byte for byte against the batch-level clock.

flow_batch(..., level=R) runs the cap clock beta(u) = u ^ ell_tau as it
applies each jump: every path adds its jump sizes to a running clock value,
takes as its cap the first ell_post >= R, and weights a jump's mark and
clock increment by ell_post <= cap. ClockSpec.increments and beta_marks
define the same clock on a whole batch (a padded cumsum, first passages
and a per-jump (M, d) array of beta-weighted marks), and flow_batch given
those arrays is the oracle: X, J v, I1-I3, the normalizer and the cap must
carry its bytes on the jump rounds and on the event loop, at d = 1 and 2,
for a constant and a state-dependent sigma, with the marks flipped as an
antithetic run flips them, and through whole estimator runs over row
blocks of 1, 37 and JUMP_BLOCK jumps at one and two workers.
"""

import dataclasses
import json

import numpy as np
import pytest

from levygrad import BernsteinSpec, ClockSpec, catalog, estimate_gradient, make_observable, substream
from levygrad import engine
from levygrad.engine import JumpBatch, flow_batch, sample_jump_batch, sample_mark_batch

FLOW = engine.flow_batch
R = 1.0
# absorbed (1e20 + 1.0 == 1e20, so the second jump is covered with d_beta
# 1.0), crossing at the last jump, crossing at ell_post == R exactly, never
# crossing, and no jump at all
EDGE_SIZES = [[1e20, 1.0], [0.3, 0.4, 0.5], [0.5, 0.5, 0.25], [0.25, 0.5], []]


def _oracle(x0, v, field, batch, dW, spu, level):
    """flow_batch with the cap clock's arrays from ClockSpec.increments and beta_marks."""
    clock = ClockSpec.cap_at_first_passage(level)
    inc = clock.increments(batch)
    dWb = clock.beta_marks(batch.sizes, inc, dW, None)
    return FLOW(x0, v, field, batch, dW, spu, dWb, inc.d_beta) + (inc.normalizer, inc.cap)


def _oracle_flow(x0, v, field, batch, dW, spu, dWb=None, d_beta=None, *, level=None):
    """flow_batch, with a level run replaced by the oracle."""
    if level is None:
        return FLOW(x0, v, field, batch, dW, spu, dWb, d_beta)
    return _oracle(x0, v, field, batch, dW, spu, level)


def _edge_batch(n_sampled):
    """The EDGE_SIZES paths ahead of n_sampled stable paths, some of which cross R."""
    sampled = sample_jump_batch(1.5, 1.0, 2e-2, n_sampled, substream(9, engine.PURPOSE_JUMPS, 0))
    counts = np.array([len(p) for p in EDGE_SIZES] + list(sampled.counts), dtype=np.int64)
    times = np.concatenate([np.linspace(0.2, 0.8, len(p)) for p in EDGE_SIZES] + [sampled.times])
    sizes = np.concatenate([np.asarray(p, dtype=float) for p in EDGE_SIZES] + [sampled.sizes])
    return JumpBatch(counts.size, 1.0, counts, np.concatenate(([0], np.cumsum(counts))), times, sizes)


def _same_bytes(got, want):
    assert len(got) == len(want) == 7
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("route", ["rounds", "event_loop"])
@pytest.mark.parametrize("name", ["ou_additive", "bounded_multiplicative"])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("flip", [False, True])
def test_in_flow_clock_matches_the_batch_clock(route, name, d, flip):
    field = catalog(name, d)
    if route == "event_loop":
        field = dataclasses.replace(field, drift_rate=None)
    batch = _edge_batch(200)
    dW = sample_mark_batch(batch, d, substream(9, engine.PURPOSE_MARKS, 0))
    if flip:
        dW = -dW
    rng = np.random.default_rng(d)
    x0, v = 0.3 * rng.standard_normal(d), rng.standard_normal(d)
    got = flow_batch(x0, v, field, batch, dW, 20, level=R)
    _same_bytes(got, _oracle(x0, v, field, batch, dW, 20, R))
    normalizer, cap = got[5:]
    # the edge paths' clocks, added in sequence as np.cumsum adds
    assert cap[:5].tolist() == [1e20, 0.3 + 0.4 + 0.5, 1.0, np.inf, np.inf]
    assert normalizer[:5].tolist() == [1e20, 0.3 + 0.4 + 0.5, 1.0, 0.25 + 0.5, 0.0]
    # sampled paths capped before their last jump, at it, and never
    sampled = slice(len(EDGE_SIZES), None)
    ell_T = engine.path_cumulatives(batch)[2][sampled]
    kinds = set(zip(np.isinf(cap[sampled]), normalizer[sampled] < ell_T))
    assert kinds >= {(True, False), (False, True), (False, False)}


def test_absorbed_jump_counts_after_the_cap():
    # 1e20 + 1.0 == 1e20: the second jump's ell_post equals the cap, so it
    # is covered and its d_beta is 1.0; a rule on ell_pre < R would drop it
    batch = _edge_batch(0)
    inc = ClockSpec.cap_at_first_passage(R).increments(batch)
    assert inc.d_beta[:2].tolist() == [1e20, 1.0]
    field = catalog("bounded_multiplicative", 1)
    dW = np.linspace(-1.0, 1.0, batch.total)[:, None]
    x0, v = np.array([0.3]), np.array([1.0])
    I1 = flow_batch(x0, v, field, batch, dW, 20, level=R)[2]
    # ell_pre < R would zero its mark and d_beta, and move I1
    dWb = ClockSpec.cap_at_first_passage(R).beta_marks(batch.sizes, inc, dW, None)
    dWb[1], dropped = 0.0, inc.d_beta.copy()
    dropped[1] = 0.0
    assert I1[0] != flow_batch(x0, v, field, batch, dW, 20, dWb, dropped)[2][0]


def test_weight_inputs_are_the_pair_or_the_level():
    batch = _edge_batch(3)
    dW = np.ones((batch.total, 1))
    field = catalog("ou_additive", 1)
    x0, v = np.zeros(1), np.ones(1)
    for args, kw in [((v, dW, batch.sizes), {"level": R}), ((v,), {}), ((None,), {"level": R})]:
        with pytest.raises(ValueError, match="exactly when v is given"):
            flow_batch(x0, args[0], field, batch, dW, 20, *args[1:], **kw)


SPEC = BernsteinSpec.alpha_stable(1.5)
RUNS = {
    # jump rounds, state-dependent sigma (c2 reads d_beta); some paths never jump
    "rounds_d2": lambda **kw: estimate_gradient(
        [0.3, 0.0], [1.0, 0.5], make_observable("tanh1"), catalog("bounded_multiplicative", 2), SPEC,
        0.05, "auto", 150, 3e-2, 318, collect_samples=150, **kw),
    # the event loop, constant sigma, d = 1
    "event_loop_d1": lambda **kw: estimate_gradient(
        [0.2], [1.0], make_observable("tanh1"),
        dataclasses.replace(catalog("ou_additive", 1), drift_rate=None), SPEC, 0.5, "auto", 150, 3e-2,
        5, collect_samples=150, **kw),
}


@pytest.mark.parametrize("name", sorted(RUNS))
@pytest.mark.parametrize("antithetic", [False, True])
def test_estimates_match_the_batch_clock(monkeypatch, name, antithetic):
    monkeypatch.setattr(engine, "BATCH_SIZE", 64)
    runs = {}
    for oracle in (False, True):
        for budget in (1, 37, engine.JUMP_BLOCK):
            for workers in (1, 2):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(engine, "JUMP_BLOCK", budget)
                    if oracle:
                        mp.setattr(engine, "flow_batch", _oracle_flow)
                    result = RUNS[name](antithetic=antithetic, workers=workers)
                runs[oracle, budget, workers] = (json.dumps(result.to_dict(), sort_keys=True),
                                                 result.sample_rows)
    want = runs[True, engine.JUMP_BLOCK, 1]
    assert all(run == want for run in runs.values())
    if name == "rounds_d2":
        assert result.n_rejected > 0


def test_cap_clock_estimate_forms_no_clock_arrays(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the cap clock runs inside the flow")

    monkeypatch.setattr(ClockSpec, "increments", refused)
    monkeypatch.setattr(ClockSpec, "beta_marks", refused)
    result = RUNS["rounds_d2"](antithetic=True)
    assert result.n_samples == 150
