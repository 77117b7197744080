"""The jump rounds of a drift_rate field: each path's bits and the blow-up contract.

flow_batch runs a field with the drift_rate hint in jump rounds, round k
being every path's k-th jump, with no RK4 substep. Whatever order the
rounds visit the paths in, each path gets the bits it gets when flowed as
a batch of its own, and a BlowUpError names the earliest round with a
non-finite path and the lowest such path in it, or t and the lowest path
whose last scaling overflows. The batches below put paths with more jumps
after paths with fewer, and put empty paths between them.

Both sweeps run one jump update: every hook on the left limit, then the
state's jump, the weight terms, J v's jump and the sums. The rounds first
run with no check and replay the batch with checks only when their
outputs are not finite or they raise; so a finite flow calls its hooks as
often as the checked rounds do, and a blow-up names, and a caller's
np.errstate raises, what the checked rounds meet first. The checked rounds
look at each round's states and J v after its jump updates, then at its
weight sums, so a sum that overflows from finite terms blows up too.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from levygrad import BlowUpError, ClockSpec, JumpPath, catalog, estimate_gradient_fixed_clock, make_observable
from levygrad.engine import JumpBatch, flow_batch

pytestmark = pytest.mark.pin


def _batch_of(paths, t=1.0):
    counts = np.array([len(p) for p in paths], dtype=np.int64)
    times = np.concatenate([np.asarray(p, dtype=float) for p in paths] + [np.empty(0)])
    return JumpBatch(len(paths), t, counts, np.concatenate(([0], np.cumsum(counts))), times,
                     np.linspace(0.05, 0.3, times.size))


def _weight_inputs(v, batch, dW):
    """(dWb, d_beta) for a run with direction v, an empty tuple without one."""
    if v is None:
        return ()
    return 0.5 * dW[:, ::-1] - 0.25, batch.sizes


def _field(name, d):
    """A catalog field, or "drift_free_state_sigma": additive_identity claiming a state-dependent sigma,
    which runs the rounds at r = 0 with J v updated by sigma_scale's slope."""
    if name == "drift_free_state_sigma":
        return dataclasses.replace(catalog("additive_identity", d), sigma_is_constant=False)
    return catalog(name, d)


def _linspaced(*counts):
    return [list(np.linspace(0.1, 0.9, c)) for c in counts]


EDGE_BATCHES = {
    "all_empty": [[], [], [], []],
    "all_equal": _linspaced(3, 3, 3, 3, 3),
    "one_long_path": _linspaced(1, 2, 1, 40, 0, 2, 1),
    "empty_paths_between": [[0.1, 0.2], [], [0.3], [], [], [0.15, 0.5, 0.9], [], [0.05]],
    "growing_counts": _linspaced(0, 1, 2, 3, 4, 5, 6),
}


@pytest.mark.parametrize("batch_name", sorted(EDGE_BATCHES))
@pytest.mark.parametrize("name, d", [("bounded_multiplicative", 2), ("bounded_multiplicative", 3),
                                     ("ou_additive", 2), ("drift_free_state_sigma", 2),
                                     ("additive_identity", 2)])
@pytest.mark.parametrize("with_v", [True, False])
def test_each_path_gets_the_bits_it_gets_alone(batch_name, name, d, with_v):
    field = _field(name, d)
    paths = EDGE_BATCHES[batch_name]
    batch = _batch_of(paths)
    rng = np.random.default_rng(len(paths) * d)
    dW = rng.standard_normal((batch.total, d)) * 0.7
    x0 = np.resize([-0.0, 0.4, -1.1], d)
    v = np.resize([1.0, -0.5, 0.25], d) if with_v else None
    whole = flow_batch(x0, v, field, batch, dW, 100, *_weight_inputs(v, batch, dW))
    assert whole[0].shape == (batch.n, d) and whole[0].flags["C_CONTIGUOUS"]
    for p in range(batch.n):
        lo, hi = batch.offsets[p], batch.offsets[p + 1]
        alone = JumpBatch(1, batch.horizon, batch.counts[p:p + 1], np.array([0, hi - lo]),
                          batch.times[lo:hi], batch.sizes[lo:hi])
        part = flow_batch(x0, v, field, alone, dW[lo:hi], 100, *_weight_inputs(v, alone, dW[lo:hi]))
        for got, want in zip(part, whole):
            if want is None:
                assert got is None
                continue
            assert got.tobytes() == want[p:p + 1].tobytes(), (batch_name, p)


def _blow_up(field, x0, v, batch, dW):
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError) as info:
        flow_batch(x0, v, field, batch, dW, 100, *_weight_inputs(v, batch, dW))
    return info.value.s, info.value.path


def _round_one_overflow(huge=1.7e308):
    """(batch, dW, x0) whose paths 1 and 2 overflow at their 2nd jump (round 1), path 3 at
    its 3rd (round 2), and paths 0 and 4 never, by marks of size huge in coordinate 1."""
    plan = [([0.5], [0.0]), ([0.2, 0.6], [0.0, huge]), ([0.1, 0.3, 0.7], [0.0, huge, 0.0]),
            ([0.15, 0.25, 0.35, 0.45], [0.0, 0.0, huge, 0.0]), ([], [])]
    batch = _batch_of([times for times, _ in plan])
    dW = np.zeros((batch.total, 2))
    dW[:, 1] = np.concatenate([marks for _, marks in plan])
    return batch, dW, np.array([0.0, 1.7e308])


@pytest.mark.parametrize("name", ["bounded_multiplicative", "drift_free_state_sigma", "additive_identity"])
@pytest.mark.parametrize("with_v", [True, False])
def test_a_round_names_its_lowest_bad_path_not_the_longest(name, with_v):
    # Path 2, with more jumps than path 1, is visited before it if the rounds
    # take the longest paths first, and path 3 before both; the error names
    # round 1's lowest path, 1, at its jump time
    batch, dW, x0 = _round_one_overflow()
    v = np.array([1.0, 0.0]) if with_v else None
    assert _blow_up(_field(name, 2), x0, v, batch, dW) == (0.6, 1)


def _counting(field):
    """field with b and sigma_scale's scale and slope counting their calls in a dict."""
    calls = dict.fromkeys(("scale", "slope", "b"), 0)

    def counted(name, hook):
        def call(*args):
            calls[name] += 1
            return hook(*args)
        return call

    scale, slope = field.sigma_scale
    hooks = {"b": counted("b", field.b), "sigma_scale": (counted("scale", scale), counted("slope", slope))}
    return dataclasses.replace(field, **hooks), calls


# b's calls in one flow of each edge batch at 100 substeps per unit without
# the drift_rate hint, four per RK4 substep, as the flow that checked every
# round and substep made them
RK4_B_CALLS = {"all_empty": 400, "all_equal": 400, "empty_paths_between": 1140, "growing_counts": 1216,
               "one_long_path": 1284}


@pytest.mark.parametrize("batch_name", sorted(EDGE_BATCHES))
@pytest.mark.parametrize("rk4", [False, True])
@pytest.mark.parametrize("with_v", [True, False])
def test_a_finite_flow_runs_its_rounds_once(batch_name, rk4, with_v):
    # one scale and, with v, one slope per round, and b only in RK4 substeps:
    # a finite flow is never re-flowed with its checks
    field = catalog("bounded_multiplicative", 2)
    field, calls = _counting(dataclasses.replace(field, drift_rate=None) if rk4 else field)
    batch = _batch_of(EDGE_BATCHES[batch_name])
    dW = np.random.default_rng(3).standard_normal((batch.total, 2)) * 0.7
    v = np.array([1.0, -0.5]) if with_v else None
    flow_batch(np.array([0.4, -1.1]), v, field, batch, dW, 100, *_weight_inputs(v, batch, dW))
    rounds = int(batch.counts.max())
    assert calls == {"scale": rounds, "slope": rounds if with_v else 0,
                     "b": RK4_B_CALLS[batch_name] if rk4 else 0}


@pytest.mark.parametrize("with_v", [True, False])
def test_a_hook_refusing_a_non_finite_state_leaves_the_blow_up_named(with_v):
    # the unchecked sweep runs on past round 1 and hands scale path 2's
    # infinite state in round 2; its ValueError re-flows the batch with the
    # checks, which stop at round 1's lowest path, 1, and chain no exception
    scale, slope = catalog("bounded_multiplicative", 2).sigma_scale
    refused = []

    def finite_scale(t, x):
        if not np.isfinite(x).all():
            refused.append(t)
            raise ValueError("scale needs a finite state")
        return scale(t, x)

    field = dataclasses.replace(catalog("bounded_multiplicative", 2), sigma_scale=(finite_scale, slope))
    batch, dW, x0 = _round_one_overflow()
    v = np.array([1.0, 0.0]) if with_v else None
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError) as info:
        flow_batch(x0, v, field, batch, dW, 100, *_weight_inputs(v, batch, dW))
    assert (info.value.s, info.value.path) == (0.6, 1)
    assert info.value.__context__ is None
    assert refused


@pytest.mark.parametrize("name", ["additive_identity", "bounded_multiplicative"])
def test_a_callers_errstate_raises_where_the_checked_flow_does(name):
    # round 1 overflows both a state, 1.7e308 + 1e308 (an add), and a weight
    # term, 1e10 * 0.5e308 (a multiply). Both sweeps apply the state's jump
    # before they form the terms, so both meet the add, as the flow that
    # checked every round did
    batch, dW, x0 = _round_one_overflow(1e308)
    v = np.array([1e10, 0.0])
    with np.errstate(over="raise"), pytest.raises(FloatingPointError) as info:
        flow_batch(x0, v, catalog(name, 2), batch, dW, 100, *_weight_inputs(v, batch, dW))
    assert str(info.value) == "overflow encountered in add"
    assert info.value.__context__ is None


def test_a_weight_sum_that_overflows_from_finite_terms_blows_up():
    # each term c1 = 1e300 * 1.5e8 = 1.5e308 is finite; path 0's second jump,
    # at 0.6, takes its sum I1 past the float range, and path 1 (one jump) stays finite
    batch = JumpBatch(2, 1.0, np.array([2, 1]), np.array([0, 2, 3]), np.array([0.3, 0.6, 0.5]),
                      np.array([0.1, 0.2, 0.1]))
    dWb = np.full((batch.total, 1), 1.5e8)
    with np.errstate(over="ignore"), pytest.raises(BlowUpError) as info:
        flow_batch(np.zeros(1), np.array([1e300]), catalog("additive_identity", 1), batch,
                   np.zeros((batch.total, 1)), 100, dWb, batch.sizes)
    assert (info.value.s, info.value.path) == (0.6, 0)


@pytest.mark.parametrize("seed", [1, 2, 4, 5])
def test_an_estimate_whose_weight_sum_overflows_blows_up(seed):
    # 20 paths of a fixed clock with ten unit jumps and v = 6e307: the sums of
    # finite c1 terms overflow, which once reached the mean as NaN
    path = JumpPath(1.0, np.linspace(0.1, 1, 10), np.ones(10))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError) as info:
        estimate_gradient_fixed_clock([0.0], [6e307], make_observable("const1"), catalog("additive_identity", 1),
                                      path, ClockSpec.cap_at_first_passage(1e9), 1.0, 20, seed)
    if seed == 1:
        assert (info.value.s, info.value.path, info.value.batch) == (0.2, 1, 0)


def _growing_field(rate):
    """ou_additive in d = 1 with b = -rate x, hinted so."""
    return dataclasses.replace(
        catalog("ou_additive", 1), drift_rate=rate, b=lambda t, x: -rate * np.asarray(x, dtype=float),
        jvp_b=lambda t, x, u: -rate * np.asarray(u, dtype=float),
        grad_b=lambda t, x: np.full(np.shape(x) + (1,), -rate),
    )


@pytest.mark.parametrize("with_v", [True, False])
def test_the_last_scaling_names_its_lowest_bad_path(with_v):
    # x grows by e^(10 s) from 1e307, past the float range after s = 0.289:
    # every left limit before 0.2 is finite, and at t = 0.5 paths 1, 2 and 3
    # overflow. Path 3, with the most jumps, comes before paths 1 and 2 if
    # the longest paths go first; path 0's jump cancels its state exactly
    field, x0 = _growing_field(-10.0), np.array([1e307])
    v = np.ones(1) if with_v else None
    batch = _batch_of([[0.1], [0.15], [], [0.05, 0.1, 0.15, 0.2]], 0.5)
    dW = np.zeros((batch.total, 1))
    dW[0, 0] = -(1e307 * math.exp(10.0 * 0.1))
    assert _blow_up(field, x0, v, batch, dW) == (0.5, 1)


# A constant sigma's jump leaves J v as it is, so no route checks it or
# writes it back in the jump update; a non-finite J v makes the weight term
# c1 = <sigma^{-1} J v, dW^beta> non-finite in the same round instead.
CONSTANT_SIGMA_ROUTES = {
    "jump_rounds": lambda field: field,
    "rk4_rounds": lambda field: dataclasses.replace(field, drift_rate=None),
    "matrix_route": lambda field: dataclasses.replace(field, sigma_scale=None),
}
# paths 0 and 4 have no jump; path 3, with the most, is the rounds' first row
CONSTANT_SIGMA_BATCH = [[], [0.3, 0.7], [0.2], [0.1, 0.4, 0.5, 0.8], [], [0.6]]


def _constant_sigma_run(name, d, route):
    field = CONSTANT_SIGMA_ROUTES[route](catalog(name, d))
    batch = _batch_of(CONSTANT_SIGMA_BATCH)
    dW = np.random.default_rng(d).standard_normal((batch.total, d)) * 0.7
    return field, np.resize([-0.0, 0.4, -1.1], d), np.resize([1.0, -0.5, 0.25], d), batch, dW


@pytest.mark.parametrize("route", sorted(CONSTANT_SIGMA_ROUTES))
@pytest.mark.parametrize("name", ["additive_identity", "ou_additive"])
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_v_stops_a_constant_sigma_flow_where_it_did(route, name, d, bad):
    # the rounds stop at round 0's lowest path, 1, at its first jump, as a J v
    # check named it; the RK4 rounds of the field without the hint check J v
    # at the end of round 0's first RK4 substep, at path 0 (t / 100)
    field, x0, v, batch, dW = _constant_sigma_run(name, d, route)
    v[d // 2] = bad
    assert _blow_up(field, x0, v, batch, dW) == ((0.01, 0) if route == "rk4_rounds" else (0.3, 1))


# SHA-256 (first 32 hex digits) of the flow outputs (X, J v, I1, I2, I3) with
# v = (1, -0.5, 0.25)[:d], recorded from the engine that checked J v in every
# jump update and wrote it back
CONSTANT_SIGMA_DIGESTS = {
    ("rk4_rounds", "additive_identity", 1): "03147731b97b055081d612379edbc953",
    ("rk4_rounds", "additive_identity", 3): "2fabe61b8e0525e43a13249ecb15a3f6",
    ("rk4_rounds", "ou_additive", 1): "e53bed3d4e98f7f39c808a6a0595e57e",
    ("rk4_rounds", "ou_additive", 3): "976711ae41ea8d98920f4c86b0dac961",
    ("jump_rounds", "additive_identity", 1): "07b9f3de19ade6947e0e2e68855093ea",
    ("jump_rounds", "additive_identity", 3): "5f1ca5495ba0717329f91d618244d88b",
    ("jump_rounds", "ou_additive", 1): "c3038cff32334ff647c495154a4f55c3",
    ("jump_rounds", "ou_additive", 3): "af08e675084ba080ad2388fc8bff759d",
    ("matrix_route", "additive_identity", 1): "07b9f3de19ade6947e0e2e68855093ea",
    ("matrix_route", "additive_identity", 3): "5f1ca5495ba0717329f91d618244d88b",
    ("matrix_route", "ou_additive", 1): "c3038cff32334ff647c495154a4f55c3",
    ("matrix_route", "ou_additive", 3): "af08e675084ba080ad2388fc8bff759d",
}


@pytest.mark.parametrize("route", sorted(CONSTANT_SIGMA_ROUTES))
@pytest.mark.parametrize("name", ["additive_identity", "ou_additive"])
@pytest.mark.parametrize("d", [1, 3])
def test_a_constant_sigma_flow_keeps_its_bits(route, name, d):
    # and a twin that claims a state-dependent sigma, so its jumps add the zero
    # slope's J v update and check it, gets the same bits
    field, x0, v, batch, dW = _constant_sigma_run(name, d, route)
    twin = dataclasses.replace(field, sigma_is_constant=False)
    got, want = (flow_batch(x0, v, f, batch, dW, 100, *_weight_inputs(v, batch, dW)) for f in (field, twin))
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    digest = hashlib.sha256(b"".join(a.tobytes() for a in got)).hexdigest()[:32]
    assert digest == CONSTANT_SIGMA_DIGESTS[route, name, d]
