"""Per-path reference for the batched engine: one path's flow and weight.

This is the test oracle that engine.flow_batch, which sums the weight terms
as it applies each jump, is checked against. It walks one path at a time in
plain Python, so every float operation is visible: simulate_flow stores every
pre- and post-jump state, and accumulate_weight sums the weight over the
stored pre-jump states afterwards, with its own copy of the conditional mark
law.

Between jumps the clock is flat, so the state follows the deterministic ODE
dX/ds = b(s, X) and the directional derivative Jv = grad_v X follows
dJv/ds = grad_b(s, X) Jv; both are integrated with classical fourth-order
Runge-Kutta. At a clock jump of size delta the driving noise moves by a
Gaussian increment dW ~ N(0, delta I) and the state updates discretely, with
every coefficient evaluated at the left limit (the pre-jump state):

    X <- X- + sigma(s, X-) dW
    Jv <- Jv- + (grad_{Jv-} sigma)(s, X-) dW

Jumps at times exactly equal to the evaluation time t are included (cadlag
convention).

The clock reparameterization beta is evaluated here too, jump by jump and
independently of ClockSpec.increments: the cap clock by its 0/1 rule, a
piecewise-linear beta by integrating its slopes over each clock interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from levygrad import BlowUpError, ClockSpec, CoefficientField, JumpPath


class RejectedPathError(RuntimeError):
    """The clock reparameterization vanished at t; the path carries no weight."""


def directional_sigma_derivative(field: CoefficientField, u, t, x):
    """Matrix with entries sum_k u_k * d sigma_ij / d x_k at (t, x); linear in u.

    Broadcasts over leading axes of u and x.
    """
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValueError("direction u must be finite")
    gs = np.asarray(field.grad_sigma(t, x), dtype=float)
    return np.einsum("...ijk,...k->...ij", gs, u)


@dataclass(frozen=True, eq=False)
class FlowState:
    """(time, X, Jv) at one instant along a path; Jv = grad_v X for one fixed v."""

    s: float
    X: np.ndarray
    J: np.ndarray

    def __post_init__(self) -> None:
        X = np.asarray(self.X, dtype=float)
        J = np.asarray(self.J, dtype=float)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "J", J)
        if J.shape != (X.shape[0],):
            raise ValueError("J must be a vector of the state dimension")

    @classmethod
    def initial(cls, x0, v) -> "FlowState":
        """State at s = 0: X = x0 with Jv = v."""
        return cls(0.0, x0, v)


@dataclass(frozen=True, eq=False)
class PathRealization:
    """A jump path together with its Gaussian marks.

    increments[i] ~ N(0, sizes[i] * I_d) drives the i-th jump; the atoms
    (times[i], increments[i]) form the random jump measure of the driving
    noise. aux_normals[i] ~ N(0, I_d) supplies the extra coordinate needed to
    realize the joint law of (dW, dW^beta) when a clock piece covers only part
    of a jump's variance interval; it is ignored by clocks with 0/1 slopes.
    """

    path: JumpPath
    increments: np.ndarray
    aux_normals: np.ndarray

    def __post_init__(self) -> None:
        inc = np.asarray(self.increments, dtype=float)
        aux = np.asarray(self.aux_normals, dtype=float)
        object.__setattr__(self, "increments", inc)
        object.__setattr__(self, "aux_normals", aux)
        k = self.path.times.size
        if inc.ndim != 2 or inc.shape[0] != k:
            raise ValueError("increments must have one row per jump")
        if aux.shape != inc.shape:
            raise ValueError("aux_normals must match increments in shape")


def sample_increments(path: JumpPath, d: int, rng: np.random.Generator) -> PathRealization:
    """Draw the Gaussian marks of a jump path: one N(0, size * I_d) per jump.

    Draw order is fixed (one block of standard normals for the increments,
    then one block for the auxiliary coordinates), so a given stream always
    reproduces the same realization bit for bit.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    k = path.times.size
    z = rng.standard_normal((k, d))
    aux = rng.standard_normal((k, d))
    increments = z * np.sqrt(path.sizes)[:, None]
    return PathRealization(path, increments, aux)


def evolve_drift(
    state: FlowState,
    field: CoefficientField,
    s0: float,
    s1: float,
    substeps: int,
) -> FlowState:
    """Integrate dX = b dt and dJv = grad_b Jv dt from s0 to s1 with RK4."""
    if s1 < s0:
        raise ValueError("s1 must not precede s0")
    if s1 == s0:
        return FlowState(s1, state.X, state.J)
    if substeps < 1:
        raise ValueError("substeps must be at least 1")
    h = (s1 - s0) / substeps
    X = state.X.copy()
    J = state.J.copy()

    def rhs(s, X, J):
        dX = np.asarray(field.b(s, X), dtype=float)
        G = np.asarray(field.grad_b(s, X), dtype=float)
        return dX, G @ J

    s = s0
    for k in range(substeps):
        s = s0 + k * h
        k1x, k1j = rhs(s, X, J)
        k2x, k2j = rhs(s + 0.5 * h, X + 0.5 * h * k1x, J + 0.5 * h * k1j)
        k3x, k3j = rhs(s + 0.5 * h, X + 0.5 * h * k2x, J + 0.5 * h * k2j)
        k4x, k4j = rhs(s + h, X + h * k3x, J + h * k3j)
        X = X + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        J = J + (h / 6.0) * (k1j + 2.0 * k2j + 2.0 * k3j + k4j)
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(J))):
            raise BlowUpError(s + h)
    return FlowState(float(s1), X, J)


def apply_jump(state: FlowState, field: CoefficientField, s: float, dW) -> FlowState:
    """Discrete update at a clock jump; coefficients use the pre-jump state only."""
    dW = np.asarray(dW, dtype=float)
    X_pre = state.X
    if dW.shape != X_pre.shape:
        raise ValueError("dW must have the state dimension")
    S = np.asarray(field.sigma(s, X_pre), dtype=float)
    X_new = X_pre + S @ dW
    D = directional_sigma_derivative(field, state.J, s, X_pre)
    J_new = state.J + D @ dW
    return FlowState(float(s), X_new, J_new)


def _substeps_for(gap: float, substeps_per_unit: int) -> int:
    return max(1, math.ceil(gap * substeps_per_unit))


def simulate_flow(
    x0,
    v,
    field: CoefficientField,
    realization: PathRealization,
    t: float,
    substeps_per_unit: int = 100,
) -> list[FlowState]:
    """Evolve (X, grad_v X) through every jump with time <= t, then up to t.

    Returns snapshots [pre_1, post_1, ..., pre_m, post_m, final]: the pre- and
    post-jump states at each of the m jumps with time <= t, then the state at
    time t. Intermediate ODE states are not stored.
    """
    path = realization.path
    if t > path.horizon:
        raise ValueError("t must not exceed the path horizon")
    if substeps_per_unit < 1:
        raise ValueError("substeps_per_unit must be at least 1")
    state = FlowState.initial(x0, v)
    snapshots: list[FlowState] = []
    s_cur = 0.0
    for i in range(path.times.size):
        s_i = float(path.times[i])
        if s_i > t:
            break
        gap = s_i - s_cur
        if gap > 0:
            state = evolve_drift(state, field, s_cur, s_i, _substeps_for(gap, substeps_per_unit))
        else:
            state = FlowState(s_i, state.X, state.J)
        snapshots.append(state)  # pre-jump
        state = apply_jump(state, field, s_i, realization.increments[i])
        snapshots.append(state)  # post-jump
        s_cur = s_i
    gap = t - s_cur
    if gap > 0:
        state = evolve_drift(state, field, s_cur, t, _substeps_for(gap, substeps_per_unit))
    else:
        state = FlowState(float(t), state.X, state.J)
    snapshots.append(state)
    return snapshots


def clock_increments(clock: ClockSpec, sizes: np.ndarray):
    """One path's per-jump (d_beta, d_lambda) and its normalizer beta(ell_t).

    sizes are the path's jumps up to t, in time order. Jump i covers the
    clock interval (pre, post] with post = sizes[0] + ... + sizes[i].
    """
    d_beta, d_lambda = np.zeros(sizes.size), np.zeros(sizes.size)
    post = 0.0
    if clock.kind == "cap_at_first_passage":
        # beta(u) = u ^ ell_tau: a jump up to and including the first passage
        # over R is covered whole, every later one not at all
        for i, size in enumerate(sizes):
            if post < clock.R:
                d_beta[i] = d_lambda[i] = size
            post += size
        return d_beta, d_lambda, float(sum(d_beta))
    ku, kb = clock.knots[:, 0], clock.knots[:, 1]
    slopes = [(kb[j + 1] - kb[j]) / (ku[j + 1] - ku[j]) for j in range(ku.size - 1)]
    starts = list(ku)
    ends = list(ku[1:]) + [math.inf]  # the last slope continues past the last knot
    slopes.append(slopes[-1])

    def covered(lo, hi):
        # the integrals of beta' and beta'^2 over (lo, hi], and how many
        # linear pieces the interval overlaps
        b = lam = 0.0
        pieces = 0
        for a, z, slope in zip(starts, ends, slopes):
            width = max(min(hi, z) - max(lo, a), 0.0)
            b += slope * width
            lam += slope * slope * width
            pieces += width > 0.0
        return b, lam, pieces

    for i, size in enumerate(sizes):
        d_beta[i], d_lambda[i], pieces = covered(post, post + size)
        if pieces == 1:
            # inside one piece, d_lambda = d_beta^2 / d_ell exactly
            d_lambda[i] = d_beta[i] * (d_beta[i] / size)
        post += size
    return d_beta, d_lambda, covered(0.0, post)[0]


@dataclass(frozen=True)
class BismutWeight:
    """The three weight terms of one path and their normalizer beta(ell_t)."""

    I1: float
    I2: float
    I3: float
    normalizer: float

    def __post_init__(self) -> None:
        if not self.normalizer > 0:
            raise ValueError("normalizer must be positive (rejected paths never get here)")

    @property
    def weight(self) -> float:
        # trace term negative: divergence correction of the integration by parts
        return (self.I1 - self.I2 + self.I3) / self.normalizer


def accumulate_weight(
    snapshots,
    field: CoefficientField,
    realization: PathRealization,
    clock: ClockSpec,
    t: float,
) -> BismutWeight:
    """Three-term weight along one simulated path.

    snapshots must come from simulate_flow(x0, v, field, realization, t):
    [pre_1, post_1, ..., pre_m, post_m, final]. Raises RejectedPathError when
    beta(ell_t) is not positive.
    """
    path = realization.path
    m = int(np.searchsorted(path.times, t, side="right"))
    if len(snapshots) != 2 * m + 1:
        raise ValueError("snapshots do not match the jumps with time <= t")
    d_ell = path.sizes[:m]
    d_beta, d_lambda, normalizer = clock_increments(clock, d_ell)
    if normalizer <= 0:
        raise RejectedPathError("beta(ell_t) <= 0")
    if m == 0:
        return BismutWeight(0.0, 0.0, 0.0, normalizer)

    ratio = d_beta / d_ell
    cvar = np.maximum(d_lambda - d_beta * ratio, 0.0)
    dW = realization.increments[:m]
    dWb = ratio[:, None] * dW + np.sqrt(cvar)[:, None] * realization.aux_normals[:m]

    I1 = I2 = I3 = 0.0
    for i in range(m):
        s_i = float(path.times[i])
        pre = snapshots[2 * i]
        s_inv = np.asarray(field.sigma_inv(s_i, pre.X), dtype=float)
        I1 += float(s_inv @ pre.J @ dWb[i])
        if not field.sigma_is_constant:
            dir_s = directional_sigma_derivative(field, pre.J, s_i, pre.X)
            A = s_inv @ dir_s
            I2 += float(np.trace(A)) * float(d_beta[i])
            I3 += float((A @ dWb[i]) @ dW[i])
    return BismutWeight(I1, I2, I3, normalizer)
