"""Release gate: one test per documented guarantee, each printing a verdict.

Every test here prints a single ``ACCEPTANCE <id>: PASS/FAIL`` line (visible
even under capture) and then asserts, so a plain ``pytest tests/test_acceptance.py``
doubles as a checklist. Sample counts are fixed at the sizes the guarantees
are stated for, so this file is slower than the unit tests (a few minutes
total). Seeds are fixed; every statistical check is a z-test at 3 standard
errors unless stated otherwise.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import oracles
from levygrad.bismut import ClockSpec, estimate_gradient
from levygrad.cli import EXIT_PASS, main as cli_main
from levygrad.coefficients import catalog
from levygrad.engine import fixed_jump_batch, flow_batch
from levygrad.streams import substream
from levygrad.subordinator import (
    BernsteinSpec,
    JumpPath,
    inverse_moment,
    sample_terminal_values,
)
from levygrad.validate import (
    burkholder_isometry_check,
    check_gradient_bound,
    counterexample_moments,
    fd_gradient,
    make_observable,
    truncation_convergence_check,
)

N_LARGE = 1_000_000
WORKERS = 4


def announce(capsys, label: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    with capsys.disabled():
        print(line, flush=True)


def test_criterion_1_subordinator_law(capsys):
    """Laplace transform of S_1 at alpha=1.2 matches exp(-u^0.6) for three u."""
    spec = BernsteinSpec.alpha_stable(1.2)
    start = time.perf_counter()
    vals = sample_terminal_values(
        spec, 1.0, 1e-3, 100_000, substream(101, 9), compensate_small_jumps=True
    )
    z_scores = []
    for u in (0.5, 1.0, 2.0):
        samples = np.exp(-u * vals)
        mean = samples.mean()
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        z_scores.append((mean - math.exp(-(u**0.6))) / se)
    elapsed = time.perf_counter() - start
    ok = all(abs(z) <= 3.0 for z in z_scores) and elapsed < 10.0
    announce(
        capsys, "1", ok,
        f"z = {', '.join(f'{z:+.2f}' for z in z_scores)}, {elapsed:.1f}s",
    )
    assert all(abs(z) <= 3.0 for z in z_scores)
    assert elapsed < 10.0


def test_criterion_2_inverse_moment(capsys):
    """E S_1^{-1/2} at alpha=1: quadrature vs 2/sqrt(pi), then a MC cross-check."""
    spec = BernsteinSpec.alpha_stable(1.0)
    target = 2.0 / math.sqrt(math.pi)
    quad = inverse_moment(spec, 1.0, 0.5)
    rel = abs(quad - target) / target

    vals = sample_terminal_values(
        spec, 1.0, 1e-4, 100_000, substream(102, 9), compensate_small_jumps=True
    )
    samples = vals**-0.5
    mean = samples.mean()
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    z = (mean - target) / se

    ok = rel <= 1e-6 and abs(z) <= 3.0
    announce(capsys, "2", ok, f"quadrature rel err {rel:.1e}, MC z = {z:+.2f}")
    assert rel <= 1e-6
    assert abs(z) <= 3.0


def test_criterion_3a_additive_linear(capsys):
    """Additive noise, linear f: gradient estimate equals <a, v> exactly in mean."""
    a = np.array([1.7])
    v = np.array([2.0])
    start = time.perf_counter()
    res = estimate_gradient(
        np.array([0.4]), v, make_observable("linear", a),
        catalog("additive_identity", 1), BernsteinSpec.alpha_stable(1.5),
        1.0, "auto", N_LARGE, 3e-3, 301, workers=WORKERS,
    )
    elapsed = time.perf_counter() - start
    z = (res.mean - 3.4) / res.std_error
    ok = abs(z) <= 3.0 and elapsed < 120.0
    announce(capsys, "3a", ok, f"z = {z:+.2f} vs 3.4, {elapsed:.0f}s")
    assert abs(z) <= 3.0
    assert elapsed < 120.0


def test_criterion_3b_ou_linear(capsys):
    """Linear drift, additive noise, linear f: target e^{-t} <a, v> at t = 0.5."""
    a = np.array([1.0, -0.5])
    v = np.array([0.8, 0.6])
    target = math.exp(-0.5) * 0.5
    start = time.perf_counter()
    res = estimate_gradient(
        np.array([0.2, -0.1]), v, make_observable("linear", a),
        catalog("ou_additive", 2), BernsteinSpec.alpha_stable(1.5),
        0.5, "auto", N_LARGE, 3e-3, 302, workers=WORKERS,
    )
    elapsed = time.perf_counter() - start
    z = (res.mean - target) / res.std_error
    ok = abs(z) <= 3.0 and elapsed < 120.0
    announce(capsys, "3b", ok, f"z = {z:+.2f} vs {target:.5f}, {elapsed:.0f}s")
    assert abs(z) <= 3.0
    assert elapsed < 120.0


@pytest.fixture(scope="module")
def sign_gradient_run():
    """One large run shared by the two sign-observable tests below."""
    start = time.perf_counter()
    res = estimate_gradient(
        np.zeros(1), np.ones(1), make_observable("sign"),
        catalog("additive_identity", 1), BernsteinSpec.alpha_stable(1.5),
        1.0, "auto", N_LARGE, 2e-4, 303, workers=WORKERS,
    )
    return res, time.perf_counter() - start


def test_criterion_3c_sign_pinned_constant(capsys, sign_gradient_run):
    """Sign observable at alpha=1.5, t=1 against the pinned constant 0.57470.

    The pinned value equals 2*Gamma(1 + 1/alpha)/pi at alpha = 1.5, which is
    the gradient one gets when the noise increments carry characteristic
    function exp(-u |xi|^2), i.e. twice the usual Brownian speed. The marks
    sampled throughout this package are standard Brownian (characteristic
    function exp(-u |xi|^2 / 2)), the normalization every other check in the
    suite is calibrated to, and under that convention the exact limit is
    sqrt(2/pi) * E[S_1^{-1/2}] = 0.81276, larger by exactly sqrt(2). The
    semi-analytic value for the truncated clock actually sampled here
    (cutoff 2e-4) is 0.88165, and the companion test verifies the estimator
    against it. This test is therefore expected to fail: the pinned constant
    is inconsistent with the mark normalization used everywhere else, and the
    estimator is left reporting the value it honestly converges to.
    """
    res, elapsed = sign_gradient_run
    z = (res.mean - 0.57470) / res.std_error
    ok = abs(z) <= 3.0 and elapsed < 120.0
    announce(
        capsys, "3c", ok,
        f"estimate {res.mean:.5f} ± {res.std_error:.5f}, z = {z:+.1f} vs 0.57470; "
        "see companion test for the convention analysis",
    )
    assert elapsed < 120.0
    assert abs(z) <= 3.0, (
        f"estimate {res.mean:.5f} ± {res.std_error:.5f} vs pinned 0.57470: "
        "the constant presumes doubled-speed noise; under the standard Brownian "
        "marks used throughout, the truncated-clock value is 0.88165 (see the "
        "companion test, which passes)"
    )


def test_criterion_3c_companion_sign_truncated_clock(capsys, sign_gradient_run):
    """Same run, compared against the semi-analytic truncated-clock value."""
    res, _ = sign_gradient_run
    target = oracles.truncated_sign_gradient_target(1.5, 1.0, 2e-4)
    z = (res.mean - target) / res.std_error
    ok = abs(z) <= 3.0
    announce(capsys, "3c-companion", ok, f"z = {z:+.2f} vs {target:.5f}")
    assert abs(z) <= 3.0


def test_criterion_4_multiplicative_vs_finite_difference(capsys):
    """State-dependent sigma: weighted estimator vs a common-random-numbers FD."""
    field = catalog("bounded_multiplicative", 2)
    spec = BernsteinSpec.alpha_stable(1.5)
    f = make_observable("tanh1")
    x = np.array([0.3, 0.0])
    v = np.array([1.0, 0.5])
    start = time.perf_counter()
    bis = estimate_gradient(x, v, f, field, spec, 0.5, "auto", N_LARGE, 3e-3, 318,
                            workers=WORKERS)
    fd = fd_gradient(x, v, f, field, spec, 0.5, 5e-3, N_LARGE, 319, eps_cut=3e-3,
                     workers=WORKERS)
    elapsed = time.perf_counter() - start
    se = math.hypot(bis.std_error, fd.std_error)
    z = (bis.mean - fd.mean) / se
    ok = abs(bis.mean - fd.mean) <= 3.0 * se
    announce(
        capsys, "4", ok,
        f"weighted {bis.mean:.5f} ± {bis.std_error:.5f}, "
        f"FD {fd.mean:.5f} ± {fd.std_error:.5f}, z = {z:+.2f}, {elapsed:.0f}s",
    )
    assert abs(bis.mean - fd.mean) <= 3.0 * se


def test_criterion_5_short_time_scaling(capsys):
    """log-gradient of the sign observable decays like t^{-1/alpha} at alpha=1.5."""
    start = time.perf_counter()
    # cutoff scaled as t^{2/alpha}: the truncated clock is then exactly
    # self-similar, so truncation cannot tilt the fitted slope
    out = check_gradient_bound(
        catalog("additive_identity", 1), BernsteinSpec.alpha_stable(1.5),
        make_observable("sign"), np.zeros(1), 2.0,
        [0.02, 0.05, 0.1, 0.2, 0.5, 1.0], N_LARGE, seed=3,
        eps_cut_at_1=3e-3, workers=WORKERS,
    )
    elapsed = time.perf_counter() - start
    dev = abs(out["slope"] - (-2.0 / 3.0)) if not out["incomplete"] else math.inf
    ok = not out["incomplete"] and dev <= 0.15 and elapsed < 600.0
    announce(
        capsys, "5", ok,
        f"slope {out['slope']:+.4f} vs -0.6667 (|dev| = {dev:.4f}), {elapsed:.0f}s",
    )
    assert not out["incomplete"]
    assert dev <= 0.15
    assert elapsed < 600.0


def test_criterion_6_mollification_counterexample(capsys):
    """Jump clock gives E|X_1|^2 = 1; the mollified clock stays near e^{1.1}-1."""
    out = counterexample_moments(0.1, 200_000, 1e-3, 601, workers=WORKERS)
    jump, moll = out["jump_moment"], out["mollified_moment"]
    target = math.exp(1.1) - 1.0
    z_jump = (jump.mean - 1.0) / jump.std_error
    moll_ok = abs(moll.mean - target) <= 3.0 * moll.std_error + 1e-2
    z_sep = (moll.mean - jump.mean) / math.hypot(jump.std_error, moll.std_error)
    ok = abs(z_jump) <= 3.0 and moll_ok and z_sep >= 5.0
    announce(
        capsys, "6", ok,
        f"jump z = {z_jump:+.2f}, mollified {moll.mean:.4f} vs {target:.4f}, "
        f"separation z = {z_sep:.0f}",
    )
    assert abs(z_jump) <= 3.0
    assert moll_ok
    assert z_sep >= 5.0


def test_criterion_7_isometry_and_truncation(capsys):
    """Second-moment isometry and closed-form truncation gaps on a fixed path."""
    path = JumpPath(1.0, np.array([0.2, 0.45, 0.7, 0.9]),
                    np.array([1.3, 0.9, 0.4, 0.05]))
    clock = ClockSpec.cap_at_first_passage(2.0)
    xi = [1.0, -0.5]
    iso = burkholder_isometry_check(xi, path, clock, 20_000, 701)
    entries = truncation_convergence_check(
        path, clock, xi, [1.0, 0.5, 0.1, 0.01], 20_000, 701
    )
    exact = [e["exact"] for e in entries]
    nonincreasing = all(b <= a + 1e-12 for a, b in zip(exact, exact[1:]))
    ok = iso.passed and all(e["passed"] for e in entries) and nonincreasing
    trunc_z = ", ".join(f"{e['z_score']:+.2f}" for e in entries)
    announce(capsys, "7", ok, f"isometry z = {iso.z_score:+.2f}, truncation z = {trunc_z}")
    assert iso.passed
    assert all(e["passed"] for e in entries)
    assert nonincreasing


def test_criterion_8_exact_identities(capsys, tmp_path):
    """Structural zeros, linearity, integrator order, and determinism."""
    import json

    field = catalog("additive_identity", 1)
    spec = BernsteinSpec.alpha_stable(1.5)
    f = make_observable("tanh1")
    x, v = np.zeros(1), np.ones(1)

    # constant sigma: the trace and quadratic terms vanish on every path
    res = estimate_gradient(x, v, f, field, spec, 1.0, "auto", 2000, 3e-3, 801,
                            collect_samples=2000)
    rows = res.sample_rows
    additive_zeros = len(rows) > 0 and all(r[4] == 0.0 and r[5] == 0.0 for r in rows)

    # the estimate is linear in the direction v at fixed seed
    F2 = catalog("bounded_multiplicative", 2)
    v1, v2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    args = (np.array([0.3, 0.0]), make_observable("tanh1"), F2, spec, 0.5, "auto",
            4000, 3e-3, 802)
    g1 = estimate_gradient(args[0], v1, *args[1:]).mean
    g2 = estimate_gradient(args[0], v2, *args[1:]).mean
    g12 = estimate_gradient(args[0], v1 + 2.0 * v2, *args[1:]).mean
    linear = abs(g12 - (g1 + 2.0 * g2)) <= 1e-10

    # RK4 on the linear-drift field reproduces e^{-1} to 1e-8 over one unit;
    # without its drift_rate hint the field's flow steps by RK4
    no_jumps = fixed_jump_batch(JumpPath(1.0, np.array([]), np.array([])), 1.0, 1)
    X1, Jv1, *_ = flow_batch(
        np.array([1.0]), np.array([1.0]), dataclasses.replace(catalog("ou_additive", 1), drift_rate=None),
        no_jumps, np.empty((0, 1)), 100, np.empty((0, 1)), np.empty(0),
    )
    rk4 = abs(X1[0, 0] - math.exp(-1.0)) <= 1e-8 and abs(Jv1[0, 0] - math.exp(-1.0)) <= 1e-8

    # worker count must not change a single bit of the result
    r1 = estimate_gradient(x, v, f, field, spec, 0.5, "auto", 70_000, 3e-3, 803,
                           workers=1)
    r4 = estimate_gradient(x, v, f, field, spec, 0.5, "auto", 70_000, 3e-3, 803,
                           workers=4)
    deterministic = (
        r1.mean == r4.mean
        and r1.std_error == r4.std_error
        and r1.n_rejected == r4.n_rejected
    )

    # reruns of one CLI config produce byte-identical reports up to the timestamp
    cfg = {
        "field": {"name": "bounded_multiplicative", "dimension": 2},
        "alpha": 1.5, "eps_cut": 3e-3, "x": [0.3, 0.0], "v": [1.0, 0.5],
        "f": "tanh1", "t": 0.5, "n_paths": 1000, "seed": 804,
        "output": str(tmp_path / "report.json"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    code1 = cli_main(["gradient", str(cfg_path)])
    text1 = (tmp_path / "report.json").read_text()
    code2 = cli_main(["gradient", str(cfg_path)])
    text2 = (tmp_path / "report.json").read_text()
    strip = lambda s: [ln for ln in s.splitlines() if '"timestamp"' not in ln]
    reports_identical = (
        code1 == code2 == EXIT_PASS and strip(text1) == strip(text2)
    )

    checks = {
        "additive zeros": additive_zeros,
        "linearity": linear,
        "RK4": rk4,
        "worker determinism": deterministic,
        "byte-identical reports": reports_identical,
    }
    ok = all(checks.values())
    announce(capsys, "8", ok, ", ".join(f"{k} {'ok' if p else 'FAIL'}" for k, p in checks.items()))
    assert all(checks.values()), checks
