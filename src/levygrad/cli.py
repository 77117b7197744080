"""Config-driven experiment runner with machine-readable JSON reports.

Each subcommand takes a single JSON config file; there are no other
positional arguments. Runs write a versioned report (inputs echoed, results,
named pass/fail checks, diagnostics) validated against the schema shipped
with the package, plus an optional per-sample CSV. Exit codes: 0 when every
check passes, 2 when any statistical check fails or an estimator is flagged
invalid, 1 on usage or runtime errors. Reports are byte-identical across
reruns of the same config apart from the timestamp field.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from datetime import datetime, timezone
from importlib import resources

import jsonschema
import numpy as np

from . import engine
from .bismut import ClockSpec, estimate_gradient, estimate_gradient_fixed_clock
from .coefficients import CoefficientField, catalog
from .results import ComparisonReport, compare
from .streams import substream
from .subordinator import (
    BernsteinSpec,
    JumpPath,
    checked_jump_intensity,
    dropped_mass_rate,
    inverse_moment,
)
from .validate import (
    burkholder_isometry_check,
    check_gradient_bound,
    counterexample_moments,
    estimate_pt,
    make_observable,
    truncation_convergence_check,
)

__all__ = ["main", "run"]

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_STAT_FAIL = 2

CSV_ROW_CAP = 10**6
CSV_COLUMNS = ("sample_index", "f_value", "weight", "I1", "I2", "I3", "normalizer")

_COMMON_OPTIONAL = ("output",)


class ConfigError(ValueError):
    """Bad config content: unknown keys, missing keys, invalid names."""


def _check_keys(cfg: dict, required: tuple, optional: tuple) -> None:
    unknown = sorted(set(cfg) - set(required) - set(optional) - set(_COMMON_OPTIONAL))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    missing = sorted(set(required) - set(cfg))
    if missing:
        raise ConfigError(f"missing config keys: {missing}")


def _field_from(value) -> CoefficientField:
    if isinstance(value, str):
        return catalog(value)
    if isinstance(value, dict):
        extra = sorted(set(value) - {"name", "dimension"})
        if extra:
            raise ConfigError(f"unknown field keys: {extra}")
        if "name" not in value:
            raise ConfigError("field object needs a 'name'")
        return catalog(value["name"], int(value.get("dimension", 1)))
    raise ConfigError("field must be a catalog name or {name, dimension}")


def _observable_from(value):
    if isinstance(value, str):
        return make_observable(value)
    if isinstance(value, dict):
        extra = sorted(set(value) - {"name", "a"})
        if extra:
            raise ConfigError(f"unknown f keys: {extra}")
        if "name" not in value:
            raise ConfigError("f object needs a 'name'")
        return make_observable(value["name"], value.get("a"))
    raise ConfigError("f must be an observable name or {name, a}")


def _clock_from(value) -> ClockSpec:
    if not isinstance(value, dict) or "kind" not in value:
        raise ConfigError("clock must be an object with a 'kind'")
    kind = value["kind"]
    if kind == "cap_at_first_passage":
        extra = sorted(set(value) - {"kind", "R"})
        if extra:
            raise ConfigError(f"unknown clock keys: {extra}")
        if "R" not in value:
            raise ConfigError("cap_at_first_passage clock needs 'R'")
        return ClockSpec.cap_at_first_passage(float(value["R"]))
    if kind == "piecewise_linear":
        extra = sorted(set(value) - {"kind", "knots"})
        if extra:
            raise ConfigError(f"unknown clock keys: {extra}")
        if "knots" not in value:
            raise ConfigError("piecewise_linear clock needs 'knots'")
        return ClockSpec.piecewise_linear(value["knots"])
    raise ConfigError(f"unknown clock kind {kind!r}")


def _path_from(value) -> JumpPath:
    if not isinstance(value, dict):
        raise ConfigError("path must be an object {horizon, times, sizes}")
    extra = sorted(set(value) - {"horizon", "times", "sizes"})
    if extra:
        raise ConfigError(f"unknown path keys: {extra}")
    for key in ("horizon", "times", "sizes"):
        if key not in value:
            raise ConfigError(f"path needs '{key}'")
    return JumpPath(
        float(value["horizon"]),
        np.asarray(value["times"], dtype=float),
        np.asarray(value["sizes"], dtype=float),
    )


def _stable_spec(cfg: dict) -> BernsteinSpec:
    return BernsteinSpec.alpha_stable(float(cfg["alpha"]))


def _from_report(rep: ComparisonReport, name: str) -> dict:
    return {
        "name": name,
        "passed": rep.passed,
        "z_score": rep.z_score,
        "lhs_mean": rep.lhs_mean,
        "rhs_mean": rep.rhs_mean,
        "combined_se": rep.combined_se,
        "threshold_se": rep.threshold_se,
        "tolerance_abs": rep.tolerance_abs,
    }


def _target_check(result, cfg: dict, checks: list) -> None:
    if "target_value" in cfg:
        rep = compare(
            result,
            float(cfg["target_value"]),
            tolerance_abs=float(cfg.get("tolerance_abs", 0.0)),
        )
        checks.append(_from_report(rep, "agrees with target_value"))


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (results, checks, diagnostics, sample_rows)


def _cmd_sample_subordinator(cfg: dict):
    _check_keys(cfg, ("alpha", "eps_cut", "t", "n_paths", "seed"), ())
    spec = _stable_spec(cfg)
    eps = float(cfg["eps_cut"])
    t = float(cfg["t"])
    n = int(cfg["n_paths"])
    seed = int(cfg["seed"])
    if not (t > 0 and eps > 0) or n < 2:
        raise ConfigError("need t > 0, eps_cut > 0, n_paths >= 2")
    lam = checked_jump_intensity(spec.alpha, eps, t)

    def worker(bi: int, start: int, count: int):
        jb = engine.sample_jump_batch(
            spec.alpha, t, eps, count, substream(seed, engine.PURPOSE_JUMPS, bi)
        )
        _, _, ell_T = engine.path_cumulatives(jb)
        counts = jb.counts.astype(float)
        return {"samples": {"count": counts, "empty": (counts == 0).astype(float)}, "ell_T": ell_T}

    run = engine.run_batches(n, 1, worker)
    counts = run.result(column="count")
    empty = run.result(column="empty")
    terminals = np.concatenate([part["ell_T"] for part in run.parts])

    checks = [
        _from_report(compare(counts, lam), "mean jump count matches intensity"),
        _from_report(
            compare(empty, math.exp(-lam)), "empty-path fraction matches Poisson mass"
        ),
    ]
    results = {
        "mean_jump_count": counts.mean,
        "expected_jump_count": lam,
        "empty_fraction": empty.mean,
        "expected_empty_fraction": math.exp(-lam),
        "median_terminal_value": float(np.median(terminals)),
    }
    diagnostics = {
        "expected_dropped_clock_mass": dropped_mass_rate(spec.alpha, eps) * t,
        "eps_cut": eps,
    }
    return results, checks, diagnostics, None


def _cmd_simulate(cfg: dict):
    _check_keys(
        cfg,
        ("field", "alpha", "eps_cut", "x", "f", "t", "n_paths", "seed"),
        ("substeps_per_unit", "workers", "target_value", "tolerance_abs"),
    )
    field = _field_from(cfg["field"])
    spec = _stable_spec(cfg)
    f = _observable_from(cfg["f"])
    result = estimate_pt(
        cfg["x"],
        f,
        field,
        spec,
        float(cfg["t"]),
        int(cfg["n_paths"]),
        int(cfg["seed"]),
        eps_cut=float(cfg["eps_cut"]),
        substeps_per_unit=int(cfg.get("substeps_per_unit", 100)),
        workers=int(cfg.get("workers", 1)),
    )
    checks: list = []
    _target_check(result, cfg, checks)
    return {"estimate": result.to_dict()}, checks, dict(result.diagnostics), None


def _gradient_common(cfg: dict, result):
    checks = [
        {
            "name": "estimator valid",
            "passed": result.diagnostics.get("flagged_invalid", 0.0) == 0.0,
            "rejection_fraction": result.diagnostics.get("rejection_fraction", 0.0),
        }
    ]
    _target_check(result, cfg, checks)
    diagnostics = dict(result.diagnostics)
    diagnostics["n_rejected"] = float(result.n_rejected)
    rows = getattr(result, "_sample_rows", None) if cfg.get("emit_samples", False) else None
    return {"estimate": result.to_dict()}, checks, diagnostics, rows


def _cmd_gradient(cfg: dict):
    _check_keys(
        cfg,
        ("field", "alpha", "eps_cut", "x", "v", "f", "t", "n_paths", "seed"),
        (
            "R",
            "substeps_per_unit",
            "workers",
            "antithetic",
            "emit_samples",
            "samples_path",
            "target_value",
            "tolerance_abs",
        ),
    )
    field = _field_from(cfg["field"])
    spec = _stable_spec(cfg)
    f = _observable_from(cfg["f"])
    n = int(cfg["n_paths"])
    emit = bool(cfg.get("emit_samples", False))
    result = estimate_gradient(
        cfg["x"],
        cfg["v"],
        f,
        field,
        spec,
        float(cfg["t"]),
        cfg.get("R", "auto"),
        n,
        float(cfg["eps_cut"]),
        int(cfg["seed"]),
        substeps_per_unit=int(cfg.get("substeps_per_unit", 100)),
        workers=int(cfg.get("workers", 1)),
        antithetic=bool(cfg.get("antithetic", False)),
        collect_samples=min(n, CSV_ROW_CAP) if emit else 0,
    )
    return _gradient_common(cfg, result)


def _cmd_gradient_fixed_clock(cfg: dict):
    _check_keys(
        cfg,
        ("field", "x", "v", "f", "path", "clock", "t", "n_paths", "seed"),
        (
            "substeps_per_unit",
            "workers",
            "emit_samples",
            "samples_path",
            "target_value",
            "tolerance_abs",
        ),
    )
    field = _field_from(cfg["field"])
    f = _observable_from(cfg["f"])
    path = _path_from(cfg["path"])
    clock = _clock_from(cfg["clock"])
    n = int(cfg["n_paths"])
    emit = bool(cfg.get("emit_samples", False))
    result = estimate_gradient_fixed_clock(
        cfg["x"],
        cfg["v"],
        f,
        field,
        path,
        clock,
        float(cfg["t"]),
        n,
        int(cfg["seed"]),
        substeps_per_unit=int(cfg.get("substeps_per_unit", 100)),
        workers=int(cfg.get("workers", 1)),
        collect_samples=min(n, CSV_ROW_CAP) if emit else 0,
    )
    return _gradient_common(cfg, result)


def _cmd_validate_bound(cfg: dict):
    _check_keys(
        cfg,
        ("field", "alpha", "f", "x", "p", "t_grid", "n_paths", "seed"),
        ("v", "eps_cut_at_1", "R", "slope_tolerance", "substeps_per_unit", "workers"),
    )
    field = _field_from(cfg["field"])
    spec = _stable_spec(cfg)
    f = _observable_from(cfg["f"])
    report = check_gradient_bound(
        field,
        spec,
        f,
        cfg["x"],
        float(cfg["p"]),
        cfg["t_grid"],
        int(cfg["n_paths"]),
        int(cfg["seed"]),
        v=cfg.get("v"),
        eps_cut_at_1=cfg.get("eps_cut_at_1"),
        R=cfg.get("R", "auto"),
        slope_tolerance=float(cfg.get("slope_tolerance", 0.15)),
        substeps_per_unit=int(cfg.get("substeps_per_unit", 100)),
        workers=int(cfg.get("workers", 1)),
    )
    checks = [
        {"name": "grid complete", "passed": not report["incomplete"]},
        {
            "name": "ratio slope within tolerance of -1/alpha",
            "passed": bool(report["passed"]),
            "slope": report["slope"],
            "slope_target": report["slope_target"],
            "slope_tolerance": report["slope_tolerance"],
        },
    ]
    diagnostics = {"constant_estimate": report["constant_estimate"]}
    return report, checks, diagnostics, None


def _cmd_counterexample(cfg: dict):
    _check_keys(
        cfg,
        ("eps_mollify", "n_paths", "grid_step", "seed"),
        ("workers",),
    )
    out = counterexample_moments(
        float(cfg["eps_mollify"]),
        int(cfg["n_paths"]),
        float(cfg["grid_step"]),
        int(cfg["seed"]),
        workers=int(cfg.get("workers", 1)),
    )
    jump = out["jump_moment"]
    moll = out["mollified_moment"]
    e_minus_1 = math.e - 1.0
    sep_se = math.hypot(jump.std_error, moll.std_error)
    sep_z = (moll.mean - jump.mean) / sep_se if sep_se > 0 else math.inf
    checks = [
        _from_report(compare(jump, 1.0), "jump-clock second moment equals 1"),
        {
            "name": "mollified moment stays above e-1",
            "passed": moll.mean >= e_minus_1 - 3.0 * moll.std_error,
            "mollified_mean": moll.mean,
            "threshold": e_minus_1,
        },
        {
            "name": "mollified and jump moments separated",
            "passed": sep_z >= 5.0,
            "z_score": sep_z,
        },
    ]
    results = {
        "jump_moment": jump.to_dict(),
        "mollified_moment": moll.to_dict(),
        "mollified_target": math.exp(1.0 + float(cfg["eps_mollify"])) - 1.0,
    }
    return results, checks, {"e_minus_1": e_minus_1}, None


def _cmd_moments(cfg: dict):
    _check_keys(cfg, ("alpha", "t", "gammas"), ())
    spec = _stable_spec(cfg)
    t = float(cfg["t"])
    gammas = [float(g) for g in cfg["gammas"]]
    if not gammas or any(g <= 0 for g in gammas):
        raise ConfigError("gammas must be positive")
    values = {}
    checks = []
    for g in gammas:
        val = inverse_moment(spec, t, g)
        ref = inverse_moment(spec, 1.0, g) * t ** (-2.0 * g / spec.alpha)
        rel = abs(val - ref) / ref
        values[f"{g:g}"] = val
        checks.append(
            {
                "name": f"self-similar scaling at gamma={g:g}",
                "passed": rel <= 1e-8,
                "relative_error": rel,
            }
        )
    return {"inverse_moments": values}, checks, {"t": t, "alpha": spec.alpha}, None


def _cmd_lemma_tests(cfg: dict):
    _check_keys(
        cfg,
        ("path", "clock", "xi", "eps_list", "n_paths", "seed"),
        ("workers",),
    )
    path = _path_from(cfg["path"])
    clock = _clock_from(cfg["clock"])
    n = int(cfg["n_paths"])
    seed = int(cfg["seed"])
    workers = int(cfg.get("workers", 1))
    iso = burkholder_isometry_check(cfg["xi"], path, clock, n, seed, workers=workers)
    entries = truncation_convergence_check(
        path, clock, cfg["xi"], cfg["eps_list"], n, seed, workers=workers
    )
    checks = [_from_report(iso, "second-moment isometry")]
    for e in entries:
        checks.append(
            {
                "name": f"truncation gap matches closed form at eps={e['eps']:g}",
                "passed": e["passed"],
                "z_score": e["z_score"],
                "empirical": e["empirical"],
                "exact": e["exact"],
            }
        )
    exact_seq = [e["exact"] for e in entries]
    checks.append(
        {
            "name": "exact truncation gap nonincreasing",
            "passed": all(b <= a + 1e-12 for a, b in zip(exact_seq, exact_seq[1:])),
        }
    )
    results = {
        "isometry": iso.to_dict(),
        "truncation": entries,
    }
    return results, checks, {"path_jumps": int(path.times.size)}, None


_HANDLERS = {
    "sample-subordinator": _cmd_sample_subordinator,
    "simulate": _cmd_simulate,
    "gradient": _cmd_gradient,
    "gradient-fixed-clock": _cmd_gradient_fixed_clock,
    "validate-bound": _cmd_validate_bound,
    "counterexample": _cmd_counterexample,
    "moments": _cmd_moments,
    "lemma-tests": _cmd_lemma_tests,
}


# ---------------------------------------------------------------------------
# report assembly


def _plain(obj):
    """JSON-safe copy: numpy scalars unwrapped, non-finite floats as strings."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isnan(v):
            return "NaN"
        if math.isinf(v):
            return "Infinity" if v > 0 else "-Infinity"
        return v
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj


_schema_cache: dict | None = None


def report_schema() -> dict:
    global _schema_cache
    if _schema_cache is None:
        text = resources.files("levygrad").joinpath("report_schema.json").read_text()
        _schema_cache = json.loads(text)
    return _schema_cache


def _write_samples(path: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows[:CSV_ROW_CAP]:
            writer.writerow(row)


def run(command: str, config_path: str) -> int:
    """Execute one subcommand against a JSON config file; returns the exit code."""
    if command not in _HANDLERS:
        print(f"error: unknown command {command!r}", file=sys.stderr)
        return EXIT_ERROR
    try:
        with open(config_path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except json.JSONDecodeError as exc:
        print(
            f"error: config is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}",
            file=sys.stderr,
        )
        return EXIT_ERROR
    if not isinstance(cfg, dict):
        print("error: config must be a JSON object", file=sys.stderr)
        return EXIT_ERROR

    try:
        if cfg.get("emit_samples", False) and "samples_path" not in cfg:
            raise ConfigError("emit_samples requires samples_path")
        results, checks, diagnostics, rows = _HANDLERS[command](cfg)
    except (ConfigError, ValueError, TypeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except RuntimeError as exc:
        print(f"error: run failed: {exc}", file=sys.stderr)
        return EXIT_ERROR

    report = {
        "schema_version": "1",
        "command": command,
        "config": _plain(cfg),
        "results": _plain(results),
        "checks": _plain(checks),
        "diagnostics": _plain(diagnostics),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    try:
        jsonschema.validate(report, report_schema())
    except jsonschema.ValidationError as exc:
        print(f"error: report failed schema validation: {exc.message}", file=sys.stderr)
        return EXIT_ERROR

    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if "output" in cfg:
        with open(cfg["output"], "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if rows is not None:
        _write_samples(cfg["samples_path"], rows)

    failed = [c["name"] for c in checks if not c["passed"]]
    n_ok = len(checks) - len(failed)
    if "output" in cfg:
        print(f"{command}: {n_ok}/{len(checks)} checks passed -> {cfg['output']}")
    if failed:
        for name in failed:
            print(f"FAILED: {name}", file=sys.stderr)
        return EXIT_STAT_FAIL
    return EXIT_PASS


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="levygrad", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name, help=f"run the {name} scenario")
        p.add_argument("config", help="path to the JSON config file")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    return run(args.command, args.config)


if __name__ == "__main__":
    sys.exit(main())
