"""Config-driven experiment runner with machine-readable JSON reports.

Each subcommand takes a single JSON config file; there are no other
positional arguments. Runs write a versioned report (inputs echoed, results,
named pass/fail checks, diagnostics) validated against the schema shipped
with the package, plus an optional per-sample CSV. Exit codes: 0 when every
check passes, 2 when any statistical check fails or an estimator is flagged
invalid, 1 on usage or runtime errors. Reports are byte-identical across
reruns of the same config apart from the timestamp field.

Config keys are library keyword arguments: one table (_KEYS) names each
key's parameter and parser, for the top level and the nested field, f,
clock and path objects alike. Unknown keys are refused at every level, and
an optional key that is absent is not passed, so the library's default
applies. The value checks are the library's own.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from datetime import datetime, timezone
from functools import cache, partial
from importlib import resources

import jsonschema
import numpy as np

from . import engine
from . import results as rules  # rules.THRESHOLD_SE is read at call time
from .bismut import ClockDraw, ClockSpec, estimate_gradient, estimate_gradient_fixed_clock
from .coefficients import CoefficientField, catalog
from .results import ComparisonReport, compare
from .streams import checked_integer, substream
from .subordinator import (
    BernsteinSpec,
    JumpPath,
    dropped_mass_rate,
    inverse_moment,
    tail_mass,
    _kanter_log_inverse_moment,
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


class ConfigError(ValueError):
    """Bad config content: unknown keys, missing keys, invalid names."""


def _field_from(value) -> CoefficientField:
    if isinstance(value, str):
        return catalog(value)
    return catalog(**_args(value, ("name",), ("dimension",), "field"))


def _observable_from(value):
    if isinstance(value, str):
        return make_observable(value)
    return make_observable(**_args(value, ("name",), ("a",), "f"))


# the one parameter each clock kind takes, named as in its ClockSpec constructor
_CLOCK_PARAMS = {"cap_at_first_passage": "R", "piecewise_linear": "knots"}


def _clock_from(value) -> ClockSpec:
    kind = value.get("kind") if isinstance(value, dict) else None
    if kind not in _CLOCK_PARAMS:
        raise ConfigError(f"clock must be an object with a 'kind' in {sorted(_CLOCK_PARAMS)}")
    param = _CLOCK_PARAMS[kind]
    return getattr(ClockSpec, kind)(_args(value, ("kind", param), (), "clock")[param])


def _path_from(value) -> JumpPath:
    return JumpPath(**_args(value, ("horizon", "times", "sizes"), (), "path"))


def _same(value):
    return value


def _numbers(key: str, value):
    """value as read, refused by key if it holds a boolean at any depth (float(True) is 1.0)."""

    def has_bool(v):
        return isinstance(v, bool) or (isinstance(v, list) and any(map(has_bool, v)))

    if has_bool(value):
        raise ConfigError(f"{key} must be a number or an array of numbers, got {value!r}")
    return value


def _scalar(kind: type, key: str, value):
    """kind(value) if value is a JSON boolean exactly when kind is bool; else refused by key."""
    if isinstance(value, bool) != (kind is bool):  # bool("false") is True, float(True) is 1.0
        wanted = "true or false" if kind is bool else "a number"
        raise ConfigError(f"{key} must be {wanted}, got {value!r}")
    return kind(value)


# config key -> (library parameter name, parser), for the top-level config and
# its nested field/f/clock/path objects alike. Arrays and "auto" levels pass
# as read for the library to convert and check, but a boolean anywhere in
# them is refused here.
_KEYS = {
    "alpha": ("spec", BernsteinSpec.alpha_stable),
    "field": ("field", _field_from),
    "f": ("f", _observable_from),
    "path": ("path", _path_from),
    "clock": ("clock", _clock_from),
    "gammas": ("gammas", lambda gs: [_scalar(float, "gammas", g) for g in gs]),
    "antithetic": ("antithetic", partial(_scalar, bool, "antithetic")),
    "emit_samples": ("collect_samples", lambda on: CSV_ROW_CAP if on else 0),  # run() checks it
    **{
        key: (key, partial(checked_integer, key))
        for key in ("n_paths", "seed", "workers", "substeps_per_unit", "dimension")
    },
    **{
        key: (key, partial(_scalar, float, key))
        for key in ("t", "p", "eps_cut", "eps_mollify", "grid_step", "slope_tolerance", "horizon")
    },
    **{
        key: (key, partial(_numbers, key))
        for key in ("x", "v", "xi", "t_grid", "R", "eps_cut_at_1", "eps_list", "a", "knots",
                    "times", "sizes")
    },
    "name": ("name", _same),
    "kind": ("kind", _same),
}

# keys the report code reads itself; of these only emit_samples is passed on
_TARGET = ("target_value", "tolerance_abs")
_SAMPLES = ("emit_samples", "samples_path")


def _args(cfg, required: tuple, optional: tuple = (), what: str = "config") -> dict:
    """Check cfg's keys and parse them into the library's keyword arguments.

    An optional key that is absent is left out, so the library's own default
    applies.
    """
    if not isinstance(cfg, dict):
        raise ConfigError(f"{what} must be an object")
    unknown = sorted(set(cfg) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"unknown {what} keys: {unknown}")
    missing = sorted(set(required) - set(cfg))
    if missing:
        raise ConfigError(f"missing {what} keys: {missing}")
    return {
        _KEYS[key][0]: _KEYS[key][1](cfg[key])
        for key in (*required, *optional)
        if key in cfg and key in _KEYS
    }


def _from_report(rep: ComparisonReport, name: str) -> dict:
    fields = rep.to_dict()
    del fields["label"]
    return {"name": name, **fields}


def _target_checks(result, cfg: dict) -> list:
    if "target_value" not in cfg:
        return []
    kw = {key: _scalar(float, key, cfg[key]) for key in _TARGET if key in cfg}
    rep = compare(result, kw.pop("target_value"), **kw)
    return [_from_report(rep, "agrees with target_value")]


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (results, checks, diagnostics, sample_rows)


def _cmd_sample_subordinator(cfg: dict):
    kw = _args(cfg, ("alpha", "eps_cut", "t", "n_paths", "seed"))
    spec, eps, t, n, seed = (kw[k] for k in ("spec", "eps_cut", "t", "n_paths", "seed"))
    if n < 2:
        raise ConfigError("n_paths must be at least 2")
    ClockDraw.stable(spec, t, eps, 1, seed)  # the estimators' checks of t and the cutoff
    lam = t * tail_mass(spec.alpha, eps)

    def worker(bi: int, start: int, count: int):
        # drawn by row blocks with no marks; each path's count and clock are its own
        jumps = substream(seed, engine.PURPOSE_JUMPS, bi)
        blocks = engine.sample_row_blocks(spec.alpha, t, eps, count, jumps, None, 0, engine.JUMP_BLOCK)
        parts = [(jb.counts, engine.path_cumulatives(jb)[2]) for jb, _ in blocks]
        counts, ell_T = (np.concatenate(column) for column in zip(*parts))
        counts = counts.astype(float)
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
    kw = _args(
        cfg,
        ("field", "alpha", "eps_cut", "x", "f", "t", "n_paths", "seed"),
        ("substeps_per_unit", "workers", *_TARGET),
    )
    result = estimate_pt(**kw)
    checks = _target_checks(result, cfg)
    return {"estimate": result.to_dict()}, checks, dict(result.diagnostics), None


def _gradient_report(cfg: dict, result):
    checks = [
        {
            "name": "estimator valid",
            "passed": result.diagnostics.get("flagged_invalid", 0.0) == 0.0,
            "rejection_fraction": result.diagnostics.get("rejection_fraction", 0.0),
        }
    ]
    checks += _target_checks(result, cfg)
    diagnostics = dict(result.diagnostics)
    diagnostics["n_rejected"] = float(result.n_rejected)
    return {"estimate": result.to_dict()}, checks, diagnostics, result.sample_rows


def _cmd_gradient(cfg: dict):
    kw = _args(
        cfg,
        ("field", "alpha", "eps_cut", "x", "v", "f", "t", "n_paths", "seed"),
        ("R", "substeps_per_unit", "workers", "antithetic", *_SAMPLES, *_TARGET),
    )
    # R is a required parameter of estimate_gradient; "auto" is its documented default level
    return _gradient_report(cfg, estimate_gradient(**{"R": "auto", **kw}))


def _cmd_gradient_fixed_clock(cfg: dict):
    kw = _args(
        cfg,
        ("field", "x", "v", "f", "path", "clock", "t", "n_paths", "seed"),
        ("substeps_per_unit", "workers", *_SAMPLES, *_TARGET),
    )
    return _gradient_report(cfg, estimate_gradient_fixed_clock(**kw))


def _cmd_validate_bound(cfg: dict):
    kw = _args(
        cfg,
        ("field", "alpha", "f", "x", "p", "t_grid", "n_paths", "seed"),
        ("v", "eps_cut_at_1", "R", "slope_tolerance", "substeps_per_unit", "workers"),
    )
    report = check_gradient_bound(**kw)
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
    kw = _args(cfg, ("eps_mollify", "n_paths", "grid_step", "seed"), ("workers",))
    out = counterexample_moments(**kw)
    jump = out["jump_moment"]
    moll = out["mollified_moment"]
    e_minus_1 = math.e - 1.0
    sep_z = compare(moll, jump).z_score
    checks = [
        _from_report(compare(jump, 1.0), "jump-clock second moment equals 1"),
        {
            "name": "mollified moment stays above e-1",
            "passed": moll.mean >= e_minus_1 - rules.THRESHOLD_SE * moll.std_error,
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
        "mollified_target": math.exp(1.0 + kw["eps_mollify"]) - 1.0,
    }
    return results, checks, {"e_minus_1": e_minus_1}, None


def _cmd_moments(cfg: dict):
    kw = _args(cfg, ("alpha", "t", "gammas"))
    spec, t = kw["spec"], kw["t"]
    if not kw["gammas"]:
        raise ConfigError("gammas must be a nonempty list")
    values, checks = {}, []
    for g in kw["gammas"]:
        val = inverse_moment(spec, t, g)  # refused outside the normal float range
        # |log ratio| to Kanter's integral: the relative error to first order
        rel = abs(math.log(val) - _kanter_log_inverse_moment(spec, t, g))
        values[f"{g:g}"] = val
        checks.append({
            "name": f"closed form matches Kanter's integral at gamma={g:g}",
            "passed": rel <= 1e-8,
            "relative_error": rel,
        })
    return {"inverse_moments": values}, checks, {"t": t, "alpha": spec.alpha}, None


def _cmd_lemma_tests(cfg: dict):
    kw = _args(cfg, ("path", "clock", "xi", "eps_list", "n_paths", "seed"), ("workers",))
    eps_list = kw.pop("eps_list")
    iso = burkholder_isometry_check(**kw)
    entries = truncation_convergence_check(eps_list=eps_list, **kw)
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
    return results, checks, {"path_jumps": int(kw["path"].times.size)}, None


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


@cache
def report_schema() -> dict:
    return json.loads(resources.files("levygrad").joinpath("report_schema.json").read_text())


def _check_writable(key: str, path) -> None:
    """Refuse, before the run, a report or CSV path that open() cannot create."""
    # open() takes an int as a file descriptor and writes there
    if not isinstance(path, str):
        raise ConfigError(f"{key} must be a file path string")
    if path == "" or os.path.isdir(path):
        raise ConfigError(f"{key} must name a file, got {path!r}")
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise ConfigError(f"{key} {path!r} is in a directory that does not exist")


def _write_samples(path: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)


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
        if _scalar(bool, "emit_samples", cfg.get("emit_samples", False)) and "samples_path" not in cfg:
            raise ConfigError("emit_samples requires samples_path")
        for key in ("output", "samples_path"):
            if key in cfg:
                _check_writable(key, cfg[key])
        # "output" is read here; the handlers check and parse every other key
        handler_cfg = {k: v for k, v in cfg.items() if k != "output"}
        results, checks, diagnostics, rows = _HANDLERS[command](handler_cfg)
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
        try:
            with open(cfg["output"], "w") as fh:
                fh.write(text)
        except OSError as exc:
            # the run is done: keep its report rather than lose it
            print(f"error: cannot write the report ({exc}); it follows on stdout", file=sys.stderr)
            sys.stdout.write(text)
            return EXIT_ERROR
    else:
        sys.stdout.write(text)
    if rows is not None:
        try:
            _write_samples(cfg["samples_path"], rows)
        except OSError as exc:
            print(f"error: cannot write the samples: {exc}", file=sys.stderr)
            return EXIT_ERROR

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
