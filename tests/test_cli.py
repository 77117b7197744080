"""End-to-end tests of the config-driven command line runner.

Every scenario goes through ``levygrad.cli.main`` with a JSON config written
to a temp directory, exactly as a shell invocation would. Reports are parsed
back and re-validated against the packaged schema from the test side.
"""

import csv
import hashlib
import json
import math

import jsonschema
import pytest

from levygrad import cli, results
from levygrad.cli import EXIT_ERROR, EXIT_PASS, EXIT_STAT_FAIL, main, report_schema


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_to_file(tmp_path, command, cfg, name="config.json", out="report.json"):
    cfg = dict(cfg)
    cfg["output"] = str(tmp_path / out)
    code = main([command, write_config(tmp_path, cfg, name)])
    report = json.loads((tmp_path / out).read_text())
    return code, report


def gradient_config(n_paths=2000, seed=42):
    return {
        "field": {"name": "bounded_multiplicative", "dimension": 2},
        "alpha": 1.5,
        "eps_cut": 3e-3,
        "x": [0.3, -0.2],
        "v": [1.0, 0.5],
        "f": "tanh1",
        "t": 0.5,
        "n_paths": n_paths,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# happy paths, one per subcommand


def test_gradient_report_passes_and_validates(tmp_path):
    code, report = run_to_file(tmp_path, "gradient", gradient_config())
    assert code == EXIT_PASS
    jsonschema.validate(report, report_schema())
    assert report["command"] == "gradient"
    assert report["schema_version"] == "1"
    # config echoed back verbatim (plus the output key we injected)
    assert report["config"]["alpha"] == 1.5
    assert report["config"]["field"] == {"name": "bounded_multiplicative", "dimension": 2}
    assert all(c["passed"] for c in report["checks"])
    est = report["results"]["estimate"]
    assert est["n_samples"] == 2000
    assert est["std_error"] > 0
    assert report["diagnostics"]["mean_jump_count"] > 0
    assert report["diagnostics"]["n_rejected"] == 0.0


def test_sample_subordinator_report(tmp_path):
    cfg = {"alpha": 1.0, "eps_cut": 1e-2, "t": 1.0, "n_paths": 4000, "seed": 7}
    code, report = run_to_file(tmp_path, "sample-subordinator", cfg)
    assert code == EXIT_PASS
    jsonschema.validate(report, report_schema())
    res = report["results"]
    assert res["expected_jump_count"] == pytest.approx(res["mean_jump_count"], rel=0.1)
    assert 0.0 < res["expected_empty_fraction"] < 1.0
    assert res["median_terminal_value"] > 0


@pytest.mark.parametrize("t", [0.0, -1.0])
def test_sample_subordinator_refuses_t_not_positive(t, tmp_path, capsys):
    # t = 0 passed both checks on an all-empty clock
    cfg = dict(PINNED["sample-subordinator"][1], t=t)
    assert main(["sample-subordinator", write_config(tmp_path, cfg)]) == EXIT_ERROR
    assert "t must be positive" in capsys.readouterr().err


def test_simulate_with_target(tmp_path):
    # additive field, constant observable: estimate is exactly 1
    cfg = {
        "field": "additive_identity",
        "alpha": 1.2,
        "eps_cut": 1e-2,
        "x": [0.0],
        "f": "const1",
        "t": 1.0,
        "n_paths": 500,
        "seed": 3,
        "target_value": 1.0,
    }
    code, report = run_to_file(tmp_path, "simulate", cfg)
    assert code == EXIT_PASS
    assert report["results"]["estimate"]["mean"] == 1.0
    names = [c["name"] for c in report["checks"]]
    assert "agrees with target_value" in names


def test_gradient_fixed_clock_report(tmp_path):
    cfg = {
        "field": "additive_identity",
        "x": [0.0],
        "v": [1.0],
        "f": {"name": "linear", "a": [2.0]},
        "path": {"horizon": 1.0, "times": [0.5], "sizes": [1.0]},
        "clock": {"kind": "cap_at_first_passage", "R": 2.0},
        "t": 1.0,
        "n_paths": 4000,
        "seed": 11,
        "target_value": 2.0,
    }
    code, report = run_to_file(tmp_path, "gradient-fixed-clock", cfg)
    assert code == EXIT_PASS
    jsonschema.validate(report, report_schema())
    assert all(c["passed"] for c in report["checks"])


def test_validate_bound_report(tmp_path):
    cfg = {
        "field": "pythagoras_1d",
        "alpha": 1.5,
        "f": "tanh1",
        "x": [0.2],
        "p": 2.0,
        "t_grid": [0.25, 0.5, 1.0],
        "n_paths": 3000,
        "seed": 5,
        "slope_tolerance": 0.5,
    }
    code, report = run_to_file(tmp_path, "validate-bound", cfg)
    assert code == EXIT_PASS
    assert report["results"]["incomplete"] is False
    assert report["results"]["slope_target"] == pytest.approx(-2.0 / 3.0)
    names = [c["name"] for c in report["checks"]]
    assert "grid complete" in names


def test_counterexample_report(tmp_path):
    cfg = {"eps_mollify": 0.1, "n_paths": 8000, "grid_step": 1e-3, "seed": 19}
    code, report = run_to_file(tmp_path, "counterexample", cfg)
    assert code == EXIT_PASS
    res = report["results"]
    assert res["mollified_moment"]["mean"] > res["jump_moment"]["mean"]
    sep = [c for c in report["checks"] if c["name"] == "mollified and jump moments separated"]
    assert sep and sep[0]["z_score"] >= 5.0


def test_counterexample_floor_check_follows_the_threshold_constant(tmp_path, monkeypatch):
    # "mollified moment stays above e-1" passes while its z-score against e - 1
    # is at least -THRESHOLD_SE, whatever the constant holds at call time
    cfg = {"eps_mollify": 0.1, "n_paths": 2000, "grid_step": 1e-3, "seed": 19}
    moll = run_to_file(tmp_path, "counterexample", cfg)[1]["results"]["mollified_moment"]
    z = (moll["mean"] - (math.e - 1.0)) / moll["std_error"]
    for threshold, passed in ((-z + 0.5, True), (-z - 0.5, False)):
        monkeypatch.setattr(results, "THRESHOLD_SE", threshold)
        checks = run_to_file(tmp_path, "counterexample", cfg)[1]["checks"]
        floor = [c for c in checks if c["name"] == "mollified moment stays above e-1"]
        assert floor[0]["passed"] is passed


def test_moments_report(tmp_path):
    cfg = {"alpha": 1.0, "t": 2.0, "gammas": [0.5, 1.0]}
    code, report = run_to_file(tmp_path, "moments", cfg)
    assert code == EXIT_PASS
    vals = report["results"]["inverse_moments"]
    assert set(vals) == {"0.5", "1"}
    # E S_t^{-1/2} = (2/sqrt(pi)) t^{-1} at alpha=1
    assert vals["0.5"] == pytest.approx(2.0 / 3.141592653589793**0.5 / 2.0, rel=1e-8)
    assert all(c["passed"] for c in report["checks"])


def test_moments_past_the_float_range_only_at_t_1_pass(tmp_path):
    # E S_1**(-30) at alpha = 0.3 is about exp(789), E S_100**(-30) is 2.97e-58
    cfg = {"alpha": 0.3, "t": 100.0, "gammas": [30.0]}
    code, report = run_to_file(tmp_path, "moments", cfg)
    assert code == EXIT_PASS
    assert report["results"]["inverse_moments"]["30"] == pytest.approx(2.9732e-58, rel=1e-4)
    assert all(c["passed"] for c in report["checks"])


def test_moments_with_t_power_below_the_float_range_pass(tmp_path):
    # t**(-100) underflows to 0.0 at t = 1e4, E S_t**(-50) is 3.07e-307
    cfg = {"alpha": 1.0, "t": 1e4, "gammas": [50.0]}
    code, report = run_to_file(tmp_path, "moments", cfg)
    assert code == EXIT_PASS
    assert report["results"]["inverse_moments"]["50"] == pytest.approx(3.0685e-307, rel=1e-4)
    assert all(c["passed"] for c in report["checks"])


def test_moments_check_fails_on_a_wrong_closed_form(tmp_path, monkeypatch):
    # a reference built from inverse_moment itself would move with it and pass
    closed_form = cli.inverse_moment
    monkeypatch.setattr(cli, "inverse_moment", lambda *a: (1.0 + 1e-6) * closed_form(*a))
    cfg = {"alpha": 1.5, "t": 2.0, "gammas": [0.5, 1.0]}
    code, report = run_to_file(tmp_path, "moments", cfg)
    assert code == EXIT_STAT_FAIL
    assert not any(c["passed"] for c in report["checks"])


def test_moments_below_the_float_range_exits_1(tmp_path, capsys):
    # log E S_t**(-300) is about -8600 at alpha = 1.5, t = 1e10
    cfg = {"alpha": 1.5, "t": 1e10, "gammas": [300.0]}
    assert main(["moments", write_config(tmp_path, cfg)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "underflows" in err and "alpha = 1.5" in err and "t = 10000000000.0" in err
    assert "Traceback" not in err


def test_moments_beyond_the_float_range_exits_1(tmp_path, capsys):
    # E S_1**(-1) at alpha = 0.01 is about exp(863)
    cfg = {"alpha": 0.01, "t": 1.0, "gammas": [0.5, 1.0]}
    assert main(["moments", write_config(tmp_path, cfg)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "alpha = 0.01" in err and "Traceback" not in err


def test_lemma_tests_report(tmp_path):
    cfg = {
        "path": {"horizon": 1.0, "times": [0.2, 0.5, 0.8], "sizes": [1.3, 0.9, 0.4]},
        "clock": {"kind": "cap_at_first_passage", "R": 2.0},
        "xi": [1.0, -0.5],
        "eps_list": [1.0, 0.5, 0.1],
        "n_paths": 3000,
        "seed": 23,
    }
    code, report = run_to_file(tmp_path, "lemma-tests", cfg)
    assert code == EXIT_PASS
    assert report["results"]["isometry"]["passed"] is True
    assert len(report["results"]["truncation"]) == 3
    names = [c["name"] for c in report["checks"]]
    assert "exact truncation gap nonincreasing" in names


# ---------------------------------------------------------------------------
# pinned reports: one small config per subcommand, plus the antithetic, CSV,
# piecewise-clock, cap-clock fixed-path and two-worker variants. Each entry holds the SHA-256 of the
# stdout report with its timestamp line dropped and, where a CSV is written,
# the SHA-256 of that file. The counterexample, gradient, sample-subordinator,
# two-worker simulate and validate-bound reports were recorded again once, when
# batches came to be merged by Chan's formula: their standard errors, and the
# means of the two-worker runs, moved in the last digit. The moments report
# was recorded again when its check came to compare with Kanter's integral.
# The gradient, sample-subordinator and validate-bound reports (and the
# antithetic run's CSV) were recorded again once, in their last digits, when
# each path's clock values came to be its own running sum. The simulate,
# two-worker simulate, gradient, antithetic CSV and validate-bound reports
# were recorded again once, to a fresh draw of the same law, when the jump
# sampler came to sort times alone and leave the sizes in draw order. The
# simulate, gradient, antithetic and piecewise-clock reports and CSVs (every
# pin on bounded_multiplicative) were recorded again once, each mean within
# 1.1e-11, when the catalog's linear drift came to be flowed exactly between
# jumps instead of by RK4. The gradient, antithetic, piecewise-clock and
# validate-bound reports were recorded again once, every number kept, when
# the gradient diagnostics lost sup_grad_sq_mean and the stable-clock ones
# gained eps_cut.


def pin_config(**changes):
    """gradient_config at 300 paths with keys changed; a None value drops the key."""
    cfg = dict(gradient_config(n_paths=300, seed=5), **changes)
    return {k: v for k, v in cfg.items() if v is not None}


LEMMA_PATH = {"horizon": 1.0, "times": [0.2, 0.5, 0.8], "sizes": [1.3, 0.9, 0.4]}
PIECEWISE_CLOCK = {"kind": "piecewise_linear", "knots": [[0, 0], [0.5, 0.2], [1, 1.1], [3, 1.5]]}
PINNED = {
    "sample-subordinator": (
        "sample-subordinator",
        {"alpha": 1.0, "eps_cut": 1e-2, "t": 1.0, "n_paths": 400, "seed": 7},
        "e75b2c65e64ab55a9af6b571b2c1ca55cef11ab85a81eeb46e5b945e74d5a228",
        None,
    ),
    "simulate": (
        "simulate",
        pin_config(v=None, target_value=0.3, tolerance_abs=0.5),
        "3f3c2d3bf9d1de2ced5cb7ff593e1915266a35155a1c83346d29348991077f6d",
        None,
    ),
    # more paths than one batch holds, so the second worker gets a batch
    "simulate 2 workers": (
        "simulate",
        pin_config(field="pythagoras_1d", x=[0.2], v=None, eps_cut=0.05, t=1.0, n_paths=33000,
                   workers=2, substeps_per_unit=20),
        "9266bf733ff832f239f80e6a635e983bdcba2ff4f881109ba1ead7a517f4e7f8",
        None,
    ),
    "gradient": (
        "gradient",
        pin_config(),
        "9a6e478fa6abaa9e04a559ee7f0bb01c35126094ff46a17536bdda5e921ede8e",
        None,
    ),
    "gradient antithetic R csv": (
        "gradient",
        pin_config(antithetic=True, R=0.8, emit_samples=True, samples_path="samples.csv"),
        "013aaf13aefb9e5d95e25d4c1b5737fb9ccde73118c3525fa3decc4dc67b668b",
        "340665b971e528d4994fcb0c6ce86793b7f4ad5dc7265d1b4af54b34f6cb27ac",
    ),
    # recorded again when the conditional mark part of a jump inside one
    # linear piece of beta became exactly 0
    "gradient-fixed-clock piecewise csv": (
        "gradient-fixed-clock",
        pin_config(alpha=None, eps_cut=None, path=LEMMA_PATH, clock=PIECEWISE_CLOCK, t=0.95,
                   emit_samples=True, samples_path="samples.csv"),
        "ef9fbecce8a0afebea48930cf3e98aeaf6d775d07f906b31f56a5c0588d8a5aa",
        "a09f7a89387f689dc296ada1f141e31184cff3f4401c3ef8cb664eeb9cbdd3d6",
    ),
    # a fixed path under the cap clock: its diagnostics hold normalizer, and
    # neither cap_fraction nor level_R
    "gradient-fixed-clock cap": (
        "gradient-fixed-clock",
        pin_config(alpha=None, eps_cut=None, path=LEMMA_PATH,
                   clock={"kind": "cap_at_first_passage", "R": 1.3}, t=0.95),
        "473b0d1daf67648bfdf8a774e46ff6e23553fa8bb96adb63fd519f6f52a142a1",
        None,
    ),
    "validate-bound": (
        "validate-bound",
        {"field": "pythagoras_1d", "alpha": 1.5, "f": "tanh1", "x": [0.2], "p": 2.0,
         "t_grid": [0.25, 1.0], "n_paths": 300, "seed": 5, "v": [1.0], "R": "auto",
         "slope_tolerance": 0.5},
        "a09ad25fa931cfa03cb22fc28d02f66e52c396c8ffe2a087742ce9c88641ca0d",
        None,
    ),
    "counterexample 2 workers": (
        "counterexample",
        {"eps_mollify": 0.1, "n_paths": 33000, "grid_step": 1e-3, "seed": 19, "workers": 2},
        "a9d4e1f6947f535bdf650b30e731f46544cf441b904acdb2dd53a861300625ca",
        None,
    ),
    "moments": (
        "moments",
        {"alpha": 1.5, "t": 2.0, "gammas": [0.5, 1.0, 2.5]},
        "c239ee8b7a80e688df2b1504329199122efce88db8fbb071c8d68c31760d3940",
        None,
    ),
    "lemma-tests": (
        "lemma-tests",
        {"path": LEMMA_PATH, "clock": {"kind": "cap_at_first_passage", "R": 2.0},
         "xi": [1.0, -0.5], "eps_list": [1.0, 0.5, 0.1], "n_paths": 300, "seed": 23},
        "5204508960ea06aed25c87453d7ae19275fdca2c3fcd7c772991d5412290b1a2",
        None,
    ),
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.pin
@pytest.mark.parametrize("case", sorted(PINNED))
def test_report_matches_pin(case, tmp_path, monkeypatch, capsys):
    command, cfg, report_pin, csv_pin = PINNED[case]
    monkeypatch.chdir(tmp_path)
    assert main([command, write_config(tmp_path, cfg)]) == EXIT_PASS
    out = capsys.readouterr().out
    body = "".join(ln for ln in out.splitlines(True) if '"timestamp"' not in ln)
    assert sha256(body) == report_pin
    if csv_pin is not None:
        assert sha256((tmp_path / "samples.csv").read_text()) == csv_pin


# ---------------------------------------------------------------------------
# report plumbing


def test_stdout_report_is_pure_json(tmp_path, capsys):
    cfg = {"alpha": 1.0, "t": 1.0, "gammas": [0.5]}
    code = main(["moments", write_config(tmp_path, cfg)])
    captured = capsys.readouterr()
    assert code == EXIT_PASS
    report = json.loads(captured.out)  # would raise if a status line were mixed in
    jsonschema.validate(report, report_schema())
    assert captured.err == ""


def test_status_line_written_in_file_mode(tmp_path, capsys):
    cfg = dict(gradient_config(n_paths=500), output=str(tmp_path / "r.json"))
    code = main(["gradient", write_config(tmp_path, cfg)])
    captured = capsys.readouterr()
    assert code == EXIT_PASS
    assert "gradient: 1/1 checks passed" in captured.out
    assert str(tmp_path / "r.json") in captured.out


def test_reports_byte_identical_up_to_timestamp(tmp_path):
    # same config twice, same output path: only the timestamp line may differ
    cfg = dict(gradient_config(n_paths=800, seed=99), output=str(tmp_path / "r.json"))
    path = write_config(tmp_path, cfg)
    assert main(["gradient", path]) == EXIT_PASS
    text1 = (tmp_path / "r.json").read_text()
    assert main(["gradient", path]) == EXIT_PASS
    text2 = (tmp_path / "r.json").read_text()

    keep = lambda text: [ln for ln in text.splitlines() if '"timestamp"' not in ln]
    assert keep(text1) == keep(text2)
    assert json.loads(text1)["results"] == json.loads(text2)["results"]


def test_sample_csv_columns_and_consistency(tmp_path):
    cfg = dict(
        gradient_config(n_paths=500, seed=13),
        emit_samples=True,
        samples_path=str(tmp_path / "samples.csv"),
    )
    code, report = run_to_file(tmp_path, "gradient", cfg)
    assert code == EXIT_PASS
    with open(tmp_path / "samples.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sample_index", "f_value", "weight", "I1", "I2", "I3", "normalizer"]
    body = rows[1:]
    n_used = report["results"]["estimate"]["n_samples"]
    assert len(body) == n_used == 500
    indices = [int(r[0]) for r in body]
    assert indices == sorted(indices)
    for r in body[:50]:
        f_val, w, i1, i2, i3, norm = map(float, r[1:])
        assert abs(f_val) <= 1.0  # tanh is bounded
        assert norm > 0
        assert w == pytest.approx((i1 - i2 + i3) / norm, rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# exit code 2: statistical failure


def test_statistical_failure_exits_2(tmp_path, capsys):
    cfg = {
        "field": "additive_identity",
        "alpha": 1.2,
        "eps_cut": 1e-2,
        "x": [0.0],
        "f": "const1",
        "t": 1.0,
        "n_paths": 500,
        "seed": 3,
        "target_value": 99.0,  # absurd on purpose
        "output": str(tmp_path / "r.json"),
    }
    code = main(["simulate", write_config(tmp_path, cfg)])
    captured = capsys.readouterr()
    assert code == EXIT_STAT_FAIL
    assert "FAILED: agrees with target_value" in captured.err
    report = json.loads((tmp_path / "r.json").read_text())  # report still written
    failed = [c for c in report["checks"] if not c["passed"]]
    assert len(failed) == 1


def test_incomplete_bound_grid_exits_2(tmp_path):
    cfg = {
        "field": "additive_identity",
        "alpha": 1.5,
        "f": "sign",
        "x": [0.0],
        "p": 2.0,
        "t_grid": [0.02, 0.5, 1.0],
        "n_paths": 3000,
        "seed": 3,
        "eps_cut_at_1": 0.5,  # too coarse for the smallest time: mostly jumpless paths
    }
    code, report = run_to_file(tmp_path, "validate-bound", cfg)
    assert code == EXIT_STAT_FAIL
    assert report["results"]["incomplete"] is True


# ---------------------------------------------------------------------------
# exit code 1: usage and config errors


# Python's json reads a bare NaN, so the path itself must refuse it.
NAN_SIZE_LEMMA_CONFIG = """{
  "path": {"horizon": 1.0, "times": [0.2, 0.5, 0.8], "sizes": [1.3, NaN, 0.4]},
  "clock": {"kind": "cap_at_first_passage", "R": 2.0},
  "xi": [1.0, -0.5], "eps_list": [1.0, 0.5], "n_paths": 300, "seed": 23
}"""


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["no-such-command", "x.json"],
        ["gradient"],
        ["lemma-tests", "nan_size.json"],
    ],
)
def test_usage_errors_exit_1(argv, capsys, tmp_path, monkeypatch):
    (tmp_path / "nan_size.json").write_text(NAN_SIZE_LEMMA_CONFIG)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_ERROR
    assert capsys.readouterr().err != ""


def test_run_refuses_an_unknown_command(tmp_path, capsys):
    # main's argument parser refuses it first; run, the library entry, does too
    assert cli.run("no-such-command", write_config(tmp_path, {})) == EXIT_ERROR
    assert "unknown command 'no-such-command'" in capsys.readouterr().err


def test_moments_without_gammas_exits_1(tmp_path, capsys):
    cfg = {"alpha": 1.5, "t": 1.0, "gammas": []}
    assert main(["moments", write_config(tmp_path, cfg)]) == EXIT_ERROR
    assert "gammas must be a nonempty list" in capsys.readouterr().err


def test_missing_config_file_exits_1(tmp_path, capsys):
    code = main(["moments", str(tmp_path / "nope.json")])
    assert code == EXIT_ERROR
    assert "cannot read config" in capsys.readouterr().err


def test_malformed_json_reports_location(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"alpha": 1.0,\n  "t": }\n')
    code = main(["moments", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert "not valid JSON" in err
    assert "line 2" in err


def test_non_object_config_exits_1(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    assert main(["moments", str(path)]) == EXIT_ERROR
    assert "JSON object" in capsys.readouterr().err


def test_empty_config_exits_1(tmp_path, capsys):
    assert main(["gradient", write_config(tmp_path, {})]) == EXIT_ERROR
    assert "missing config keys" in capsys.readouterr().err


def test_unknown_key_exits_1(tmp_path, capsys):
    cfg = dict(gradient_config(), n_path=100)  # typo'd key
    assert main(["gradient", write_config(tmp_path, cfg)]) == EXIT_ERROR
    assert "n_path" in capsys.readouterr().err


LEMMA_CONFIG = PINNED["lemma-tests"][1]
NESTED_KEY_ERRORS = {
    "field unknown key": (
        "gradient", pin_config(field={"name": "bounded_multiplicative", "dimension": 2, "dim": 3}),
        "dim",
    ),
    "f unknown key": (
        "gradient", pin_config(f={"name": "linear", "a": [1, 0], "coef": 1}), "coef",
    ),
    "clock unknown key": (
        "lemma-tests",
        dict(LEMMA_CONFIG, clock={"kind": "cap_at_first_passage", "R": 2.0, "level": 3}),
        "level",
    ),
    "path missing sizes": (
        "lemma-tests", dict(LEMMA_CONFIG, path={"horizon": 1.0, "times": [0.5]}), "sizes",
    ),
}


@pytest.mark.parametrize("case", sorted(NESTED_KEY_ERRORS))
def test_nested_key_errors_exit_1(case, tmp_path, capsys):
    command, cfg, key = NESTED_KEY_ERRORS[case]
    assert main([command, write_config(tmp_path, cfg)]) == EXIT_ERROR
    assert key in capsys.readouterr().err


def test_emit_samples_requires_samples_path(tmp_path, capsys):
    cfg = dict(gradient_config(n_paths=100), emit_samples=True)
    assert main(["gradient", write_config(tmp_path, cfg)]) == EXIT_ERROR
    assert "samples_path" in capsys.readouterr().err


# open() takes an int as a file descriptor: the report or the CSV would go
# into whatever that descriptor is. Both are refused before anything runs.
PATH_TYPE_ERRORS = {
    "output int": ("moments", {"alpha": 1.5, "t": 1.0, "gammas": [0.5], "output": 4093}),
    "output list": ("moments", {"alpha": 1.5, "t": 1.0, "gammas": [0.5], "output": ["r.json"]}),
    "samples_path int": ("gradient", pin_config(emit_samples=True, samples_path=4094)),
}


@pytest.mark.parametrize("case", sorted(PATH_TYPE_ERRORS))
def test_non_string_paths_exit_1(case, tmp_path, capsys):
    command, cfg = PATH_TYPE_ERRORS[case]
    key = case.split()[0]
    assert main([command, write_config(tmp_path, cfg)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert f"{key} must be a file path string" in captured.err
    assert captured.out == ""


# A report path that open() cannot create is refused before the run, not
# after it with a traceback that loses the computed report.
UNWRITABLE_OUTPUTS = {
    "missing directory": lambda tmp_path: str(tmp_path / "no_such_dir" / "r.json"),
    "empty": lambda tmp_path: "",
    "a directory": str,
}
MOMENTS_CONFIG = {"alpha": 1.5, "t": 1.0, "gammas": [0.5]}


@pytest.mark.parametrize("case", sorted(UNWRITABLE_OUTPUTS))
def test_unwritable_output_exits_1_before_the_run(case, tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setitem(cli._HANDLERS, "moments", ran.append)
    cfg = dict(MOMENTS_CONFIG, output=UNWRITABLE_OUTPUTS[case](tmp_path))
    assert main(["moments", write_config(tmp_path, cfg)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert not ran
    assert "output" in captured.err and captured.out == ""


def test_failed_report_write_exits_1_and_keeps_the_report(tmp_path, capsys, monkeypatch):
    # the output directory exists when the run starts and is gone when it ends
    folder = tmp_path / "out"
    folder.mkdir()
    handler = cli._HANDLERS["moments"]

    def run_then_remove(cfg):
        folder.rmdir()
        return handler(cfg)

    monkeypatch.setitem(cli._HANDLERS, "moments", run_then_remove)
    cfg = dict(MOMENTS_CONFIG, output=str(folder / "r.json"))
    assert main(["moments", write_config(tmp_path, cfg)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert "cannot write the report" in captured.err
    assert json.loads(captured.out)["command"] == "moments"


# int() would run 400.9 paths as 400 while the report echoes 400.9
INTEGER_KEY_ERRORS = {
    "n_paths": ("sample-subordinator", dict(PINNED["sample-subordinator"][1], n_paths=400.9)),
    "seed": ("sample-subordinator", dict(PINNED["sample-subordinator"][1], seed=7.8)),
    "workers": ("simulate", pin_config(v=None, workers=True)),
    "substeps_per_unit": ("gradient", pin_config(substeps_per_unit=50.5)),
    "dimension": ("gradient", pin_config(field={"name": "bounded_multiplicative",
                                                "dimension": 2.5})),
}


@pytest.mark.parametrize("key", sorted(INTEGER_KEY_ERRORS))
def test_non_integer_counts_exit_1(key, tmp_path, capsys):
    command, cfg = INTEGER_KEY_ERRORS[key]
    assert main([command, write_config(tmp_path, cfg)]) == EXIT_ERROR
    assert f"{key} must be an integer" in capsys.readouterr().err


# bool("false") is True and float(True) is 1.0: "antithetic": "false" would
# run the antithetic estimator, "emit_samples": "no" would write the CSV and
# "t": true would run at t = 1. Flags take only JSON booleans, and numbers
# refuse them.
TYPED_KEY_ERRORS = {
    "antithetic": ("gradient", pin_config(antithetic="false"), "true or false"),
    "emit_samples": ("gradient", pin_config(emit_samples="no", samples_path="samples.csv"),
                     "true or false"),
    "t": ("simulate", pin_config(v=None, t=True), "a number"),
    "eps_mollify": ("counterexample", {"eps_mollify": False, "n_paths": 100, "grid_step": 1e-3,
                                       "seed": 1}, "a number"),
    "target_value": ("simulate", pin_config(v=None, target_value=True), "a number"),
    "gammas": ("moments", dict(MOMENTS_CONFIG, gammas=[0.5, True]), "a number"),
}
# The keys passed on as read (arrays, and R's "auto") refuse a boolean at any
# depth: float(True) would run at 1.0.
NUMBERS = "a number or an array of numbers"
BOUND_CONFIG = PINNED["validate-bound"][1]
LEMMA_CONFIG = PINNED["lemma-tests"][1]
TYPED_KEY_ERRORS.update({
    "R": ("gradient", pin_config(R=True), NUMBERS),
    "eps_cut_at_1": ("validate-bound", dict(BOUND_CONFIG, eps_cut_at_1=True), NUMBERS),
    "t_grid": ("validate-bound", dict(BOUND_CONFIG, t_grid=[0.25, True]), NUMBERS),
    "x": ("gradient", pin_config(x=[0.3, True]), NUMBERS),
    "v": ("gradient", pin_config(v=[True, 0.5]), NUMBERS),
    "a": ("gradient", pin_config(f={"name": "linear", "a": [True, 0.0]}), NUMBERS),
    "xi": ("lemma-tests", dict(LEMMA_CONFIG, xi=[1.0, True]), NUMBERS),
    "eps_list": ("lemma-tests", dict(LEMMA_CONFIG, eps_list=[True, 0.5, 0.1]), NUMBERS),
    "knots": ("gradient-fixed-clock",
              pin_config(alpha=None, eps_cut=None, path=LEMMA_PATH, t=0.95,
                         clock=dict(PIECEWISE_CLOCK, knots=[[0, 0], [0.5, 0.2], [True, 1.1]])),
              NUMBERS),
    "times": ("lemma-tests", dict(LEMMA_CONFIG, path=dict(LEMMA_PATH, times=[0.2, 0.5, True])),
              NUMBERS),
    "sizes": ("lemma-tests", dict(LEMMA_CONFIG, path=dict(LEMMA_PATH, sizes=[1.3, True, 0.4])),
              NUMBERS),
})


def test_auto_level_and_string_keys_still_pass():
    # "auto" is R's one string value, and name and kind are strings
    cfg = {"R": "auto", "kind": "piecewise_linear", "name": "tanh1"}
    assert cli._args(cfg, tuple(cfg)) == cfg


@pytest.mark.parametrize("key", sorted(TYPED_KEY_ERRORS))
def test_json_type_mismatches_exit_1(key, tmp_path, capsys, monkeypatch):
    command, cfg, wanted = TYPED_KEY_ERRORS[key]
    monkeypatch.chdir(tmp_path)
    assert main([command, write_config(tmp_path, cfg)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert f"{key} must be {wanted}" in captured.err
    assert captured.out == "" and not (tmp_path / "samples.csv").exists()


def test_unknown_field_name_exits_1(tmp_path, capsys):
    cfg = dict(gradient_config(), field="no_such_field")
    assert main(["gradient", write_config(tmp_path, cfg)]) == EXIT_ERROR
    assert "no_such_field" in capsys.readouterr().err


def test_intensity_guard_refuses_tiny_cutoff(tmp_path, capsys):
    cfg = dict(gradient_config(), eps_cut=1e-12)
    assert main(["gradient", write_config(tmp_path, cfg)]) == EXIT_ERROR
    assert "expected jumps per path" in capsys.readouterr().err


def test_linear_observable_needs_a(tmp_path, capsys):
    cfg = dict(gradient_config(), f="linear")
    assert main(["gradient", write_config(tmp_path, cfg)]) == EXIT_ERROR
    assert "coefficient vector" in capsys.readouterr().err


def test_linear_observable_refuses_a_of_another_dimension(tmp_path, capsys):
    cfg = dict(gradient_config(n_paths=200), f={"name": "linear", "a": [1, 2, 3]})
    assert main(["gradient", write_config(tmp_path, cfg)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "linear observable's a has 3 entries" in err and "matmul" not in err


@pytest.mark.parametrize("tolerance", [-0.5, math.nan, math.inf])
def test_validate_bound_refuses_a_tolerance_no_slope_meets(tmp_path, capsys, tolerance):
    # no slope meets a negative or NaN tolerance, so a run would exit 2 as if
    # the slope were wrong, and every slope meets an infinite one; json
    # writes NaN and Infinity as bare tokens, which it reads back
    cfg = {"field": "pythagoras_1d", "alpha": 1.5, "f": "tanh1", "x": [0.2], "p": 2.0,
           "t_grid": [0.25, 1.0], "n_paths": 300, "seed": 5, "slope_tolerance": tolerance}
    assert main(["validate-bound", write_config(tmp_path, cfg)]) == EXIT_ERROR
    assert "slope_tolerance must be nonnegative" in capsys.readouterr().err
