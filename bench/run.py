"""levygrad benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload quickstart --seed 318 --seconds 25 --trace 0

Each run is one closed-loop client in a single process: it makes one
estimator call at a time, each on the same seed, until ``--seconds`` have
passed. Every call is checked against the workload's reference and against
the first call (same seed, so bit-identical). The process runs at most the
workload's ``workers`` compute threads; BLAS/OpenMP pools are pinned to one.

Times are scaled to a reference host speed with a fixed kernel timed around
every call (see calibrate.py), because the shared host's speed drifts; the
raw times and the factors are kept in the record.

``--trace 0`` reports the end-to-end metrics with tracing off. ``--trace 1``
reports the per-layer metrics from traced calls interleaved with untraced
ones; a traced call must give the untraced call's estimate bit for bit.

The metrics are printed by name and unit, and the last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}.
The full record (machine line, seed, per-call samples, gate z-scores) and,
for traced runs, every span are written to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import env  # noqa: E402  (first: pins threads before numpy loads)
import tracing  # noqa: E402
from calibrate import K_REF, Calibrator  # noqa: E402
from workloads import WORKLOADS, Z_GATE, build  # noqa: E402

OUT = BENCH / "out"
SE_TARGET = 1e-3  # the standard error time_to_se_s is quoted for
SETUP_RUNS = 5

END_TO_END_UNITS = {
    "paths_per_s": "paths/s",
    "time_to_se_s": "s",
    "sample_var": "1",
    "cpu_s_per_mpath": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def machine_line(workers: int) -> dict:
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "levygrad_commit": _git_commit(),
        "levygrad_src_sha256": _src_digest(),
        "workers": workers,
        "thread_pins": {v: os.environ[v] for v in env.THREAD_VARS},
    }


def _git_commit():
    if not (env.ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(env.ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((env.SRC / "levygrad").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(env.SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def setup_times(name: str, runs: int) -> tuple[list[float], list[float]]:
    """Set-up seconds of ``runs`` fresh processes, one at a time: (scaled, raw)."""
    scaled, raw = [], []
    for _ in range(runs):
        out = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), name],
            capture_output=True, text=True, timeout=120, check=True,
        )
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        raw.append(probe["setup_s"])
        scaled.append(probe["setup_s"] * K_REF[1] / probe["kernel_s"])
    return scaled, raw


class Checks:
    """Counts estimator calls and the ones that failed, with the reasons."""

    def __init__(self, reference: dict) -> None:
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []
        self.z_scores: list[float] = []

    def check(self, label: str, res, err, expected=None) -> None:
        self.attempted += 1
        if err is not None:
            self.failures.append(f"{label}: raised {err}")
            return
        ref = self.reference
        z = (res.mean - ref["value"]) / math.hypot(res.std_error, ref["std_error"])
        self.z_scores.append(z)
        if not abs(z) <= Z_GATE:
            self.failures.append(
                f"{label}: estimate {res.mean!r} ± {res.std_error!r} misses the reference "
                f"{ref['value']!r} ± {ref['std_error']!r} (z = {z:+.2f}, gate |z| <= {Z_GATE})"
            )
        if expected is not None and outputs(res) != outputs(expected):
            self.failures.append(f"{label}: {outputs(res)} differs from {outputs(expected)}")


def outputs(res) -> tuple:
    """The estimator outputs that must repeat bit for bit at a fixed seed."""
    return (res.mean, res.std_error, res.n_rejected)


def timed_call(problem, seed, **kwargs):
    """One estimator call: (wall_s, cpu_s, result or None, error or None)."""
    c0 = time.process_time()
    w0 = time.perf_counter()
    try:
        res = problem.run(seed, **kwargs)
        err = None
    except Exception:  # a failed call is counted, and the run goes on
        res, err = None, traceback.format_exc(limit=3)
    return time.perf_counter() - w0, time.process_time() - c0, res, err


def measure_end_to_end(problem, seed: int, seconds: float, *, n_paths: int, setup_runs: int):
    """Closed-loop timed calls with tracing off; returns (metrics, checks, record).

    Times are scaled to the reference host speed (see calibrate.py); the raw
    ones are kept in the record.
    """
    w = problem.workload
    checks = Checks(w.reference)
    setups, setups_raw = setup_times(w.name, setup_runs)
    _, _, first, err = timed_call(problem, seed, n_paths=n_paths)  # warm-up
    checks.check("warm-up", first, err)
    cal = Calibrator(w.workers)
    walls, cpus, raw_walls, factors = [], [], [], []
    deadline = time.perf_counter() + seconds
    calls = 0
    while calls < 3 or time.perf_counter() < deadline:
        wall, cpu, res, err = timed_call(problem, seed, n_paths=n_paths)
        factor = cal.factor()
        checks.check(f"call {calls}", res, err, expected=first)
        calls += 1
        if res is not None:
            walls.append(wall * factor)
            cpus.append(cpu * factor)
            raw_walls.append(wall)
            factors.append(factor)
    metrics = {"setup_s": statistics.median(setups)}
    if first is not None and walls:
        wall = statistics.median(walls)
        var = (first.n_samples - first.n_rejected) * first.std_error**2
        metrics.update({
            "paths_per_s": n_paths / wall,
            "time_to_se_s": wall / n_paths * var / SE_TARGET**2,
            "sample_var": var,
            "cpu_s_per_mpath": statistics.median(cpus) / n_paths * 1e6,
        })
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record = {
        "setup_s_samples": setups,
        "setup_s_raw_samples": setups_raw,
        "wall_s_samples": walls,
        "wall_s_raw_samples": raw_walls,
        "cpu_s_samples": cpus,
        "speed_factors": factors,
        "wall_s_quantiles": _quantiles(walls),
        "raw_paths_per_s": n_paths / statistics.median(raw_walls) if raw_walls else None,
        "estimate": None if first is None else {
            "mean": first.mean, "std_error": first.std_error,
            "n_samples": first.n_samples, "n_rejected": first.n_rejected,
        },
    }
    return _ordered(metrics, END_TO_END_UNITS), checks, record


def _quantiles(walls: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(walls)
    q = {"n": n, "median": statistics.median(walls) if walls else None}
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        q[f"p{pct}"] = statistics.quantiles(walls, n=100)[pct - 1]
    return q


def measure_traced(problem, seed: int, seconds: float, *, n_paths: int, batch_size: int):
    """Untraced and traced calls in turn; returns (metrics, checks, record, tracers).

    Layer times are scaled to the reference host speed like the end-to-end
    times (see calibrate.py).
    """
    w = problem.workload
    root_name = tracing.ROOT_SPANS[w.estimator]
    checks = Checks(w.reference)
    _, _, first, err = timed_call(problem, seed, n_paths=n_paths)  # warm-up
    checks.check("warm-up", first, err)
    cal = Calibrator(w.workers)
    untraced, per_call, tracers = [], [], []
    deadline = time.perf_counter() + seconds
    while len(tracers) < 2 or time.perf_counter() < deadline:
        wall, _, res, err = timed_call(problem, seed, n_paths=n_paths)
        checks.check(f"untraced {len(untraced)}", res, err, expected=first)
        untraced.append(wall * cal.factor())
        tracer = tracing.Tracer()
        with tracing.installed(tracer, problem.field, problem.observable) as (field, f):
            with tracer.span(root_name):
                _, _, res, err = timed_call(
                    problem, seed, n_paths=n_paths, field=field, observable=f
                )
        factor = cal.factor()
        checks.check(f"traced {len(tracers)}", res, err, expected=first)
        tracers.append(tracer)
        if res is not None:
            m = tracing.layer_metrics(tracer.spans, root_name, n_paths, batch_size, res)
            per_call.append({
                k: v * factor if tracing.PER_LAYER_UNITS[k] == "s/batch" else v
                for k, v in m.items()
            })
    if not per_call:
        return {}, checks, {}, tracers
    for name in tracing.COUNT_METRICS:
        values = {m[name] for m in per_call}
        if len(values) > 1:
            checks.failures.append(f"count {name} differs between traced calls: {sorted(values)}")
    metrics = tracing.median_metrics(per_call)
    traced_root_s = statistics.median(m["trace.root_s"] for m in per_call) * n_paths / batch_size
    metrics["trace.overhead"] = traced_root_s / statistics.median(untraced)
    record = {"untraced_wall_s_samples": untraced, "traced_calls": len(per_call),
              "kernel_s": cal.kernel_s}
    return _ordered(metrics, tracing.PER_LAYER_UNITS), checks, record, tracers


def _ordered(metrics: dict, units: dict) -> dict:
    return {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics}


def run(name: str, seed: int | None, seconds: float, trace: bool, *,
        n_paths: int | None = None, setup_runs: int = SETUP_RUNS, write: bool = True) -> dict:
    """One benchmark run: (the result object printed as the last line, the record)."""
    import levygrad
    from levygrad import engine

    w = WORKLOADS[name]
    seed = w.default_seed if seed is None else seed
    n_paths = w.n_paths if n_paths is None else n_paths
    t0 = time.perf_counter()
    problem = build(levygrad, w)
    record = {
        "workload": name,
        "seed": seed,
        "n_paths_per_call": n_paths,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_line(w.workers),
        "reference": w.reference,
        "z_gate": Z_GATE,
        "inprocess_setup_s": time.perf_counter() - t0,
    }
    if trace:
        metrics, checks, extra, tracers = measure_traced(
            problem, seed, seconds, n_paths=n_paths, batch_size=engine.BATCH_SIZE
        )
    else:
        metrics, checks, extra = measure_end_to_end(
            problem, seed, seconds, n_paths=n_paths, setup_runs=setup_runs
        )
        tracers = []
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": min(len(checks.failures), checks.attempted),
        "metrics": metrics,
    }
    record.update(extra)
    record.update({"z_scores": checks.z_scores, "failures": checks.failures, "result": result})
    if write:
        OUT.mkdir(exist_ok=True)
        stem = f"{name}-seed{seed}-trace{int(trace)}"
        (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
        if tracers:
            tracing.write_spans(OUT / f"{stem}-spans.json", tracers)
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the acceptance-test seed)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long the timed calls run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    m = record["machine"]
    print(f"machine: {m['cores']} cores, python {m['python']}, numpy {m['numpy']}, "
          f"scipy {m['scipy']}, levygrad {m['levygrad_commit'] or 'src ' + m['levygrad_src_sha256'][:12]}, "
          f"workers {m['workers']}, BLAS/OpenMP threads 1")
    est = record.get("estimate")
    print(f"workload {record['workload']} seed {record['seed']}: "
          f"{record['n_paths_per_call']} paths per call, {result['attempted']} calls"
          + (f", estimate {est['mean']:.6f} ± {est['std_error']:.6f}" if est else "")
          + f", reference {record['reference']['value']:.6f}")
    if record.get("speed_factors"):
        print(f"raw {record['raw_paths_per_s']:.6g} paths/s, median speed factor "
              f"{statistics.median(record['speed_factors']):.4f}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
