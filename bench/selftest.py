"""Fast self-test of the benchmark itself (about a minute on 2 cores).

Runs every workload at a tiny size and checks that:
  * every end-to-end and per-layer metric of BENCHMARK.json is reported, with
    its unit, and every correctness gate passes (a traced call must also
    reproduce the untraced estimate bit for bit, which run.py checks);
  * the count metrics repeat exactly across two traced runs;
  * fd_crn gives bit-identical results with 1 and 2 workers.

    python3 bench/selftest.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import env  # noqa: E402  (first: pins threads before numpy loads)
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

TINY_PATHS = 2048


def expected_units(section: str) -> dict:
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def check_metrics(label: str, run_output: tuple, units: dict, problems: list) -> None:
    result, record = run_output
    if not result["correct"]:
        problems.append(f"{label}: {record['failures']}")
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    if got != units:
        problems.append(f"{label}: metrics {got} != BENCHMARK.json {units}")


def main() -> int:
    import levygrad
    from levygrad import engine

    problems: list[str] = []
    end_to_end, per_layer = expected_units("end_to_end"), expected_units("per_layer")
    if set(per_layer) != set(tracing.PER_LAYER_UNITS):
        problems.append("tracing.PER_LAYER_UNITS and BENCHMARK.json per_layer differ")
    for name in WORKLOADS:
        output = run.run(name, None, 0.0, False, n_paths=TINY_PATHS, setup_runs=1, write=False)
        check_metrics(f"{name} end-to-end", output, end_to_end, problems)
        traced = [
            run.run(name, None, 0.0, True, n_paths=TINY_PATHS, write=False) for _ in range(2)
        ]
        for i, output in enumerate(traced):
            check_metrics(f"{name} traced run {i}", output, per_layer, problems)
        for metric in tracing.COUNT_METRICS:
            a, b = (result["metrics"][metric]["value"] for result, _ in traced)
            if a != b:
                problems.append(f"{name}: count {metric} differs between traced runs ({a} vs {b})")
        print(f"{name}: checked", flush=True)

    problem = build(levygrad, WORKLOADS["fd_crn"])
    n = engine.BATCH_SIZE + TINY_PATHS  # two batches, so 2 workers really fan out
    one, two = (run.outputs(problem.run(319, n_paths=n, workers=k)) for k in (1, 2))
    if one != two:
        problems.append(f"fd_crn: 1 worker {one} != 2 workers {two}")
    print("fd_crn: 1-worker and 2-worker results compared", flush=True)

    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
