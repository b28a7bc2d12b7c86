"""vlpkit benchmark: one command per workload, end-to-end metrics or (with --trace 1) per-layer metrics.

    python3 bench/run.py --workload survey_10k --seed 3 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. Each run spawns fresh worker interpreters (see worker.py): a few that
only set up, to take the median set-up time, then one that runs the
workload's command chain closed loop for `--seconds`. Times are reported in
reference seconds (see probe.py). The last line of standard output is the
result JSON; the line before it is the provenance. Work files go to
`.bench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import probe

WORKER = Path(__file__).resolve().parent / "worker.py"
GOLDEN_SUMMARY = Path("tests/data/golden_replicate_summary.csv")
TRIALS_PER_POINT = 300  # 36 grid points x 300 = 10,800 trials
SETUP_SAMPLES = 7  # setup_s is the median of this many spawns
MIN_ITERATIONS = 3
WORKER_TIMEOUT_S = 170.0
# Workers run single threaded (BLAS too) with a fixed string hash seed, so
# runs differ only by their inputs and by the machine.
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

# Workloads, and the metrics to report with their units, are the ones BENCHMARK.json names.
SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


class WorkerFailed(Exception):
    pass


def spawn(config: dict, log: Path) -> tuple[float, dict, dict | None]:
    """Start one worker; returns seconds from spawn to ready, the ready payload and the result payload."""
    env = dict(os.environ, **WORKER_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path.cwd() / "src"), env.get("PYTHONPATH")]))
    with open(log, "w") as log_handle:
        started = time.monotonic()
        config = dict(config, spawned_at=started)
        with subprocess.Popen(
            [sys.executable, str(WORKER), json.dumps(config)],
            stdout=subprocess.PIPE,
            stderr=log_handle,
            text=True,
            env=env,
        ) as proc:
            timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                ready_line = proc.stdout.readline()
                ready_s = time.monotonic() - started
                rest = proc.stdout.read()
                code = proc.wait()
            finally:
                timer.cancel()
    if code != 0 or not ready_line.startswith("ready "):
        tail = log.read_text()[-2000:]
        raise WorkerFailed(f"{config['mode']} worker exited with {code}:\n{tail}")
    result = None
    for line in rest.splitlines():
        if line.startswith("result "):
            result = json.loads(line[len("result "):])
    if config["mode"] in ("timed", "traced") and result is None:
        raise WorkerFailed(f"{config['mode']} worker printed no result:\n{log.read_text()[-2000:]}")
    return ready_s, json.loads(ready_line[len("ready "):]), result


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "n": len(values),
        "median": q2,
        "p25": q1,
        "p75": q3,
        "min": min(values),
        "max": max(values),
        "iqr_over_median": (q3 - q1) / q2 if q2 else None,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float, help="measured duration of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    parser.add_argument(
        "--trials", type=int, default=TRIALS_PER_POINT, help="trials per grid point for the 10k workloads"
    )
    parser.add_argument("--work-dir", default=".bench_work", help="work directory, inside the checkout")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.trials < 1 or args.seconds <= 0:
        parser.error("--seed must be >= 0, --trials >= 1 and --seconds > 0")

    missing = [p for p in (Path("src/vlpkit/cli.py"), GOLDEN_SUMMARY) if not p.is_file()]
    if missing:
        print(f"error: run from a vlpkit source checkout; missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = Path(args.work_dir).resolve()
    root = work / name
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    config = {
        "workload": args.workload,
        "seed": args.seed,
        "trials": args.trials,
        "seconds": args.seconds,
        "min_iterations": MIN_ITERATIONS,
        "hard_limit_s": WORKER_TIMEOUT_S - 40.0,
    }
    load_before = os.getloadavg()
    # The last spawn also runs the workload; every spawn is a set-up sample.
    modes = ["setup"] * (SETUP_SAMPLES - 1) + ["traced" if args.trace else "timed"]
    setups, setup_probes, imports = [], [], []
    try:
        spawn(dict(config, mode="warm"), work / f"{name}-warm.log")
        for sample, mode in enumerate(modes):
            setup_probes.append(probe.reference())
            ready_s, ready, result = spawn(
                dict(config, mode=mode, root=str(root / f"worker{sample}"), spans=str(work / f"{name}-spans.csv")),
                work / f"{name}-{mode}.log",
            )
            setups.append(ready_s)
            imports.append(ready["import"])
    except WorkerFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    load_after = os.getloadavg()
    shutil.rmtree(root, ignore_errors=True)

    iterations = result["iteration_s"]
    if args.trace:
        metrics = {
            f"import.{key}": probe.normalized([i[key] for i in imports], setup_probes) for key in imports[0]
        }
        metrics.update(result["layers"])
        section = "per_layer"
    else:
        wall = probe.normalized(iterations, result["probe_s"])
        metrics = {
            "setup_s": probe.normalized(setups, setup_probes),
            "wall_s": wall,
            "trials_per_s": result["fixes_attempted"] / wall,
            "peak_rss_mb": result["peak_rss_mb"],
            "err_mean_cm": result["err_mean_cm"],
            "fix_ok_ratio": result["fixes_ok"] / result["fixes_attempted"] if result["fixes_attempted"] else 0.0,
            "ops_ok_ratio": (result["attempted"] - result["failed"]) / result["attempted"],
        }
        section = "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    problems = result["problems"]
    for key in units:
        value = metrics.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {key} was not measured")
            metrics[key] = None

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "trials_per_point": args.trials,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": ready["python"],
        "numpy": ready["numpy"],
        "platform": platform.platform(),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "probe_reference_s": probe.REFERENCE_S,
        "setup_s": quartiles(setups),
        "setup_samples_s": setups,
        "setup_probe_s": setup_probes,
        "iteration_s": quartiles(iterations),
        "iteration_samples_s": iterations,
        "iteration_probe_s": result.get("probe_s"),
        "problems": problems,
    }
    (work / f"{name}.json").write_text(json.dumps({"provenance": provenance, "metrics": metrics}, indent=2) + "\n")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("provenance " + json.dumps(provenance))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
