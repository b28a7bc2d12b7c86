"""Benchmark worker: one fresh interpreter that imports vlpkit, prepares a workload and runs it.

Started by run.py with one JSON argument. It prints `ready <json>` once the
first iteration could start, then, for a timed or traced run, `result <json>`
when it is done. Modes:

- warm:   import only (fills the bytecode cache; not measured)
- setup:  import and prepare inputs, then exit
- timed:  run iterations for the given seconds with no tracing
- traced: alternate plain and traced iterations; report per-layer metrics
"""

import time

STARTED = time.monotonic()  # interpreter start ends at the first statement


def main() -> int:
    t0 = time.monotonic()
    import numpy

    t1 = time.monotonic()
    import vlpkit.cli

    t2 = time.monotonic()

    import gc
    import json
    import resource
    import shutil
    import statistics
    import sys
    from pathlib import Path
    from time import perf_counter

    import probe
    import tracing
    import workloads

    config = json.loads(sys.argv[1])
    src = Path.cwd() / "src"
    if Path(vlpkit.__file__).resolve().parent.parent != src.resolve():
        print(f"vlpkit imported from {vlpkit.__file__}, not from {src}", file=sys.stderr)
        return 2
    ready = {
        "import": {"interpreter_s": STARTED - config["spawned_at"], "numpy_s": t1 - t0, "vlpkit_s": t2 - t1},
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }
    if config["mode"] == "warm":
        print("ready " + json.dumps(ready), flush=True)
        return 0

    root = Path(config["root"])
    workload = workloads.WORKLOADS[config["workload"]](config["seed"], config["trials"], root)
    workload.setup()
    print("ready " + json.dumps(ready), flush=True)
    if config["mode"] == "setup":
        return 0

    reference: dict[str, str] = {}
    ops = {"attempted": 0, "failed": 0}
    problems: list[str] = []
    out = root / "iter"

    def checked(wl, tracer=None):
        """One iteration plus its output checks; the checks are not timed."""
        ops["attempted"] += 1
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()  # every iteration starts from the same heap state
        if tracer is not None:
            tracer.install()
        try:
            wall, stderr_lines, found = wl.run(out)
        finally:
            if tracer is not None:
                tracer.uninstall()
        try:
            outcome = wl.check(out)
        except Exception as exc:  # malformed output is a failed op, not a crash
            outcome = workloads.Outcome()
            outcome.problems.append(f"output check raised {exc!r}")
        found += outcome.problems
        digest = workloads.csv_digest(out)
        if reference.setdefault(f"{wl.name}/{wl.seed}", digest) != digest:
            found.append("CSV digest differs from the first iteration's")
        layer = None
        if tracer is not None:
            spans = [s for s in tracer.spans if s[tracing.ITER] == tracer.iteration]
            layer = tracing.iteration_metrics(spans, wall, stderr_lines, workloads.TRUE_PP)
        shutil.rmtree(out, ignore_errors=True)
        if found:
            ops["failed"] += 1
            problems.extend(found[:5])
        return wall, outcome, layer

    seconds = config["seconds"]
    _, first, _ = checked(workload)  # warm-up; its digest is the reference
    result = {
        "fixes_attempted": first.fixes_attempted,
        "fixes_ok": first.fixes_ok,
        "err_mean_cm": first.err_mean_cm,
    }
    start = perf_counter()

    def more(done: int) -> bool:
        elapsed = perf_counter() - start
        return elapsed < config["hard_limit_s"] and (elapsed < seconds or done < config["min_iterations"])

    if config["mode"] == "timed":
        walls, probes = [], [probe.reference()]
        while more(len(walls)):
            walls.append(checked(workload)[0])
            probes.append(probe.reference())
        result["iteration_s"] = walls
        result["probe_s"] = probe.bracketed(probes)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        tracer = tracing.Tracer()
        _, missing = tracer.targets()
        problems.extend(f"traced name missing: {name}" for name in missing)
        plain, traced, layers, probes = [], [], [], [probe.reference()]
        while more(len(traced)):
            plain.append(checked(workload)[0])
            probes.append(probe.reference())
            tracer.iteration += 1
            wall, _, layer = checked(workload, tracer)
            probes.append(probe.reference())
            traced.append(wall)
            layers.append(layer)
        # Iterations alternate plain, traced; each is scaled by its bracketing probes.
        scales = [probe.REFERENCE_S / p for p in probe.bracketed(probes)]
        layers = [(tracing.scale_times(m, k), calls) for (m, calls), k in zip(layers, scales[1::2])]
        metrics = tracing.aggregate(layers, workload.required_layers, problems)
        metrics["trace.overhead_ratio"] = statistics.median(
            w * k for w, k in zip(traced, scales[1::2])
        ) / statistics.median(w * k for w, k in zip(plain, scales[0::2]))
        result["layers"] = metrics
        result["iteration_s"] = traced
        result["probe_s"] = probe.bracketed(probes)[1::2]
        tracer.write(Path(config["spans"]))

    if isinstance(workload, workloads.Replicate) and workload.seed != workloads.GOLDEN_SEED:
        checked(workloads.Replicate(workloads.GOLDEN_SEED, workload.trials, root))  # golden check
    result.update(ops, problems=problems)
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
