"""Benchmark of polebounds: one workload per call, end to end or per layer.

Usage (from the repository root)::

    python3 benchmark/run.py --workload bound_table --seed 1 --seconds 12 --trace 0

Workloads: bound_table, ratio_verify, arc_suite, wos_oracle (see README.md).

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
measures the per-layer metrics: half the time untraced, half with spans
around the program's public functions, then a fixed sample of the other
workloads' operations and the CLI calls in-process.

Every run checks the program's outputs against independent oracles and
prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A fuller record (git SHA, nproc, versions, check
details) goes to ``benchmark/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import workloads  # noqa: E402

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Fresh-interpreter import probes per traced run.
IMPORT_REPEATS = 3

#: Operations sampled from each other workload in a traced run's coverage pass.
COVERAGE = {"bound_table": 8, "ratio_verify": 12, "arc_suite": 16, "wos_oracle": 3}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("POLEBOUNDS_FORMAT", None)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def timed_run(argv: list[str], env: dict, timeout: float) -> tuple[float, subprocess.CompletedProcess]:
    t0 = perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=timeout)
    return perf_counter() - t0, proc


def import_probe(module: str, env: dict) -> float:
    """Seconds a fresh interpreter spends importing ``module`` (start-up excluded)."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    _, proc = timed_run([sys.executable, "-c", code], env, 60)
    proc.check_returncode()
    return float(proc.stdout.strip())


def machine_facts() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "polebounds").glob("*.py")):
        digest.update(path.read_bytes())
    import mpmath
    import numpy

    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "polebounds" / "__init__.py").is_file():
        print(f"error: no polebounds sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    env = child_env()
    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        result, record = measure(args, env, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    record["machine"] = machine_facts()
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans", None)
    if spans is not None:
        with open(f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    if record["check_failures"]:
        print("check failures:", *record["check_failures"][:20], sep="\n  ")
    print(json.dumps(result))
    return 0


def measure(args, env, run_dir):
    # Set-up: a fresh interpreter importing polebounds, plus input generation.
    setup, setup_ref = [], []
    for _ in range(SETUP_REPEATS):
        t_import, proc = timed_run([sys.executable, "-c", "import polebounds"], env, 60)
        proc.check_returncode()
        t0 = perf_counter()
        inputs = workloads.generate(args.workload, args.seed, run_dir)
        setup.append(t_import + perf_counter() - t0)
        setup_ref.append(calibrate.time_startup(env))

    cli_idx = workloads.cli_inputs(inputs)
    job = {
        "workload": args.workload,
        "inputs": inputs,
        "seconds": args.seconds,
        "trace": args.trace,
        "src": str(SRC),
        "cli_argv": [workloads.cli_argv(args.workload, inputs[k]) for k in cli_idx],
        "coverage": {},
    }
    if args.trace:
        for other, n in COVERAGE.items():
            if other != args.workload:
                # A stride of len/n + 1 spreads the sample over the round and, for
                # arc_suite (192 inputs, 16 vertex counts), hits every count.
                sample = workloads.generate(other, args.seed, run_dir / other)
                step = len(sample) // n + 1
                job["coverage"][other] = [sample[k * step % len(sample)] for k in range(n)]
    job_path, out_path = run_dir / "job.json", run_dir / "result.json"
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(job_path), str(out_path)],
        env=env, capture_output=True, text=True, timeout=2 * args.seconds + 90,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    with open(out_path, encoding="utf-8") as fh:
        res = json.load(fh)

    records = res["records"]
    ck = workloads.check(args.workload, inputs, records)
    failures = list(ck.failures)
    phases = [res["untraced"]] + ([res["traced"]] if args.trace else [])
    attempted = sum(ph["ops"] for ph in phases)
    failed = sum(ph["failed"] for ph in phases)
    mismatches = sum(ph["mismatches"] for ph in phases)
    errors = [e for ph in phases for e in ph["errors"]]
    if mismatches:
        failures.append(f"{mismatches} repeated operations differ from their first result")

    # CLI calls: fresh processes (end to end) or in-process (traced).
    if args.trace:
        cli_runs = [(None, out["code"], out["stdout"]) for out in res["cli_inprocess"]]
    else:
        cli_runs, cli_ref = [], []
        for argv in job["cli_argv"]:
            wall, p = timed_run([sys.executable, "-m", "polebounds.cli", *argv], env, 120)
            cli_runs.append((wall, p.returncode, p.stdout))
            cli_ref.append(calibrate.time_startup(env))
            if p.returncode != 0:
                errors.append(p.stderr[-2000:])
        cli_ms = [wall * 1e3 for wall, _, _ in cli_runs]
    for k, (_, code, stdout) in zip(cli_idx, cli_runs):
        attempted += 1
        if code != 0:
            failed += 1
            continue
        expected = [workloads.expected_cli_record(args.workload, inputs[k], records[k])]
        if json.loads(stdout) != expected:
            failures.append(f"CLI output for input {k} differs from the library result")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "check_failures": failures,
        "errors": errors,
        "quadrature_estimate_exceeded": ck.estimate_exceeded,
        "inside_branch": ck.inside_branch,
        "rounds": [ph["rounds"] for ph in phases],
    }

    if not args.trace:
        # Timings are scaled to the reference machine speed (calibrate.py).
        st = res["untraced"]
        lat_ms = [x * 1e3 for x in calibrate.scaled_latencies(st["latencies"], st["window"], st["kernel_s"])]
        ops = len(lat_ms)
        values = {
            "throughput_ops_s": ops / (sum(lat_ms) / 1e3),
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
            "setup_s": statistics.median(calibrate.scaled_startups(setup, setup_ref)),
            "cli_call_ms": statistics.median(calibrate.scaled_startups(cli_ms, cli_ref)),
            "peak_rss_mb": st["peak_rss_mb"],
        }
        units = metric_units("end_to_end")
        record["latency_samples"] = ops
        record["raw"] = {"latencies": st["latencies"], "window": st["window"], "kernel_s": st["kernel_s"],
                         "setup_s": setup, "cli_call_ms": cli_ms,
                         "cli_startup_ref_s": cli_ref, "setup_startup_ref_s": setup_ref}
    else:
        for other, cov in res["coverage"].items():
            attempted += COVERAGE[other]
            failed += cov["failed"]
            errors += cov["errors"]
            if cov["mismatches"]:
                failures.append(f"coverage {other}: repeated operations differ")
        values = dict(res["layer"])
        values["cli.import_s"] = statistics.median(import_probe("polebounds", env) for _ in range(IMPORT_REPEATS))
        values["cli.import_numpy_s"] = statistics.median(import_probe("numpy", env) for _ in range(IMPORT_REPEATS))
        values["lengths.err_over_estimate.count"] = ck.estimate_exceeded
        traced_ops_s, untraced_ops_s = res["traced"]["ops_s"], res["untraced"]["ops_s"]
        values["trace.overhead_ops_s"] = traced_ops_s - untraced_ops_s
        values["trace.overhead_share"] = 1.0 - traced_ops_s / untraced_ops_s
        units = metric_units("per_layer")
        record["layer_sources"] = res["layer_sources"]
        record["spans"] = res["spans"]

    missing = sorted(name for name in units if values.get(name) is None)
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record["metrics"] = metrics
    correct = not failures
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, record


def metric_units(kind: str) -> dict:
    """name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())
