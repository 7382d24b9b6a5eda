"""Runs one workload's operations in a fresh single-threaded process.

Usage: ``python worker.py JOB.json RESULT.json`` (started by ``run.py``).

The job names the workload, its round of inputs and how long to run. The
worker repeats whole rounds until the time is up, keeps the first round's
results for the parent to check, and compares every later round with the
first. In a traced job it then runs the same rounds again with tracing on,
a fixed sample of the other workloads' operations (so that every layer has
spans), and the workload's CLI calls in-process through ``cli.main``.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import traceback
from time import perf_counter

import calibrate
import tracing
import workloads

#: Seconds of operations between two timings of the reference kernel.
KERNEL_EVERY_S = 0.25


def run_rounds(workload, pb, inputs, seconds, reference, wrap_family=None, tracer=None):
    """Whole rounds of ``inputs`` until ``seconds`` have passed.

    ``reference`` holds each input's first result (``None`` until seen); a
    later result that differs from it counts as a mismatch. Every operation's
    latency is kept, and between operations the reference kernel is timed
    about every ``KERNEL_EVERY_S``; ``window[i]`` is the number of kernel
    timings before operation ``i`` minus one, so operation ``i`` ran between
    kernel timings ``window[i]`` and ``window[i] + 1``. With a ``tracer``,
    each operation is one root span.
    """
    stats = {"ops": 0, "failed": 0, "mismatches": 0, "rounds": 0, "errors": [], "latencies": [],
             "window": [], "kernel_s": [calibrate.time_kernel()]}
    start = last_kernel = perf_counter()
    while True:
        for k, inp in enumerate(inputs):
            t0 = perf_counter()
            try:
                if tracer is None:
                    result = workloads.call(workload, pb, inp, wrap_family)
                else:
                    result = tracer.wrap("op", workloads.call)(workload, pb, inp, wrap_family)
            except Exception:
                stats["failed"] += 1
                if len(stats["errors"]) < 5:
                    stats["errors"].append(traceback.format_exc())
                continue
            finally:
                stats["ops"] += 1
            t1 = perf_counter()
            stats["latencies"].append(t1 - t0)
            stats["window"].append(len(stats["kernel_s"]) - 1)
            rec = workloads.to_record(workload, result)
            if reference[k] is None:
                reference[k] = rec
            elif rec != reference[k]:
                stats["mismatches"] += 1
            if t1 - last_kernel >= KERNEL_EVERY_S:
                stats["kernel_s"].append(calibrate.time_kernel())
                last_kernel = perf_counter()
        stats["rounds"] += 1
        if perf_counter() - start >= seconds:
            break
    stats["kernel_s"].append(calibrate.time_kernel())
    return stats


def main(job_path: str, out_path: str) -> None:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import polebounds as pb
    from polebounds import arcs, bounds, cli, conformal, harmonic, hyperbolic, lengths

    workload, inputs = job["workload"], job["inputs"]
    reference = [None] * len(inputs)
    # Warm-up: first-call costs are not part of any operation.
    workloads.call(workload, pb, inputs[0])

    if not job["trace"]:
        stats = run_rounds(workload, pb, inputs, job["seconds"], reference)
        stats["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out = {"untraced": stats, "records": reference}
    else:
        half = job["seconds"] / 2.0
        untraced = run_rounds(workload, pb, inputs, half, reference)
        modules = {"polebounds": pb, "bounds": bounds, "lengths": lengths, "hyperbolic": hyperbolic,
                   "arcs": arcs, "harmonic": harmonic, "cli": cli, "conformal": conformal}
        tracer = tracing.Tracer()
        undo = tracing.install(tracer, modules)
        try:
            traced = run_rounds(workload, pb, inputs, half, reference, tracer.count_derivative, tracer)
            main_spans = tracer.take()
            main_evals, tracer.integrand_evals = tracer.integrand_evals, 0

            coverage = {}
            cov_ops = 0
            for other, sample in job["coverage"].items():
                cov_ref = [None] * len(sample)
                st = run_rounds(other, pb, sample, 0.0, cov_ref, tracer.count_derivative, tracer)
                coverage[other] = {"failed": st["failed"], "mismatches": st["mismatches"],
                                   "errors": st["errors"]}
                cov_ops += st["ops"]
            cov_spans = tracer.take()
            cov_evals = tracer.integrand_evals

            cli_out = []
            for argv in job["cli_argv"]:
                buf = io.StringIO()
                code = cli.main(argv, out=buf)
                cli_out.append({"code": code, "stdout": buf.getvalue()})
            cli_spans = tracer.take()
        finally:
            tracing.uninstall(undo)

        main_m = tracing.summarize(main_spans, traced["ops"], traced["rounds"])
        cov_m = tracing.summarize(cov_spans, cov_ops, 1)
        cli_m = tracing.summarize(cli_spans, len(job["cli_argv"]), 1)
        layer = {}
        for name, value in main_m.items():
            source = cov_m if value is None else main_m
            layer[name] = source[name]
        layer["cli.main.ms"] = cli_m["cli.main.ms"]
        layer["cli.self_ms"] = cli_m["cli.self_ms"]
        layer["lengths.integrand_evals"] = (
            main_evals / traced["ops"] if main_evals else cov_evals / cov_ops
        )
        layer_sources = {name: ("workload" if main_m[name] is not None else "coverage") for name in main_m}
        layer_sources["cli.main.ms"] = layer_sources["cli.self_ms"] = "cli"
        for stats in (untraced, traced):
            lat = calibrate.scaled_latencies(stats["latencies"], stats["window"], stats["kernel_s"])
            stats["ops_s"] = len(lat) / sum(lat)
        out = {
            "untraced": untraced,
            "traced": traced,
            "records": reference,
            "layer": layer,
            "layer_sources": layer_sources,
            "coverage": coverage,
            "cli_inprocess": cli_out,
            "spans": {"workload": main_spans[:20000], "coverage": cov_spans, "cli": cli_spans},
        }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
