"""glucast benchmark: closed-loop workloads driven through the public API.

    python3 perfbench/run.py --workload {train-small,train-prod,pipeline} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; glucast is imported from ``src/``.
One caller runs one workload: set-up is repeated SETUP_REPEATS times (each
timed; the last state is used), then identical iterations run back to back
for at most ``--seconds``: the next iteration starts only if one more of the
same length still fits (the first always runs). Every iteration's outputs
are checked and must repeat bit for bit.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
alternates untraced and traced iterations, reports the per-layer metrics of
the traced ones plus the tracing overhead, and checks that traced iterations
produce the same outputs and counts as untraced ones.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Details (environment, per-iteration times, failed checks) go to
``.perfbench_out/<workload>-seed<N>-trace<T>.json``, and traced spans to
``...-spans.json``, in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1  # fixed, at most nproc; one thread is the steadiest on a shared box
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("train-small", "train-prod", "pipeline")

# end-to-end metrics, measured with tracing off
END_TO_END = {
    "setup_s": "s",
    "train_samples_per_s": "1/s",
    "iteration_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit():
    """HEAD of the checkout, read from .git without running git; 'unknown'
    outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, workload):
    import numpy as np
    import glucast

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "glucast": glucast.__version__,
        "git_commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": args.workload,
        "params": workload.params,
    }


def run(args, work_dir):
    """Set up, iterate, check; returns (result line, details, spans or None)."""
    from clock import Clock
    from tracer import Tracer, layer_metrics, per_iteration_counts, tail
    from workloads import WORKLOADS, Checks, digest, peak_rss_mb

    workload = WORKLOADS[args.workload](args.seed, work_dir, Clock())
    checks = Checks()
    tracer = Tracer() if args.trace else None

    setup_times, setup_digests = [], []
    for k in range(SETUP_REPEATS):
        if tracer:
            tracer.tag = f"setup{k}"
            tracer.install()
        try:
            with workload.clock.timed() as timing:
                state = workload.setup()
        finally:
            if tracer:
                tracer.uninstall()
        setup_times.append(timing)
        setup_digests.append(digest(state))
    checks.check("set-up is deterministic", len(set(setup_digests)) == 1)
    rss_after_setup = peak_rss_mb()

    iterations = []  # (traced, outcome)
    reference = None
    start = time.perf_counter()
    while True:
        i = len(iterations)
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.tag = i
            tracer.install()
        try:
            out = workload.run(state, tracer if traced else None)
        except Exception:  # the run goes on to report the failure
            checks.ops(1, 1, f"iteration {i} raised:\n{traceback.format_exc()}")
            print(traceback.format_exc(), file=sys.stderr)
            break
        finally:
            if traced:
                tracer.uninstall()
        checks.ops(out.steps + len(out.stages))
        try:
            workload.check(state, out, checks, first=(i == 0))
        except Exception:  # a check that cannot even run has failed
            checks.ops(1, 1, f"checks of iteration {i} raised:\n{traceback.format_exc()}")
        fp = digest(out.fingerprint)
        reference = reference or fp
        checks.check(f"iteration {i} outputs repeat bit for bit", fp == reference)
        out.models = None  # so that peak RSS does not grow with the iteration count
        out.peak_rss_mb.append(peak_rss_mb())  # after the checks
        iterations.append((traced, out))
        # stop before an iteration as long as the last one would overrun
        # --seconds; a traced run needs one untraced and one traced iteration
        elapsed = time.perf_counter() - start
        if elapsed + out.raw_seconds > args.seconds and (tracer is None
                                                          or len(iterations) >= 2):
            break

    ok = [o for _, o in iterations if o.fingerprint is not None]
    details = {
        "setup_s": [t.scaled for t in setup_times],
        "setup_raw_s": [t.raw for t in setup_times],
        # ru_maxrss, which only grows: after the set-ups, then per iteration
        # after each timed unit (model or CLI stage) and after the checks
        "peak_rss_mb_after_setup": rss_after_setup,
        "iterations": [{"traced": t, "seconds": o.seconds,
                        "raw_seconds": o.raw_seconds, "stages": o.stages,
                        "peak_rss_mb": o.peak_rss_mb,
                        "train_windows": o.train_windows, "steps": o.steps,
                        "final_valid_mse": o.final_valid_mse,
                        "test_rmse_mgdl": o.test_rmse_mgdl}
                       for t, o in iterations],
    }

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(t.scaled for t in setup_times),
            "train_samples_per_s": statistics.median(
                o.train_windows / o.train_seconds for o in ok) if ok else 0.0,
            "iteration_s": statistics.median(o.seconds for o in ok) if ok else 0.0,
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
    else:
        plain = [o for t, o in iterations if not t and o.fingerprint is not None]
        traced = [(i, o) for i, (t, o) in enumerate(iterations)
                  if t and o.fingerprint is not None]
        tags = [i for i, _ in traced]
        counts = per_iteration_counts(tracer.spans, tags)
        for name, values in counts.items():
            checks.check(f"{name} repeats in every traced iteration",
                         len(set(values)) <= 1, str(values))
        for (i, out), steps, nbytes in zip(traced, counts["training.steps"],
                                           counts["datapipe.archive_bytes"]):
            checks.check(f"traced iteration {i}: steps equal the untraced count",
                         steps == out.steps, f"{steps} vs {out.steps}")
            checks.check(f"traced iteration {i}: archive bytes equal the untraced count",
                         nbytes == out.archive_bytes, f"{nbytes} vs {out.archive_bytes}")
        for _, out in traced:
            for key in ("final_valid_mse", "test_rmse_mgdl"):
                checks.check(f"traced {key} equals untraced",
                             plain and getattr(out, key) == getattr(plain[0], key))
        overhead = 0.0
        if plain and traced:
            base = statistics.median(o.seconds for o in plain)
            overhead = 100.0 * (statistics.median(o.seconds for _, o in traced)
                                - base) / base
        quality = {"final_valid_mse": ok[0].final_valid_mse if ok else 0.0,
                   "test_rmse_mgdl": ok[0].test_rmse_mgdl if ok else 0.0}
        speed = {f"setup{k}": t.factor for k, t in enumerate(setup_times)}
        speed.update((i, o.factor) for i, o in traced)
        metrics = layer_metrics(tracer.spans, tags, speed, workload.clock.probes,
                                quality, overhead)
        details["counts_per_traced_iteration"] = counts
        details["tail_percentiles"] = {
            name[:-2]: tail(range(n))[1]
            for name, (n, _) in metrics.items() if name.endswith(".n") and n}

    details["failures"] = checks.failures
    result = {
        "correct": checks.failed == 0 and bool(ok),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, details, tracer.dump(workload.clock.probes) if tracer else None


def check_against_spec(result, trace):
    """The printed metrics must be exactly those BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != declared:
        raise SystemExit(f"metrics do not match BENCHMARK.json: printed {printed}, "
                         f"declared {declared}")


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "glucast" / "__init__.py").is_file():
        print(f"error: no glucast sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import glucast

    if Path(glucast.__file__).resolve().parent != ROOT / "src" / "glucast":
        print(f"error: imported glucast from {glucast.__file__}, not from this "
              "checkout", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    out_dir = ROOT / ".perfbench_out"
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        result, details, trace = run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    check_against_spec(result, args.trace)

    env = environment(args, WORKLOADS[args.workload])
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{stem}.json").write_text(
        json.dumps({"environment": env, "result": result, "details": details},
                   indent=1, default=str))
    if trace:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(trace, default=str))
    for failure in details["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print("environment: " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
