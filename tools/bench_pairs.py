"""Alternating parent/change pairs of the perfbench workloads, in one JSON file.

    python3 tools/bench_pairs.py --parent REV --change REV --label NAME \\
        [--workloads train-prod,train-small,pipeline] [--pairs 10] \\
        [--first-seed 9301] [--seconds 30] [--claim train-prod:train_samples_per_s|none] \\
        [--cli-runs 5] [--busy-cpu N] [--work DIR]

Run from the root of the git checkout; writes ``BENCH_<NAME>.json`` there.
Every run gets a fresh copy of its side's committed files (``git archive``)
and runs the unchanged ``python3 perfbench/run.py --workload W --seed S
--seconds T`` (trace 0) in it. Pair k of a workload uses seed
first-seed + 100 * (workload index) + k for both sides; the side that runs
first alternates, starting with the parent. Beside the harness's metrics,
each run records:

* ``cpu_s``: the run's user + system CPU seconds (``getrusage`` of the
  child), set-up included, and ``cpu_per_iteration_s``;
* ``raw_iteration_s``: the median unscaled wall seconds per iteration, from
  the run's details file, and ``iteration_peak_rss_mb``;
* the child's peak RSS (``ru_maxrss_mb``, the whole process, set-up
  included), minor page faults and voluntary and involuntary context
  switches, and each CPU's user, system, idle and steal ticks over the run
  (``/proc/stat``, every process on the machine).

The file also records each side's ``src_lines``: the lines (as ``wc -l``
counts them) of every ``*.py`` file under the ``src/`` of its copy, so a
change's line count sits beside its timings.

Before each pair, a calibration runs a 1-thread 512x512 GEMM loop in one
process alone and then in two processes at once. Their ``two_process_ratio``
(aggregate rate over the lone rate; 2.0 on two free cores) tells a pair run
while the sibling vCPU was busy from one where it was free.

The claim (``--claim WORKLOAD:METRIC``) holds when the change is better in at
least 9 of 10 pairs and the gap between the medians is larger than the
parent's interquartile range. Quartiles are ``statistics.quantiles(n=4)``.
One traced run per side of the claim's workload (``--trace 1``, the first
seed) records the per-layer counts. With ``--claim none`` there is no claim,
no ``holds`` and no traced run.

Every end-to-end metric of ``BENCHMARK.json`` gets a verdict on every
workload, against the metric's bound there (a share of the parent's median):

* ``unresolved`` when the parent's interquartile range, as a share of its
  median, exceeds the bound, unless every change run reads better than every
  parent run;
* else ``worse`` when the change's median is worse than the parent's by more
  than the bound;
* else ``unchanged``.

With ``--busy-cpu N``, a process that spins on CPU N alone runs beside every
measured run (not beside the calibrations or the traced runs), as a busy
sibling vCPU would.

With ``--cli-runs N``, the CLI's production-size ``train`` (1 epoch) +
``evaluate`` of each model family (retain, stdattn, lstm), and ``explain``
of retain, on a 3 x 8-day cohort (seed 3), are timed N alternating times
per side at the default BLAS thread count (no
``*_NUM_THREADS`` variable set), wall and CPU seconds per family, and each
command's peak RSS (``ru_maxrss`` of that child, through ``os.wait4``).
Each run also records ``outputs_identical``: whether the files the two sides'
commands wrote (under ``<work>/cli-data/<side>-<k>/``) are the same names
with the same bytes.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
             "MKL_NUM_THREADS")
METRICS = {"setup_s": "lower", "train_samples_per_s": "higher", "iteration_s": "lower",
           "peak_rss_mb": "lower", "raw_iteration_s": "lower", "cpu_s": "lower",
           "cpu_per_iteration_s": "lower"}
GEMM = ("import sys, time, numpy as np\n"
        "a = np.random.default_rng(0).normal(size=(512, 512)); c = np.empty_like(a)\n"
        "t = time.perf_counter()\n"
        "for _ in range(150): np.matmul(a, a, out=c)\n"
        "print(150 / (time.perf_counter() - t))\n")
METHOD = ("{pairs} alternating parent/change pairs per workload of the unchanged "
          "`python3 perfbench/run.py --workload W --seed S --seconds {seconds}` (trace 0), "
          "each run in a fresh copy of its side's committed files; the side that runs "
          "first alternates, starting with the parent. cpu_s is the run's user + system "
          "CPU seconds (getrusage of the child, set-up included); raw_iteration_s is the "
          "median unscaled wall seconds per iteration from the run's details file; "
          "ru_maxrss_mb, ru_minflt, ru_nvcsw and ru_nivcsw are the child's own (os.wait4) and "
          "cpu_ticks_user_sys_idle_steal each CPU's /proc/stat tick deltas over the run "
          "(all processes); each pair's calibration is a 1-thread GEMM loop in one process alone and in two at "
          "once, taken just before the pair. The harness pins one BLAS thread. Written "
          "by tools/bench_pairs.py.")
CLI = "import sys; from glucast.cli import main; sys.exit(main(sys.argv[1:]))"
CLI_MODELS = ("retain", "stdattn", "lstm")  # the families --cli-runs times


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--workloads", default="train-prod,train-small,pipeline")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=9301)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--claim", default="train-prod:train_samples_per_s")
    parser.add_argument("--cli-runs", type=int, default=0)
    parser.add_argument("--busy-cpu", type=int, default=None,
                        help="spin a process on this CPU beside every measured run")
    parser.add_argument("--work", type=Path, default=None,
                        help="directory for the copies (default: a new temporary one)")
    return parser.parse_args(argv)


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def snapshot(rev, dest):
    """A fresh copy of the files committed at ``rev`` in ``dest``."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def src_lines(copy):
    """Lines of every ``*.py`` file under ``copy / "src"``, as ``wc -l`` counts."""
    return sum(p.read_bytes().count(b"\n") for p in (copy / "src").rglob("*.py"))


def cpu_ticks():
    """Per-CPU (user, system, idle, steal) clock ticks since boot."""
    with open("/proc/stat") as fh:
        rows = [line.split() for line in fh if line.startswith("cpu") and line[3].isdigit()]
    return {row[0]: [int(row[k]) for k in (1, 3, 4, 8)] for row in rows}


def timed_child(cmd, cwd, env=None):
    """(completed process, wall seconds, child CPU seconds, host counters) of
    one command. The counters are the child's peak RSS in MB
    (``ru_maxrss_mb``), minor page faults and voluntary and involuntary
    context switches, all from ``os.wait4`` of that child alone, and each
    CPU's user, system, idle and steal ticks (all processes) over the run."""
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        ticks, start = cpu_ticks(), time.perf_counter()
        child = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err, text=True)
        _, status, usage = os.wait4(child.pid, 0)
        wall, ticks_after = time.perf_counter() - start, cpu_ticks()
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        done = subprocess.CompletedProcess(cmd, child.returncode, out.read(), err.read())
    if done.returncode:
        raise SystemExit(f"{' '.join(map(str, cmd))} in {cwd} exited "
                         f"{done.returncode}:\n{done.stderr[-4000:]}")
    counters = {"ru_maxrss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
                **{k: getattr(usage, k) for k in ("ru_minflt", "ru_nvcsw", "ru_nivcsw")}}
    counters["cpu_ticks_user_sys_idle_steal"] = {
        name: [b - a for a, b in zip(ticks[name], row)] for name, row in ticks_after.items()}
    return done, wall, usage.ru_utime + usage.ru_stime, counters


def bench_run(copy, workload, seed, seconds, trace=0, busy_cpu=None):
    spinner = None if busy_cpu is None else subprocess.Popen(
        [sys.executable, "-c", f"import os; os.sched_setaffinity(0, {{{busy_cpu}}})\n"
                               "while True: pass"])
    try:
        done, _, cpu, counters = timed_child(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)], copy)
    finally:
        if spinner is not None:
            spinner.kill()
            spinner.wait()
    result = json.loads(done.stdout.strip().splitlines()[-1])
    details = json.loads((copy / ".perfbench_out" /
                          f"{workload}-seed{seed}-trace{trace}.json").read_text())["details"]
    iterations = details["iterations"]
    out = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        return out
    out.update(raw_iteration_s=statistics.median(i["raw_seconds"] for i in iterations),
               cpu_s=cpu, cpu_per_iteration_s=cpu / len(iterations),
               iterations=len(iterations), correct=result["correct"],
               failed=result["failed"], attempted=result["attempted"],
               iteration_peak_rss_mb=[i["peak_rss_mb"] for i in iterations],
               raw_iteration_seconds=[i["raw_seconds"] for i in iterations], **counters)
    return out


def calibrate():
    """GEMM iterations per second of one 1-thread process alone, and of two."""
    env = {**os.environ, **dict.fromkeys(BLAS_VARS, "1")}
    alone = float(subprocess.run([sys.executable, "-c", GEMM], env=env, check=True,
                                 capture_output=True, text=True).stdout)
    pair = [subprocess.Popen([sys.executable, "-c", GEMM], env=env,
                             stdout=subprocess.PIPE, text=True) for _ in range(2)]
    rates = [float(p.communicate()[0]) for p in pair]
    return {"one_process_gemm_per_s": alone, "two_processes_gemm_per_s": rates,
            "two_process_ratio": sum(rates) / alone}


def end_to_end():
    """{metric: (better, bound)} of BENCHMARK.json's end-to-end metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def summarize(pairs, metric, better, bound=None):
    """Medians, quartiles and pairs won of one metric; with the metric's
    ``bound``, also its verdict (module docstring)."""
    values = {side: [p[side][metric] for p in pairs] for side in ("parent", "change")}
    stats = {}
    for side, vs in values.items():
        q1, median, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        stats[side] = {"q1": q1, "median": median, "q3": q3}
    won = sum((c < p) if better == "lower" else (c > p)
              for p, c in zip(values["parent"], values["change"]))
    out = {"better": better, **stats, "change_won_pairs": won, "pairs": len(pairs),
           "median_gap": stats["change"]["median"] - stats["parent"]["median"],
           "parent_iqr": stats["parent"]["q3"] - stats["parent"]["q1"]}
    if bound is not None:
        base = stats["parent"]["median"]
        if better == "lower":
            all_better = max(values["change"]) < min(values["parent"])
            worsening = out["median_gap"] / base
        else:
            all_better = min(values["change"]) > max(values["parent"])
            worsening = -out["median_gap"] / base
        out.update(bound=bound, parent_relative_iqr=out["parent_iqr"] / base,
                   relative_worsening=worsening)
        out["verdict"] = ("unresolved" if out["parent_relative_iqr"] > bound and not all_better
                          else "worse" if out["relative_worsening"] > bound else "unchanged")
    return out


def tree_bytes(root):
    """{path relative to root: bytes} of every file under ``root``."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def cli_timing(copies, runs, work):
    """Alternating timings, per model family, of the CLI's production train
    + evaluate (+ explain for retain) at the default BLAS thread count."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    data = work / "cli-data"
    shutil.rmtree(data, ignore_errors=True)

    def cli(side, *argv):
        return timed_child([sys.executable, "-c", CLI, *map(str, argv)], work,
                           env={**env, "PYTHONPATH": str(copies[side] / "src")})

    cli("parent", "synth", "--patients", 3, "--days", 8, "--seed", 3, "--out", data / "raw")
    cli("parent", "preprocess", "--data", data / "raw", "--out", data / "prep")
    timings = []
    for k in range(runs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        row = {"first": order[0]}
        for side in order:
            row[side] = {}
            for model in CLI_MODELS:
                out = data / f"{side}-{k}" / model
                commands = [("train", "--data", data / "prep", "--target", "p02",
                             "--sources", "p00,p01", "--model", model, "--max-epochs", 1,
                             "--seed", 3, "--out", out / "run"),
                            ("evaluate", "--model", out / "run" / "model.json", "--data",
                             data / "prep", "--target", "p02", "--out", out / "eval")]
                if model == "retain":
                    commands.append(("explain", "--model", out / "run" / "model.json",
                                     "--data", data / "prep", "--target", "p02", "--sample",
                                     2, "--event", "cho", "--out", out / "explain"))
                wall = cpu = 0.0
                peaks = {}
                for argv in commands:
                    _, w, c, counters = cli(side, *argv)
                    wall, cpu = wall + w, cpu + c
                    peaks[argv[0]] = counters["ru_maxrss_mb"]
                row[side][model] = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peaks}
        row["outputs_identical"] = (tree_bytes(data / f"parent-{k}")
                                    == tree_bytes(data / f"change-{k}"))
        timings.append(row)
    return {"method": "per model family: glucast train --model M --max-epochs 1 --seed 3 "
                      "(sources p00,p01, target p02) + evaluate, and for retain explain "
                      "--sample 2 --event cho, on synth --patients 3 --days 8 --seed 3, "
                      "production defaults, no *_NUM_THREADS variable set; wall and child "
                      "CPU seconds of each family's commands, each command's peak RSS in MB "
                      "(ru_maxrss of that child, from os.wait4), and whether the two sides "
                      "wrote the same files byte for byte (outputs_identical)",
            "blas_threads_default": len(os.sched_getaffinity(0)),
            "runs": timings,
            "median": {side: {model: {
                **{m: statistics.median(r[side][model][m] for r in timings)
                   for m in ("wall_s", "cpu_s")},
                "peak_rss_mb": {command: statistics.median(
                    r[side][model]["peak_rss_mb"][command] for r in timings)
                    for command in timings[0][side][model]["peak_rss_mb"]}}
                for model in CLI_MODELS}
                for side in ("parent", "change")}}


def environment(seconds):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "machine": platform.machine(), "cpus_usable": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "harness_blas_threads": 1,
            "seconds": seconds,
            "date": datetime.datetime.now(datetime.timezone.utc).strftime(
                "%Y-%m-%d %H:%M:%S UTC")}


def main(argv=None):
    args = parse_args(argv)
    work = args.work or Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    revs = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    bounds = end_to_end()
    metrics = {**METRICS, **{m: better for m, (better, _) in bounds.items()}}
    claim_workload, claim_metric = (args.claim.split(":") if args.claim != "none"
                                    else (None, "train_samples_per_s"))
    claim = None if claim_workload is None else {
        "workload": claim_workload, "metric": claim_metric,
        "rule": "change better in at least 9 of 10 alternating pairs, and the gap between "
                "medians larger than the parent's interquartile range"}
    doc = {"label": args.label, "claim": claim,
           "no_regression_rule": "per workload and end-to-end metric of BENCHMARK.json: "
                                 "unresolved when the parent's interquartile range over its "
                                 "median exceeds the bound and not every change run reads "
                                 "better than every parent run; else worse when the change's "
                                 "median is worse than the parent's by more than the bound "
                                 "(a share of the parent's median); else unchanged",
           "method": METHOD.format(pairs=args.pairs, seconds=args.seconds),
           "parent_commit": revs["parent"], "change_commit": revs["change"],
           "src_trees": {side: git("rev-parse", f"{rev}:src") for side, rev in revs.items()},
           "src_lines": {side: src_lines(snapshot(rev, work / side))
                         for side, rev in revs.items()},
           "environment": environment(args.seconds), "workloads": {}}
    if args.busy_cpu is not None:
        doc["busy_cpu"] = args.busy_cpu
    out_path = ROOT / f"BENCH_{args.label}.json"
    for w, workload in enumerate(args.workloads.split(",")):
        seeds = [args.first_seed + 100 * w + k for k in range(args.pairs)]
        pairs = []
        for k, seed in enumerate(seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0], "calibration": calibrate()}
            for side in order:
                copy = snapshot(revs[side], work / side)
                pair[side] = bench_run(copy, workload, seed, args.seconds,
                                       busy_cpu=args.busy_cpu)
            pairs.append(pair)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} {pair[side][claim_metric]:.4g}" for side in ("parent", "change")),
                file=sys.stderr)
        entry = {"seeds": seeds, "pairs": pairs,
                 "summary": {m: summarize(pairs, m, better, bounds.get(m, (None, None))[1])
                             for m, better in metrics.items()}}
        entry["verdicts"] = {m: entry["summary"][m]["verdict"] for m in bounds}
        if workload == claim_workload:
            entry["traced_counts"] = {}
            for side in ("parent", "change"):
                traced = bench_run(snapshot(revs[side], work / side), workload, seeds[0],
                                   args.seconds, trace=1)
                entry["traced_counts"][side] = {k: v for k, v in traced.items()
                                                if k.startswith("kernel.")}
            s = entry["summary"][claim_metric]
            gain = s["median_gap"] if s["better"] == "higher" else -s["median_gap"]
            doc["claim"]["holds"] = (s["change_won_pairs"] >= 0.9 * s["pairs"]
                                     and gain > s["parent_iqr"])
        doc["workloads"][workload] = entry
        out_path.write_text(json.dumps(doc, indent=1) + "\n")
    if args.cli_runs:
        copies = {side: snapshot(revs[side], work / f"cli-{side}") for side in revs}
        doc["cli_default_blas"] = cli_timing(copies, args.cli_runs, work)
    out_path.write_text(json.dumps(doc, indent=1) + "\n")
    if args.work is None:
        shutil.rmtree(work, ignore_errors=True)
    print(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
