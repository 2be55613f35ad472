"""Whether CLI pipelines write the same files, byte for byte: two commits'
at each BLAS thread count, or one commit's at 1 and 2 threads.

    python3 tools/same_bytes.py --parent REV --change REV
    python3 tools/same_bytes.py --threads REV

Run from the root of the git checkout. Each commit gets a fresh copy of its
committed files (``git archive``, the snapshot of tools/bench_pairs.py), and
in it, at OPENBLAS_NUM_THREADS=1 and then 2, runs the CLI at its default
config: ``synth`` (3 patients x 8 days, seed 3), ``preprocess``, ``train``
of ``retain``, ``stdattn`` and ``lstm`` for 1 epoch (target p02, sources
p00,p01, seed 3), ``evaluate`` of each model, and ``explain --sample 2
--event cho`` of the retain model; then, under a config of another window
(``seq_len = 20``, ``ph_steps = 3``, ``period_minutes = 10``,
``spike_threshold = 40``), ``preprocess`` of the same cohort, ``train`` of
``retain`` and its ``evaluate``. Every output file is compared,
``effective.cfg``, ``model.json``, ``scaling.json`` and ``profiles.json``
included: with
``--parent`` and ``--change``, the two commits' files at the same thread
count; with ``--threads``, the one commit's files at 1 thread against its
files at 2.

Prints each file that differs or that one side alone wrote, then one count
line per comparison. Exits 1, keeping the copies and outputs in a
temporary directory it names, if any file differs or a command fails; else
exits 0 and removes them.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import BLAS_VARS, CLI, snapshot, tree_bytes

THREADS = (1, 2)
SIDES = ("parent", "change")


def pipeline(src, out, threads):
    """Run the module docstring's commands with the package under ``src``,
    writing under ``out``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=str(src))

    def cli(*argv):
        done = subprocess.run([sys.executable, "-c", CLI, *map(str, argv)], env=env,
                              capture_output=True, text=True)
        if done.returncode:
            raise SystemExit(f"glucast {' '.join(map(str, argv))} exited "
                             f"{done.returncode}:\n{done.stderr[-4000:]}")

    prep = out / "prep"
    cli("synth", "--patients", 3, "--days", 8, "--seed", 3, "--out", out / "raw")
    cli("preprocess", "--data", out / "raw", "--out", prep)
    for model in ("retain", "stdattn", "lstm"):
        run = out / model / "run"
        cli("train", "--data", prep, "--target", "p02", "--sources", "p00,p01",
            "--model", model, "--max-epochs", 1, "--seed", 3, "--out", run)
        cli("evaluate", "--model", run / "model.json", "--data", prep, "--target", "p02",
            "--out", out / model / "eval")
    cli("explain", "--model", out / "retain" / "run" / "model.json", "--data", prep,
        "--target", "p02", "--sample", 2, "--event", "cho",
        "--out", out / "retain" / "explain")
    window = out.parent / "window.cfg"  # an input: not among the outputs compared
    window.write_text("seq_len = 20\nph_steps = 3\nperiod_minutes = 10\n"
                      "spike_threshold = 40\n", encoding="utf-8")
    prep, run = out / "window" / "prep", out / "window" / "run"
    cli("preprocess", "--data", out / "raw", "--config", window, "--out", prep)
    cli("train", "--data", prep, "--target", "p02", "--sources", "p00,p01",
        "--model", "retain", "--max-epochs", 1, "--seed", 3, "--config", window,
        "--out", run)
    cli("evaluate", "--model", run / "model.json", "--data", prep, "--target", "p02",
        "--config", window, "--out", out / "window" / "eval")


def compare(label, trees, sides):
    """Print each file of the two ``trees`` ({side: tree_bytes}) that differs
    or that one side alone wrote, then a count line; the count of those."""
    names = sorted(set(trees[sides[0]]) | set(trees[sides[1]]))
    diff = [n for n in names if trees[sides[0]].get(n) != trees[sides[1]].get(n)]
    for name in diff:
        wrote = [side for side in sides if name in trees[side]]
        how = "differs" if len(wrote) == 2 else f"only in the {wrote[0]}"
        print(f"{label}: {name} {how}")
    print(f"{label}: {len(names)} files, {len(diff)} differ")
    return len(diff)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--threads", metavar="REV",
                        help="compare REV's files at 1 thread with its files at 2")
    args = parser.parse_args(argv)
    if (args.threads is None) == (args.parent is None or args.change is None):
        parser.error("give --parent and --change, or --threads")
    work = Path(tempfile.mkdtemp(prefix="same_bytes-"))
    print(f"working in {work}", file=sys.stderr)
    revs = {"rev": args.threads} if args.threads else {side: getattr(args, side)
                                                        for side in SIDES}
    for side, rev in revs.items():
        snapshot(rev, work / side)
    trees = {}
    for threads in THREADS:
        for side in revs:
            out = work / f"{side}-out-{threads}"
            pipeline(work / side / "src", out, threads)
            trees[side, threads] = tree_bytes(out)
    if args.threads:
        differ = compare(f"{args.threads} at OPENBLAS_NUM_THREADS=1 and 2",
                         {f"{t} thread(s)": trees["rev", t] for t in THREADS},
                         [f"{t} thread(s)" for t in THREADS])
    else:
        differ = sum(compare(f"OPENBLAS_NUM_THREADS={t}",
                             {side: trees[side, t] for side in SIDES}, SIDES)
                     for t in THREADS)
    if differ:
        print(f"outputs kept in {work}", file=sys.stderr)
        return 1
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
