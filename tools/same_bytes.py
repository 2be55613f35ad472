"""Whether two commits' CLI pipelines write the same files, byte for byte.

    python3 tools/same_bytes.py --parent REV --change REV

Run from the root of the git checkout. Each side gets a fresh copy of its
committed files (``git archive``, the snapshot of tools/bench_pairs.py), and
in it, at OPENBLAS_NUM_THREADS=1 and then 2, runs the CLI at its default
config: ``synth`` (3 patients x 8 days, seed 3), ``preprocess``, ``train``
of ``retain``, ``stdattn`` and ``lstm`` for 1 epoch (target p02, sources
p00,p01, seed 3), ``evaluate`` of each model, and ``explain --sample 2
--event cho`` of the retain model. Every output file is compared,
``effective.cfg``, ``model.json`` and ``profiles.json`` included.

Prints each file that differs or that one side alone wrote, then one count
line per thread count. Exits 1, keeping the copies and outputs in a
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    args = parser.parse_args(argv)
    work = Path(tempfile.mkdtemp(prefix="same_bytes-"))
    print(f"working in {work}", file=sys.stderr)
    for side in SIDES:
        snapshot(getattr(args, side), work / side)
    differ = 0
    for threads in THREADS:
        trees = {}
        for side in SIDES:
            pipeline(work / side / "src", work / f"{side}-out-{threads}", threads)
            trees[side] = tree_bytes(work / f"{side}-out-{threads}")
        names = sorted(set(trees["parent"]) | set(trees["change"]))
        diff = [n for n in names if trees["parent"].get(n) != trees["change"].get(n)]
        for name in diff:
            wrote = [side for side in SIDES if name in trees[side]]
            how = "differs" if len(wrote) == 2 else f"only in the {wrote[0]}"
            print(f"OPENBLAS_NUM_THREADS={threads}: {name} {how}")
        print(f"OPENBLAS_NUM_THREADS={threads}: {len(names)} files, {len(diff)} differ")
        differ += len(diff)
    if differ:
        print(f"outputs kept in {work}", file=sys.stderr)
        return 1
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
