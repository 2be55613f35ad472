"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` and then repeats
one identical unit of work per ``run`` call, so every iteration of a run must
give bit-identical outputs. glucast is driven only through its public
functions and ``glucast.cli.main``; the inputs it receives are the generated
cohort (in memory) or the seed on the ``synth`` command line.

* ``train-small``: adversarial source training plus finetuning of the
  attention model at the acceptance size (embed 16, hidden 24). Each step is
  ~1200 taped ops on tiny arrays, so interpreter and tape overhead dominate.
* ``train-prod``: source training of each model family at the production
  size, on a small subset (1 to 4 epochs, 6 steps each). GEMM-bound; an op-count cut should barely move it.
* ``pipeline``: the five CLI stages on a 6 x 21-day cohort, in-process. It is
  dominated by the sample-archive CSV round trip, untaped single-window
  inference in ``explain`` and CG-EGA in ``evaluate``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import resource
import shutil

import numpy as np

from glucast import cli, datapipe, synthdata, training
from glucast.models import (
    LstmRegModel,
    RetainConfig,
    RetainModel,
    StdAttnModel,
    load_model,
    save_model,
)

N_PATIENTS = 6
DAYS = 21
SPLIT = datapipe.SplitSpec(test_days=5, valid_fraction=0.2)
BATCH = training.TrainConfig().batch_size
PREDICT_CHUNK = 100  # windows per predict call in set-up


class Checks:
    """Output checks and failed operations of one run, for error_rate."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def ops(self, n, failed=0, detail=""):
        self.attempted += n
        self.failed += failed
        if failed:
            self.failures.append(detail)

    def check(self, name, ok, detail=""):
        self.ops(1, 0 if ok else 1, f"{name}: {detail}")
        return ok


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cohort(seed, n=N_PATIENTS):
    """The first n patients of the seeded 6-patient cohort, each preprocessed
    in memory as (train, valid, test, scaling), one patient at a time."""
    for profile in itertools.islice(synthdata.default_cohort(N_PATIENTS, seed), n):
        yield datapipe.preprocess_series(synthdata.generate_patient(profile, DAYS), SPLIT)


def strided(x, k):
    """k windows spread evenly over the split (the split's first windows all
    come from one morning and would not represent its validation windows)."""
    return x[::len(x) // k][:k]


def subset(prepped, n_train, patient_id):
    """n_train strided training windows, and validation windows in the ratio
    the split itself has (about 1 to 4 with valid_fraction 0.2)."""
    train, valid = prepped[0], prepped[1]
    n_valid = round(n_train * len(valid.y) / len(train.y))
    return training.PatientSplits(  # copies, so the whole splits can be freed
        train_x=strided(train.x, n_train).copy(), train_y=strided(train.y, n_train).copy(),
        valid_x=strided(valid.x, n_valid).copy(), valid_y=strided(valid.y, n_valid).copy(),
        patient_id=patient_id)


def valid_mse(model, valid_x, valid_y):
    """The model's MSE on the windows. They are predicted PREDICT_CHUNK at a
    time, so that set-up stays below the peak memory of the work it sets up."""
    pred = np.concatenate([model.predict(valid_x[i:i + PREDICT_CHUNK])
                           for i in range(0, len(valid_x), PREDICT_CHUNK)])
    return float(np.mean((pred - valid_y) ** 2))


def steps_per_epoch(n_windows):
    return math.ceil(n_windows / BATCH)


def check_history(checks, label, history):
    values = [v for row in history for v in (row["train_loss"], row["valid_mse"])]
    checks.check(f"{label}: losses finite", all(math.isfinite(v) for v in values),
                 f"history {history}")


def check_save_load(checks, label, model, path):
    """load_model(save_model(m)) must restore every parameter bit for bit."""
    save_model(model, path)
    loaded = load_model(path)
    a, b = model.param_arrays(), loaded.param_arrays()
    same = a.keys() == b.keys() and all(
        a[k].dtype == b[k].dtype and a[k].shape == b[k].shape
        and a[k].tobytes() == b[k].tobytes() for k in a)
    path.unlink()
    return checks.check(f"{label}: save/load bit-exact", same)


class Outcome:
    """What one iteration did and produced. Times are scaled seconds (see
    clock.py); raw wall seconds are kept in raw_seconds."""

    def __init__(self):
        self.seconds = 0.0          # time of the work
        self.raw_seconds = 0.0
        self.unprobed_seconds = 0.0  # wall time outside the clock's probes
        self.train_windows = 0      # training windows processed
        self.train_seconds = 0.0    # time of the phase that trained them
        self.steps = 0              # optimizer steps, derived from the histories
        self.archive_bytes = 0      # bytes of sample archives written
        self.final_valid_mse = 0.0
        self.test_rmse_mgdl = 0.0
        self.stages = {}            # CLI stage -> seconds
        self.fingerprint = None     # outputs that must repeat bit for bit
        self.models = {}            # trained models, for the checks only
        self.peak_rss_mb = []       # after each timed unit

    def add(self, timing):
        self.seconds += timing.scaled
        self.raw_seconds += timing.raw
        self.unprobed_seconds += timing.scaled / timing.factor
        self.peak_rss_mb.append(peak_rss_mb())

    @property
    def factor(self):
        """Clock factor of the iteration as a whole (see clock.py)."""
        return self.seconds / self.unprobed_seconds if self.unprobed_seconds else 1.0


class TrainSmall:
    name = "train-small"
    params = {"patients": N_PATIENTS, "days": DAYS, "sources": 5,
              "train_windows_per_patient": 300,
              "valid_windows_per_patient": "train x the split's valid/train ratio",
              "source_epochs": 2, "finetune_epochs": 1, "model": "retain",
              "embed_dim": 16, "hidden": 24, "batch_size": BATCH}

    def __init__(self, seed, work_dir, clock):
        self.seed = seed
        self.work_dir = work_dir
        self.clock = clock
        p = self.params
        self.config = RetainConfig(embed_dim=p["embed_dim"], alpha_hidden=p["hidden"],
                                   beta_hidden=p["hidden"], n_sources=p["sources"])

    def setup(self):
        p = self.params
        splits = [subset(d, p["train_windows_per_patient"], f"p{i:02d}")
                  for i, d in enumerate(cohort(self.seed))]
        sources, target = splits[:p["sources"]], splits[p["sources"]]
        untrained = RetainModel.create(self.config, seed=self.seed)
        valid_x = np.concatenate([s.valid_x for s in sources])
        valid_y = np.concatenate([s.valid_y for s in sources])
        return {"sources": sources, "target": target,
                "untrained_mse": valid_mse(untrained, valid_x, valid_y)}

    def run(self, state, tracer=None):
        p = self.params
        out = Outcome()
        with self.clock.timed() as timing:
            model = RetainModel.create(self.config, seed=self.seed)
            src_hist = training.train_source(model, state["sources"], training.TrainConfig(
                max_epochs=p["source_epochs"], patience_source=p["source_epochs"],
                seed=self.seed))
            ft_hist = training.finetune(model, state["target"], training.TrainConfig(
                max_epochs=p["finetune_epochs"], patience_finetune=p["finetune_epochs"],
                seed=self.seed))
        out.add(timing)
        out.train_seconds = out.seconds

        n_src = sum(len(s.train_y) for s in state["sources"])
        n_tgt = len(state["target"].train_y)
        out.train_windows = len(src_hist) * n_src + len(ft_hist) * n_tgt
        out.steps = (len(src_hist) * steps_per_epoch(n_src)
                     + len(ft_hist) * steps_per_epoch(n_tgt))
        out.final_valid_mse = ft_hist[-1]["valid_mse"]
        out.fingerprint = (src_hist, ft_hist, digest(model.param_arrays()))
        out.models = {"retain": model}
        return out

    def check(self, state, out, checks, first):
        """The MSE check is on the source phase. After it the model can
        predict the target worse than an untrained one (domain shift), and 6
        finetune steps at the finetune rate do not undo that; finetuning
        from an untrained model is checked on `pipeline`."""
        src_hist, ft_hist = out.fingerprint[:2]
        check_history(checks, "source", src_hist)
        check_history(checks, "finetune", ft_hist)
        source_mse = src_hist[-1]["valid_mse"]
        checks.check("source: final valid MSE below untrained",
                     source_mse < state["untrained_mse"],
                     f"{source_mse} vs {state['untrained_mse']}")
        check_save_load(checks, "retain", out.models["retain"],
                        self.work_dir / "model.json")


class TrainProd:
    name = "train-prod"
    params = {"patients": N_PATIENTS, "days": DAYS, "sources": 5,
              "train_windows_per_patient": 60,
              "valid_windows_per_patient": "train x the split's valid/train ratio",
              # epochs: enough for each model's validation MSE to beat the
              # untrained model's by a margin on every seed tried (README)
              "epochs": {"retain": 2, "stdattn": 4, "lstm": 1}, "batch_size": BATCH,
              "models": {"retain": "embed 64, hidden 128", "stdattn": "hidden 128",
                         "lstm": "hidden 256+256"}}

    def __init__(self, seed, work_dir, clock):
        self.seed = seed
        self.work_dir = work_dir
        self.clock = clock

    def create(self, kind):
        n_sources = self.params["sources"]
        if kind == "retain":
            return RetainModel.create(RetainConfig(n_sources=n_sources), seed=self.seed)
        if kind == "stdattn":
            return StdAttnModel.create(input_dim=3, hidden=128, seed=self.seed)
        return LstmRegModel.create(input_dim=3, n_sources=n_sources, seed=self.seed,
                                   hidden1=256, hidden2=256)

    def setup(self):
        p = self.params
        sources = [subset(d, p["train_windows_per_patient"], f"p{i:02d}")
                   for i, d in enumerate(cohort(self.seed, p["sources"]))]
        valid_x = np.concatenate([s.valid_x for s in sources])
        valid_y = np.concatenate([s.valid_y for s in sources])
        return {"sources": sources,
                "untrained_mse": {kind: valid_mse(self.create(kind), valid_x, valid_y)
                                  for kind in p["models"]}}

    def run(self, state, tracer=None):
        p = self.params
        out = Outcome()
        histories, models = {}, {}
        for kind in p["models"]:
            max_epochs = p["epochs"][kind]
            span = tracer.span(f"bench.{kind}") if tracer else contextlib.nullcontext()
            with self.clock.timed() as timing, span as rec:
                model = self.create(kind)
                histories[kind] = training.train_source(
                    model, state["sources"], training.TrainConfig(
                        max_epochs=max_epochs, patience_source=max_epochs,
                        seed=self.seed))
            if rec:  # spans inside a model's training are scaled like it
                rec.attrs["speed"] = timing.factor
            out.add(timing)
            models[kind] = model
        out.train_seconds = out.seconds

        n_src = sum(len(s.train_y) for s in state["sources"])
        epochs = sum(len(h) for h in histories.values())
        out.train_windows = epochs * n_src
        out.steps = epochs * steps_per_epoch(n_src)
        out.final_valid_mse = float(np.mean([h[-1]["valid_mse"]
                                             for h in histories.values()]))
        digests = {kind: digest(m.param_arrays()) for kind, m in models.items()}
        out.fingerprint = (histories, digests)
        out.models = models
        return out

    def check(self, state, out, checks, first):
        for kind, history in out.fingerprint[0].items():
            check_history(checks, kind, history)
            checks.check(f"{kind}: final valid MSE below untrained",
                         history[-1]["valid_mse"] < state["untrained_mse"][kind],
                         f"{history[-1]['valid_mse']} vs {state['untrained_mse'][kind]}")
            if first:  # production-size JSON round trips are slow; later
                # iterations must reproduce the same parameters anyway
                check_save_load(checks, kind, out.models[kind],
                                self.work_dir / f"{kind}.json")


class Pipeline:
    name = "pipeline"
    params = {"patients": N_PATIENTS, "days": DAYS, "target": "p05",
              "train": "finetune only, retain embed 16 hidden 24, 1 epoch, lr 1e-3",
              "explain": "--sample 0 --event cho"}
    # finetune-only starts from an untrained model, so it takes the source
    # rate: at the finetune rate (1e-4) one epoch beat the untrained model by
    # as little as 0.3% (README)
    config_text = ("embed_dim = 16\nalpha_hidden = 24\nbeta_hidden = 24\n"
                   "max_epochs = 1\npatience_finetune = 1\nlr_finetune = 1e-3\n")
    sample = 0

    def __init__(self, seed, work_dir, clock):
        self.seed = seed
        self.work_dir = work_dir
        self.clock = clock

    def setup(self):
        cfg_path = self.work_dir / "bench.cfg"
        cfg_path.write_text(self.config_text, encoding="utf-8")
        # the cohort `synth` will write, preprocessed in memory one patient
        # at a time: expected window counts and the target's validation set
        windows = {}
        for i, prepped in enumerate(cohort(self.seed)):
            pid = f"p{i:02d}"
            windows[pid] = [len(s) for s in prepped[:3]]
            if pid == self.params["target"]:
                target_valid = prepped[1]
            del prepped  # so that the next patient is built without it
        cfg = cli.load_config(cfg_path)
        untrained = RetainModel.create(RetainConfig(
            embed_dim=cfg["embed_dim"], alpha_hidden=cfg["alpha_hidden"],
            beta_hidden=cfg["beta_hidden"], n_sources=1), seed=self.seed)
        return {"config": cfg_path, "windows": windows,
                "untrained_mse": valid_mse(untrained, target_valid.x, target_valid.y)}

    def commands(self, state, root):
        t = self.params["target"]
        model = str(root / "run" / "model.json")
        return [
            ("synth", ["synth", "--patients", str(N_PATIENTS), "--days", str(DAYS),
                       "--seed", str(self.seed), "--out", str(root / "raw")]),
            ("preprocess", ["preprocess", "--data", str(root / "raw"),
                            "--out", str(root / "prep")]),
            ("train", ["train", "--config", str(state["config"]), "--data",
                       str(root / "prep"), "--target", t, "--model", "retain",
                       "--seed", str(self.seed), "--out", str(root / "run")]),
            ("evaluate", ["evaluate", "--model", model, "--data", str(root / "prep"),
                          "--target", t, "--out", str(root / "eval")]),
            ("explain", ["explain", "--model", model, "--data", str(root / "prep"),
                         "--target", t, "--sample", str(self.sample), "--event", "cho",
                         "--out", str(root / "explain")]),
        ]

    def run(self, state, tracer=None):
        out = Outcome()
        root = self.work_dir / "iter"
        shutil.rmtree(root, ignore_errors=True)
        out.exit_codes = {}
        for stage, argv in self.commands(state, root):
            span = tracer.span(f"cli.{stage}") if tracer else contextlib.nullcontext()
            sink = io.StringIO()
            with self.clock.timed() as timing, span as rec, \
                    contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
            if rec:  # spans inside a stage are scaled like the stage
                rec.attrs["speed"] = timing.factor
            out.add(timing)
            out.stages[stage] = timing.scaled
            out.exit_codes[stage] = code
            if code != 0:
                out.log = sink.getvalue()
                break
        if any(out.exit_codes.values()):
            return out

        history = _csv_rows(root / "run" / "history.csv", dicts=True)
        n_train = state["windows"][self.params["target"]][0]
        out.history = [{"train_loss": float(r["train_loss"]),
                        "valid_mse": float(r["valid_mse"])} for r in history]
        out.train_windows = len(history) * n_train
        out.train_seconds = out.stages["train"]
        out.steps = len(history) * steps_per_epoch(n_train)
        out.final_valid_mse = out.history[-1]["valid_mse"]
        out.archive_bytes = sum(f.stat().st_size for f in (root / "prep").rglob("*")
                                if f.is_file() and f.name != "effective.cfg")
        out.metrics = json.loads((root / "eval" / "metrics.json").read_text())
        out.test_rmse_mgdl = out.metrics["rmse_mgdl"]
        out.fingerprint = {
            str(f.relative_to(root)): _file_sha256(f)
            for d in ("raw", "prep", "run", "eval", "explain")
            for f in sorted((root / d).rglob("*")) if f.is_file()}
        out.root = root
        return out

    def check(self, state, out, checks, first):
        for stage, code in out.exit_codes.items():
            checks.check(f"{stage}: exit code 0", code == 0,
                         f"exit {code}: {getattr(out, 'log', '')[-2000:]}")
        if out.fingerprint is None:
            return
        root = out.root
        counts = {pid: [_csv_row_count(root / "prep" / pid / f"{s}.csv") - 1
                        for s in ("train", "valid", "test")]
                  for pid in state["windows"]}
        checks.check("archive windows match the in-memory preprocessing",
                     counts == state["windows"], f"{counts} vs {state['windows']}")
        check_history(checks, "train", out.history)
        checks.check("final valid MSE below untrained",
                     out.final_valid_mse < state["untrained_mse"],
                     f"{out.final_valid_mse} vs {state['untrained_mse']}")
        checks.check("metrics.json values finite",
                     all(math.isfinite(v) for v in _numbers(out.metrics)),
                     str(out.metrics))
        checks.check(*self.reconstruction(root))
        check_save_load(checks, "model.json", load_model(root / "run" / "model.json"),
                        self.work_dir / "resaved.json")

    def reconstruction(self, root):
        """contributions_<i>.csv plus its bias must sum to its prediction."""
        rows = _csv_rows(root / "explain" / f"contributions_{self.sample}.csv")
        by_label = {r[0]: r[1] for r in rows[1:] if r[0] in ("bias", "prediction")}
        total = sum(float(v) for r in rows[1:] if r[0] not in by_label for v in r[1:])
        recon = total + float(by_label["bias"])
        pred = float(by_label["prediction"])
        ok = abs(recon - pred) <= 1e-6 * max(1.0, abs(pred))
        return "contributions reconstruct the prediction", ok, f"{recon} vs {pred}"


def _csv_rows(path, dicts=False):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh) if dicts else csv.reader(fh))


def _csv_row_count(path):
    """Rows of a CSV file, header included, read one row at a time."""
    with open(path, newline="", encoding="utf-8") as fh:
        return sum(1 for _ in csv.reader(fh))


def _file_sha256(path):
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def digest(obj):
    """sha256 of a nested structure of arrays, numbers, strings and
    containers; NaN hashes equal to NaN, so repeated outputs compare equal."""
    h = hashlib.sha256()

    def feed(o):
        if isinstance(o, np.ndarray):
            h.update(f"{o.dtype}{o.shape}".encode())
            h.update(np.ascontiguousarray(o).tobytes())
        elif isinstance(o, dict):
            for k in sorted(o):
                feed(k)
                feed(o[k])
        elif isinstance(o, (list, tuple)):
            h.update(b"[")
            for v in o:
                feed(v)
            h.update(b"]")
        elif hasattr(o, "__dataclass_fields__"):
            feed(vars(o))
        else:
            h.update(repr(o).encode())

    feed(obj)
    return h.hexdigest()


def _numbers(doc):
    if isinstance(doc, dict):
        for v in doc.values():
            yield from _numbers(v)
    elif isinstance(doc, (int, float)):
        yield float(doc)


WORKLOADS = {w.name: w for w in (TrainSmall, TrainProd, Pipeline)}
