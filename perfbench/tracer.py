"""In-memory span tracing of glucast, applied from outside the package.

``install`` replaces a fixed set of public functions (as bound in the modules
that call them) with thin wrappers that record one span per call: name,
start, end, parent span and the iteration it belongs to, plus a few counts
taken at the boundary (taped ops at ``Tape.backward``, windows per
``predict``, bytes per written archive, splits read from an archive).
Nothing inside ``src/glucast`` changes; ``uninstall`` restores every binding.

``layer_metrics`` turns the spans of a run into the per-layer metrics listed
in ``BENCHMARK.json``. A timing is reported as a median, the highest
percentile with at least ten samples beyond it (``.tail``) and its sample
count (``.n``). A layer that a workload never calls reports 0 with n = 0.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

SPLITS = ("train", "valid", "test")
PHASES = ("training.train_source", "training.finetune")
STAGES = ("synth", "preprocess", "train", "evaluate", "explain")
# the layers whose set-up spans count: set-up exists to build inputs with
# them, while its other calls (untrained reference models) are harness work
SETUP_LAYERS = ("synthdata.generate", "datapipe.preprocess_series")
TAIL_PERMILLE = (999, 990, 950, 900, 750, 500)


class Span:
    __slots__ = ("name", "start", "end", "parent", "tag", "attrs")

    def __init__(self, name, start, parent, tag, attrs):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.tag = tag
        self.attrs = attrs


class Tracer:
    """Span recorder for one benchmark process (single caller thread)."""

    def __init__(self):
        self.spans = []
        self.tag = None  # "setup<k>" or the iteration number
        self._stack = []
        self._patched = []

    def open(self, name, attrs=None):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), parent, self.tag,
                               attrs or {}))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self, span):
        span.end = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name, **attrs):
        rec = self.open(name, attrs)
        try:
            yield rec
        finally:
            self.close(rec)

    def wrap(self, fn, name, attrs_fn=None, result_fn=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer.open(name, attrs_fn(*args, **kwargs) if attrs_fn else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            return result_fn(rec, result) if result_fn else result

        return traced

    def install(self):
        for module, owner_name, attr, name, attrs_fn, result_fn in BINDINGS:
            owner = importlib.import_module(module)
            if owner_name:
                owner = getattr(owner, owner_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(original, name, attrs_fn, result_fn))
            self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, probes):
        """Spans as plain lists: name, start and end (ns from the first span),
        parent index (-1 for none), iteration tag, attributes; and the clock's
        probe intervals on the same time axis."""
        t0 = self.spans[0].start if self.spans else 0
        return {"spans": [[s.name, s.start - t0, s.end - t0, s.parent, s.tag,
                           {k: v for k, v in s.attrs.items() if k != "accessed"}]
                          for s in self.spans],
                "probes": [[a - t0, b - t0] for a, b in probes]}


class TrackedArchive(dict):
    """A patient archive that records which of its keys a command reads."""

    def __init__(self, archive, accessed):
        super().__init__(archive)
        self._accessed = accessed

    def __getitem__(self, key):
        self._accessed.add(key)
        return super().__getitem__(key)


def _tape_ops(tape, *args, **kwargs):
    return {"ops": len(tape)}


def _predict_windows(model, x, *args, **kwargs):
    return {"windows": len(x)}


def _archive_bytes(rec, root):
    rec.attrs["bytes"] = sum(p.stat().st_size for p in Path(root).iterdir()
                             if p.is_file())
    return root


def _track_archive(rec, archive):
    rec.attrs["parsed"] = {k: len(archive[k]) for k in SPLITS}
    rec.attrs["accessed"] = set()
    return TrackedArchive(archive, rec.attrs["accessed"])


# (module, class or "", attribute, span name, attrs_fn, result_fn). A function
# is wrapped where its caller looks it up: the CLI imports most names into
# its own namespace, and the benchmark calls through the package namespaces.
BINDINGS = [
    ("glucast.kernel.tape", "Tape", "backward", "kernel.backward", _tape_ops, None),
    ("glucast.models.retain", "", "lstm_scan", "kernel.lstm_scan", None, None),
    ("glucast.models.baselines", "", "lstm_scan", "kernel.lstm_scan", None, None),
    *[("glucast.models.wrappers", cls, "graph", "models.graph", None, None)
      for cls in ("RetainModel", "StdAttnModel", "LstmRegModel")],
    *[("glucast.models.wrappers", cls, "predict", "models.predict",
       _predict_windows, None)
      for cls in ("RetainModel", "StdAttnModel", "LstmRegModel")],
    ("glucast.models.wrappers", "RetainModel", "forward", "models.forward", None, None),
    ("glucast.cli", "", "contributions", "models.contributions", None, None),
    ("glucast.cli", "", "save_model", "models.save", None, None),
    ("glucast.cli", "", "load_model", "models.load", None, None),
    ("glucast.training.loop", "", "backward_with_reversal", "training.step", None, None),
    ("glucast.training.loop", "", "adam_step", "training.adam", None, None),
    ("glucast.training", "", "train_source", "training.train_source", None, None),
    ("glucast.training", "", "finetune", "training.finetune", None, None),
    ("glucast.cli", "", "train_source", "training.train_source", None, None),
    ("glucast.cli", "", "finetune", "training.finetune", None, None),
    ("glucast.cli", "", "write_patient_archive", "datapipe.write_archive", None,
     _archive_bytes),
    ("glucast.cli", "", "read_patient_archive", "datapipe.read_archive", None,
     _track_archive),
    ("glucast.datapipe", "", "preprocess_series", "datapipe.preprocess_series", None, None),
    ("glucast.cli", "", "preprocess_series", "datapipe.preprocess_series", None, None),
    ("glucast.cli", "", "read_series_csv", "datapipe.read_series", None, None),
    ("glucast.synthdata", "", "generate_patient", "synthdata.generate", None, None),
    ("glucast.cli", "", "generate_patient", "synthdata.generate", None, None),
    ("glucast.cli", "", "reconstruct", "evalmetrics.reconstruct", None, None),
    ("glucast.cli", "", "cg_ega_report", "evalmetrics.cg_ega", None, None),
    ("glucast.cli", "", "write_points_csv", "evalmetrics.points_csv", None, None),
]


# --- per-layer metrics ---------------------------------------------------------

# timed quantities: (metric base, unit suffix)
TIMINGS = [
    ("kernel.backward", "ms"),
    ("kernel.lstm_scan", "ms"),
    ("models.graph_self", "ms"),
    ("models.predict", "ms_per_1k"),
    ("models.forward", "ms"),
    ("models.contributions", "ms"),
    ("models.save", "ms"),
    ("models.load", "ms"),
    ("training.step", "ms"),
    ("training.adam", "ms"),
    ("datapipe.write_archive", "ms"),
    ("datapipe.read_archive", "ms"),
    ("datapipe.preprocess_series", "ms"),
    ("datapipe.read_series", "ms"),
    ("synthdata.generate", "ms"),
    ("evalmetrics.reconstruct", "ms"),
    ("evalmetrics.cg_ega", "ms"),
    ("evalmetrics.points_csv", "ms"),
    *[(f"cli.{stage}", "ms") for stage in STAGES],
    *[(f"cli.{stage}.self", "ms") for stage in STAGES],
]

# counts and ratios: (metric name, unit)
COUNTS = [
    ("kernel.tape_ops_per_step", "count"),
    ("kernel.lstm_scan_calls", "count"),
    ("models.forward_calls", "count"),
    ("training.steps", "count"),
    ("training.validation_share", "ratio"),
    ("training.final_valid_mse", "std2"),
    ("datapipe.archive_bytes", "bytes"),
    ("datapipe.rows_used_ratio", "ratio"),
    ("evalmetrics.test_rmse_mgdl", "mg/dL"),
    ("trace.overhead_pct", "%"),
]

# span-count metrics that must repeat exactly in every traced iteration
PER_ITERATION = {
    "kernel.tape_ops_per_step": None,  # filled from backward spans
    "kernel.lstm_scan_calls": "kernel.lstm_scan",
    "models.forward_calls": "models.forward",
    "training.steps": "training.step",
}


def metric_spec():
    """(name, unit) of every per-layer metric, in report order."""
    spec = []
    for base, unit in TIMINGS:
        spec += [(f"{base}_{unit}", "ms"), (f"{base}_{unit}.tail", "ms"),
                 (f"{base}.n", "count")]
    return spec + COUNTS


def tail(values):
    """(value, percentile) at the highest of TAIL_PERMILLE with at least ten
    samples beyond it, by nearest rank; the median below 20 samples."""
    ordered = sorted(values)
    n = len(ordered)
    level = next(p for p in TAIL_PERMILLE if n * (1000 - p) >= 10000 or p == 500)
    if level == 500:
        return statistics.median(ordered), 50.0
    return ordered[-(-level * n // 1000) - 1], level / 10


def _samples(spans, ms):
    """Timing samples (ms) for every TIMINGS base; ms(i) is span i's time."""
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s.parent, []).append(i)

    def child_ms(i, name=None):
        return sum(ms(c) for c in children.get(i, ())
                   if name is None or spans[c].name == name)

    out = {base: [] for base, _ in TIMINGS}
    for i, s in enumerate(spans):
        if str(s.tag).startswith("setup") and s.name not in SETUP_LAYERS:
            continue
        if s.name == "models.graph":
            out["models.graph_self"].append(ms(i) - child_ms(i, "kernel.lstm_scan"))
        elif s.name == "models.predict":
            if s.attrs["windows"]:
                out["models.predict"].append(ms(i) * 1000.0 / s.attrs["windows"])
        elif s.name.startswith("cli."):
            out[s.name].append(ms(i))
            out[s.name + ".self"].append(ms(i) - child_ms(i))
        elif s.name in out:
            out[s.name].append(ms(i))
    return out


def per_iteration_counts(spans, tags):
    """{count name: [value per traced iteration]} for PER_ITERATION plus
    archive bytes; the same work must give the same counts every time."""
    out = {name: [] for name in PER_ITERATION}
    out["datapipe.archive_bytes"] = []
    for tag in tags:
        mine = [s for s in spans if s.tag == tag]
        ops = [s.attrs["ops"] for s in mine if s.name == "kernel.backward"]
        out["kernel.tape_ops_per_step"].append(sum(ops) / len(ops) if ops else 0.0)
        for name, span_name in PER_ITERATION.items():
            if span_name:
                out[name].append(sum(1 for s in mine if s.name == span_name))
        out["datapipe.archive_bytes"].append(
            sum(s.attrs["bytes"] for s in mine if s.name == "datapipe.write_archive"))
    return out


def probe_overlap_ns(probes, start, end):
    """ns of the sorted, disjoint probe intervals that fall in [start, end]."""
    k = bisect.bisect_right(probes, (start,))
    if k and probes[k - 1][1] > start:
        k -= 1
    total = 0
    while k < len(probes) and probes[k][0] < end:
        total += min(end, probes[k][1]) - max(start, probes[k][0])
        k += 1
    return total


def layer_metrics(spans, tags, speed, probes, quality, overhead_pct):
    """Per-layer metrics of a traced run, keyed by name, as (value, unit).

    tags: the traced iteration tags; speed: tag -> clock factor of that
    set-up or iteration (Timing.factor, see clock.py). A span under a span
    with a "speed" attribute (a CLI stage) takes that factor instead. probes:
    the clock's probe intervals; a span's time leaves out the probes that
    ran inside it, as the end-to-end times do. quality: final_valid_mse and
    test_rmse_mgdl of the run (0 where a workload has none).
    """

    def ms(i):
        span = spans[i]
        while "speed" not in span.attrs and span.parent >= 0:
            span = spans[span.parent]
        # an iteration that failed has no speed factor
        factor = span.attrs.get("speed", speed.get(span.tag, 1.0))
        own = spans[i]
        ns = own.end - own.start - probe_overlap_ns(probes, own.start, own.end)
        return ns / 1e6 * factor

    metrics = {}
    samples = _samples(spans, ms)
    for base, unit in TIMINGS:
        values = samples[base]
        name = f"{base}_{unit}"
        metrics[name] = (statistics.median(values) if values else 0.0, "ms")
        metrics[name + ".tail"] = (tail(values)[0] if values else 0.0, "ms")
        metrics[f"{base}.n"] = (len(values), "count")

    counts = per_iteration_counts(spans, tags)
    for name, values in counts.items():
        metrics[name] = (values[0] if values else 0, None)

    phase_ids = {i for i, s in enumerate(spans) if s.name in PHASES}
    phase_ms = sum(ms(i) for i in phase_ids)
    validation_ms = sum(ms(i) for i, s in enumerate(spans) if s.parent in phase_ids
                        and s.name in ("models.predict", "models.graph"))
    metrics["training.validation_share"] = (
        validation_ms / phase_ms if phase_ms else 0.0, None)

    reads = [s.attrs for s in spans if s.name == "datapipe.read_archive"]
    parsed = sum(sum(r["parsed"].values()) for r in reads)
    used = sum(sum(n for k, n in r["parsed"].items() if k in r["accessed"])
               for r in reads)
    metrics["datapipe.rows_used_ratio"] = (used / parsed if parsed else 0.0, None)
    metrics["training.final_valid_mse"] = (quality["final_valid_mse"], None)
    metrics["evalmetrics.test_rmse_mgdl"] = (quality["test_rmse_mgdl"], None)
    metrics["trace.overhead_pct"] = (overhead_pct, None)

    return {name: (metrics[name][0], unit) for name, unit in metric_spec()}
