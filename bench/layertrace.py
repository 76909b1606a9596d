"""Layer tracing of kbcat from outside the package.

A ``Tracer`` patches the module attributes through which one layer calls
into another (``kbcat.experiment.fit_vocabulary``,
``kbcat.learn.train_binary_svm``, ``KbIndex.search``, ...) with wrappers
that record spans (name, start, end, parent) in memory, or only count the
calls where a span per call would cost more than the work it measures.
Nothing inside ``src/`` changes.

A probe whose target no longer exists (a later change removed or renamed
the function) is not installed; every metric that needs it is reported as
missing instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _rows(points) -> int:
    """Rows of a matrix or length of a list of vectors."""
    shape = getattr(points, "shape", None)
    return int(shape[0]) if shape is not None else len(points)


def _nnz(vector) -> int:
    """Stored entries of a sparse row or vector."""
    nnz = getattr(vector, "nnz", None)
    return int(nnz) if nnz is not None else len(vector)


@dataclass(frozen=True)
class Probe:
    """One traced boundary. ``targets`` are ``module:attr`` or
    ``module:Class.attr`` paths that all receive the same wrapper; the
    probe counts as missing if any of them does not resolve."""

    name: str
    targets: tuple[str, ...]
    span: bool = True
    observe: Callable | None = None  # (counts, args, kwargs, result) -> None


def _observe_admitted(counts, args, kwargs, result):
    counts["corpus.docs_admitted"] += len(result)


def _observe_represent(counts, args, kwargs, result):
    counts["textproc.tokens"] += len(result.tokens)


def _observe_records(counts, args, kwargs, result):
    counts["kbindex.records"] += len(result)


def _observe_search(counts, args, kwargs, result):
    counts["kbindex.clauses"] += len(_arg(args, kwargs, 1, "query").clauses)
    counts["kbindex.hits"] += len(result)


def _observe_terms(counts, args, kwargs, result):
    counts["enrich.terms_injected"] += len(result)


def _observe_e4(counts, args, kwargs, result):
    counts["enrich.e4_dropped"] += not result


def _observe_e5(counts, args, kwargs, result):
    counts["enrich.e5_dropped"] += len(_arg(args, kwargs, 0, "terms")) - len(result)


def _observe_vocab(counts, args, kwargs, result):
    counts["features.vocab_size_max"] = max(counts["features.vocab_size_max"], len(result))


def _observe_vector(counts, args, kwargs, result):
    counts["features.nnz"] += _nnz(result)


def _observe_document_terms(counts, args, kwargs, result):
    counts["features.terms_processed"] += len(result)


def _observe_binary(counts, args, kwargs, result):
    points = _rows(_arg(args, kwargs, 0, "X"))
    counts["learn.train_points_max"] = max(counts["learn.train_points_max"], points)
    counts["learn.epochs"] += len(result.objective_history)


PROBES = (
    Probe("textproc.resources", ("kbcat.experiment:load_resources",)),
    Probe("corpus.load", ("kbcat.experiment:load_20newsgroups",
                          "kbcat.experiment:load_reuters_dir",
                          "kbcat.experiment:select_category_subset")),
    Probe("corpus.folds", ("kbcat.evaluation:make_folds",)),
    Probe("experiment.admit", ("kbcat.experiment:admit_documents",),
          observe=_observe_admitted),
    Probe("kbindex.load_dump", ("kbcat.experiment:load_kb_dump",),
          observe=_observe_records),
    Probe("kbindex.build", ("kbcat.kbindex:KbIndex.__init__",)),
    Probe("experiment.prepare", ("kbcat.experiment:prepare_documents",)),
    Probe("enrich.apply", ("kbcat.experiment:apply_preset",)),
    Probe("textproc.represent", ("kbcat.enrich:represent",),
          observe=_observe_represent),
    Probe("enrich.terms", ("kbcat.enrich:enrichment_terms",), observe=_observe_terms),
    Probe("enrich.e4", ("kbcat.enrich:filter_e4",), span=False, observe=_observe_e4),
    Probe("enrich.e5", ("kbcat.enrich:clean_e5",), span=False, observe=_observe_e5),
    Probe("kbindex.search", ("kbcat.kbindex:KbIndex.search",), observe=_observe_search),
    Probe("kbindex.score", ("kbcat.kbindex:KbIndex.score",), span=False),
    Probe("features.fit", ("kbcat.experiment:fit_vocabulary",), observe=_observe_vocab),
    Probe("features.vectorize", ("kbcat.experiment:vectorize",), observe=_observe_vector),
    Probe("features.document_terms", ("kbcat.features:document_terms",), span=False,
          observe=_observe_document_terms),
    Probe("learn.train", ("kbcat.experiment:train_one_vs_rest",)),
    Probe("learn.binary", ("kbcat.learn:train_binary_svm",), observe=_observe_binary),
    Probe("learn.predict", ("kbcat.experiment:predict",)),
    Probe("evaluation.accumulate", ("kbcat.experiment:accumulate",
                                    "kbcat.evaluation:accumulate")),
    Probe("evaluation.report", ("kbcat.experiment:metric_report",
                                "kbcat.evaluation:metric_report")),
)

ROOT_SPAN = "experiment.run"
LAYERS = ("corpus", "textproc", "kbindex", "enrich", "features", "learn",
          "evaluation", "experiment")


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []  # [id, name, start, end, parent]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, time.perf_counter(), None, parent])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    def install(self, probes=PROBES) -> None:
        for probe in probes:
            try:
                resolved = [_resolve(t) for t in probe.targets]
            except (ImportError, AttributeError):
                self.missing.add(probe.name)
                continue
            for owner, attr, fn in resolved:
                setattr(owner, attr, self._wrap(probe, fn))
                self._undo.append((owner, attr, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def _wrap(self, probe: Probe, fn):
        counts = self.counts
        calls_key = probe.name + ".calls"

        if probe.span:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid = self.begin(probe.name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.end(sid)
                if probe.observe is not None:
                    probe.observe(counts, args, kwargs, result)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts[calls_key] += 1
                if probe.observe is not None:
                    probe.observe(counts, args, kwargs, result)
                return result
        return wrapper

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")


def own_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _sid, _name, start, end, _parent in spans]
    for _sid, _name, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def self_times(spans: list[list], own: list[float]) -> dict[str, float]:
    """Seconds per layer (the span name's first component) during which a
    span of that layer was the innermost open span."""
    totals = {layer: 0.0 for layer in LAYERS}
    for span, seconds in zip(spans, own):
        layer = span[1].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + seconds
    return totals


TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest percentile of TAIL_PERCENTILES
    with at least ten samples beyond it; the median when there are fewer
    than twenty samples, and (50, 0.0) when there are none."""
    if not samples:
        return 50.0, 0.0
    ordered = sorted(samples)
    n = len(ordered)
    pct = max([p for p in TAIL_PERCENTILES if (100 - p) * n / 100 >= 10], default=50.0)
    rank = max(0, math.ceil(pct * n / 100) - 1)  # nearest rank
    return pct, ordered[rank]


# metric name -> (unit, probes it needs)
METRICS = {
    "corpus.load_s": ("s", ("corpus.load",)),
    "corpus.docs_admitted": ("count", ("experiment.admit",)),
    "textproc.represent_s": ("s", ("textproc.represent",)),
    "textproc.tokens": ("count", ("textproc.represent",)),
    "kbindex.load_dump_s": ("s", ("kbindex.load_dump",)),
    "kbindex.build_s": ("s", ("kbindex.build",)),
    "kbindex.records": ("count", ("kbindex.load_dump",)),
    "kbindex.search_calls": ("count", ("kbindex.search",)),
    "kbindex.search_s": ("s", ("kbindex.search",)),
    "kbindex.search_p50_ms": ("ms", ("kbindex.search",)),
    "kbindex.search_tail_ms": ("ms", ("kbindex.search",)),
    "kbindex.search_tail_pct": ("pct", ("kbindex.search",)),
    "kbindex.clauses_per_query": ("count", ("kbindex.search",)),
    "kbindex.candidates_scored": ("count", ("kbindex.score",)),
    "kbindex.hits": ("count", ("kbindex.search",)),
    "kbindex.hit_ratio": ("ratio", ("kbindex.search", "kbindex.score")),
    "enrich.terms_s": ("s", ("enrich.terms", "kbindex.search")),
    "enrich.terms_injected": ("count", ("enrich.terms",)),
    "enrich.e4_dropped": ("count", ("enrich.e4",)),
    "enrich.e5_dropped": ("count", ("enrich.e5",)),
    "features.fit_s": ("s", ("features.fit",)),
    "features.vectorize_s": ("s", ("features.vectorize",)),
    "features.vectorize_calls": ("count", ("features.vectorize",)),
    "features.document_terms_calls": ("count", ("features.document_terms",)),
    "features.terms_processed": ("count", ("features.document_terms",)),
    "features.vocab_size_max": ("count", ("features.fit",)),
    "features.nnz": ("count", ("features.vectorize",)),
    "learn.train_s": ("s", ("learn.train",)),
    "learn.binary_models": ("count", ("learn.binary",)),
    "learn.binary_p50_s": ("s", ("learn.binary",)),
    "learn.binary_max_s": ("s", ("learn.binary",)),
    "learn.train_points_max": ("count", ("learn.binary",)),
    "learn.epochs": ("count", ("learn.binary",)),
    "learn.predict_s": ("s", ("learn.predict",)),
    "learn.predict_calls": ("count", ("learn.predict",)),
    "evaluation.score_s": ("s", ("evaluation.accumulate", "evaluation.report")),
    "evaluation.folds": ("count", ("evaluation.accumulate",)),
    "experiment.admit_s": ("s", ("experiment.admit",)),
    "experiment.prepare_s": ("s", ("experiment.prepare",)),
    "experiment.evaluate_s": ("s", ()),
    "trace.wall_s": ("s", ()),
    "trace.overhead_s": ("s", ()),
    # self time: every probe of the layer must be present, or time moves
    # silently to the enclosing layer
    **{f"{layer}.self_s": ("s", tuple(p.name for p in PROBES
                                      if p.span and p.name.startswith(layer + ".")))
       for layer in LAYERS},
}


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float,
                  manifest: dict[str, str]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metric values of one traced run and the names of the
    metrics that could not be measured."""
    durations: defaultdict[str, list[float]] = defaultdict(list)
    for _sid, name, start, end, _parent in tracer.spans:
        durations[name].append(end - start)
    total = {name: sum(d) for name, d in durations.items()}
    counts = tracer.counts
    own = own_times(tracer.spans)
    selfs = self_times(tracer.spans, own)
    enrich_self = sum(seconds for span, seconds in zip(tracer.spans, own)
                      if span[1] == "enrich.terms")
    search_ms = [d * 1e3 for d in durations["kbindex.search"]]
    tail_pct, tail_ms = tail(search_ms)
    binary = durations["learn.binary"]
    n_search = len(search_ms)
    scored = counts["kbindex.score.calls"]

    values = {
        "corpus.load_s": total.get("corpus.load", 0.0),
        "corpus.docs_admitted": counts["corpus.docs_admitted"],
        "textproc.represent_s": total.get("textproc.represent", 0.0),
        "textproc.tokens": counts["textproc.tokens"],
        "kbindex.load_dump_s": total.get("kbindex.load_dump", 0.0),
        "kbindex.build_s": total.get("kbindex.build", 0.0),
        "kbindex.records": counts["kbindex.records"],
        "kbindex.search_calls": n_search,
        "kbindex.search_s": total.get("kbindex.search", 0.0),
        "kbindex.search_p50_ms": statistics.median(search_ms) if search_ms else 0.0,
        "kbindex.search_tail_ms": tail_ms,
        "kbindex.search_tail_pct": tail_pct,
        "kbindex.clauses_per_query": counts["kbindex.clauses"] / n_search if n_search else 0.0,
        "kbindex.candidates_scored": scored,
        "kbindex.hits": counts["kbindex.hits"],
        "kbindex.hit_ratio": counts["kbindex.hits"] / scored if scored else 0.0,
        "enrich.terms_s": enrich_self,
        "enrich.terms_injected": counts["enrich.terms_injected"],
        "enrich.e4_dropped": counts["enrich.e4_dropped"],
        "enrich.e5_dropped": counts["enrich.e5_dropped"],
        "features.fit_s": total.get("features.fit", 0.0),
        "features.vectorize_s": total.get("features.vectorize", 0.0),
        "features.vectorize_calls": len(durations["features.vectorize"]),
        "features.document_terms_calls": counts["features.document_terms.calls"],
        "features.terms_processed": counts["features.terms_processed"],
        "features.vocab_size_max": counts["features.vocab_size_max"],
        "features.nnz": counts["features.nnz"],
        "learn.train_s": total.get("learn.train", 0.0),
        "learn.binary_models": len(binary),
        "learn.binary_p50_s": statistics.median(binary) if binary else 0.0,
        "learn.binary_max_s": max(binary, default=0.0),
        "learn.train_points_max": counts["learn.train_points_max"],
        "learn.epochs": counts["learn.epochs"],
        "learn.predict_s": total.get("learn.predict", 0.0),
        "learn.predict_calls": len(durations["learn.predict"]),
        "evaluation.score_s": (total.get("evaluation.accumulate", 0.0)
                               + total.get("evaluation.report", 0.0)),
        "evaluation.folds": len(durations["evaluation.accumulate"]),
        "experiment.admit_s": total.get("experiment.admit", 0.0),
        "experiment.prepare_s": total.get("experiment.prepare", 0.0),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        **{f"{layer}.self_s": selfs[layer] for layer in LAYERS},
    }
    missing = [name for name, (_unit, needs) in METRICS.items()
               if any(p in tracer.missing for p in needs)]
    if "timing.evaluate" in manifest:
        values["experiment.evaluate_s"] = float(manifest["timing.evaluate"])
    else:
        missing.append("experiment.evaluate_s")
    return {k: float(v) for k, v in values.items() if k not in missing}, sorted(missing)
