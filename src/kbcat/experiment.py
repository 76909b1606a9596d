"""Experiment orchestration: corpus loading, enrichment, training,
evaluation, and artifact emission for one configured run.

The pipeline is load -> represent, enrich and count each document in turn,
and build the documents x categories label matrix once -> per fold:
vectorize -> train -> predict -> evaluate. Cross-validation and the fixed
split run the same fold loop; the split is one fold. The baseline preset
skips enrichment entirely. Every run emits a manifest and a metrics
TSV into the run directory, plus an improvement TSV when a baseline metrics
file is supplied and model dumps when requested.
"""

from __future__ import annotations

import hashlib
import logging
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import scipy.sparse as sp

from . import __version__
from .config import ExperimentConfig, config_to_dict
from .corpus import (
    RawDocument,
    SubsetMode,
    load_20newsgroups,
    load_reuters_dir,
    select_category_subset,
)
from .enrich import apply_preset
# bench/layertrace.py probes accumulate and metric_report under this module
from .evaluation import (
    CvResult,
    MetricReport,
    accumulate,
    cv_folds,
    label_matrix,
    metric_report,
    paired_t_test,
    relative_improvement,
    run_folds,
    split_fold,
)
from .features import count_terms, fit_vocabulary, vectorize
from .kbindex import KbIndex, load_kb_dump
from .learn import TrainConfig, predict, save_models, train_one_vs_rest
from .textproc import Gazetteer, TextResources, load_word_list

logger = logging.getLogger(__name__)


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception) -> None:
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class ExperimentResult:
    name: str
    micro_f: float  # the headline row of the run rows in metrics.tsv
    macro_f: float
    cv: CvResult | None
    manifest: dict[str, str]
    out_dir: Path | None


def load_resources(cfg: ExperimentConfig) -> TextResources:
    return TextResources(
        stopwords=load_word_list(cfg.stoplist),
        gazetteer=Gazetteer.load(cfg.gazetteer),
        nouns=load_word_list(cfg.noun_lexicon),
    )


def load_corpus(cfg: ExperimentConfig) -> tuple[list[RawDocument], tuple[str, ...]]:
    """Load the configured corpus and derive the evaluated category set."""
    if cfg.dataset in ("reuters10", "reuters90"):
        docs = load_reuters_dir(cfg.corpus_dir)
        mode = (SubsetMode.TOP_TEN if cfg.dataset == "reuters10"
                else SubsetMode.AT_LEAST_ONE_TRAIN_ONE_TEST)
        categories = select_category_subset(docs, mode)
    else:
        docs = load_20newsgroups(cfg.corpus_dir)
        categories = tuple(sorted({l for d in docs for l in d.labels}))
    return docs, categories


def admit_documents(
    docs: list[RawDocument], categories: tuple[str, ...]
) -> list[RawDocument]:
    """Keep documents with at least one label in the evaluated categories,
    restricting their label sets to that subset. Admitted documents must
    have distinct ids."""
    cat_set = set(categories)
    admitted = []
    seen: set[str] = set()
    for doc in docs:
        labels = doc.labels & cat_set
        if labels:
            if doc.id in seen:
                raise ValueError(f"duplicate document id {doc.id!r}")
            seen.add(doc.id)
            admitted.append(replace(doc, labels=labels))
    return admitted


def prepare_documents(
    docs: Iterable[RawDocument],
    cfg: ExperimentConfig,
    index: KbIndex | None,
    resources: TextResources,
) -> sp.csr_matrix:
    """Represent, enrich and count each document in turn: the term counts,
    row i for the i-th document. A prepared document is dropped once its
    terms are counted, so the run never holds every document's word list."""
    preset = cfg.resolve_preset()
    return count_terms(apply_preset(doc, preset, index, resources) for doc in docs)[0]


def _handed_over(docs: list[RawDocument]) -> Iterator[RawDocument]:
    """Yield each document of ``docs`` in turn, leaving in its place a copy
    without title and body: once prepared, a run reads only the ids, labels
    and split hints."""
    for i, doc in enumerate(docs):
        docs[i] = RawDocument(doc.id, "", "", doc.labels, doc.split_hint)
        yield doc


def make_fold_runner(counts: sp.csr_matrix, labels, categories: tuple[str, ...],
                     cfg: ExperimentConfig, counters: Counter):
    """Train and predict each fold on row selections of the term counts and
    of ``labels``, their bool label matrix. Each fold adds the number of its
    models, their gap checks, their SMO steps, the Gram rows they computed
    and how many stopped uncertified to ``counters``, and keeps its models
    only when they are to be saved."""
    mode = cfg.resolved_label_mode()
    train_cfg = TrainConfig(c=cfg.svm_c, tolerance=cfg.svm_tolerance,
                            max_epochs=cfg.svm_max_epochs)

    def run_fold(train, test):
        x_train = counts[train]
        vocab = fit_vocabulary(x_train)
        models = train_one_vs_rest(vectorize(x_train, vocab), labels[train],
                                   categories, train_cfg)
        for model in models.values():
            counters["learn.binary_models"] += 1
            counters["learn.epochs"] += len(model.objective_history)
            counters["learn.steps"] += model.steps
            counters["learn.gram_rows"] += model.gram_rows
            counters["learn.uncertified"] += not model.certified
        pred = predict(models, vectorize(counts[test], vocab), mode, categories)
        return labels[test], pred, models if cfg.save_models else None

    return run_fold


def _hash_file(path: Path, digest) -> None:
    """Feed a file to ``digest`` in 1 MiB blocks, never reading it whole."""
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)


def _sha256_path(path: Path) -> str:
    digest = hashlib.sha256()
    if path.is_dir():
        # the path, a NUL and the size delimit each file's contents, so no
        # two trees feed the same bytes
        for child in sorted(p for p in path.rglob("*") if p.is_file()):
            digest.update(str(child.relative_to(path)).encode() + b"\0")
            digest.update(child.stat().st_size.to_bytes(8, "big"))
            _hash_file(child, digest)
    else:
        _hash_file(path, digest)
    return digest.hexdigest()


def run_experiment(cfg: ExperimentConfig, name: str | None = None) -> ExperimentResult:
    """Execute one configured run end to end and write its artifacts."""
    name = name or cfg.preset
    timings: dict[str, float] = {}
    eval_mode = cfg.resolved_eval_mode()

    def stage(stage_name: str, fn):
        start = time.perf_counter()
        try:
            result = fn()
        except StageError:
            raise
        except Exception as exc:
            raise StageError(stage_name, exc) from exc
        timings[stage_name] = time.perf_counter() - start
        return result

    resources = stage("resources", lambda: load_resources(cfg))
    docs, categories = stage("load", lambda: load_corpus(cfg))
    admitted = stage("admit", lambda: admit_documents(docs, categories))
    # the admitted documents are copies; each loses its text once prepared
    del docs
    if not admitted:
        raise StageError("admit", ValueError("no labeled documents admitted"))

    index = None
    if cfg.resolve_preset().strategies:
        index = stage("index", lambda: KbIndex(load_kb_dump(cfg.kb_dump)))

    counts = stage("prepare", lambda: prepare_documents(
        _handed_over(admitted), cfg, index, resources))
    counters: Counter = Counter()
    if index is not None:
        counters.update({f"kbindex.{name}": n for name, n in index.counts.items()})
    # nothing after enrichment reads the KB, so its columns and postings do
    # not stay resident while the folds train
    del index

    def evaluate():
        folds = (cv_folds(admitted, cfg.cv_folds, cfg.seed) if eval_mode == "cv"
                 else split_fold(admitted))
        labels = label_matrix([d.labels for d in admitted], categories)
        runner = make_fold_runner(counts, labels, categories, cfg, counters)
        return run_folds(folds, runner, categories)

    evaluated = stage("evaluate", evaluate)
    cv = evaluated if eval_mode == "cv" else None
    rows = run_rows(evaluated, cv=cv is not None)
    micro, macro = headline_scores(dict(rows))

    manifest = build_manifest(cfg, name, eval_mode, timings, counters)
    out_dir = Path(cfg.out_dir) if cfg.out_dir else None
    if out_dir is not None:
        stage("report", lambda: _write_artifacts(
            out_dir, name, cfg, manifest, cv, evaluated, rows))

    return ExperimentResult(
        name=name, micro_f=micro, macro_f=macro, cv=cv, manifest=manifest,
        out_dir=out_dir,
    )


def build_manifest(
    cfg: ExperimentConfig, name: str, eval_mode: str, timings: dict[str, float],
    counters: Counter,
) -> dict[str, str]:
    manifest: dict[str, str] = {
        "toolkit_version": __version__,
        "run_name": name,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "eval_mode": eval_mode,
        "label_mode": cfg.resolved_label_mode(),
        "seed": str(cfg.seed),
    }
    for key in ("corpus_dir", "kb_dump", "stoplist", "gazetteer", "noun_lexicon"):
        value = getattr(cfg, key)
        if value:
            manifest[f"checksum.{key}"] = _sha256_path(Path(value))
    for stage_name, seconds in timings.items():
        manifest[f"timing.{stage_name}"] = f"{seconds:.3f}"
    if resource is not None:  # ru_maxrss is in KiB, in bytes on macOS
        unit = 1 << 20 if sys.platform == "darwin" else 1 << 10
        for key, who in (("peak_rss_mb", resource.RUSAGE_SELF),
                         ("workers_peak_rss_mb", resource.RUSAGE_CHILDREN)):
            manifest[f"memory.{key}"] = f"{resource.getrusage(who).ru_maxrss / unit:.1f}"
    for counter, value in counters.items():
        manifest[f"count.{counter}"] = str(value)
    for key, value in config_to_dict(cfg).items():
        manifest[f"config.{key}"] = value
    return manifest


def write_manifest(manifest: dict[str, str], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in manifest.items():
            fh.write(f"{key} = {value}\n")


def _tsv_line(*cells: str | float) -> str:
    """One TSV line; numbers are written with six decimals."""
    return "\t".join(c if isinstance(c, str) else f"{c:.6f}" for c in cells)


def run_rows(evaluated: CvResult, cv: bool) -> list[tuple[str, tuple[float, ...]]]:
    """The run rows of metrics.tsv, each a label and (micro_p, micro_r,
    micro_f, macro_f): one per fold, then the folds' mean and sample sd
    and the pooled scores for CV; one ``overall`` row for a fixed split."""
    def scores(r: MetricReport) -> tuple[float, ...]:
        return (r.micro_precision, r.micro_recall, r.micro_f, r.macro_f)

    if not cv:
        return [("overall", scores(evaluated.pooled))]
    rows = [(f"fold{i}", scores(r)) for i, r in enumerate(evaluated.fold_reports)]
    columns = list(zip(*(values for _, values in rows)))
    rows.append(("mean", tuple(statistics.mean(c) for c in columns)))
    rows.append(("sd", tuple(statistics.stdev(c) if len(c) > 1 else 0.0
                             for c in columns)))
    rows.append(("pooled", scores(evaluated.pooled)))
    return rows


def headline_scores(runs: dict[str, tuple[float, ...]]) -> tuple[float, float]:
    """(micro_f, macro_f) of the run rows: the CV mean when present, the
    overall row otherwise."""
    row = runs["mean"] if "mean" in runs else runs["overall"]
    return row[2], row[3]


METRICS_HEADER = "row\tname\tmicro_p\tmicro_r\tmicro_f\tmacro_f"


def format_metrics_tsv(
    rows: list[tuple[str, tuple[float, ...]]],
    per_category: dict[str, tuple[float, float, float]],
) -> str:
    """Deterministic TSV: the run rows, then per-category precision,
    recall and F rows whose last cell is ``-``."""
    lines = [METRICS_HEADER]
    lines += [_tsv_line("run", label, *values) for label, values in rows]
    lines += [_tsv_line("category", category, *per_category[category], "-")
              for category in sorted(per_category)]
    return "\n".join(lines) + "\n"


def _score(cell: str) -> float:
    value = float(cell)
    if not 0.0 <= value <= 1.0:  # also false for nan
        raise ValueError(f"score {cell!r} is not in [0, 1]")
    return value


def parse_metrics_tsv(path: Path) -> dict[str, dict[str, tuple[float, ...]]]:
    """The run rows (four scores each) and category rows (precision,
    recall, F, then ``-``) of a metrics TSV. Every score must be a number
    in [0, 1], line 1 must be the header ``format_metrics_tsv`` writes, and
    a ``mean`` or ``overall`` run row must be present. A UTF-8 byte-order
    mark is skipped."""
    parsed: dict[str, dict[str, tuple[float, ...]]] = {"runs": {}, "categories": {}}
    lines = Path(path).read_text(encoding="utf-8-sig").splitlines() or [""]
    if lines[0] != METRICS_HEADER:
        raise ValueError(f"{path}:1: expected the header line {METRICS_HEADER!r}, "
                         f"got {lines[0]!r}")
    for lineno, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        cells = line.split("\t")
        try:
            if len(cells) != 6:
                raise ValueError(f"expected 6 TAB-separated cells, got {len(cells)}")
            kind, label, *numbers = cells
            if kind == "category":
                last = numbers.pop()
                if last != "-":
                    raise ValueError(f"a category row ends in '-', got {last!r}")
            elif kind != "run":
                raise ValueError(f"unknown row kind {kind!r}, expected 'run' or 'category'")
            rows = parsed["runs" if kind == "run" else "categories"]
            if label in rows:
                raise ValueError(f"repeated {kind} row {label!r}")
            rows[label] = tuple(_score(c) for c in numbers)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if "mean" not in parsed["runs"] and "overall" not in parsed["runs"]:
        raise ValueError(f"{path}: no 'mean' or 'overall' run row")
    return parsed


def _fold_scores(runs: dict[str, tuple[float, ...]]) -> list[tuple[float, ...]]:
    return [runs[label] for label in sorted(runs) if label.startswith("fold")]


def improvement_table_from_files(
    baseline_path: Path, run_paths: list[tuple[str, Path]], with_t_test: bool = False
) -> str:
    """The baseline row and one row per named run from saved metrics TSVs:
    micro/macro F and the signed percent change against the baseline, and
    optionally paired t-test columns over matching fold rows."""
    base = parse_metrics_tsv(baseline_path)["runs"]
    base_micro, base_macro = headline_scores(base)
    if not (base_micro > 0 and base_macro > 0):
        raise ValueError(f"{baseline_path}: a baseline's micro_f and macro_f must be "
                         f"positive, got {base_micro} and {base_macro}")
    base_folds = _fold_scores(base)
    header = "run\tmicro_f\tmacro_f\tmicro_improvement\tmacro_improvement"
    if with_t_test:
        header += "\tt_micro\tp_micro\tt_macro\tp_macro"
    t_cells = "\t-\t-\t-\t-" if with_t_test else ""
    lines = [header,
             _tsv_line("baseline", base_micro, base_macro, "-", "-") + t_cells]
    for name, path in run_paths:
        runs = parse_metrics_tsv(path)["runs"]
        micro, macro = headline_scores(runs)
        line = _tsv_line(name, micro, macro,
                         f"{relative_improvement(base_micro, micro):+.2f}%",
                         f"{relative_improvement(base_macro, macro):+.2f}%")
        folds = _fold_scores(runs)
        if with_t_test and len(folds) >= 2 and len(folds) == len(base_folds):
            for col in (2, 3):  # micro_f, macro_f
                t = paired_t_test([f[col] for f in folds], [b[col] for b in base_folds])
                line += f"\t{t.t:+.3f}\t{t.p_two_tailed:.4f}"
        else:
            line += t_cells
        lines.append(line)
    return "\n".join(lines) + "\n"


def _write_artifacts(
    out_dir: Path,
    name: str,
    cfg: ExperimentConfig,
    manifest: dict[str, str],
    cv: CvResult | None,
    evaluated: CvResult,
    rows: list[tuple[str, tuple[float, ...]]],
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_manifest(manifest, out_dir / "manifest.txt")
    (out_dir / "metrics.tsv").write_text(
        format_metrics_tsv(rows, evaluated.pooled.per_category), encoding="utf-8"
    )
    if cfg.baseline_metrics:
        table = improvement_table_from_files(
            Path(cfg.baseline_metrics), [(name, out_dir / "metrics.tsv")]
        )
        (out_dir / "improvement.tsv").write_text(table, encoding="utf-8")
    if cfg.save_models:
        for i, models in enumerate(evaluated.fold_models):
            file_name = "models.tsv" if cv is None else f"models_fold{i}.tsv"
            save_models(models, out_dir / file_name)
