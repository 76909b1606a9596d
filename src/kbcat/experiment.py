"""Experiment orchestration: corpus loading, enrichment, training,
evaluation, and artifact emission for one configured run.

The pipeline is load -> represent/enrich -> stem+lowercase and count once
-> per fold: vectorize -> train -> predict -> evaluate. Cross-validation and
the fixed split run the same fold loop; the split is one fold. The baseline
preset skips enrichment entirely. Every run emits a manifest and a metrics
TSV into the run directory, plus an improvement TSV when a baseline metrics
file is supplied and model dumps when requested.
"""

from __future__ import annotations

import hashlib
import logging
import statistics
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .config import ExperimentConfig, config_from_dict, config_to_dict
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
    metric_report,
    paired_t_test,
    relative_improvement,
    run_folds,
    split_fold,
)
from .features import count_terms, fit_vocabulary, vectorize
from .kbindex import KbIndex, load_kb_dump
from .learn import PredictionMode, TrainConfig, predict, save_models, train_one_vs_rest
from .textproc import (Gazetteer, TaggedDocument, TextResources, load_noun_lexicon,
                       load_stoplist)

logger = logging.getLogger(__name__)


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception) -> None:
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class ExperimentResult:
    name: str
    micro_f: float
    macro_f: float
    report: MetricReport  # pooled (cv) or overall (split)
    cv: CvResult | None
    manifest: dict[str, str]
    out_dir: Path | None


def load_resources(cfg: ExperimentConfig) -> TextResources:
    return TextResources(
        stopwords=load_stoplist(cfg.stoplist),
        gazetteer=Gazetteer.load(cfg.gazetteer),
        nouns=load_noun_lexicon(cfg.noun_lexicon),
    )


def load_corpus(cfg: ExperimentConfig) -> tuple[list[RawDocument], tuple[str, ...]]:
    """Load the configured corpus and derive the evaluated category set."""
    if cfg.dataset in ("reuters10", "reuters90"):
        docs = load_reuters_dir(cfg.corpus_dir)
        mode = (SubsetMode.TOP_TEN if cfg.dataset == "reuters10"
                else SubsetMode.AT_LEAST_ONE_TRAIN_ONE_TEST)
        categories = select_category_subset(docs, mode).categories
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
    docs: list[RawDocument],
    cfg: ExperimentConfig,
    index: KbIndex | None,
    resources: TextResources,
) -> list[TaggedDocument]:
    """Represent and enrich each document; the list follows ``docs``."""
    preset = cfg.resolve_preset()
    return [apply_preset(doc, preset, index, resources) for doc in docs]


def make_fold_runner(tagged: list, categories: tuple[str, ...], cfg: ExperimentConfig):
    """Count the terms of every prepared document once, row i for the fold
    rows' document i; each fold trains and predicts on row selections."""
    mode = (PredictionMode.MULTI_LABEL if cfg.resolved_label_mode() == "multi"
            else PredictionMode.SINGLE_LABEL)
    train_cfg = TrainConfig(c=cfg.svm_c, tolerance=cfg.svm_tolerance,
                            max_epochs=cfg.svm_max_epochs)
    counts, _terms = count_terms(tagged)
    labels = [t.labels for t in tagged]

    def run_fold(train, test):
        x_train = counts[train]
        vocab = fit_vocabulary(x_train)
        ovr = train_one_vs_rest(vectorize(x_train, vocab), [labels[i] for i in train],
                                categories, train_cfg)
        gold = [set(labels[i]) for i in test]
        pred = (predict(ovr.models, vectorize(counts[test], vocab), mode) if ovr.models
                else [set() for _ in test])
        artifacts = {"vocabulary": vocab, "models": ovr.models,
                     "skipped_categories": ovr.skipped}
        return gold, pred, artifacts

    return run_fold


def _sha256_path(path: Path) -> str:
    digest = hashlib.sha256()
    if path.is_dir():
        for child in sorted(p for p in path.rglob("*") if p.is_file()):
            digest.update(str(child.relative_to(path)).encode())
            digest.update(child.read_bytes())
    else:
        digest.update(path.read_bytes())
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
    if not admitted:
        raise StageError("admit", ValueError("no labeled documents admitted"))

    index = None
    if cfg.resolve_preset().strategies:
        index = stage("index", lambda: KbIndex(load_kb_dump(cfg.kb_dump)))

    prepared = stage("prepare", lambda: prepare_documents(admitted, cfg, index, resources))

    def evaluate():
        folds = (cv_folds(admitted, cfg.cv_folds, cfg.seed) if eval_mode == "cv"
                 else split_fold(admitted))
        runner = make_fold_runner(prepared, categories, cfg)
        return run_folds(folds, runner, categories)

    evaluated = stage("evaluate", evaluate)
    cv = evaluated if eval_mode == "cv" else None
    # the CV mean; the mean of a split's one fold is its overall score
    micro = statistics.mean(r.micro_f for r in evaluated.fold_reports)
    macro = statistics.mean(r.macro_f for r in evaluated.fold_reports)

    manifest = build_manifest(cfg, name, eval_mode, timings)
    out_dir = Path(cfg.out_dir) if cfg.out_dir else None
    if out_dir is not None:
        stage("report", lambda: _write_artifacts(
            out_dir, name, cfg, manifest, cv, evaluated))

    return ExperimentResult(
        name=name, micro_f=micro, macro_f=macro, report=evaluated.pooled,
        cv=cv, manifest=manifest, out_dir=out_dir,
    )


def build_manifest(
    cfg: ExperimentConfig, name: str, eval_mode: str, timings: dict[str, float]
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
    for key, value in config_to_dict(cfg).items():
        manifest[f"config.{key}"] = value
    return manifest


def write_manifest(manifest: dict[str, str], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in manifest.items():
            fh.write(f"{key} = {value}\n")


def load_manifest(path: Path) -> dict[str, str]:
    manifest = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition(" = ")
        manifest[key] = value
    return manifest


def manifest_config(manifest: dict[str, str]) -> ExperimentConfig:
    snapshot = {k[len("config."):]: v for k, v in manifest.items()
                if k.startswith("config.")}
    return config_from_dict(snapshot)


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def format_metrics_tsv(cv: CvResult | None, report: MetricReport) -> str:
    """Deterministic TSV: run rows (folds, mean, sd, pooled for CV; overall
    for a fixed split) followed by per-category precision/recall/F rows."""
    lines = ["row\tname\tmicro_p\tmicro_r\tmicro_f\tmacro_f"]

    def run_row(label: str, r: MetricReport) -> str:
        return ("run\t" + label + "\t" + _fmt(r.micro_precision) + "\t"
                + _fmt(r.micro_recall) + "\t" + _fmt(r.micro_f) + "\t"
                + _fmt(r.macro_f))

    if cv is not None:
        for i, fold_report in enumerate(cv.fold_reports):
            lines.append(run_row(f"fold{i}", fold_report))
        cols = [
            [r.micro_precision for r in cv.fold_reports],
            [r.micro_recall for r in cv.fold_reports],
            [r.micro_f for r in cv.fold_reports],
            [r.macro_f for r in cv.fold_reports],
        ]
        mean_cells = "\t".join(_fmt(statistics.mean(c)) for c in cols)
        sd_cells = "\t".join(
            _fmt(statistics.stdev(c) if len(c) > 1 else 0.0) for c in cols
        )
        lines.append(f"run\tmean\t{mean_cells}")
        lines.append(f"run\tsd\t{sd_cells}")
        lines.append(run_row("pooled", cv.pooled))
    else:
        lines.append(run_row("overall", report))

    # category rows carry per-category precision, recall, F in the first
    # three numeric columns
    for category in sorted(report.per_category):
        p, r, f = report.per_category[category]
        lines.append(f"category\t{category}\t{_fmt(p)}\t{_fmt(r)}\t{_fmt(f)}\t-")
    return "\n".join(lines) + "\n"


def parse_metrics_tsv(path: Path) -> dict[str, dict[str, tuple[float, ...]]]:
    runs: dict[str, tuple[float, ...]] = {}
    categories: dict[str, tuple[float, ...]] = {}
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        cells = line.split("\t")
        try:
            if len(cells) != 6:
                raise ValueError(f"expected 6 TAB-separated cells, got {len(cells)}")
            values = tuple(float(c) for c in cells[2:] if c != "-")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        kind, label = cells[:2]
        if kind == "run":
            runs[label] = values
        else:
            categories[label] = values
    return {"runs": runs, "categories": categories}


def headline_scores(parsed: dict) -> tuple[float, float]:
    """(micro_f, macro_f) of a parsed metrics TSV: the CV mean when
    present, the overall row otherwise."""
    runs = parsed["runs"]
    row = runs.get("mean") or runs.get("overall")
    if row is None:
        raise ValueError("metrics file has neither a 'mean' nor an 'overall' row")
    return row[2], row[3]


def emit_improvement_table(
    baseline, runs: list[tuple[str, object]]
) -> str:
    """Baseline row plus one row per named run with micro/macro F and the
    signed percent change against the baseline."""
    lines = ["run\tmicro_f\tmacro_f\tmicro_improvement\tmacro_improvement"]
    lines.append(
        f"baseline\t{_fmt(baseline.micro_f)}\t{_fmt(baseline.macro_f)}\t-\t-"
    )
    for name, run in runs:
        micro_pct = relative_improvement(baseline.micro_f, run.micro_f)
        macro_pct = relative_improvement(baseline.macro_f, run.macro_f)
        lines.append(
            f"{name}\t{_fmt(run.micro_f)}\t{_fmt(run.macro_f)}\t"
            f"{micro_pct:+.2f}%\t{macro_pct:+.2f}%"
        )
    return "\n".join(lines) + "\n"


@dataclass
class _Scores:
    micro_f: float
    macro_f: float


def improvement_table_from_files(
    baseline_path: Path, run_paths: list[tuple[str, Path]], with_t_test: bool = False
) -> str:
    """Build the improvement table from saved metrics TSVs; optionally
    append paired t-test columns computed over matching fold rows."""
    base_parsed = parse_metrics_tsv(baseline_path)
    base = _Scores(*headline_scores(base_parsed))
    rows = []
    for name, path in run_paths:
        parsed = parse_metrics_tsv(path)
        rows.append((name, _Scores(*headline_scores(parsed)), parsed))

    table = emit_improvement_table(base, [(n, s) for n, s, _ in rows])
    if not with_t_test:
        return table

    def fold_values(parsed: dict, col: int) -> list[float]:
        runs = parsed["runs"]
        labels = sorted(l for l in runs if l.startswith("fold"))
        return [runs[l][col] for l in labels]

    lines = table.rstrip("\n").split("\n")
    lines[0] += "\tt_micro\tp_micro\tt_macro\tp_macro"
    lines[1] += "\t-\t-\t-\t-"
    base_micro = fold_values(base_parsed, 2)
    base_macro = fold_values(base_parsed, 3)
    for i, (_name, _scores, parsed) in enumerate(rows):
        run_micro = fold_values(parsed, 2)
        run_macro = fold_values(parsed, 3)
        if len(run_micro) >= 2 and len(run_micro) == len(base_micro):
            t_mi = paired_t_test(run_micro, base_micro)
            t_ma = paired_t_test(run_macro, base_macro)
            lines[2 + i] += (f"\t{t_mi.t:+.3f}\t{t_mi.p_two_tailed:.4f}"
                             f"\t{t_ma.t:+.3f}\t{t_ma.p_two_tailed:.4f}")
        else:
            lines[2 + i] += "\t-\t-\t-\t-"
    return "\n".join(lines) + "\n"


def _write_artifacts(
    out_dir: Path,
    name: str,
    cfg: ExperimentConfig,
    manifest: dict[str, str],
    cv: CvResult | None,
    evaluated: CvResult,
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_manifest(manifest, out_dir / "manifest.txt")
    (out_dir / "metrics.tsv").write_text(
        format_metrics_tsv(cv, evaluated.pooled), encoding="utf-8"
    )
    if cfg.baseline_metrics:
        table = improvement_table_from_files(
            Path(cfg.baseline_metrics), [(name, out_dir / "metrics.tsv")]
        )
        (out_dir / "improvement.tsv").write_text(table, encoding="utf-8")
    if cfg.save_models:
        for i, artifacts in enumerate(evaluated.fold_artifacts):
            file_name = "models.tsv" if cv is None else f"models_fold{i}.tsv"
            save_models(artifacts["models"], out_dir / file_name)
