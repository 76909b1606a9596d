"""Label matrices, per-category counts, micro/macro F-measure, relative
improvement, paired t-test, and the fold loop.

A fold's gold and predicted labels are bool matrices (test documents x
evaluated categories, in category order); ``accumulate`` turns a pair into
one (tp, fp, fn) row per category, and the pooled report of a run is taken
from the sum of its folds' counts.

Cross-validation and the fixed (ModApte) split are one loop: CV runs k
folds from ``make_folds``, and the split runs one fold whose pooled report
is the overall report.

Conventions: precision/recall 0/0 cases are defined as 0; the macro
average is the arithmetic mean of per-category F-scores over all
evaluated categories.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .corpus import RawDocument, SplitHint, make_folds


@dataclass
class MetricReport:
    micro_precision: float
    micro_recall: float
    micro_f: float
    macro_f: float
    per_category: dict[str, tuple[float, float, float]]


@dataclass
class TTestResult:
    t: float
    degrees_of_freedom: int
    p_two_tailed: float


def label_matrix(labelsets: list[set[str]], categories: Sequence[str]) -> np.ndarray:
    """A bool matrix with one row per label set and one column per category,
    True where the set holds the category."""
    column = {c: j for j, c in enumerate(categories)}
    labels = np.zeros((len(labelsets), len(column)), dtype=bool)
    for i, labelset in enumerate(labelsets):
        stray = labelset - column.keys()
        if stray:
            raise ValueError(f"labels outside the category set: {sorted(stray)}")
        labels[i, [column[c] for c in labelset]] = True
    return labels


def accumulate(gold: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """Per-category (tp, fp, fn) rows from aligned gold and predicted label
    matrices (documents x categories)."""
    if gold.shape != pred.shape:
        raise ValueError(f"gold and pred must be the same shape, "
                         f"got {gold.shape} and {pred.shape}")
    return np.column_stack([(gold & pred).sum(axis=0), (pred & ~gold).sum(axis=0),
                            (gold & ~pred).sum(axis=0)])


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def metric_report(counts: np.ndarray, categories: Sequence[str]) -> MetricReport:
    """Micro scores from the summed counts; macro F is the mean of the
    per-category F in category order."""
    per_category = {c: _prf(*row) for c, row in zip(categories, counts.tolist(),
                                                     strict=True)}
    micro_p, micro_r, micro_f = _prf(*counts.sum(axis=0).tolist())
    scores = [f for _p, _r, f in per_category.values()]
    return MetricReport(
        micro_precision=micro_p,
        micro_recall=micro_r,
        micro_f=micro_f,
        macro_f=sum(scores) / len(scores),
        per_category=per_category,
    )


def relative_improvement(baseline: float, value: float) -> float:
    """Signed percentage change of value over baseline."""
    if baseline <= 0:
        raise ValueError(f"baseline must be positive, got {baseline}")
    return 100.0 * (value - baseline) / baseline


def student_t_sf_two_tailed(t: float, df: int) -> float:
    """P(|T| >= t) for Student's t with df degrees of freedom."""
    # imported here so that runs, which never need a t-test, do not pay
    # the memory of loading scipy.special; only `report --t-test` does
    from scipy.special import betainc

    return float(betainc(df / 2.0, 0.5, df / (df + t * t)))


def paired_t_test(a: list[float], b: list[float]) -> TTestResult:
    """Two-tailed paired t-test on elementwise differences a - b."""
    if len(a) != len(b) or len(a) < 2:
        raise ValueError("need two equal-length samples of size >= 2")
    d = [x - y for x, y in zip(a, b)]
    n = len(d)
    mean = sum(d) / n
    sd = statistics.stdev(d)
    df = n - 1
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(t=0.0, degrees_of_freedom=df, p_two_tailed=1.0)
        return TTestResult(
            t=math.copysign(math.inf, mean), degrees_of_freedom=df, p_two_tailed=0.0
        )
    t = mean / (sd / math.sqrt(n))
    return TTestResult(
        t=t, degrees_of_freedom=df, p_two_tailed=student_t_sf_two_tailed(abs(t), df)
    )


# A fold is a (train, test) pair of row numbers into the run's documents.
# A fold runner maps one to (gold, pred, models): label matrices whose rows
# are the test rows, and what the result keeps of the fold's models.
Fold = tuple[list[int], list[int]]
FoldRunner = Callable[[list[int], list[int]], tuple]


@dataclass
class CvResult:
    fold_reports: list[MetricReport]
    pooled: MetricReport  # a single fold's pooled report is its own
    fold_models: list  # the runner's third value per fold: models to save, or None


def cv_folds(docs: list[RawDocument], k: int, seed: int) -> list[Fold]:
    """k stratified folds, each testing on its part and training on the
    rest; a fold without test documents is an error before any run."""
    fold_of = make_folds(docs, k, seed)
    used = set(fold_of)
    if len(used) < k:
        # the first empty fold is at most len(docs), however large k is
        empty = next(fold for fold in range(k) if fold not in used)
        raise ValueError(f"cv fold {empty} of {k} has no test documents")
    return [([i for i, f in enumerate(fold_of) if f != fold],
             [i for i, f in enumerate(fold_of) if f == fold]) for fold in range(k)]


def split_fold(docs: list[RawDocument]) -> list[Fold]:
    """The fixed (ModApte) split as one fold."""
    train = [i for i, d in enumerate(docs) if d.split_hint is SplitHint.TRAIN]
    test = [i for i, d in enumerate(docs) if d.split_hint is SplitHint.TEST]
    if not train or not test:
        raise ValueError(f"split evaluation needs train and test documents, "
                         f"got {len(train)}/{len(test)}")
    return [(train, test)]


def run_folds(folds: list[Fold], runner: FoldRunner, categories: Sequence[str]) -> CvResult:
    """Run every fold in order: a report per fold, one from the folds'
    counts added together, and each fold's models as its runner kept them."""
    fold_reports, fold_counts, fold_models = [], [], []
    for fold, (train, test) in enumerate(folds):
        try:
            gold, pred, models = runner(train, test)
        except Exception as exc:
            raise RuntimeError(f"pipeline failed in fold {fold}: {exc}") from exc
        counts = accumulate(gold, pred)
        fold_reports.append(metric_report(counts, categories))
        fold_counts.append(counts)
        fold_models.append(models)
    return CvResult(fold_reports, metric_report(sum(fold_counts), categories), fold_models)
