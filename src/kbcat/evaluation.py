"""Contingency accumulation, micro/macro F-measure, relative improvement,
paired t-test, and the fold loop.

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
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .corpus import RawDocument, SplitHint, make_folds


@dataclass
class CategoryCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0


@dataclass
class ContingencyTable:
    counts: dict[str, CategoryCounts] = field(default_factory=dict)
    n_docs: int = 0

    def merge(self, other: "ContingencyTable") -> None:
        for category, cc in other.counts.items():
            mine = self.counts.setdefault(category, CategoryCounts())
            mine.tp += cc.tp
            mine.fp += cc.fp
            mine.fn += cc.fn
            mine.tn += cc.tn
        self.n_docs += other.n_docs


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


def accumulate(
    gold: list[set[str]],
    pred: list[set[str]],
    categories: Iterable[str],
) -> ContingencyTable:
    """Per-category tp/fp/fn/tn over aligned gold and predicted label sets."""
    if len(gold) != len(pred):
        raise ValueError("gold and pred must be the same length")
    cats = list(categories)
    cat_set = set(cats)
    table = ContingencyTable(
        counts={c: CategoryCounts() for c in cats}, n_docs=len(gold)
    )
    for g, p in zip(gold, pred):
        stray = (g | p) - cat_set
        if stray:
            raise ValueError(f"labels outside the category set: {sorted(stray)}")
        for c in cats:
            in_g = c in g
            in_p = c in p
            cc = table.counts[c]
            if in_g and in_p:
                cc.tp += 1
            elif in_p:
                cc.fp += 1
            elif in_g:
                cc.fn += 1
            else:
                cc.tn += 1
    return table


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def micro_f(table: ContingencyTable) -> float:
    return micro_scores(table)[2]


def micro_scores(table: ContingencyTable) -> tuple[float, float, float]:
    tp = sum(cc.tp for cc in table.counts.values())
    fp = sum(cc.fp for cc in table.counts.values())
    fn = sum(cc.fn for cc in table.counts.values())
    return _prf(tp, fp, fn)


def macro_f(table: ContingencyTable) -> float:
    """Mean of per-category F over all categories in the table."""
    if not table.counts:
        raise ValueError("contingency table has no categories")
    scores = [_prf(cc.tp, cc.fp, cc.fn)[2] for cc in table.counts.values()]
    return sum(scores) / len(scores)


def metric_report(table: ContingencyTable) -> MetricReport:
    p, r, f = micro_scores(table)
    return MetricReport(
        micro_precision=p,
        micro_recall=r,
        micro_f=f,
        macro_f=macro_f(table),
        per_category={c: _prf(cc.tp, cc.fp, cc.fn) for c, cc in table.counts.items()},
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
# A fold runner maps one to (gold, pred, artifacts): label-set lists aligned
# with the test rows, and a dict the result keeps for the fold.
Fold = tuple[list[int], list[int]]
FoldRunner = Callable[[list[int], list[int]], tuple]


@dataclass
class CvResult:
    fold_reports: list[MetricReport]
    pooled: MetricReport  # a single fold's pooled report is its own
    fold_artifacts: list[dict]


def cv_folds(docs: list[RawDocument], k: int, seed: int) -> list[Fold]:
    """k stratified folds, each testing on its part and training on the
    rest; a fold without test documents is an error before any run."""
    fold_of = make_folds(docs, k, seed)
    folds = [([i for i, f in enumerate(fold_of) if f != fold],
              [i for i, f in enumerate(fold_of) if f == fold]) for fold in range(k)]
    for fold, (_train, test) in enumerate(folds):
        if not test:
            raise ValueError(f"cv fold {fold} of {k} has no test documents")
    return folds


def split_fold(docs: list[RawDocument]) -> list[Fold]:
    """The fixed (ModApte) split as one fold."""
    train = [i for i, d in enumerate(docs) if d.split_hint is SplitHint.TRAIN]
    test = [i for i, d in enumerate(docs) if d.split_hint is SplitHint.TEST]
    if not train or not test:
        raise ValueError(f"split evaluation needs train and test documents, "
                         f"got {len(train)}/{len(test)}")
    return [(train, test)]


def run_folds(folds: list[Fold], runner: FoldRunner, categories: Iterable[str]) -> CvResult:
    """Run every fold in order: a report per fold, one pooled over all the
    folds' contingency counts, and each fold's artifacts."""
    cats = list(categories)
    fold_reports, fold_artifacts = [], []
    pooled = ContingencyTable(counts={c: CategoryCounts() for c in cats})
    for fold, (train, test) in enumerate(folds):
        try:
            gold, pred, artifacts = runner(train, test)
        except Exception as exc:
            raise RuntimeError(f"pipeline failed in fold {fold}: {exc}") from exc
        table = accumulate(gold, pred, cats)
        fold_reports.append(metric_report(table))
        fold_artifacts.append(artifacts)
        pooled.merge(table)
    return CvResult(fold_reports, metric_report(pooled), fold_artifacts)
