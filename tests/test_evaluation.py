"""Metrics, improvement arithmetic, paired t-test, and the fold loop."""

import math
import random
import tracemalloc
from dataclasses import replace

import pytest
import scipy.stats

from kbcat.corpus import RawDocument, SplitHint
from kbcat.evaluation import (
    accumulate,
    cv_folds,
    label_matrix,
    metric_report,
    paired_t_test,
    relative_improvement,
    run_folds,
    split_fold,
    student_t_sf_two_tailed,
)
from oracles import micro_macro_by_enumeration


def _tally(gold, pred, cats) -> dict[str, list[int]]:
    """category -> [tp, fp, fn] of label-set lists, through label_matrix."""
    counts = accumulate(label_matrix(gold, cats), label_matrix(pred, cats))
    return dict(zip(cats, counts.tolist(), strict=True))


def _report(gold, pred, cats):
    return metric_report(accumulate(label_matrix(gold, cats), label_matrix(pred, cats)),
                         cats)


class TestAccumulate:
    def test_perfect_predictions(self):
        gold = [{"a"}, {"b"}, {"a", "b"}]
        for _tp, fp, fn in _tally(gold, gold, ["a", "b"]).values():
            assert fp == 0 and fn == 0

    def test_single_miss(self):
        tally = _tally([{"a"}], [{"b"}], ["a", "b"])
        assert tally["a"][2] == 1
        assert tally["b"][1] == 1
        assert tally["a"][0] == tally["b"][0] == 0

    def test_hand_tally(self):
        gold = [{"a"}, {"a", "b"}, {"c"}, {"b"}]
        pred = [{"a"}, {"b"}, {"b"}, set()]
        tally = _tally(gold, pred, ["a", "b", "c"])
        assert (tally["a"][0], tally["a"][2]) == (1, 1)
        assert tally["b"] == [1, 1, 1]
        assert tally["c"][2] == 1

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="stray|outside"):
            label_matrix([{"zzz"}], ["a"])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            accumulate(label_matrix([{"a"}], ["a"]), label_matrix([], ["a"]))


class TestMicroMacro:
    def _two_cat_report(self):
        # cat1: tp2 fp1 fn1; cat2: tp0 fp0 fn1
        gold = [{"c1"}, {"c1"}, {"c1"}, {"c2"}, set()]
        pred = [{"c1"}, {"c1"}, set(), {"c1"}, set()]
        return _report(gold, pred, ["c1", "c2"])

    def test_micro_hand_value(self):
        report = self._two_cat_report()
        assert report.micro_precision == pytest.approx(2 / 3)
        assert report.micro_recall == pytest.approx(1 / 2)
        assert report.micro_f == pytest.approx(4 / 7)

    def test_macro_hand_value(self):
        assert self._two_cat_report().macro_f == pytest.approx(1 / 3)

    def test_perfect(self):
        gold = [{"a"}, {"b"}]
        report = _report(gold, gold, ["a", "b"])
        assert report.micro_f == 1.0
        assert report.macro_f == 1.0

    def test_all_wrong_is_zero(self):
        report = _report([{"a"}], [{"b"}], ["a", "b"])
        assert report.micro_f == 0.0
        assert report.macro_f == 0.0

    def test_single_category_macro(self):
        report = _report([{"a"}, {"a"}], [{"a"}, set()], ["a"])
        assert report.macro_f == pytest.approx(report.per_category["a"][2])

    def test_category_permutation_invariance(self):
        gold = [{"a"}, {"b"}, {"c"}]
        pred = [{"a"}, {"c"}, {"c"}]
        renamed = lambda s: {{"a": "x", "b": "y", "c": "z"}[v] for v in s}
        r1 = _report(gold, pred, ["a", "b", "c"])
        r2 = _report([renamed(g) for g in gold], [renamed(p) for p in pred],
                     ["x", "y", "z"])
        assert r1.micro_f == r2.micro_f
        assert r1.macro_f == r2.macro_f

    def test_exhaustive_patterns_match_enumeration_oracle(self):
        # all 2^(4 docs x 3 categories) prediction patterns, exact equality
        cats = ["a", "b", "c"]
        gold = [{"a"}, {"a", "b"}, {"c"}, {"b", "c"}]
        cells = [(d, c) for d in range(4) for c in cats]
        for bits in range(2 ** 12):
            pred = [set() for _ in range(4)]
            for k, (d, c) in enumerate(cells):
                if bits >> k & 1:
                    pred[d].add(c)
            report = _report(gold, pred, cats)
            micro_expected, macro_expected = micro_macro_by_enumeration(
                gold, pred, cats)
            assert report.micro_f == micro_expected
            assert report.macro_f == macro_expected

    def test_single_label_tp_equals_correct_count(self):
        rng = random.Random(3)
        cats = ["a", "b", "c"]
        gold = [{rng.choice(cats)} for _ in range(40)]
        pred = [{rng.choice(cats)} for _ in range(40)]
        tally = _tally(gold, pred, cats)
        correct = sum(1 for g, p in zip(gold, pred) if g == p)
        assert sum(tp for tp, _fp, _fn in tally.values()) == correct


class TestRelativeImprovement:
    def test_reported_gains(self):
        assert relative_improvement(0.868, 0.919) == pytest.approx(5.88, abs=0.01)
        assert relative_improvement(0.865, 0.920) == pytest.approx(6.36, abs=0.01)
        assert relative_improvement(0.868, 0.784) == pytest.approx(-9.68, abs=0.01)

    def test_no_change(self):
        assert relative_improvement(0.5, 0.5) == 0.0

    def test_nonpositive_baseline_rejected(self):
        with pytest.raises(ValueError):
            relative_improvement(0.0, 0.5)
        with pytest.raises(ValueError):
            relative_improvement(-0.1, 0.5)


class TestPairedTTest:
    def test_identical_samples(self):
        result = paired_t_test([0.1, 0.2, 0.3], [0.1, 0.2, 0.3])
        assert result.t == 0.0
        assert result.p_two_tailed == 1.0
        assert result.degrees_of_freedom == 2

    def test_hand_computed_case(self):
        a = [1.0, 2.0, 3.0, 4.0]
        b = [0.0, 0.0, 0.0, 0.0]
        result = paired_t_test(a, b)
        assert result.t == pytest.approx(3.873, abs=1e-3)
        assert result.degrees_of_freedom == 3
        assert result.p_two_tailed == pytest.approx(0.0305, abs=1e-3)

    def test_constant_nonzero_difference(self):
        result = paired_t_test([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
        assert result.t == math.inf
        assert result.p_two_tailed == 0.0
        negative = paired_t_test([0.0, 0.0], [2.0, 2.0])
        assert negative.t == -math.inf

    def test_needs_two_pairs(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [0.0])

    def test_matches_scipy(self):
        rng = random.Random(12)
        for _ in range(40):
            n = rng.randint(2, 12)
            a = [rng.gauss(0.5, 0.2) for _ in range(n)]
            b = [rng.gauss(0.4, 0.2) for _ in range(n)]
            if all(abs(x - y - (a[0] - b[0])) < 1e-12 for x, y in zip(a, b)):
                continue
            ours = paired_t_test(a, b)
            ref = scipy.stats.ttest_rel(a, b)
            assert ours.t == pytest.approx(ref.statistic, rel=1e-9)
            assert ours.p_two_tailed == pytest.approx(ref.pvalue, rel=1e-6)

    def test_cdf_accuracy_against_scipy(self):
        for df in (1, 2, 3, 5, 10, 30, 100):
            for t in (0.0, 0.3, 1.0, 2.5, 4.0, 10.0):
                ours = student_t_sf_two_tailed(t, df)
                ref = 2 * scipy.stats.t.sf(t, df)
                assert ours == pytest.approx(ref, abs=1e-6)


def _docs(n_per_class: int = 8) -> list[RawDocument]:
    docs = []
    for cls in ("red", "blue"):
        for i in range(n_per_class):
            docs.append(RawDocument(id=f"{cls}{i}", title="", body=cls,
                                    labels={cls}))
    return docs


def _word_match_runner(docs, categories=("blue", "red")):
    # predict the label whose name appears in the body; trivially separable
    def runner(train, test):
        labels = sorted({l for i in train for l in docs[i].labels})
        gold = [set(docs[i].labels) for i in test]
        pred = [{next((l for l in labels if l in docs[i].body), labels[0])}
                for i in test]
        return (label_matrix(gold, categories), label_matrix(pred, categories),
                [docs[i].id for i in train])

    return runner


def run_cv(docs, k, seed, categories, runner=None):
    return run_folds(cv_folds(docs, k, seed), runner or _word_match_runner(docs),
                     categories)


class TestRunCv:
    def test_k_reports(self):
        result = run_cv(_docs(), 4, seed=1, categories=["blue", "red"])
        assert len(result.fold_reports) == 4
        assert len(result.fold_models) == 4

    def test_separable_scores_one(self):
        result = run_cv(_docs(), 4, seed=1, categories=["blue", "red"])
        for report in result.fold_reports:
            assert report.micro_f == 1.0
        assert result.pooled.micro_f == 1.0

    def test_deterministic(self):
        a = run_cv(_docs(), 4, seed=9, categories=["blue", "red"])
        b = run_cv(_docs(), 4, seed=9, categories=["blue", "red"])
        assert a == b

    def test_folds_are_disjoint_and_return_artifacts(self):
        docs = _docs()
        folds = cv_folds(docs, 4, seed=2)
        result = run_folds(folds, _word_match_runner(docs), ["blue", "red"])
        assert len(folds) == 4
        assert sorted(i for _, test in folds for i in test) == list(range(len(docs)))
        for (train, test), train_ids in zip(folds, result.fold_models, strict=True):
            assert not set(train) & set(test)
            assert sorted(train + test) == list(range(len(docs)))
            assert train_ids == [docs[i].id for i in train]

    def test_fold_error_names_fold(self):
        def broken(train, test):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="fold 0"):
            run_cv(_docs(), 4, seed=0, categories=["blue", "red"], runner=broken)

    def test_empty_test_fold_rejected_before_any_run(self):
        # 3 strata of 2 documents fill only folds 0 and 1 of 5; scoring the
        # empty folds as F = 0 would report a mean micro-F of 0.4
        docs = [RawDocument(id=f"{cls}{i}", title="", body=cls, labels={cls})
                for cls in ("red", "blue", "green") for i in range(2)]
        calls = []

        def runner(train, test):
            calls.append(test)
            return _word_match_runner(docs, ("blue", "green", "red"))(train, test)

        with pytest.raises(ValueError, match="cv fold 2 of 5 has no test documents"):
            run_cv(docs, 5, seed=0, categories=["blue", "green", "red"], runner=runner)
        assert calls == []

    def test_huge_k_rejected_before_any_fold_is_built(self):
        # 4 strata of 25 documents fill folds 0-24 of 10**5; building every
        # fold before looking for an empty one takes about 100 MB here
        docs = [RawDocument(id=f"{cls}{i}", title="", body=cls, labels={cls})
                for cls in ("a", "b", "c", "d") for i in range(25)]
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cv fold 25 of 100000 has no test documents"):
                cv_folds(docs, 10**5, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _split_docs() -> list[RawDocument]:
    hints = [SplitHint.TRAIN, SplitHint.TEST, SplitHint.UNSPLIT, SplitHint.TRAIN] * 4
    return [replace(doc, split_hint=hint) for doc, hint in zip(_docs(), hints)]


class TestSplitFold:
    def test_one_fold_of_train_and_test_rows(self):
        docs = _split_docs()
        [(train, test)] = split_fold(docs)
        assert train == [i for i, d in enumerate(docs) if d.split_hint is SplitHint.TRAIN]
        assert test == [i for i, d in enumerate(docs) if d.split_hint is SplitHint.TEST]
        assert len(train) == 8 and len(test) == 4

    @pytest.mark.parametrize("missing", [SplitHint.TRAIN, SplitHint.TEST])
    def test_missing_side_rejected(self, missing):
        docs = [d for d in _split_docs() if d.split_hint is not missing]
        with pytest.raises(ValueError, match="split evaluation needs train and test"):
            split_fold(docs)

    def test_one_fold_run_reports_its_fold(self):
        # one false positive on the first test row: the scores are below 1
        docs = _split_docs()

        def runner(train, test):
            gold, pred, train_ids = _word_match_runner(docs)(train, test)
            pred[0] = True
            return gold, pred, train_ids

        result = run_folds(split_fold(docs), runner, ["blue", "red"])
        [fold] = result.fold_reports
        assert result.pooled == fold
        assert fold.micro_f < 1.0
        assert len(result.fold_models) == 1

    def test_runner_error_names_fold_zero(self):
        def broken(train, test):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="pipeline failed in fold 0: boom"):
            run_folds(split_fold(_split_docs()), broken, ["blue", "red"])
