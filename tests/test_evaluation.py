"""Metrics, improvement arithmetic, paired t-test, and cross-validation."""

import math
import random

import pytest
import scipy.stats

from kbcat.corpus import RawDocument
from kbcat.evaluation import (
    accumulate,
    macro_f,
    metric_report,
    micro_f,
    micro_scores,
    paired_t_test,
    relative_improvement,
    run_cv,
    student_t_sf_two_tailed,
)
from oracles import micro_macro_by_enumeration


class TestAccumulate:
    def test_perfect_predictions(self):
        gold = [{"a"}, {"b"}, {"a", "b"}]
        table = accumulate(gold, gold, ["a", "b"])
        for cc in table.counts.values():
            assert cc.fp == 0 and cc.fn == 0

    def test_single_miss(self):
        table = accumulate([{"a"}], [{"b"}], ["a", "b"])
        assert table.counts["a"].fn == 1
        assert table.counts["b"].fp == 1
        assert table.counts["a"].tp == table.counts["b"].tp == 0

    def test_hand_tally(self):
        gold = [{"a"}, {"a", "b"}, {"c"}, {"b"}]
        pred = [{"a"}, {"b"}, {"b"}, set()]
        table = accumulate(gold, pred, ["a", "b", "c"])
        assert (table.counts["a"].tp, table.counts["a"].fn) == (1, 1)
        assert (table.counts["b"].tp, table.counts["b"].fp,
                table.counts["b"].fn) == (1, 1, 1)
        assert (table.counts["c"].fn, table.counts["c"].tn) == (1, 3)
        # cells sum to the document count for every category
        for cc in table.counts.values():
            assert cc.tp + cc.fp + cc.fn + cc.tn == 4

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="stray|outside"):
            accumulate([{"zzz"}], [set()], ["a"])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            accumulate([{"a"}], [], ["a"])


class TestMicroMacro:
    def _two_cat_table(self):
        # cat1: tp2 fp1 fn1; cat2: tp0 fp0 fn1
        gold = [{"c1"}, {"c1"}, {"c1"}, {"c2"}, set()]
        pred = [{"c1"}, {"c1"}, set(), {"c1"}, set()]
        return accumulate(gold, pred, ["c1", "c2"])

    def test_micro_hand_value(self):
        table = self._two_cat_table()
        p, r, f = micro_scores(table)
        assert p == pytest.approx(2 / 3)
        assert r == pytest.approx(1 / 2)
        assert f == pytest.approx(4 / 7)

    def test_macro_hand_value(self):
        assert macro_f(self._two_cat_table()) == pytest.approx(1 / 3)

    def test_perfect(self):
        gold = [{"a"}, {"b"}]
        table = accumulate(gold, gold, ["a", "b"])
        assert micro_f(table) == 1.0
        assert macro_f(table) == 1.0

    def test_all_wrong_is_zero(self):
        table = accumulate([{"a"}], [{"b"}], ["a", "b"])
        assert micro_f(table) == 0.0
        assert macro_f(table) == 0.0

    def test_single_category_macro(self):
        table = accumulate([{"a"}, {"a"}], [{"a"}, set()], ["a"])
        report = metric_report(table)
        assert report.macro_f == pytest.approx(report.per_category["a"][2])

    def test_category_permutation_invariance(self):
        gold = [{"a"}, {"b"}, {"c"}]
        pred = [{"a"}, {"c"}, {"c"}]
        renamed = lambda s: {{"a": "x", "b": "y", "c": "z"}[v] for v in s}
        t1 = accumulate(gold, pred, ["a", "b", "c"])
        t2 = accumulate([renamed(g) for g in gold], [renamed(p) for p in pred],
                        ["x", "y", "z"])
        assert micro_f(t1) == micro_f(t2)
        assert macro_f(t1) == macro_f(t2)

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
            table = accumulate(gold, pred, cats)
            micro_expected, macro_expected = micro_macro_by_enumeration(
                gold, pred, cats)
            assert micro_f(table) == micro_expected
            assert macro_f(table) == macro_expected

    def test_single_label_tp_equals_correct_count(self):
        rng = random.Random(3)
        cats = ["a", "b", "c"]
        gold = [{rng.choice(cats)} for _ in range(40)]
        pred = [{rng.choice(cats)} for _ in range(40)]
        table = accumulate(gold, pred, cats)
        correct = sum(1 for g, p in zip(gold, pred) if g == p)
        assert sum(cc.tp for cc in table.counts.values()) == correct


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


def _word_match_runner(train, test):
    # predict the label whose name appears in the body; trivially separable
    labels = sorted({l for d in train for l in d.labels})
    gold = [set(d.labels) for d in test]
    pred = [{next((l for l in labels if l in d.body), labels[0])} for d in test]
    return gold, pred, {"train_ids": [d.id for d in train]}


class TestRunCv:
    def test_k_reports(self):
        result = run_cv(_docs(), _word_match_runner, 4, seed=1,
                        categories=["blue", "red"])
        assert len(result.fold_reports) == 4

    def test_separable_scores_one(self):
        result = run_cv(_docs(), _word_match_runner, 4, seed=1,
                        categories=["blue", "red"])
        for report in result.fold_reports:
            assert report.micro_f == 1.0
        assert result.micro_f_mean == 1.0
        assert result.micro_f_sd == 0.0
        assert result.pooled.micro_f == 1.0

    def test_deterministic(self):
        a = run_cv(_docs(), _word_match_runner, 4, seed=9,
                   categories=["blue", "red"])
        b = run_cv(_docs(), _word_match_runner, 4, seed=9,
                   categories=["blue", "red"])
        assert a == b

    def test_hook_sees_disjoint_folds(self):
        seen = []

        def hook(fold, train, test, artifacts):
            seen.append((fold, {d.id for d in train}, {d.id for d in test},
                         artifacts))

        run_cv(_docs(), _word_match_runner, 4, seed=2,
               categories=["blue", "red"], on_fold=hook)
        assert [fold for fold, *_ in seen] == [0, 1, 2, 3]
        for _, train_ids, test_ids, artifacts in seen:
            assert not train_ids & test_ids
            assert set(artifacts["train_ids"]) == train_ids

    def test_fold_error_names_fold(self):
        def broken(train, test):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="fold 0"):
            run_cv(_docs(), broken, 4, seed=0, categories=["blue", "red"])

    def test_empty_test_fold_rejected_before_any_run(self):
        # 3 strata of 2 documents fill only folds 0 and 1 of 5; scoring the
        # empty folds as F = 0 would report a mean micro-F of 0.4
        docs = [RawDocument(id=f"{cls}{i}", title="", body=cls, labels={cls})
                for cls in ("red", "blue", "green") for i in range(2)]
        calls = []

        def runner(train, test):
            calls.append(test)
            return _word_match_runner(train, test)

        with pytest.raises(ValueError, match="cv fold 2 of 5 has no test documents"):
            run_cv(docs, runner, 5, seed=0, categories=["blue", "green", "red"])
        assert calls == []
