"""SVM trainer checks: analytic fixture, brute-force oracle battery,
margin and determinism properties, one-vs-rest, prediction."""

import logging
import math
import random

import numpy as np
import pytest

from kbcat import learn
from kbcat.features import SparseVector
from kbcat.learn import (
    LinearModel,
    PredictionMode,
    TrainConfig,
    load_models,
    predict,
    save_models,
    train_binary_svm,
    train_one_vs_rest,
)
from oracles import svm_primal_objective, svm_projected_gradient_oracle


def _sv(values: list[float]) -> SparseVector:
    pairs = [(i, v) for i, v in enumerate(values) if v != 0.0]
    return SparseVector(indices=tuple(i for i, _ in pairs),
                        values=tuple(v for _, v in pairs))


def _dense(X: list[SparseVector], dim: int) -> np.ndarray:
    out = np.zeros((len(X), dim))
    for row, x in zip(out, X):
        for i, v in zip(x.indices, x.values):
            row[i] = v
    return out


class TestAnalyticFixture:
    def test_two_point_solution(self):
        X = [_sv([2.0]), _sv([-2.0])]
        y = [1, -1]
        model = train_binary_svm(X, y, TrainConfig(c=10.0), dim=1)
        assert model.weights[0] == pytest.approx(0.5, abs=1e-4)
        assert model.bias == pytest.approx(0.0, abs=1e-4)
        assert model.objective == pytest.approx(0.125, abs=1e-6)
        # both margins are exactly 1
        assert model.decision(X[0]) == pytest.approx(1.0, abs=1e-6)
        assert model.decision(X[1]) == pytest.approx(-1.0, abs=1e-6)


class TestDegenerate:
    def test_single_class_positive(self, caplog):
        with caplog.at_level(logging.WARNING):
            model = train_binary_svm([_sv([1.0]), _sv([2.0])], [1, 1], dim=1)
        assert model.bias == 1.0
        assert not model.weights.any()
        assert model.objective == 0.0
        assert model.certified and model.rel_gap == 0.0
        assert any("single-class" in rec.message for rec in caplog.records)

    def test_single_class_negative(self):
        model = train_binary_svm([_sv([1.0])], [-1], dim=1)
        assert model.bias == -1.0


def _fixture_battery():
    """Ten fixed small problems (<= 25 points, <= 3 dims), mixed C values,
    separable and overlapping."""
    rng = random.Random(20260401)
    fixtures = []
    # hand fixtures
    fixtures.append(([_sv([2.0]), _sv([-2.0])], [1, -1], 10.0))
    fixtures.append(([_sv([1.0, 0.0]), _sv([0.0, 1.0]), _sv([-1.0, -1.0])],
                     [1, 1, -1], 1.0))
    # random fixtures
    for trial in range(8):
        n = rng.randint(4, 25)
        d = rng.randint(1, 3)
        c = rng.choice([0.1, 1.0, 10.0, 100.0])
        sep = rng.random() < 0.5
        X, y = [], []
        for _ in range(n):
            label = rng.choice([1, -1])
            center = label * (1.5 if sep else 0.4)
            point = [center + rng.gauss(0, 1.0) for _ in range(d)]
            X.append(_sv(point))
            y.append(label)
        if len(set(y)) == 1:
            y[0] = -y[0]
        fixtures.append((X, y, c))
    return fixtures


class TestOracleBattery:
    @pytest.mark.parametrize("idx", range(10))
    def test_objective_within_tolerance_of_oracle(self, idx):
        X, y, c = _fixture_battery()[idx]
        dim = max(i for x in X for i in x.indices) + 1
        cfg = TrainConfig(c=c, tolerance=1e-6, max_epochs=2000)
        model = train_binary_svm(X, y, cfg, dim=dim)
        found = svm_primal_objective(
            _dense(X, dim), np.array(y, float), model.weights, model.bias, c
        )
        assert found == pytest.approx(model.objective, rel=1e-9, abs=1e-12)
        _, _, oracle_obj = svm_projected_gradient_oracle(
            _dense(X, dim), np.array(y, float), c
        )
        assert abs(found - oracle_obj) / oracle_obj <= 1e-3, (
            f"fixture {idx}: found {found}, oracle {oracle_obj}"
        )


def _random_sparse_problem(seed: int, n: int = 80, dim: int = 40):
    rng = np.random.default_rng(seed)
    X, y = [], []
    for _ in range(n):
        cols = np.flatnonzero(rng.random(dim) < 0.15)
        X.append(SparseVector(indices=tuple(int(i) for i in cols),
                              values=tuple(float(v) for v in rng.normal(size=cols.size))))
        y.append(int(rng.choice([1, -1])))
    y[0], y[1] = 1, -1
    return X, y, dim


class TestOnDemandGramRows:
    """Past ``_GRAM_LIMIT`` the trainer computes each Gram row when it needs
    it; a limit of 0 sends every problem down that path."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("c", [0.1, 1.0, 10.0])
    def test_same_model_as_precomputed_gram(self, monkeypatch, seed, c):
        X, y, dim = _random_sparse_problem(seed)
        cfg = TrainConfig(c=c)
        precomputed = train_binary_svm(X, y, cfg, dim=dim)
        monkeypatch.setattr(learn, "_GRAM_LIMIT", 0)
        on_demand = train_binary_svm(X, y, cfg, dim=dim)
        if c >= 1.0:
            assert len(precomputed.objective_history) > 1
        assert np.array_equal(on_demand.weights, precomputed.weights)
        assert on_demand.bias == precomputed.bias
        assert on_demand.objective_history == precomputed.objective_history

    @pytest.mark.parametrize("idx", [0, 1, 4, 7])
    def test_objective_within_tolerance_of_oracle(self, monkeypatch, idx):
        monkeypatch.setattr(learn, "_GRAM_LIMIT", 0)
        X, y, c = _fixture_battery()[idx]
        dim = max(i for x in X for i in x.indices) + 1
        cfg = TrainConfig(c=c, tolerance=1e-6, max_epochs=2000)
        model = train_binary_svm(X, y, cfg, dim=dim)
        found = svm_primal_objective(
            _dense(X, dim), np.array(y, float), model.weights, model.bias, c
        )
        assert found == pytest.approx(model.objective, rel=1e-9, abs=1e-12)
        _, _, oracle_obj = svm_projected_gradient_oracle(
            _dense(X, dim), np.array(y, float), c
        )
        assert abs(found - oracle_obj) / oracle_obj <= 1e-3, (
            f"fixture {idx}: found {found}, oracle {oracle_obj}"
        )


class TestTrainingProperties:
    def test_margins_on_separable_data_with_large_c(self):
        rng = random.Random(5)
        X, y = [], []
        for _ in range(20):
            label = rng.choice([1, -1])
            X.append(_sv([label * 2.0 + rng.gauss(0, 0.3), rng.gauss(0, 1)]))
            y.append(label)
        if len(set(y)) == 1:
            y[0] = -y[0]
        model = train_binary_svm(X, y, TrainConfig(c=1000.0, tolerance=1e-8,
                                                   max_epochs=5000), dim=2)
        for x, label in zip(X, y):
            assert label * model.decision(x) >= 1.0 - 1e-6

    def test_objective_history_non_increasing(self):
        rng = random.Random(6)
        X = [_sv([rng.gauss(0, 1), rng.gauss(0, 1)]) for _ in range(25)]
        y = [1 if i % 2 else -1 for i in range(25)]
        model = train_binary_svm(X, y, TrainConfig(c=5.0), dim=2)
        history = model.objective_history
        assert history, "history must not be empty"
        assert all(a >= b - 1e-12 for a, b in zip(history, history[1:]))
        assert model.objective == history[-1]

    def test_bit_identical_across_runs(self):
        rng = random.Random(7)
        X = [_sv([rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)])
             for _ in range(20)]
        y = [rng.choice([1, -1]) for _ in range(20)]
        if len(set(y)) == 1:
            y[0] = -y[0]
        cfg = TrainConfig(c=2.0)
        m1 = train_binary_svm(X, y, cfg, dim=3)
        m2 = train_binary_svm(X, y, cfg, dim=3)
        assert m1.bias == m2.bias
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.objective == m2.objective

    def test_uncertified_stop_warns_with_gap(self, caplog):
        rng = random.Random(3)
        X = [_sv([rng.gauss(0, 1), rng.gauss(0, 1)]) for _ in range(200)]
        y = [rng.choice([1, -1]) for _ in range(200)]
        with caplog.at_level(logging.WARNING, logger="kbcat.learn"):
            model = train_binary_svm(X, y, TrainConfig(c=10.0, max_epochs=1), dim=2)
        warnings = [r.message for r in caplog.records if "uncertified" in r.message]
        assert len(warnings) == 1
        assert "relative duality gap" in warnings[0]
        assert model.objective == model.objective_history[-1]
        assert not model.certified
        assert model.rel_gap > 1e-4

    def test_certified_run_does_not_warn(self, caplog):
        X = [_sv([2.0]), _sv([-2.0])]
        with caplog.at_level(logging.WARNING, logger="kbcat.learn"):
            model = train_binary_svm(X, [1, -1], TrainConfig(c=10.0), dim=1)
        assert not caplog.records
        assert model.certified
        assert model.rel_gap <= 1e-4

    def test_input_validation(self):
        with pytest.raises(ValueError):
            train_binary_svm([], [], dim=1)
        with pytest.raises(ValueError):
            train_binary_svm([_sv([1.0])], [2], dim=1)


class TestOneVsRest:
    def test_disjoint_positives_classify_training_data(self):
        X = [_sv([1.0, 0.0]), _sv([0.9, 0.1]), _sv([0.0, 1.0]), _sv([0.1, 0.9])]
        labels = [{"a"}, {"a"}, {"b"}, {"b"}]
        result = train_one_vs_rest(X, labels, ["a", "b"],
                                   TrainConfig(c=100.0), dim=2)
        assert set(result.models) == {"a", "b"}
        for x, gold in zip(X, labels):
            assert predict(result.models, x, PredictionMode.SINGLE_LABEL) == gold

    def test_multilabel_doc_is_positive_for_both(self):
        X = [_sv([1.0, 1.0]), _sv([1.0, 0.0]), _sv([0.0, 1.0]), _sv([-1.0, -1.0])]
        labels = [{"a", "b"}, {"a"}, {"b"}, set()]
        # documents with no label act as shared negatives
        result = train_one_vs_rest(X, labels, ["a", "b"],
                                   TrainConfig(c=100.0), dim=2)
        pred = predict(result.models, X[0], PredictionMode.MULTI_LABEL)
        assert pred == {"a", "b"}

    def test_category_without_positives_skipped(self, caplog):
        X = [_sv([1.0]), _sv([-1.0])]
        labels = [{"a"}, set()]
        with caplog.at_level(logging.WARNING):
            result = train_one_vs_rest(X, labels, ["a", "ghost"], dim=1)
        assert result.skipped == ["ghost"]
        assert set(result.models) == {"a"}

    def test_one_model_per_category(self):
        rng = random.Random(8)
        cats = [f"c{i}" for i in range(6)]
        X = [_sv([rng.gauss(0, 1), rng.gauss(0, 1)]) for _ in range(30)]
        labels = [{rng.choice(cats)} for _ in range(30)]
        present = sorted({c for ls in labels for c in ls})
        result = train_one_vs_rest(X, labels, present, dim=2)
        assert len(result.models) == len(present)


class TestPredict:
    def _models(self):
        return {
            "a": LinearModel(weights=np.array([1.0]), bias=0.0),
            "b": LinearModel(weights=np.array([-0.5]), bias=0.1),
        }

    def test_multilabel_sign_rule(self):
        models = {
            "a": LinearModel(weights=np.array([0.5]), bias=0.0),
            "b": LinearModel(weights=np.array([-0.2]), bias=0.0),
        }
        assert predict(models, _sv([1.0]), PredictionMode.MULTI_LABEL) == {"a"}

    def test_single_label_argmax(self):
        models = self._models()
        assert predict(models, _sv([1.0]), PredictionMode.SINGLE_LABEL) == {"a"}

    def test_single_label_returns_least_negative(self):
        models = {
            "a": LinearModel(weights=np.array([0.0]), bias=-0.5),
            "b": LinearModel(weights=np.array([0.0]), bias=-0.2),
        }
        assert predict(models, _sv([1.0]), PredictionMode.SINGLE_LABEL) == {"b"}

    def test_multilabel_may_be_empty(self):
        models = {"a": LinearModel(weights=np.array([0.0]), bias=-1.0)}
        assert predict(models, _sv([1.0]), PredictionMode.MULTI_LABEL) == set()

    def test_argmax_invariant_under_shared_positive_scale(self):
        models = self._models()
        scaled = {c: LinearModel(weights=m.weights * 3.0, bias=m.bias * 3.0)
                  for c, m in models.items()}
        for value in (-2.0, -0.5, 0.3, 1.5):
            x = _sv([value])
            assert (predict(models, x, PredictionMode.SINGLE_LABEL)
                    == predict(scaled, x, PredictionMode.SINGLE_LABEL))

    def test_tie_broken_by_category_order(self):
        models = {
            "later": LinearModel(weights=np.array([0.0]), bias=0.5),
            "earlier": LinearModel(weights=np.array([0.0]), bias=0.5),
        }
        # insertion order is the category order
        assert predict(models, _sv([1.0]), PredictionMode.SINGLE_LABEL) == {"later"}


def test_model_dump_round_trip(tmp_path):
    X = [_sv([2.0]), _sv([-2.0])]
    models = {
        "cat a": train_binary_svm(X, [1, -1], TrainConfig(c=10.0), dim=1),
        "cat b": train_binary_svm(X, [-1, 1], TrainConfig(c=1.0), dim=1),
    }
    path = tmp_path / "models.tsv"
    save_models(models, path)
    loaded = load_models(path)
    assert set(loaded) == set(models)
    for name in models:
        assert loaded[name].bias == models[name].bias
        assert np.array_equal(loaded[name].weights, models[name].weights)
        # a dump keeps no certificate
        assert not loaded[name].certified and math.isnan(loaded[name].rel_gap)
