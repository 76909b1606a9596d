"""SVM trainer checks: analytic fixture, brute-force oracle battery,
margin and determinism properties, one-vs-rest, decision values and
prediction."""

import logging
import multiprocessing
import os
import random
import signal

import numpy as np
import pytest
import scipy.sparse as sp

from kbcat import learn
from kbcat.evaluation import label_matrix
from kbcat.learn import (
    LinearModel,
    TrainConfig,
    decision_values,
    predict,
    save_models,
    train_binary_svm,
    train_one_vs_rest,
)
from oracles import reference_smo, svm_primal_objective, svm_projected_gradient_oracle


def _csr(rows: list[list[float]]) -> sp.csr_matrix:
    return sp.csr_matrix(np.array(rows, dtype=np.float64))


class TestAnalyticFixture:
    def test_two_point_solution(self):
        X = _csr([[2.0], [-2.0]])
        y = [1, -1]
        model = train_binary_svm(X, y, TrainConfig(c=10.0))
        assert model.weights[0] == pytest.approx(0.5, abs=1e-4)
        assert model.bias == pytest.approx(0.0, abs=1e-4)
        assert model.objective == pytest.approx(0.125, abs=1e-6)
        # both margins are exactly 1
        values = decision_values({"m": model}, X)[:, 0]
        assert values == pytest.approx([1.0, -1.0], abs=1e-6)


class TestDegenerate:
    def test_single_class_positive(self, caplog):
        with caplog.at_level(logging.WARNING):
            model = train_binary_svm(_csr([[1.0], [2.0]]), [1, 1])
        assert model.bias == 1.0
        assert not model.weights.any()
        assert model.objective == 0.0
        assert model.certified and model.rel_gap == 0.0
        assert any("single-class" in rec.message for rec in caplog.records)

    def test_single_class_negative(self):
        model = train_binary_svm(_csr([[1.0]]), [-1])
        assert model.bias == -1.0


def _fixture_battery():
    """Ten fixed small problems (<= 25 points, <= 3 dims), mixed C values,
    separable and overlapping."""
    rng = random.Random(20260401)
    fixtures = []
    # hand fixtures
    fixtures.append((_csr([[2.0], [-2.0]]), [1, -1], 10.0))
    fixtures.append((_csr([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]), [1, 1, -1], 1.0))
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
            X.append(point)
            y.append(label)
        if len(set(y)) == 1:
            y[0] = -y[0]
        fixtures.append((_csr(X), y, c))
    return fixtures


class TestOracleBattery:
    @pytest.mark.parametrize("idx", range(10))
    def test_objective_within_tolerance_of_oracle(self, idx):
        X, y, c = _fixture_battery()[idx]
        cfg = TrainConfig(c=c, tolerance=1e-6, max_epochs=2000)
        model = train_binary_svm(X, y, cfg)
        found = svm_primal_objective(
            X.toarray(), np.array(y, float), model.weights, model.bias, c
        )
        assert found == pytest.approx(model.objective, rel=1e-9, abs=1e-12)
        _, _, oracle_obj = svm_projected_gradient_oracle(
            X.toarray(), np.array(y, float), c
        )
        assert abs(found - oracle_obj) / oracle_obj <= 1e-3, (
            f"fixture {idx}: found {found}, oracle {oracle_obj}"
        )


def _random_sparse_problem(seed: int, n: int = 80, dim: int = 40):
    rng = np.random.default_rng(seed)
    rows, y = [], []
    for _ in range(n):
        row = np.zeros(dim)
        cols = np.flatnonzero(rng.random(dim) < 0.15)
        row[cols] = rng.normal(size=cols.size)
        rows.append(row)
        y.append(int(rng.choice([1, -1])))
    y[0], y[1] = 1, -1
    return sp.csr_matrix(np.array(rows)), y


class _MatvecCountingCSR(sp.csr_matrix):
    """A CSR matrix that records the operand of each matrix-vector product:
    the trainer computes one Gram row per product."""

    def __matmul__(self, other):
        if np.ndim(other) == 1:
            self.operands.append(other.tobytes())
        return super().__matmul__(other)


def _train_counting(X, y, cfg):
    """Train on a counting copy of ``X``; the model and the operands of
    its matvecs, one per Gram row computed."""
    counting = _MatvecCountingCSR(X)
    counting.operands = []
    return train_binary_svm(counting, y, cfg), counting.operands


def _assert_same_model(found: LinearModel, expected: LinearModel):
    assert found.weights.tobytes() == expected.weights.tobytes()
    assert found.bias.hex() == expected.bias.hex()
    assert found.objective_history == expected.objective_history
    assert found.certified == expected.certified
    assert found.rel_gap.hex() == expected.rel_gap.hex()


class TestOnDemandGramRows:
    """The trainer reads every Gram row from one ``GramRows`` source, which
    computes a row when first asked for and keeps the recently used ones in
    an LRU cache of ``max(2, _GRAM_LIMIT**2 // n)`` rows. At the default
    limit the cache holds every row of these problems; a limit of 0 shrinks
    it to its 2-row floor. Either way the model is the same."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("c", [0.1, 1.0, 10.0])
    def test_two_row_cache_gives_the_all_rows_model(self, monkeypatch, seed, c):
        X, y = _random_sparse_problem(seed)
        cfg = TrainConfig(c=c)
        all_rows = train_binary_svm(X, y, cfg)
        monkeypatch.setattr(learn, "_GRAM_LIMIT", 0)
        two_rows = train_binary_svm(X, y, cfg)
        if c >= 1.0:
            assert len(all_rows.objective_history) > 1
        assert np.array_equal(two_rows.weights, all_rows.weights)
        assert two_rows.bias == all_rows.bias
        assert two_rows.objective_history == all_rows.objective_history

    @pytest.mark.parametrize("idx", [0, 1, 4, 7])
    def test_objective_within_tolerance_of_oracle(self, monkeypatch, idx):
        monkeypatch.setattr(learn, "_GRAM_LIMIT", 0)
        X, y, c = _fixture_battery()[idx]
        cfg = TrainConfig(c=c, tolerance=1e-6, max_epochs=2000)
        model = train_binary_svm(X, y, cfg)
        found = svm_primal_objective(
            X.toarray(), np.array(y, float), model.weights, model.bias, c
        )
        assert found == pytest.approx(model.objective, rel=1e-9, abs=1e-12)
        _, _, oracle_obj = svm_projected_gradient_oracle(
            X.toarray(), np.array(y, float), c
        )
        assert abs(found - oracle_obj) / oracle_obj <= 1e-3, (
            f"fixture {idx}: found {found}, oracle {oracle_obj}"
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("c", [0.1, 1.0, 10.0])
    def test_row_cache_keeps_the_model_and_saves_matvecs(self, monkeypatch, seed, c):
        X, y = _random_sparse_problem(seed)
        cfg = TrainConfig(c=c)
        all_rows = train_binary_svm(X, y, cfg)
        if c >= 1.0:
            assert len(all_rows.objective_history) > 1
        # on 80 rows: caches of 2 rows (the floor), 20 and 78
        operands = {}
        for limit in (0, 40, 79):
            monkeypatch.setattr(learn, "_GRAM_LIMIT", limit)
            model, operands[limit] = _train_counting(X, y, cfg)
            _assert_same_model(model, all_rows)
        asked = set(operands[0])
        # an LRU cache that holds more rows never computes more of them;
        # the 20-row cache evicts rows it is asked for again
        assert len(operands[0]) >= len(operands[40]) > len(asked)
        # 78 rows hold every row these problems ask for: each is computed
        # exactly once
        assert len(asked) <= 78
        assert sorted(operands[79]) == sorted(asked)


def _step_battery():
    """(id, X, y, c, max_epochs) problems on which the trainer's steps must
    match the mask-based reference step for step."""
    problems = [(f"seed{seed}-c{c:g}", *_random_sparse_problem(seed), c, 1000)
                for seed in (0, 1, 2) for c in (1e-3, 0.1, 1.0, 10.0, 1e3)]
    # every row twice: F and the pair gains tie, so first-index ties decide
    X, y = _random_sparse_problem(3, n=30)
    for c in (1.0, 10.0):
        problems.append((f"duplicated-c{c:g}", sp.vstack([X, X], format="csr"), y + y,
                         c, 1000))
    # empty rows: a pair of them has eta at its 1e-12 floor
    X, y = _random_sparse_problem(4, n=40)
    X = sp.vstack([X, sp.csr_matrix((6, X.shape[1]))], format="csr")
    problems.append(("zero-rows", X, y + [1, -1, 1, -1, 1, -1], 10.0, 1000))
    X, y = _random_sparse_problem(5)
    problems.append(("one-positive", X, [1] + [-1] * (len(y) - 1), 1.0, 1000))
    X, y = _random_sparse_problem(0)
    problems.append(("one-epoch", X, y, 10.0, 1))
    # past 256 rows the gap is checked every 256 steps, not once an epoch
    for n in (300, 600):
        X, y = _random_sparse_problem(0, n=n)
        problems += [(f"rows{n}-c{c:g}", X, y, c, 1000) for c in (0.1, 1.0, 10.0)]
    # a budget of 300 steps: a round of 256, then one cut to 44
    X, y = _random_sparse_problem(0, n=300)
    problems.append(("rows300-one-epoch", X, y, 10.0, 1))
    return problems


_STEP_BATTERY = _step_battery()


def _assert_matches_reference(model: LinearModel, reference):
    weights, bias, history, certified, rel_gap, steps = reference
    assert model.weights.tobytes() == weights.tobytes()
    assert model.bias.hex() == bias.hex()
    assert model.objective_history == history
    assert model.certified == certified
    assert model.rel_gap.hex() == rel_gap.hex()
    assert model.steps == steps


class TestStepMatchesReference:
    """The trainer keeps the up and low sets as masked labels set again only
    at the two moved indices; every index it picks and every float it
    computes must be those of the reference that rebuilds both sets from
    alpha at every step, on either Gram path."""

    @pytest.mark.parametrize("name, X, y, c, max_epochs", _STEP_BATTERY,
                             ids=[p[0] for p in _STEP_BATTERY])
    def test_same_model_and_steps(self, monkeypatch, name, X, y, c, max_epochs):
        reference = reference_smo(X, y, c, max_epochs=max_epochs)
        steps, certified = reference[5], reference[3]
        assert steps > 0
        if name == "one-epoch":
            assert not certified
        cfg = TrainConfig(c=c, max_epochs=max_epochs)
        for limit in (learn._GRAM_LIMIT, 0):
            monkeypatch.setattr(learn, "_GRAM_LIMIT", limit)
            _assert_matches_reference(train_binary_svm(X, y, cfg), reference)

    def test_empty_sets_stop_the_loop(self):
        # with C = 0 no coefficient may move up or down: both sets start empty
        X, y = _random_sparse_problem(0)
        reference = reference_smo(X, y, 0.0)
        assert reference[5] == 0 and reference[3]
        _assert_matches_reference(train_binary_svm(X, y, TrainConfig(c=0.0)), reference)

    def test_single_class_takes_no_step(self):
        assert train_binary_svm(_csr([[1.0], [2.0]]), [1, 1]).steps == 0


class TestCheckSchedule:
    """The gap is checked after every ``min(n, _CHECK_EVERY)`` steps, and a
    model makes at most ``max_epochs * n`` steps."""

    @pytest.mark.parametrize("n", [300, 600])
    @pytest.mark.parametrize("c", [0.1, 1.0, 10.0])
    def test_certified_at_a_round_boundary(self, monkeypatch, n, c):
        checks = []

        def counting_best_bias(f, ya):
            checks.append(1)
            return best_bias(f, ya)

        best_bias = learn._best_bias
        monkeypatch.setattr(learn, "_best_bias", counting_best_bias)
        X, y = _random_sparse_problem(0, n=n)
        model = train_binary_svm(X, y, TrainConfig(c=c))
        history = model.objective_history
        assert len(history) == len(checks)
        assert all(a >= b for a, b in zip(history, history[1:]))
        # every round ran its 256 steps, and none ran after the check that
        # certified the model
        assert model.certified and model.rel_gap <= 1e-4
        assert model.steps == learn._CHECK_EVERY * len(history)
        # fewer steps than one epoch a check: the model stopped mid-epoch
        assert model.steps % n

    @pytest.mark.parametrize("max_epochs", [1, 2, 3])
    def test_budget_of_max_epochs_times_n_steps(self, max_epochs):
        X, y = _random_sparse_problem(0, n=300)
        model = train_binary_svm(X, y, TrainConfig(c=10.0, max_epochs=max_epochs))
        assert not model.certified
        assert model.steps <= max_epochs * 300
        # checks after 256, 512, ... steps and one where the budget ends
        assert len(model.objective_history) == -(-max_epochs * 300 // 256)

    def test_uncertified_warning_reports_steps_and_budget(self, caplog):
        X, y = _random_sparse_problem(0, n=300)
        with caplog.at_level(logging.WARNING, logger="kbcat.learn"):
            model = train_binary_svm(X, y, TrainConfig(c=10.0, max_epochs=1))
        assert [r.getMessage() for r in caplog.records] == [
            f"SVM stopped uncertified after 300 of at most 300 steps: relative "
            f"duality gap {model.rel_gap:.3g} above tolerance 0.0001"]

    def test_folds_within_256_rows_check_once_an_epoch(self, monkeypatch):
        X, y = _random_sparse_problem(0, n=256)
        cfg = TrainConfig(c=10.0, max_epochs=3)
        model = train_binary_svm(X, y, cfg)
        assert len(model.objective_history) == 3 and model.steps == 3 * 256
        monkeypatch.setattr(learn, "_CHECK_EVERY", 10**9)
        _assert_same_model(train_binary_svm(X, y, cfg), model)


class TestTrainingProperties:
    def test_margins_on_separable_data_with_large_c(self):
        rng = random.Random(5)
        rows, y = [], []
        for _ in range(20):
            label = rng.choice([1, -1])
            rows.append([label * 2.0 + rng.gauss(0, 0.3), rng.gauss(0, 1)])
            y.append(label)
        if len(set(y)) == 1:
            y[0] = -y[0]
        X = _csr(rows)
        model = train_binary_svm(X, y, TrainConfig(c=1000.0, tolerance=1e-8,
                                                   max_epochs=5000))
        for value, label in zip(decision_values({"m": model}, X)[:, 0], y):
            assert label * value >= 1.0 - 1e-6

    def test_objective_history_non_increasing(self):
        rng = random.Random(6)
        X = _csr([[rng.gauss(0, 1), rng.gauss(0, 1)] for _ in range(25)])
        y = [1 if i % 2 else -1 for i in range(25)]
        model = train_binary_svm(X, y, TrainConfig(c=5.0))
        history = model.objective_history
        assert history, "history must not be empty"
        assert all(a >= b - 1e-12 for a, b in zip(history, history[1:]))
        assert model.objective == history[-1]

    def test_bit_identical_across_runs(self):
        rng = random.Random(7)
        X = _csr([[rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)]
                  for _ in range(20)])
        y = [rng.choice([1, -1]) for _ in range(20)]
        if len(set(y)) == 1:
            y[0] = -y[0]
        cfg = TrainConfig(c=2.0)
        m1 = train_binary_svm(X, y, cfg)
        m2 = train_binary_svm(X, y, cfg)
        assert m1.bias == m2.bias
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.objective == m2.objective

    def test_uncertified_stop_warns_with_gap(self, caplog):
        rng = random.Random(3)
        X = _csr([[rng.gauss(0, 1), rng.gauss(0, 1)] for _ in range(200)])
        y = [rng.choice([1, -1]) for _ in range(200)]
        with caplog.at_level(logging.WARNING, logger="kbcat.learn"):
            model = train_binary_svm(X, y, TrainConfig(c=10.0, max_epochs=1))
        warnings = [r.message for r in caplog.records if "uncertified" in r.message]
        assert len(warnings) == 1
        assert "relative duality gap" in warnings[0]
        assert model.objective == model.objective_history[-1]
        assert not model.certified
        assert model.rel_gap > 1e-4

    def test_certified_run_does_not_warn(self, caplog):
        X = _csr([[2.0], [-2.0]])
        with caplog.at_level(logging.WARNING, logger="kbcat.learn"):
            model = train_binary_svm(X, [1, -1], TrainConfig(c=10.0))
        assert not caplog.records
        assert model.certified
        assert model.rel_gap <= 1e-4

    def test_input_validation(self):
        with pytest.raises(ValueError):
            train_binary_svm(sp.csr_matrix((0, 1)), [])
        with pytest.raises(ValueError):
            train_binary_svm(_csr([[1.0], [2.0]]), [1])
        with pytest.raises(ValueError):
            train_binary_svm(_csr([[1.0]]), [2])


class TestOneVsRest:
    def test_disjoint_positives_classify_training_data(self):
        X = _csr([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]])
        labels = label_matrix([{"a"}, {"a"}, {"b"}, {"b"}], ["a", "b"])
        models = train_one_vs_rest(X, labels, ["a", "b"], TrainConfig(c=100.0))
        assert set(models) == {"a", "b"}
        assert np.array_equal(predict(models, X, "single", ["a", "b"]), labels)

    def test_multilabel_doc_is_positive_for_both(self):
        X = _csr([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        labels = label_matrix([{"a", "b"}, {"a"}, {"b"}, set()], ["a", "b"])
        # documents with no label act as shared negatives
        models = train_one_vs_rest(X, labels, ["a", "b"], TrainConfig(c=100.0))
        pred = predict(models, X[:1], "multi", ["a", "b"])
        assert pred.tolist() == [[True, True]]

    def test_category_without_positives_skipped(self, caplog):
        X = _csr([[1.0], [-1.0]])
        labels = label_matrix([{"a"}, set()], ["a", "ghost"])
        with caplog.at_level(logging.WARNING):
            models = train_one_vs_rest(X, labels, ["a", "ghost"])
        assert "category 'ghost' has no positive examples; skipped" in caplog.text
        assert set(models) == {"a"}

    def test_one_model_per_category(self):
        rng = random.Random(8)
        cats = [f"c{i}" for i in range(6)]
        X = _csr([[rng.gauss(0, 1), rng.gauss(0, 1)] for _ in range(30)])
        labelsets = [{rng.choice(cats)} for _ in range(30)]
        present = sorted({c for ls in labelsets for c in ls})
        models = train_one_vs_rest(X, label_matrix(labelsets, present), present)
        assert list(models) == present
        # every category trains on the same matrix, as one binary problem
        for category, model in models.items():
            y = [1 if category in ls else -1 for ls in labelsets]
            alone = train_binary_svm(X, y)
            assert np.array_equal(model.weights, alone.weights)
            assert model.bias == alone.bias

    def test_row_count_must_match_labelsets(self):
        with pytest.raises(ValueError):
            train_one_vs_rest(_csr([[1.0], [-1.0]]), label_matrix([{"a"}], ["a"]), ["a"])

    def test_categories_share_each_gram_row(self, monkeypatch):
        # 60 rows, each owned by one of 4 categories through a strong
        # feature: the fold asks for few rows, and past a limit of 59 a
        # cache of 58 rows holds all of them. One CPU keeps the serial loop
        rng = np.random.default_rng(0)
        owner = rng.integers(0, 4, 60)
        dense = rng.random((60, 20)) * (rng.random((60, 20)) < 0.3)
        dense[np.arange(60), owner] += 2.0
        X = _MatvecCountingCSR(dense)
        X.operands = []
        labels, names = owner[:, None] == np.arange(4), ["c0", "c1", "c2", "c3"]
        monkeypatch.setattr(learn, "_GRAM_LIMIT", 59)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        models = train_one_vs_rest(X, labels, names)
        assert len(models) == 4 and len(X.operands) <= 58
        # no row is computed twice, and each is credited to one model
        assert len(set(X.operands)) == len(X.operands)
        assert sum(m.gram_rows for m in models.values()) == len(X.operands)
        for j, model in enumerate(models.values()):
            alone = train_binary_svm(X, np.where(labels[:, j], 1, -1).tolist())
            _assert_same_model(model, alone)
            assert model.steps == alone.steps
            # the first model computes every row it asks for; the later
            # ones find some of theirs already computed
            assert (model.gram_rows == alone.gram_rows) if j == 0 else \
                (model.gram_rows < alone.gram_rows)


def _multicategory_problem(seed: int, categories: int = 5, rows: int = 50):
    """A sparse non-negative matrix and a bool label matrix in which
    category 1 has no positive row."""
    rng = np.random.default_rng(seed)
    X = sp.random(rows, 30, density=0.3, format="csr", random_state=seed)
    labels = rng.random((rows, categories)) < 0.3
    labels[:, 1] = False
    labels[0, :] = [j != 1 for j in range(categories)]
    return X, labels, [f"c{j}" for j in range(categories)]


@pytest.fixture()
def trainer_pids(monkeypatch):
    """The process id of every ``train_binary_svm`` call, kept on the model
    it returns (a forked worker inherits the patched module)."""
    def recording(X, y, cfg=None, rows=None):
        model = original(X, y, cfg, rows)
        model.trained_in = os.getpid()
        return model

    original = learn.train_binary_svm
    monkeypatch.setattr(learn, "train_binary_svm", recording)
    return lambda models: {m.trained_in for m in models.values()}


@pytest.fixture()
def deadline():
    """Fail a test that runs past 60 s instead of letting it hang."""
    def expire(*_):
        raise TimeoutError("test ran past its 60 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.usefixtures("deadline")
class TestForkedOneVsRest:
    """Past ``_GRAM_LIMIT`` rows, with two or more categories to train and
    more than one CPU, categories train in forked worker processes."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("cfg", [TrainConfig(), TrainConfig(c=50.0, max_epochs=2)])
    def test_models_bit_identical_to_serial(self, forced_pool, trainer_pids, seed, cfg):
        X, labels, categories = _multicategory_problem(seed)
        models = train_one_vs_rest(X, labels, categories, cfg)
        assert not multiprocessing.active_children()
        assert os.getpid() not in trainer_pids(models)
        assert list(models) == [c for j, c in enumerate(categories) if j != 1]
        for j, category in enumerate(categories):
            if j == 1:
                continue
            model = models[category]
            alone = train_binary_svm(X, np.where(labels[:, j], 1, -1).tolist(), cfg)
            assert model.weights.tobytes() == alone.weights.tobytes()
            assert model.bias.hex() == alone.bias.hex()
            assert model.objective_history == alone.objective_history
            assert model.certified == alone.certified
            assert model.rel_gap.hex() == alone.rel_gap.hex()

    def test_models_past_256_rows_bit_identical_to_serial(self, forced_pool,
                                                           trainer_pids):
        X, labels, categories = _multicategory_problem(2, categories=3, rows=300)
        cfg = TrainConfig(c=10.0)
        models = train_one_vs_rest(X, labels, categories, cfg)
        assert os.getpid() not in trainer_pids(models)
        for j in (0, 2):
            alone = train_binary_svm(X, np.where(labels[:, j], 1, -1).tolist(), cfg)
            assert len(alone.objective_history) > 1
            assert alone.steps == learn._CHECK_EVERY * len(alone.objective_history)
            _assert_same_model(models[categories[j]], alone)

    def test_worker_exception_reaches_caller(self, forced_pool, monkeypatch):
        parent = os.getpid()

        def failing(X, y, cfg=None, rows=None):
            if os.getpid() == parent:
                return train_binary_svm(X, y, cfg, rows)
            raise ValueError(f"no model for {sum(v > 0 for v in y)} positives")

        monkeypatch.setattr(learn, "train_binary_svm", failing)
        X, labels, categories = _multicategory_problem(0)
        with pytest.raises(ValueError, match="no model for"):
            train_one_vs_rest(X, labels, categories)
        assert not multiprocessing.active_children()

    def test_dead_worker_is_an_error(self, forced_pool, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        monkeypatch.setattr(learn, "train_binary_svm", lambda X, y, cfg=None, rows=None: os._exit(3))
        X, labels, categories = _multicategory_problem(0)
        with pytest.raises(BrokenProcessPool):
            train_one_vs_rest(X, labels, categories)
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("gram_limit, cpus, categories", [
        (0, {0, 1}, 2),     # one category with a positive row
        (0, {0}, 5),        # one CPU in the affinity set
        (10**9, {0, 1}, 5),  # a training set within the Gram limit
    ])
    def test_stays_serial(self, monkeypatch, trainer_pids, gram_limit, cpus, categories):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("the worker pool needs os.sched_getaffinity")
        monkeypatch.setattr(learn, "_GRAM_LIMIT", gram_limit)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        X, labels, names = _multicategory_problem(0, categories)
        models = train_one_vs_rest(X, labels, names)
        assert trainer_pids(models) == {os.getpid()}


def _sequential_decision(model: LinearModel, cols, vals) -> float:
    """The decision value as a per-row loop computes it: the bias, then
    ``w[i] * v`` added in ascending column order."""
    total = model.bias
    for i, v in zip(cols, vals):
        total += model.weights[i] * v
    return float(total)


class TestDecisionValues:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bias_first_sequential_sum_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        n, dim, k = 60, 50, 5
        X = sp.random(n, dim, density=0.4, format="csr", random_state=rng,
                      data_rvs=rng.standard_normal)
        models = {f"c{j}": LinearModel(weights=rng.standard_normal(dim),
                                       bias=float(rng.standard_normal()))
                  for j in range(k)}
        expected = np.array([
            [_sequential_decision(m, X.indices[X.indptr[r]:X.indptr[r + 1]],
                                  X.data[X.indptr[r]:X.indptr[r + 1]])
             for m in models.values()]
            for r in range(n)])
        values = decision_values(models, X)
        assert values.shape == (n, k)
        assert np.array_equal(values, expected)
        # the data is rich enough to tell the two summation orders apart
        W = np.array([m.weights for m in models.values()])
        b = np.array([m.bias for m in models.values()])
        assert not np.array_equal(X @ W.T + b, expected)

    def test_empty_row_is_the_bias(self):
        models = {"a": LinearModel(weights=np.array([1.0, 2.0]), bias=-0.25)}
        X = sp.csr_matrix((np.array([3.0]), np.array([1]), np.array([0, 0, 1])),
                          shape=(2, 2))
        assert decision_values(models, X).tolist() == [[-0.25], [5.75]]


def _predict(models, X, mode):
    """predict with the models' own order as the category order, as label
    sets."""
    categories = list(models)
    return [{c for c, hit in zip(categories, row) if hit}
            for row in predict(models, X, mode, categories)]


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
        assert _predict(models, _csr([[1.0], [-1.0], [0.0]]),
                       "multi") == [{"a"}, {"b"}, set()]

    def test_single_label_argmax(self):
        models = self._models()
        assert _predict(models, _csr([[1.0], [-1.0]]),
                       "single") == [{"a"}, {"b"}]

    def test_single_label_returns_least_negative(self):
        models = {
            "a": LinearModel(weights=np.array([0.0]), bias=-0.5),
            "b": LinearModel(weights=np.array([0.0]), bias=-0.2),
        }
        assert _predict(models, _csr([[1.0]]), "single") == [{"b"}]

    def test_multilabel_may_be_empty(self):
        models = {"a": LinearModel(weights=np.array([0.0]), bias=-1.0)}
        assert _predict(models, _csr([[1.0]]), "multi") == [set()]

    def test_argmax_invariant_under_shared_positive_scale(self):
        models = self._models()
        scaled = {c: LinearModel(weights=m.weights * 3.0, bias=m.bias * 3.0)
                  for c, m in models.items()}
        X = _csr([[-2.0], [-0.5], [0.3], [1.5]])
        assert (_predict(models, X, "single")
                == _predict(scaled, X, "single"))

    def test_tie_broken_by_category_order(self):
        models = {
            "later": LinearModel(weights=np.array([0.0]), bias=0.5),
            "earlier": LinearModel(weights=np.array([0.0]), bias=0.5),
        }
        # insertion order is the category order
        assert _predict(models, _csr([[1.0]]), "single") == [{"later"}]

    @pytest.mark.parametrize("mode", ["multi", "single"])
    def test_rows_match_decision_values(self, mode):
        rng = np.random.default_rng(9)
        X = sp.random(40, 12, density=0.3, format="csr", random_state=rng)
        models = {c: LinearModel(weights=rng.standard_normal(12),
                                 bias=float(rng.normal(scale=0.1)))
                  for c in ("x", "y", "z")}
        values = decision_values(models, X)
        pred = _predict(models, X, mode)
        assert len(pred) == 40
        for row, labels in zip(values, pred):
            if mode == "multi":
                assert labels == {c for c, v in zip(models, row) if v > 0.0}
            else:
                assert labels == {list(models)[int(np.argmax(row))]}

    def test_no_models_or_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="no models"):
            _predict({}, _csr([[1.0]]), "multi")
        with pytest.raises(ValueError, match="unknown prediction mode"):
            _predict(self._models(), _csr([[1.0]]), "ranked")


def test_model_dump_round_trip(tmp_path):
    X = _csr([[2.0], [-2.0]])
    models = {
        "cat a": train_binary_svm(X, [1, -1], TrainConfig(c=10.0)),
        "cat b": train_binary_svm(X, [-1, 1], TrainConfig(c=1.0)),
    }
    path = tmp_path / "models.tsv"
    save_models(models, path)
    # a header line "model, category, bias, dim", then "index, weight" lines
    loaded: dict[str, tuple[float, np.ndarray]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        cells = line.split("\t")
        if cells[0] == "model":
            _, name, bias, dim = cells
            weights = np.zeros(int(dim))
            loaded[name] = (float(bias), weights)
        else:
            weights[int(cells[0])] = float(cells[1])
    assert list(loaded) == list(models)
    for name, (bias, weights) in loaded.items():
        assert bias == models[name].bias
        assert np.array_equal(weights, models[name].weights)
