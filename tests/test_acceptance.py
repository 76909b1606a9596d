"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import os
import time
from pathlib import Path

import pytest

import synth
from conftest import (
    SAMPLE_GAZETTEER_ENTRIES,
    SAMPLE_NOUNS,
    SAMPLE_POST,
    SAMPLE_STOPLIST,
    kb_index,
    make_tagged,
)
from kbcat.config import parse_config_text
from kbcat.corpus import SplitHint, SubsetMode, load_reuters_dir, select_category_subset
from kbcat.enrich import build_e2_query, filter_e4
from kbcat.evaluation import accumulate, label_matrix, metric_report, relative_improvement
from kbcat.experiment import run_experiment
from kbcat.kbindex import serialize_query
from kbcat.learn import TrainConfig, train_binary_svm
from kbcat.porter import porter_stem
from kbcat.textproc import EntityTag, Gazetteer, Representation, TextResources, represent
from oracles import (
    brute_force_search,
    micro_macro_by_enumeration,
    svm_primal_objective,
    svm_projected_gradient_oracle,
)
from test_enrich import DRUG_STORY, EXPECTED_E2_QUERY
from test_kbindex import _random_query, _random_record
from test_learn import _csr, _fixture_battery
from test_porter import REFERENCE_PAIRS
from test_textproc import EXPECTED_T1, EXPECTED_T3

import numpy as np
import random


def _ok(criterion: int, label: str) -> None:
    print(f"ACCEPTANCE {criterion} ({label}): PASS")


# Published experiment grid: (baseline, value, printed percent) per metric.
# One Reuters-10 A5 micro cell prints +0.93% although its stated inputs
# (0.930 -> 0.937) work out to +0.75%; that source-table slip is asserted
# at the computed value instead (see the erratum entry below).
IMPROVEMENT_GRID = [
    # 20-Newsgroup, micro then macro
    (0.868, 0.784, -9.68), (0.868, 0.770, -11.29), (0.868, 0.843, -2.88),
    (0.868, 0.919, +5.88), (0.868, 0.851, -1.96),
    (0.865, 0.768, -11.21), (0.865, 0.757, -12.49), (0.865, 0.830, -4.05),
    (0.865, 0.920, +6.36), (0.865, 0.839, -3.01),
    # Reuters-21578 ten largest categories
    (0.930, 0.854, -8.17), (0.930, 0.847, -8.92), (0.930, 0.898, -3.44),
    (0.930, 0.955, +2.68),
    (0.905, 0.832, -8.06), (0.905, 0.802, -11.38), (0.905, 0.872, -3.64),
    (0.905, 0.968, +6.96), (0.905, 0.925, +2.20),
    # Reuters-21578 ninety categories
    (0.865, 0.790, -8.67), (0.865, 0.756, -12.60), (0.865, 0.836, -3.35),
    (0.865, 0.909, +5.08), (0.865, 0.879, +1.61),
    (0.643, 0.632, -1.71), (0.643, 0.616, -4.19), (0.643, 0.640, -0.46),
    (0.643, 0.688, +6.99), (0.643, 0.677, +5.28),
]

ERRATUM_CELL = (0.930, 0.937, +0.75)  # table prints +0.93 for this pair


def test_01_improvement_arithmetic():
    for baseline, value, printed in IMPROVEMENT_GRID:
        got = relative_improvement(baseline, value)
        assert abs(got - printed) <= 0.01, (baseline, value, printed, got)
    baseline, value, computed = ERRATUM_CELL
    assert abs(relative_improvement(baseline, value) - computed) <= 0.01
    assert len(IMPROVEMENT_GRID) == 29
    _ok(1, "improvement arithmetic, 29 cells + 1 erratum")


def test_02_representation_golden_fixtures():
    from kbcat.corpus import RawDocument

    doc = RawDocument(id="179112", title="", body=SAMPLE_POST,
                      labels={"talk.politics.misc"})
    resources = TextResources(
        stopwords=SAMPLE_STOPLIST,
        gazetteer=Gazetteer(SAMPLE_GAZETTEER_ENTRIES),
        nouns=SAMPLE_NOUNS,
    )
    t1 = represent(doc, Representation.T1, resources)
    assert [s.lower() for s in t1.tokens] == EXPECTED_T1
    t3 = represent(doc, Representation.T3, resources)
    assert t3.tokens == EXPECTED_T3
    t4 = represent(doc, Representation.T4, resources)
    assert t4.tokens == EXPECTED_T3
    tags = dict(zip(t4.tokens, t4.tags))
    assert tags["FBI"] is EntityTag.ORGANIZATION
    assert tags["America"] is EntityTag.LOCATION
    assert tags["Clayton"] is EntityTag.PERSON and tags["Cramer"] is EntityTag.PERSON
    _ok(2, "T1/T3/T4 worked-example fixtures")


def test_03_query_reproduced_byte_for_byte():
    doc = make_tagged(DRUG_STORY.split())
    query = build_e2_query(doc, title_term="usa", min_rank=5)
    assert serialize_query(query) == EXPECTED_E2_QUERY
    _ok(3, "fielded query serialized byte-for-byte")


def test_04_e4_truth_table():
    from test_enrich import TestFilterE4

    table = TestFilterE4.TRUTH_TABLE
    assert len(table) == 30
    for term, expected in table:
        assert filter_e4(term) is expected, term
    assert filter_e4("Barack_Obama") is True
    assert filter_e4("barack_obama") is False
    assert filter_e4("United_States_presidential_candidates_2008") is False
    _ok(4, "uppercase/no-digit filter truth table, 30 terms")


def test_05_metric_oracle_exhaustive():
    start = time.perf_counter()
    cats = ["a", "b", "c"]
    gold = [{"a"}, {"a", "b"}, {"c"}, {"b", "c"}]
    gold_matrix = label_matrix(gold, cats)
    cells = [(d, c) for d in range(4) for c in cats]
    for bits in range(2 ** 12):
        pred = [set() for _ in range(4)]
        for k, (d, c) in enumerate(cells):
            if bits >> k & 1:
                pred[d].add(c)
        report = metric_report(accumulate(gold_matrix, label_matrix(pred, cats)), cats)
        micro_expected, macro_expected = micro_macro_by_enumeration(gold, pred, cats)
        assert report.micro_f == micro_expected
        assert report.macro_f == macro_expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _ok(5, f"micro/macro vs enumeration on 4096 patterns in {elapsed:.2f}s")


def test_06_svm_oracle_battery():
    start = time.perf_counter()
    # analytic fixture first
    two = _csr([[2.0], [-2.0]])
    model = train_binary_svm(two, [1, -1], TrainConfig(c=10.0))
    assert abs(model.weights[0] - 0.5) <= 1e-4
    assert abs(model.bias) <= 1e-4

    for idx, (X, y, c) in enumerate(_fixture_battery()):
        cfg = TrainConfig(c=c, tolerance=1e-6, max_epochs=2000)
        trained = train_binary_svm(X, y, cfg)
        found = svm_primal_objective(
            X.toarray(), np.array(y, float), trained.weights, trained.bias, c)
        _, _, oracle = svm_projected_gradient_oracle(
            X.toarray(), np.array(y, float), c)
        assert abs(found - oracle) / oracle <= 1e-3, (idx, found, oracle)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _ok(6, f"10 fixtures within 1e-3 of the oracle in {elapsed:.2f}s")


def test_07_porter_reference_sample():
    assert len(REFERENCE_PAIRS) == 100
    mismatches = [(w, porter_stem(w), s) for w, s in REFERENCE_PAIRS
                  if porter_stem(w) != s]
    assert not mismatches, mismatches
    _ok(7, "stemmer exact on the 100-word reference sample")


def test_08_search_matches_exhaustive_scoring():
    rng = random.Random(20260809)
    for trial in range(200):
        records = [_random_record(rng, i) for i in range(rng.randint(1, 20))]
        index = kb_index(records)
        query = _random_query(rng)
        n = rng.randint(1, len(records) + 3)
        hits = index.search(query, n)
        expected = brute_force_search(records, query, n)
        assert [h.record_title for h in hits] == [t for t, _ in expected], trial
        for hit, (_, score) in zip(hits, expected):
            assert hit.score == pytest.approx(score, rel=1e-9, abs=1e-12)
    _ok(8, "200 random queries match brute-force ranking exactly")


@pytest.fixture(scope="module")
def e2e_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    synth.write_corpus_tree(synth.build_docs(), tmp / "corpus")
    synth.write_kb_dump(synth.build_kb(), tmp / "kb.tsv")
    base = (
        f"dataset = custom\ncorpus_dir = {tmp / 'corpus'}\n"
        f"kb_dump = {tmp / 'kb.tsv'}\neval_mode = cv\ncv_folds = 4\n"
        f"seed = 7\nlabel_mode = single\n"
    )
    start = time.perf_counter()
    results = {
        "baseline": run_experiment(parse_config_text(base + "preset = baseline\n")),
        "A4": run_experiment(parse_config_text(base + "preset = A4\n")),
        "A4_again": run_experiment(parse_config_text(base + "preset = A4\n")),
        "A2_unfiltered": run_experiment(parse_config_text(
            base + "preset = custom\nstrategies = E1\nk = 20\napply_e4 = false\n")),
    }
    results["elapsed"] = time.perf_counter() - start
    return results


def test_09_enrichment_beats_baseline(e2e_runs):
    baseline = e2e_runs["baseline"]
    a4 = e2e_runs["A4"]
    gain = a4.macro_f - baseline.macro_f
    assert gain >= 0.03, f"macro gain {gain:+.4f} below 3 points"
    # seed-determinism: an identical configuration reproduces every fold
    again = e2e_runs["A4_again"]
    assert [r.macro_f for r in a4.cv.fold_reports] == \
           [r.macro_f for r in again.cv.fold_reports]
    assert e2e_runs["elapsed"] < 60.0, f"e2e took {e2e_runs['elapsed']:.1f}s"
    _ok(9, f"A4 macro {a4.macro_f:.4f} vs baseline {baseline.macro_f:.4f} "
           f"({gain:+.4f}), 4-fold CV in {e2e_runs['elapsed']:.1f}s")


def test_10_unfiltered_titles_degrade(e2e_runs):
    a4 = e2e_runs["A4"]
    unfiltered = e2e_runs["A2_unfiltered"]
    assert unfiltered.macro_f < a4.macro_f, (
        f"unfiltered {unfiltered.macro_f:.4f} !< filtered {a4.macro_f:.4f}")
    _ok(10, f"unfiltered top-20 titles {unfiltered.macro_f:.4f} "
            f"< filtered A4 {a4.macro_f:.4f}")


def test_11_real_reuters_if_present():
    root = os.environ.get("REUTERS21578_DIR")
    if not root or not Path(root).exists():
        pytest.skip("set REUTERS21578_DIR to the Reuters-21578 SGML directory")
    docs = load_reuters_dir(root)
    train = sum(1 for d in docs if d.split_hint is SplitHint.TRAIN)
    test = sum(1 for d in docs if d.split_hint is SplitHint.TEST)
    assert train == 9603, f"train admission {train}"
    assert test == 3299, f"test admission {test}"
    categories = select_category_subset(docs, SubsetMode.AT_LEAST_ONE_TRAIN_ONE_TEST)
    by_cat_train: dict[str, int] = {}
    by_cat_test: dict[str, int] = {}
    for d in docs:
        for label in d.labels:
            if d.split_hint is SplitHint.TRAIN:
                by_cat_train[label] = by_cat_train.get(label, 0) + 1
            elif d.split_hint is SplitHint.TEST:
                by_cat_test[label] = by_cat_test.get(label, 0) + 1
    expected = sorted(c for c in by_cat_train if by_cat_test.get(c, 0) >= 1)
    assert list(categories) == expected
    assert len(categories) == 90
    _ok(11, f"ModApte admission 9603/3299, {len(categories)} categories")
