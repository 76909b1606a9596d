"""Configuration parsing, experiment orchestration, artifacts, and the CLI."""

import hashlib
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest

import synth
from conftest import make_tagged
from kbcat.cli import main
from kbcat.config import (
    ConfigError,
    config_to_dict,
    load_config,
    parse_config_text,
)
from kbcat.enrich import Strategy
from kbcat.evaluation import CvResult, MetricReport
from kbcat.experiment import (
    StageError,
    _sha256_path,
    format_metrics_tsv,
    headline_scores,
    improvement_table_from_files,
    parse_metrics_tsv,
    run_experiment,
    run_rows,
)
from kbcat.textproc import Representation


def _write_separable_corpus(root: Path, docs_per_class: int = 10) -> None:
    # two classes with disjoint vocabulary: trivially separable
    vocab = {"spam": ["offer", "winner", "prize", "claim"],
             "ham": ["meeting", "schedule", "agenda", "minutes"]}
    for cls, words in vocab.items():
        (root / cls).mkdir(parents=True)
        for i in range(docs_per_class):
            body = " ".join(words[i % 4:] + words[: i % 4])
            (root / cls / f"{i:03d}").write_text(
                f"Subject: {i}\n\n{body}\n", encoding="utf-8")


@pytest.fixture()
def separable_corpus(tmp_path) -> Path:
    root = tmp_path / "corpus"
    _write_separable_corpus(root, docs_per_class=20)  # 40 documents
    return root


def _config_text(corpus: Path, **overrides) -> str:
    lines = {
        "dataset": "custom",
        "corpus_dir": str(corpus),
        "eval_mode": "cv",
        "cv_folds": "4",
        "seed": "3",
        "label_mode": "single",
    }
    lines.update({k: str(v) for k, v in overrides.items()})
    return "\n".join(f"{k} = {v}" for k, v in lines.items()) + "\n"


class TestLoadConfig:
    def test_minimal_baseline(self, separable_corpus, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(_config_text(separable_corpus), encoding="utf-8")
        cfg = load_config(path)
        assert cfg.preset == "baseline"
        assert cfg.dataset == "custom"
        assert Path(cfg.stoplist).exists()

    def test_byte_order_mark_is_not_part_of_the_first_key(self, separable_corpus, tmp_path):
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(_config_text(separable_corpus), encoding="utf-8")
        marked.write_text(_config_text(separable_corpus), encoding="utf-8-sig")
        assert load_config(marked) == load_config(plain)

    def test_unknown_key_named(self, separable_corpus):
        with pytest.raises(ConfigError, match="foo"):
            parse_config_text(_config_text(separable_corpus) + "foo = 1\n")

    @pytest.mark.parametrize("first, second, key", [
        ("k = 5", "k = 20", "k"), ("preset = baseline", "preset=custom", "preset"),
    ], ids=["k", "preset"])
    def test_repeated_key_names_both_lines(self, separable_corpus, first, second, key):
        text = (f"dataset = custom\n# a comment\n{first}\n{second}\n"
                f"corpus_dir = {separable_corpus}\n")
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert str(err.value) == f"line 4: key {key!r} repeated (first set on line 3)"

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="corpus_dir"):
            parse_config_text("dataset = custom\n")

    def test_dangling_path(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            parse_config_text(f"dataset = custom\ncorpus_dir = {tmp_path}/nope\n")

    def test_preset_a4_resolution(self, separable_corpus, tmp_path):
        kb = tmp_path / "kb.tsv"
        synth.write_kb_dump(synth.build_kb(), kb)
        cfg = parse_config_text(
            _config_text(separable_corpus, preset="A4", kb_dump=kb))
        preset = cfg.resolve_preset()
        assert preset.representation is Representation.T1
        assert preset.strategies == {Strategy.E2}
        assert preset.k == 20
        assert preset.include_linked
        assert preset.apply_e4 and preset.apply_e5

    def test_enrichment_preset_requires_kb(self, separable_corpus):
        with pytest.raises(ConfigError, match="kb_dump"):
            parse_config_text(_config_text(separable_corpus, preset="A4"))

    def test_custom_representation_needs_no_kb(self, separable_corpus, tmp_path):
        # the representation-only (T1-T4) comparison never loads a KB
        cfg = parse_config_text(_config_text(
            separable_corpus, preset="custom", representation="T2",
            out_dir=tmp_path / "run"))
        assert cfg.kb_dump == ""
        result = run_experiment(cfg)
        assert "timing.index" not in result.manifest
        assert result.micro_f == 1.0

    def test_custom_strategies_require_kb(self, separable_corpus):
        with pytest.raises(ConfigError, match="needs a kb_dump path"):
            parse_config_text(_config_text(
                separable_corpus, preset="custom", representation="T2", strategies="E1"))

    def test_comments_and_blank_lines(self, separable_corpus):
        text = "# leading comment\n\n" + _config_text(separable_corpus) + \
               "svm_c = 2.0  # inline comment\n"
        assert parse_config_text(text).svm_c == 2.0

    @pytest.mark.parametrize("key, value", [
        ("k", "abc"), ("svm_c", "high"), ("cv_folds", "2.5"), ("save_models", "maybe"),
        ("k", "0"), ("k", "-2"), ("svm_c", "0"), ("svm_c", "nan"), ("svm_c", "inf"),
        ("svm_tolerance", "nan"), ("svm_tolerance", "inf"),
    ])
    def test_bad_typed_value_names_key(self, separable_corpus, key, value):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            parse_config_text(_config_text(separable_corpus, **{key: value}))

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_svm_max_epochs_below_one_rejected(self, separable_corpus, value):
        with pytest.raises(ConfigError, match="svm_max_epochs"):
            parse_config_text(_config_text(separable_corpus, svm_max_epochs=value))

    @pytest.mark.parametrize("key, value", [
        ("representation", "T9"), ("strategies", "E2,E7"),
    ])
    def test_typed_keys_checked_for_every_preset(self, separable_corpus, tmp_path,
                                                 key, value):
        kb = tmp_path / "kb.tsv"
        synth.write_kb_dump(synth.build_kb(), kb)
        with pytest.raises(ConfigError, match=key):
            parse_config_text(_config_text(
                separable_corpus, preset="A4", kb_dump=kb, **{key: value}))

    def test_config_dict_round_trip(self, separable_corpus):
        cfg = parse_config_text(_config_text(separable_corpus, svm_c="0.5",
                                             include_linked="true"))
        text = "".join(f"{key} = {value}\n" for key, value in config_to_dict(cfg).items())
        assert parse_config_text(text) == cfg


class TestRunExperiment:
    def test_baseline_separable_is_perfect(self, separable_corpus, tmp_path):
        import time

        cfg = parse_config_text(
            _config_text(separable_corpus, out_dir=tmp_path / "run"))
        start = time.perf_counter()
        result = run_experiment(cfg)
        elapsed = time.perf_counter() - start
        assert result.micro_f == 1.0
        assert result.macro_f == 1.0
        assert len(result.cv.fold_reports) == 4
        assert elapsed < 10.0

    def test_run_directory_contents(self, separable_corpus, tmp_path):
        out = tmp_path / "run"
        cfg = parse_config_text(_config_text(separable_corpus, out_dir=out))
        run_experiment(cfg)
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.txt", "metrics.tsv"]

    def test_model_dumps_when_requested(self, separable_corpus, tmp_path):
        out = tmp_path / "run"
        cfg = parse_config_text(_config_text(
            separable_corpus, out_dir=out, save_models="true"))
        run_experiment(cfg)
        names = sorted(p.name for p in out.iterdir())
        assert names == ["manifest.txt", "metrics.tsv",
                         "models_fold0.tsv", "models_fold1.tsv",
                         "models_fold2.tsv", "models_fold3.tsv"]

    # sha256 of each artifact of a 4-fold CV run on tests/synth.py data
    # with save_models = true, recorded when the fold features were still
    # per-document vectors and every decision value a per-document loop;
    # a refactor of features or learning must leave every byte as it was
    GOLDEN_SHA256 = {
        ("A4", "single"): {
            "metrics.tsv": "8553cf0806c843b07eeaa20410b1e1caef2032d023082979707cb0923681e8cc",
            "models_fold0.tsv": "2da3f0d77a401fed2ca563585c7a47f8e3d578913683d34690aaa0166e281300",
            "models_fold1.tsv": "0718c1068d3cf886da274f6f9a7bd22fcb06a27a7faab837812a36be8c03ec68",
            "models_fold2.tsv": "80a18acd7c93f76ba6b232159479c939f72f00e946abb0319461cf8afdccac17",
            "models_fold3.tsv": "38c17433d6dfbb34bcc95a3717e63d8d4d30e56cb3b2547d6b2062c03820bb64",
        },
        ("baseline", "multi"): {
            "metrics.tsv": "f835a47e0fd89318b17f6f24f985a54de315dbb7e21b300ad7816e583618bfe1",
            "models_fold0.tsv": "212dab00f12a1191e8344113795578889cc79eb82e4f2fa9d30927305fafa74c",
            "models_fold1.tsv": "a8b00fc4552c58610b3391eab32a0a60ad59f422ef261032d7dc320ca97c36ba",
            "models_fold2.tsv": "0d98fd65c54f00616229f61d97650b08ae8034002d7d23a666d1c78fb15d836c",
            "models_fold3.tsv": "f2be226e9bcbb55fe51978698b265b6913a32c03a3f697a1dd33d7e9481e93fb",
        },
    }

    @pytest.mark.parametrize("preset, label_mode", sorted(GOLDEN_SHA256))
    def test_cv_artifacts_match_golden_sha256(self, tmp_path, preset, label_mode):
        synth.write_corpus_tree(synth.build_docs(), tmp_path / "corpus")
        synth.write_kb_dump(synth.build_kb(), tmp_path / "kb.tsv")
        out = tmp_path / "run"
        run_experiment(parse_config_text(_config_text(
            tmp_path / "corpus", kb_dump=tmp_path / "kb.tsv", seed=7, preset=preset,
            label_mode=label_mode, save_models="true", out_dir=out)))
        found = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in out.iterdir() if p.name != "manifest.txt"}
        assert found == self.GOLDEN_SHA256[preset, label_mode]

    @pytest.mark.parametrize("preset, label_mode", sorted(GOLDEN_SHA256))
    def test_forked_training_matches_golden_sha256(self, tmp_path, forced_pool,
                                                   preset, label_mode):
        self.test_cv_artifacts_match_golden_sha256(tmp_path, preset, label_mode)

    # the same for a ModApte split run of reuters90 (multi-label) on the
    # tests/synth.py documents written as one reut2-000.sgm, recorded
    # while split runs still had their own code path
    SPLIT_GOLDEN_SHA256 = {
        "A4": {
            "metrics.tsv": "42af0c45b8f4169756abd60ebc15867ef542543609ba81e6254fa6bd4fe8416b",
            "models.tsv": "935543055c156dfed3523923f2c890dc1ed95f1a8f53387cf93db269b78898cf",
        },
        "baseline": {
            "metrics.tsv": "c3d7bface6058b228cda1fb476266ef7bc4ed673ed3e27e554a6a7054abab7f4",
            "models.tsv": "5901fd4d2b461c3f6f8c54fce8b03e6e3ff8485ccb0100d63a467b15f7d4245f",
        },
    }

    @pytest.mark.parametrize("preset", sorted(SPLIT_GOLDEN_SHA256))
    def test_split_artifacts_match_golden_sha256(self, tmp_path, preset):
        synth.write_reuters_sgml(synth.build_docs(), tmp_path / "corpus" / "reut2-000.sgm")
        synth.write_kb_dump(synth.build_kb(), tmp_path / "kb.tsv")
        out = tmp_path / "run"
        result = run_experiment(parse_config_text(
            f"dataset = reuters90\ncorpus_dir = {tmp_path / 'corpus'}\n"
            f"kb_dump = {tmp_path / 'kb.tsv'}\npreset = {preset}\nseed = 7\n"
            f"save_models = true\nout_dir = {out}\n"))
        assert result.cv is None
        assert result.manifest["eval_mode"] == "split"
        found = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in out.iterdir() if p.name != "manifest.txt"}
        assert found == self.SPLIT_GOLDEN_SHA256[preset]

    def test_split_without_split_hints_is_a_stage_error(self, separable_corpus):
        # a category tree carries no ModApte hints: both sets come out empty
        cfg = parse_config_text(_config_text(separable_corpus, eval_mode="split"))
        with pytest.raises(StageError, match="split evaluation needs train and "
                                             "test documents, got 0/0") as err:
            run_experiment(cfg)
        assert err.value.stage == "evaluate"

    def test_terms_counted_once_per_document(self, separable_corpus, monkeypatch):
        from kbcat import features

        calls = []

        def counting(doc):
            calls.append(doc)  # kept alive, so no two documents share an id
            return original(doc)

        original = features.document_terms
        monkeypatch.setattr(features, "document_terms", counting)
        run_experiment(parse_config_text(_config_text(separable_corpus)))
        assert len(calls) == 40
        assert len({id(doc) for doc in calls}) == 40

    def test_prepared_documents_are_dropped_once_counted(self, separable_corpus,
                                                         monkeypatch):
        import weakref

        from kbcat import experiment
        from kbcat.experiment import admit_documents, load_corpus, load_resources

        refs = []

        def remembering(*args):
            doc = original(*args)
            refs.append(weakref.ref(doc))
            assert sum(ref() is not None for ref in refs) <= 2
            return doc

        original = experiment.apply_preset
        monkeypatch.setattr(experiment, "apply_preset", remembering)
        cfg = parse_config_text(_config_text(separable_corpus))
        admitted = admit_documents(*load_corpus(cfg))
        counts = experiment.prepare_documents(admitted, cfg, None, load_resources(cfg))
        assert counts.shape[0] == len(refs) == 40
        assert all(ref() is None for ref in refs)

    def test_loaded_documents_are_released_once_prepared(self, separable_corpus,
                                                         monkeypatch):
        # after the prepare stage a run reads only ids, labels and split
        # hints, so no loaded document, nor its title and body, stays alive
        import weakref

        from kbcat import experiment

        refs, alive_after_prepare = [], []

        def remembering(original):
            def call(*args):
                result = original(*args)
                docs = result[0] if isinstance(result, tuple) else result
                refs.extend(weakref.ref(doc) for doc in docs)
                return result
            return call

        def preparing(*args):
            counts = prepare(*args)
            alive_after_prepare.append(sum(ref() is not None for ref in refs))
            return counts

        prepare = experiment.prepare_documents
        for name in ("load_corpus", "admit_documents"):
            monkeypatch.setattr(experiment, name, remembering(getattr(experiment, name)))
        monkeypatch.setattr(experiment, "prepare_documents", preparing)
        result = run_experiment(parse_config_text(_config_text(separable_corpus)))
        assert len(refs) == 80 and alive_after_prepare == [0]
        assert result.micro_f == 1.0

    def test_index_is_released_once_documents_are_enriched(self, separable_corpus,
                                                          tmp_path, monkeypatch):
        # nothing after enrichment reads the KB, so the index made by the
        # index stage is gone before any fold trains
        import weakref

        from kbcat import experiment

        refs, alive_at_training = [], []

        def indexing(*args):
            index = make_index(*args)
            refs.append(weakref.ref(index))
            return index

        def training(*args):
            alive_at_training.append(sum(ref() is not None for ref in refs))
            return train(*args)

        make_index, train = experiment.KbIndex, experiment.train_one_vs_rest
        monkeypatch.setattr(experiment, "KbIndex", indexing)
        monkeypatch.setattr(experiment, "train_one_vs_rest", training)
        kb = tmp_path / "kb.tsv"
        synth.write_kb_dump(synth.build_kb(), kb)
        run_experiment(parse_config_text(
            _config_text(separable_corpus, preset="A4", kb_dump=kb)))
        assert len(refs) == 1 and alive_at_training == [0] * 4

    def test_search_counters_equal_a_recount(self, tmp_path, monkeypatch):
        # the manifest's count.kbindex.* lines against searches, score()
        # calls and hits counted by wrappers around KbIndex's methods
        from kbcat.kbindex import KbIndex

        recount = {"search_calls": 0, "candidates_scored": 0, "hits": 0}

        def searching(self, query, n):
            hits = search(self, query, n)
            recount["search_calls"] += 1
            recount["hits"] += len(hits)
            return hits

        def scoring(self, query, title):
            recount["candidates_scored"] += 1
            return score(self, query, title)

        search, score = KbIndex.search, KbIndex.score
        monkeypatch.setattr(KbIndex, "search", searching)
        monkeypatch.setattr(KbIndex, "score", scoring)
        synth.write_corpus_tree(synth.build_docs(), tmp_path / "corpus")
        kb = tmp_path / "kb.tsv"
        synth.write_kb_dump(synth.build_kb(), kb)
        cfg = parse_config_text(_config_text(
            tmp_path / "corpus", preset="A4", kb_dump=kb, out_dir=tmp_path / "run"))
        manifest = run_experiment(cfg).manifest
        expected = {f"count.kbindex.{name}": str(n) for name, n in recount.items()}
        assert {k: v for k, v in manifest.items() if k.startswith("count.kbindex.")} == expected
        assert recount["candidates_scored"] >= recount["hits"] > 0
        assert recount["search_calls"] == len(synth.build_docs())
        lines = (tmp_path / "run" / "manifest.txt").read_text(encoding="utf-8")
        assert "".join(f"{k} = {v}\n" for k, v in expected.items()) in lines

    def test_reports_byte_identical_across_runs(self, separable_corpus, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            cfg = parse_config_text(_config_text(separable_corpus, out_dir=out))
            run_experiment(cfg)
        assert (out_a / "metrics.tsv").read_bytes() == (out_b / "metrics.tsv").read_bytes()

    def test_manifest_config_round_trip(self, separable_corpus, tmp_path):
        out = tmp_path / "run"
        cfg = parse_config_text(_config_text(separable_corpus, out_dir=out))
        run_experiment(cfg)
        lines = (out / "manifest.txt").read_text(encoding="utf-8").splitlines()
        manifest = dict(line.split(" = ", 1) for line in lines)
        # the config.* lines, prefix removed, are a config file for this run
        config_text = "\n".join(line[len("config."):] for line in lines
                                if line.startswith("config."))
        assert parse_config_text(config_text) == cfg
        assert manifest["toolkit_version"]
        assert any(k.startswith("checksum.") for k in manifest)
        assert any(k.startswith("timing.") for k in manifest)

    def test_manifest_memory_peaks(self, separable_corpus, request):
        pytest.importorskip("resource")
        cfg = parse_config_text(_config_text(separable_corpus))
        keys = ("memory.peak_rss_mb", "memory.workers_peak_rss_mb")
        manifest = run_experiment(cfg).manifest
        assert all(float(manifest[key]) >= 0 for key in keys)
        # the workers' high-water mark once a fold has trained in them
        request.getfixturevalue("forced_pool")
        manifest = run_experiment(cfg).manifest
        assert float(manifest["memory.workers_peak_rss_mb"]) > 0

    @pytest.mark.parametrize("epochs", ["1", "1000"])
    def test_learning_counters_sum_the_folds_models(self, tmp_path, monkeypatch,
                                                    request, epochs):
        from kbcat import experiment

        fold_models = []

        def recording(*args):
            fold_models.append(original(*args))
            return fold_models[-1]

        original = experiment.train_one_vs_rest
        monkeypatch.setattr(experiment, "train_one_vs_rest", recording)
        synth.write_corpus_tree(synth.build_docs(), tmp_path / "corpus")
        cfg = parse_config_text(_config_text(
            tmp_path / "corpus", label_mode="multi", svm_max_epochs=epochs,
            out_dir=tmp_path / "run"))
        manifest = run_experiment(cfg).manifest
        models = [m for fold in fold_models for m in fold.values()]
        expected = {
            "count.learn.binary_models": str(len(models)),
            "count.learn.epochs": str(sum(len(m.objective_history) for m in models)),
            "count.learn.steps": str(sum(m.steps for m in models)),
            "count.learn.gram_rows": str(sum(m.gram_rows for m in models)),
            "count.learn.uncertified": str(sum(not m.certified for m in models)),
        }
        assert {k: v for k, v in manifest.items() if k.startswith("count.")} == expected
        # one epoch leaves some of synth's 16 models short of the tolerance
        assert len(models) == 16
        assert (expected["count.learn.uncertified"] != "0") == (epochs == "1")
        lines = (tmp_path / "run" / "manifest.txt").read_text(encoding="utf-8")
        assert "".join(f"{k} = {v}\n" for k, v in expected.items()) in lines

        # the same counts when every fold's categories train in workers, but
        # for the Gram rows: those the workers compute are counted too, and
        # with the pool's 2-row caches they are computed again and again
        fold_models.clear()
        request.getfixturevalue("forced_pool")
        forked = run_experiment(replace(cfg, out_dir=""))
        forked_counts = {k: v for k, v in forked.manifest.items() if k.startswith("count.")}
        forked_rows = sum(m.gram_rows for fold in fold_models for m in fold.values())
        assert forked_counts.pop("count.learn.gram_rows") == str(forked_rows)
        assert forked_rows > int(expected.pop("count.learn.gram_rows"))
        assert forked_counts == expected

    def test_vocabulary_fitted_on_train_only(self, separable_corpus, monkeypatch):
        # hygiene: each fold's df counts exactly its training documents
        from collections import Counter

        from kbcat import experiment
        from kbcat.enrich import apply_preset
        from kbcat.evaluation import cv_folds, label_matrix, run_folds
        from kbcat.experiment import (admit_documents, load_corpus,
                                      load_resources, make_fold_runner,
                                      prepare_documents)
        from kbcat.features import count_terms, document_terms
        fitted = []

        def recording(counts):
            fitted.append(original(counts))
            return fitted[-1]

        original = experiment.fit_vocabulary
        monkeypatch.setattr(experiment, "fit_vocabulary", recording)
        cfg = parse_config_text(_config_text(separable_corpus))
        docs, categories = load_corpus(cfg)
        admitted = admit_documents(docs, categories)
        resources = load_resources(cfg)
        counts = prepare_documents(admitted, cfg, None, resources)
        tagged = [apply_preset(d, cfg.resolve_preset(), None, resources)
                  for d in admitted]
        labels = label_matrix([d.labels for d in admitted], categories)
        _, terms = count_terms(tagged)
        folds = cv_folds(admitted, 4, cfg.seed)
        run_folds(folds, make_fold_runner(counts, labels, categories, cfg, Counter()),
                  categories)
        for (train, _test), vocab in zip(folds, fitted, strict=True):
            train_df = Counter(t for i in train for t in set(document_terms(tagged[i])))
            assert dict(zip([terms[c] for c in vocab.columns], vocab.df.tolist())) == train_df

    def test_category_without_model_is_never_predicted(self, separable_corpus):
        # "rare" labels only a test document of a multi-label fold: it gets
        # no model, an all-False prediction column and one false negative
        from collections import Counter

        from kbcat.evaluation import accumulate, label_matrix, run_folds
        from kbcat.experiment import make_fold_runner
        from kbcat.features import count_terms
        cfg = parse_config_text(_config_text(separable_corpus, label_mode="multi",
                                             save_models="true"))
        categories = ("blue", "rare", "red")
        words = ["blue", "blue", "red", "red", "blue", "red"]
        labels = label_matrix([{w} for w in words[:4]] + [{"blue", "rare"}, {"red"}],
                              categories)
        counters = Counter()
        counts, _terms = count_terms([make_tagged([w, "sky"]) for w in words])
        runner = make_fold_runner(counts, labels, categories, cfg, counters)
        gold, pred, models = runner([0, 1, 2, 3], [4, 5])
        assert counters["learn.binary_models"] == 2
        assert list(models) == ["blue", "red"]
        assert not pred[:, 1].any()
        assert accumulate(gold, pred)[1].tolist() == [0, 0, 1]
        result = run_folds([([0, 1, 2, 3], [4, 5])], runner, categories)
        assert result.pooled.per_category["rare"] == (0.0, 0.0, 0.0)

    def test_empty_cv_fold_is_a_stage_error(self, tmp_path):
        # 3 classes of 2 documents leave folds 2-4 of 5 without test documents
        corpus = tmp_path / "corpus"
        for cls in ("a", "b", "c"):
            (corpus / cls).mkdir(parents=True)
            for i in range(2):
                (corpus / cls / str(i)).write_text(f"Subject: s\n\n{cls}\n",
                                                   encoding="utf-8")
        cfg = parse_config_text(_config_text(corpus, cv_folds=5))
        with pytest.raises(StageError, match="no test documents") as err:
            run_experiment(cfg)
        assert err.value.stage == "evaluate"

    def test_stage_error_names_stage(self, tmp_path):
        corpus = tmp_path / "empty"
        corpus.mkdir()
        cfg = parse_config_text(_config_text(corpus))
        with pytest.raises(StageError) as err:
            run_experiment(cfg)
        assert err.value.stage == "admit"


def _write_metrics(path: Path, rows: dict[str, tuple[float, ...]]) -> Path:
    """A metrics.tsv holding only the given run rows."""
    lines = ["row\tname\tmicro_p\tmicro_r\tmicro_f\tmacro_f"]
    lines += ["\t".join(["run", label, *(f"{v:.6f}" for v in values)])
              for label, values in rows.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestChecksums:
    def test_file_past_one_block_hashes_like_its_bytes(self, tmp_path):
        data = random.Random(5).randbytes((5 << 20) // 2)  # 2.5 blocks of 1 MiB
        path = tmp_path / "dump.tsv"
        path.write_bytes(data)
        assert _sha256_path(path) == hashlib.sha256(data).hexdigest()

    def test_tree_digest_pinned(self, tmp_path):
        # relative path, a NUL, the size as 8 big-endian bytes, then contents,
        # file by file in path order; the digest pins that format, so a
        # corpus keeps its manifest checksum
        (tmp_path / "sub").mkdir()
        (tmp_path / "a.txt").write_bytes(b"alpha\n")
        (tmp_path / "sub" / "b.bin").write_bytes(bytes(range(256)))
        (tmp_path / "sub" / "c").write_bytes(b"")
        assert _sha256_path(tmp_path) == (
            "8f2e9116d540c891656d3f1201df5590538bc4998a2a634f1968b62d7f4d886e")

    def test_trees_differing_only_in_where_a_name_ends_differ(self, tmp_path):
        # file "a" holding "bc" and file "ab" holding "c": the same bytes
        # when path and contents are fed with nothing between them
        (tmp_path / "one").mkdir()
        (tmp_path / "two").mkdir()
        (tmp_path / "one" / "a").write_bytes(b"bc")
        (tmp_path / "two" / "ab").write_bytes(b"c")
        assert _sha256_path(tmp_path / "one") != _sha256_path(tmp_path / "two")


class TestImprovementTable:
    def _table(self, tmp_path, baseline, run, name):
        """Improvement table of two metrics files whose mean rows carry
        (micro_f, macro_f); precision and recall equal micro_f."""
        def mean_row(micro, macro):
            return {"mean": (micro, micro, micro, macro)}
        base = _write_metrics(tmp_path / "base.tsv", mean_row(*baseline))
        runs = [(name, _write_metrics(tmp_path / "run.tsv", mean_row(*run)))]
        return improvement_table_from_files(base, runs)

    def test_reported_row_values(self, tmp_path):
        table = self._table(tmp_path, (0.868, 0.865), (0.919, 0.920), "A4")
        lines = table.strip().split("\n")
        assert lines[1].startswith("baseline\t0.868000\t0.865000\t-\t-")
        assert lines[2].split("\t")[3] == "+5.88%"
        assert lines[2].split("\t")[4] == "+6.36%"

    def test_equal_run_shows_zero(self, tmp_path):
        table = self._table(tmp_path, (0.5, 0.5), (0.5, 0.5), "same")
        assert "+0.00%\t+0.00%" in table

    def test_decline_has_minus_sign(self, tmp_path):
        table = self._table(tmp_path, (0.868, 0.865), (0.784, 0.768), "A1")
        row = table.strip().split("\n")[2].split("\t")
        assert row[3] == "-9.68%"
        assert row[4] == "-11.21%"

    def test_t_test_cells_by_hand(self, tmp_path):
        # fold micro F differences 1/8, 1/4, 1/8, 1/4 (exact in binary):
        # mean 3/16, sd 1/(8 sqrt 3), so t = (3/16) / (sd / 2) = 3 sqrt 3
        # = 5.196 on 3 degrees of freedom, whose two-tailed p is
        # 1 - (2/pi) (atan 3 + 3/10) = 0.0138; macro F falls by the same
        # differences, so its t is -5.196 with the same p
        base_folds = {f"fold{i}": (0.5, 0.5, 0.5, 0.5) for i in range(4)}
        run_folds = {f"fold{i}": (0.5, 0.5, 0.5 + d, 0.5 - d)
                     for i, d in enumerate((0.125, 0.25, 0.125, 0.25))}
        base = _write_metrics(tmp_path / "base.tsv",
                              {**base_folds, "mean": (0.5, 0.5, 0.5, 0.5)})
        run = _write_metrics(tmp_path / "run.tsv",
                             {**run_folds, "mean": (0.5, 0.5, 0.6875, 0.3125)})
        table = improvement_table_from_files(base, [("E", run)], with_t_test=True)
        assert table == (
            "run\tmicro_f\tmacro_f\tmicro_improvement\tmacro_improvement"
            "\tt_micro\tp_micro\tt_macro\tp_macro\n"
            "baseline\t0.500000\t0.500000\t-\t-\t-\t-\t-\t-\n"
            "E\t0.687500\t0.312500\t+37.50%\t-37.50%"
            "\t+5.196\t0.0138\t-5.196\t0.0138\n")


class TestReportGoldens:
    """sha256 of ``improvement.tsv`` and of ``kbcat report`` output, with
    and without ``--t-test``, on tests/synth.py runs (seed 7): a 4-fold CV
    run and a ModApte split run of reuters90, each for the baseline and
    A4. Recorded while the improvement table was built as text and the
    t-test cells appended to it afterwards."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory) -> Path:
        root = tmp_path_factory.mktemp("report_goldens")
        synth.write_corpus_tree(synth.build_docs(), root / "corpus")
        synth.write_reuters_sgml(synth.build_docs(), root / "sgml" / "reut2-000.sgm")
        synth.write_kb_dump(synth.build_kb(), root / "kb.tsv")
        corpora = {"cv": f"dataset = custom\ncorpus_dir = {root / 'corpus'}\n",
                   "split": f"dataset = reuters90\ncorpus_dir = {root / 'sgml'}\n"}
        for mode, corpus in corpora.items():
            for preset in ("baseline", "A4"):
                text = (corpus + f"kb_dump = {root / 'kb.tsv'}\npreset = {preset}\n"
                        f"seed = 7\nout_dir = {root / mode / preset}\n")
                if preset == "A4":
                    text += f"baseline_metrics = {root / mode / 'baseline' / 'metrics.tsv'}\n"
                run_experiment(parse_config_text(text))
        return root

    IMPROVEMENT_SHA256 = {
        "cv": "7fa1053e7759a509f1e49d5bc5e0947beb0ed72cba0e77a17b1c0ba7a367f3f1",
        "split": "07d55d52c9d6e6a4ef1656db145641fcea191bca10a43c9bc15ecd567dc187e6",
    }

    @pytest.mark.parametrize("mode", sorted(IMPROVEMENT_SHA256))
    def test_improvement_tsv(self, runs, mode):
        data = (runs / mode / "A4" / "improvement.tsv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == self.IMPROVEMENT_SHA256[mode]

    # keyed by (baseline mode, run mode, --t-test)
    REPORT_SHA256 = {
        ("cv", "cv", False): "7fa1053e7759a509f1e49d5bc5e0947beb0ed72cba0e77a17b1c0ba7a367f3f1",
        ("cv", "cv", True): "a487855691f57618c4ab1329955c184f30c580f886e2fad5d13f0037c041838f",
        ("split", "split", False): "07d55d52c9d6e6a4ef1656db145641fcea191bca10a43c9bc15ecd567dc187e6",
        ("split", "split", True): "1f379922f95bc838fd32b54fd624c04ebc0c4ee4b11e9f46eb98a84924b9c598",
        ("cv", "split", False): "4ca168ac1d78e139567a8d05f1c18ef39ac13a180dec9184aa45915b5b19fc9f",
        ("cv", "split", True): "f90409fc8f32589d0d96603479afaae4b0d770157280dd41cc1d7df9944438c4",
    }

    @pytest.mark.parametrize("base, run, t_test", sorted(REPORT_SHA256))
    def test_report_output(self, runs, capsys, base, run, t_test):
        argv = ["report", "--baseline", str(runs / base / "baseline" / "metrics.tsv"),
                "--runs", f"A4={runs / run / 'A4' / 'metrics.tsv'}"]
        assert main(argv + ["--t-test"] * t_test) == 0
        out = capsys.readouterr().out
        if t_test and base != run:
            # 4 CV folds against the split's one: no paired test
            assert out.endswith("\t-\t-\t-\t-\n")
        assert hashlib.sha256(out.encode()).hexdigest() == self.REPORT_SHA256[
            base, run, t_test]


class TestMetricsTsv:
    def test_round_trip_headline(self, separable_corpus, tmp_path):
        out = tmp_path / "run"
        cfg = parse_config_text(_config_text(separable_corpus, out_dir=out))
        result = run_experiment(cfg)
        parsed = parse_metrics_tsv(out / "metrics.tsv")
        micro, macro = headline_scores(parsed["runs"])
        assert micro == pytest.approx(result.micro_f, abs=1e-6)
        assert macro == pytest.approx(result.macro_f, abs=1e-6)
        assert "fold0" in parsed["runs"]
        assert "pooled" in parsed["runs"]
        assert set(parsed["categories"]) == {"ham", "spam"}

    def test_split_mode_overall_row(self):
        report = MetricReport(micro_precision=0.5, micro_recall=0.5,
                              micro_f=0.5, macro_f=0.4,
                              per_category={"a": (0.5, 0.5, 0.5)})
        text = format_metrics_tsv(run_rows(CvResult([report], report, [{}]), cv=False),
                                  report.per_category)
        assert "run\toverall\t0.500000" in text

    def test_byte_order_mark_is_not_part_of_the_header(self, separable_corpus, tmp_path):
        out = tmp_path / "run"
        run_experiment(parse_config_text(_config_text(separable_corpus, out_dir=out)))
        marked = tmp_path / "marked.tsv"
        marked.write_text((out / "metrics.tsv").read_text(encoding="utf-8"), encoding="utf-8-sig")
        assert parse_metrics_tsv(marked) == parse_metrics_tsv(out / "metrics.tsv")


class TestCli:
    def test_run_and_report(self, separable_corpus, tmp_path, capsys):
        kb = tmp_path / "kb.tsv"
        synth.write_kb_dump(synth.build_kb(), kb)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(_config_text(separable_corpus, kb_dump=kb),
                            encoding="utf-8")
        base_out = tmp_path / "base"
        assert main(["run", "--config", str(cfg_path), "--out", str(base_out)]) == 0
        assert (base_out / "metrics.tsv").exists()

        run_out = tmp_path / "a4"
        assert main(["run", "--config", str(cfg_path), "--preset", "A4",
                     "--out", str(run_out)]) == 0

        table_out = tmp_path / "improvement.tsv"
        assert main(["report",
                     "--baseline", str(base_out / "metrics.tsv"),
                     "--runs", f"A4={run_out / 'metrics.tsv'}",
                     "--out", str(table_out), "--t-test"]) == 0
        text = table_out.read_text(encoding="utf-8")
        assert text.startswith("run\tmicro_f\tmacro_f")
        assert "A4\t" in text

    def test_enrich_preview(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        synth.write_corpus_tree(synth.build_docs(), corpus)
        kb = tmp_path / "kb.tsv"
        synth.write_kb_dump(synth.build_kb(), kb)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(_config_text(corpus, kb_dump=kb, preset="A4"),
                            encoding="utf-8")
        assert main(["enrich", "preview", "--config", str(cfg_path),
                     "--doc-id", "alpha/000"]) == 0
        out = capsys.readouterr().out
        assert "alpha/000" in out
        assert "E2 titles:" in out
        assert "appended tokens:" in out

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("dataset = custom\ncorpus_dir = /nope\n",
                            encoding="utf-8")
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert "error:" in capsys.readouterr().err

    # malformed metrics files given to `report` as a run: the rows after
    # the header, and what the error line says after "error: PATH"
    BAD_METRICS = {
        "dash_in_run_row": ("run\tmean\t0.5\t-\t-\t-\n",
                            ":2: could not convert string to float: '-'"),
        "nan_metrics_cell": ("run\tmean\tnan\t0.5\t0.5\t0.5\n",
                             ":2: score 'nan' is not in [0, 1]"),
        "inf_metrics_cell": ("run\tmean\t0.5\t0.5\tinf\t0.5\n",
                             ":2: score 'inf' is not in [0, 1]"),
        "metrics_cell_above_one": ("run\tmean\t0.5\t0.5\t0.5\t1.5\n",
                                   ":2: score '1.5' is not in [0, 1]"),
        "negative_metrics_cell": ("run\tmean\t0.5\t-0.25\t0.5\t0.5\n",
                                  ":2: score '-0.25' is not in [0, 1]"),
        "category_row_without_dash": (
            "run\tmean\t0.5\t0.5\t0.5\t0.5\ncategory\tx\t0.5\t0.5\t0.5\t0.5\n",
            ":3: a category row ends in '-', got '0.5'"),
        "dash_in_category_row": (
            "run\tmean\t0.5\t0.5\t0.5\t0.5\ncategory\tx\t0.5\t-\t0.5\t-\n",
            ":3: could not convert string to float: '-'"),
        "unknown_metrics_row_kind": (
            "fold\tmean\t0.5\t0.5\t0.5\t0.5\n",
            ":2: unknown row kind 'fold', expected 'run' or 'category'"),
        "repeated_run_row": (
            "run\tfold0\t0.5\t0.5\t0.5\t0.5\n" * 2 + "run\tmean\t0.5\t0.5\t0.5\t0.5\n",
            ":3: repeated run row 'fold0'"),
        "no_headline_row": ("run\tfold0\t0.5\t0.5\t0.5\t0.5\n",
                            ": no 'mean' or 'overall' run row"),
    }

    # NAMEs given to `report --runs` that would make the table ambiguous,
    # and the start of the error line each gives
    BAD_RUN_NAMES = {
        "runs_name_empty": ([""], "error: --runs entry '="),
        "runs_name_repeated": (["A", "B", "A"], "error: --runs NAME 'A' is repeated\n"),
        "runs_name_baseline": (["baseline"],
                               "error: --runs NAME 'baseline' is the table's baseline row\n"),
        "runs_name_with_tab": (["a\tb"],
                               "error: --runs NAME 'a\\tb' contains a TAB or line break\n"),
        "runs_name_with_newline": (["a\nb"], "error: --runs NAME 'a\\nb' contains a TAB "
                                              "or line break\n"),
    }

    @pytest.mark.parametrize("case", [
        "non_numeric_config_value",
        "config_is_directory",
        "malformed_dump_enrich_preview",
        "page_rank_past_int64_run",
        "duplicate_title_run",
        "zero_f_baseline",
        "metrics_without_header",
        "non_numeric_metrics_cell",
        "unknown_doc_id_enrich_preview",
        "runs_entry_without_equals",
        "unknown_gazetteer_kind_enrich_preview",
        "unknown_gazetteer_kind_run",
        "repeated_newid_run",
        "missing_newid_run",
        *BAD_METRICS,
        *BAD_RUN_NAMES,
    ])
    def test_bad_input_is_one_error_line(self, case, separable_corpus, tmp_path,
                                         capsys):
        bad_kb = tmp_path / "bad_kb.tsv"
        bad_kb.write_text("only\tthree\tfields\n", encoding="utf-8")
        cfg_path = tmp_path / "exp.cfg"
        header = "row\tname\tmicro_p\tmicro_r\tmicro_f\tmacro_f\n"
        metrics = {"good": "run\tmean\t0.5\t0.5\t0.5\t0.5\n",
                   "zero": "run\tmean\t0.0\t0.0\t0.0\t0.0\n",
                   "text": "run\tmean\t0.5\tabc\t0.5\t0.5\n"}
        metrics.update({case: rows for case, (rows, _) in self.BAD_METRICS.items()})
        for name, row in metrics.items():
            (tmp_path / f"{name}.tsv").write_text(header + row, encoding="utf-8")

        def report(baseline: str, run: str) -> list[str]:
            return ["report", "--baseline", str(tmp_path / f"{baseline}.tsv"),
                    "--runs", f"A4={tmp_path / f'{run}.tsv'}"]

        message = "error: "
        if case == "non_numeric_config_value":
            cfg_path.write_text(_config_text(separable_corpus, k="abc"),
                                encoding="utf-8")
            argv = ["run", "--config", str(cfg_path)]
        elif case == "config_is_directory":
            argv = ["run", "--config", str(tmp_path)]
        elif case == "malformed_dump_enrich_preview":
            cfg_path.write_text(
                _config_text(separable_corpus, preset="A4", kb_dump=bad_kb),
                encoding="utf-8")
            argv = ["enrich", "preview", "--config", str(cfg_path),
                    "--doc-id", "spam/000"]
        elif case == "page_rank_past_int64_run":
            bad_kb.write_text("t\t9223372036854775808\t\t\t\t\tc\n", encoding="utf-8")
            cfg_path.write_text(
                _config_text(separable_corpus, preset="A4", kb_dump=bad_kb),
                encoding="utf-8")
            argv = ["run", "--config", str(cfg_path)]
            message = (f"error: stage 'index' failed: {bad_kb}:1: page rank "
                       f"9223372036854775808 is out of range 0..2**63-1\n")
        elif case == "duplicate_title_run":
            bad_kb.write_text("X\t1\t\t\t\t\tc\nY\t1\t\t\t\t\tc\nX\t2\t\t\t\t\td\n",
                              encoding="utf-8")
            cfg_path.write_text(
                _config_text(separable_corpus, preset="A4", kb_dump=bad_kb),
                encoding="utf-8")
            argv = ["run", "--config", str(cfg_path)]
            message = (f"error: stage 'index' failed: {bad_kb}:3: duplicate title 'X' "
                       f"(first on line 1)\n")
        elif case == "zero_f_baseline":
            argv = report("zero", "good")
            message = f"error: {tmp_path / 'zero.tsv'}: a baseline's micro_f and macro_f"
        elif case == "metrics_without_header":
            # without the header check its first row would be skipped unread
            (tmp_path / "headless.tsv").write_text(metrics["good"], encoding="utf-8")
            argv = report("good", "headless")
            message = (f"error: {tmp_path / 'headless.tsv'}:1: expected the header "
                       f"line {header.rstrip()!r}, got 'run\\tmean\\t0.5")
        elif case == "non_numeric_metrics_cell":
            argv = report("good", "text")
        elif case in self.BAD_METRICS:
            argv = report("good", case)
            message = f"error: {tmp_path / f'{case}.tsv'}{self.BAD_METRICS[case][1]}\n"
        elif case == "unknown_doc_id_enrich_preview":
            cfg_path.write_text(_config_text(separable_corpus), encoding="utf-8")
            argv = ["enrich", "preview", "--config", str(cfg_path),
                    "--doc-id", "ghost/999"]
            message = "error: document 'ghost/999' not found"
        elif case == "runs_entry_without_equals":
            argv = report("good", "good")[:-1] + ["foo"]
            message = "error: --runs entries look like NAME=PATH, got 'foo'"
        elif case in self.BAD_RUN_NAMES:
            names, message = self.BAD_RUN_NAMES[case]
            argv = report("good", "good")[:-1] + [f"{name}={tmp_path / 'good.tsv'}"
                                                  for name in names]
        elif case.endswith("newid_run"):
            # documents sharing an id would collapse into one prepared document
            sgm = tmp_path / "reuters" / "reut2-000.sgm"
            synth.write_reuters_sgml(synth.build_docs(), sgm)
            # an element whose NEWID and OLDID are both empty gets the id ''
            doc_id = "7" if case == "repeated_newid_run" else ""
            text = sgm.read_text(encoding="latin-1")
            sgm.write_text(re.sub(r'NEWID="\d+"', f'NEWID="{doc_id}"', text),
                           encoding="latin-1")
            cfg_path.write_text(f"dataset = reuters90\ncorpus_dir = {sgm.parent}\n",
                                encoding="utf-8")
            argv = ["run", "--config", str(cfg_path)]
            message = f"error: stage 'admit' failed: duplicate document id {doc_id!r}\n"
        else:
            gazetteer = tmp_path / "gazetteer.tsv"
            gazetteer.write_text("Reno\tPERSON\nFido\tANIMAL\n", encoding="utf-8")
            # T2 tags entities, so it reads the gazetteer; no KB needed
            cfg_path.write_text(_config_text(separable_corpus, preset="custom",
                                             representation="T2", gazetteer=gazetteer),
                                encoding="utf-8")
            bad_kind = f"{gazetteer.resolve()}:2: unknown entity kind 'ANIMAL'"
            if case.endswith("_run"):
                argv = ["run", "--config", str(cfg_path)]
                message = f"error: stage 'resources' failed: {bad_kind}"
            else:
                argv = ["enrich", "preview", "--config", str(cfg_path),
                        "--doc-id", "spam/000"]
                message = f"error: {bad_kind}"

        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1, err
        assert "Traceback" not in err

    def test_worker_error_is_one_error_line(self, separable_corpus, tmp_path,
                                            forced_pool, monkeypatch, capsys):
        import os

        from kbcat import learn

        parent = os.getpid()

        def failing(X, y, cfg=None, rows=None):
            if os.getpid() == parent:
                return original(X, y, cfg, rows)
            raise ValueError("trainer failed in a worker")

        original = learn.train_binary_svm

        monkeypatch.setattr(learn, "train_binary_svm", failing)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(_config_text(separable_corpus), encoding="utf-8")
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == ("error: stage 'evaluate' failed: pipeline "
                                           "failed in fold 0: trainer failed in a worker\n")

    def test_preset_override_is_validated(self, separable_corpus, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(_config_text(separable_corpus), encoding="utf-8")
        assert main(["run", "--config", str(cfg_path), "--preset", "A4"]) == 1
        err = capsys.readouterr().err
        assert err == "error: preset 'A4' needs a kb_dump path\n"

    def test_unknown_doc_id_exits_nonzero(self, tmp_path, separable_corpus, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(_config_text(separable_corpus), encoding="utf-8")
        assert main(["enrich", "preview", "--config", str(cfg_path),
                     "--doc-id", "ghost/999"]) == 1
