"""Vocabulary fitting and TF-IDF vectorization."""

import copy
import math
import random

import pytest

from conftest import make_tagged
from kbcat.features import (
    document_terms,
    fit_vocabulary,
    vectorize,
)
from kbcat.textproc import EntityTag, Representation, TaggedDocument, Token


def _tagged_with_injection(original: list[str], injected: list[str]):
    tokens = [(Token(s, i), EntityTag.NONE) for i, s in enumerate(original)]
    tokens += [
        (Token(s, len(original) + i, injected=True), EntityTag.NONE)
        for i, s in enumerate(injected)
    ]
    return TaggedDocument(id="d", tokens=tokens, labels=set(),
                          representation=Representation.T1)


class TestDocumentTerms:
    def test_original_tokens_lowercased_and_stemmed(self):
        doc = make_tagged(["Connections", "Heart"])
        assert document_terms(doc) == ["connect", "heart"]

    def test_injected_tokens_lowercased_only(self):
        doc = _tagged_with_injection([], ["Kaiser_Permanente", "Connections"])
        assert document_terms(doc) == ["kaiser_permanente", "connections"]


class TestFitVocabulary:
    def test_counts(self):
        docs = [make_tagged(["a", "b"]), make_tagged(["a"])]
        vocab = fit_vocabulary(docs)
        assert len(vocab) == 2
        assert vocab.df["a"] == 2
        assert vocab.df["b"] == 1
        assert vocab.n_docs == 2

    def test_df_counts_documents_not_occurrences(self):
        vocab = fit_vocabulary([make_tagged(["a", "a", "a"])])
        assert vocab.df["a"] == 1

    def test_injected_title_becomes_lowercase_unstemmed_term(self):
        docs = [_tagged_with_injection(["report"], ["Kaiser_Permanente"])]
        vocab = fit_vocabulary(docs)
        assert "kaiser_permanente" in vocab.index

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            fit_vocabulary([])

    def test_indices_dense(self):
        vocab = fit_vocabulary([make_tagged(["b", "a", "c"])])
        assert sorted(vocab.index.values()) == [0, 1, 2]


class TestVectorize:
    def _vocab(self):
        return fit_vocabulary([make_tagged(["a", "b"]), make_tagged(["a"])])

    def test_single_term_normalizes_to_one(self):
        x = vectorize(make_tagged(["a"]), self._vocab())
        assert x.indices == (self._vocab().index["a"],)
        assert x.values == (1.0,)

    def test_hand_computed_weights(self):
        # N=2: idf(a) = ln(3/3)+1 = 1, idf(b) = ln(3/2)+1 = 1.4055
        x = vectorize(make_tagged(["a", "b"]), self._vocab())
        assert x.values[0] == pytest.approx(0.5797, abs=1e-3)
        assert x.values[1] == pytest.approx(0.8149, abs=1e-3)
        pre_b = math.log(3 / 2) + 1
        assert x.values[1] / x.values[0] == pytest.approx(pre_b, rel=1e-9)

    def test_oov_only_doc_is_zero_vector(self):
        x = vectorize(make_tagged(["zzz"]), self._vocab())
        assert x.indices == () and x.values == ()

    def test_norm_is_one_on_random_docs(self):
        rng = random.Random(4)
        words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
        docs = [make_tagged([rng.choice(words) for _ in range(rng.randint(1, 12))])
                for _ in range(30)]
        vocab = fit_vocabulary(docs)
        for doc in docs:
            x = vectorize(doc, vocab)
            assert abs(x.norm() - 1.0) < 1e-9
            assert list(x.indices) == sorted(set(x.indices))

    def test_duplicating_every_token_leaves_vector_unchanged(self):
        vocab = self._vocab()
        once = vectorize(make_tagged(["a", "b"]), vocab)
        twice = vectorize(make_tagged(["a", "b", "a", "b"]), vocab)
        assert once.indices == twice.indices
        for u, v in zip(once.values, twice.values):
            assert u == pytest.approx(v, rel=1e-12)

    def test_vectorizing_never_mutates_vocabulary(self):
        vocab = self._vocab()
        snapshot = copy.deepcopy(vocab)
        vectorize(make_tagged(["a", "zzz", "new_term"]), vocab)
        assert vocab == snapshot
