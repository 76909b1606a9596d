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


def _row(X, r: int) -> tuple[list[int], list[float]]:
    start, end = X.indptr[r], X.indptr[r + 1]
    return X.indices[start:end].tolist(), X.data[start:end].tolist()


class TestVectorize:
    def _vocab(self):
        return fit_vocabulary([make_tagged(["a", "b"]), make_tagged(["a"])])

    def test_single_term_normalizes_to_one(self):
        X = vectorize([make_tagged(["a"])], self._vocab())
        assert X.shape == (1, 2)
        assert _row(X, 0) == ([self._vocab().index["a"]], [1.0])

    def test_hand_computed_weights(self):
        # N=2: idf(a) = ln(3/3)+1 = 1, idf(b) = ln(3/2)+1 = 1.4055
        _, values = _row(vectorize([make_tagged(["a", "b"])], self._vocab()), 0)
        assert values[0] == pytest.approx(0.5797, abs=1e-3)
        assert values[1] == pytest.approx(0.8149, abs=1e-3)
        pre_b = math.log(3 / 2) + 1
        assert values[1] / values[0] == pytest.approx(pre_b, rel=1e-9)

    def test_oov_only_doc_is_zero_vector(self):
        X = vectorize([make_tagged(["zzz"])], self._vocab())
        assert X.shape == (1, 2) and X.nnz == 0

    def test_norm_is_one_on_random_docs(self):
        rng = random.Random(4)
        words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
        docs = [make_tagged([rng.choice(words) for _ in range(rng.randint(1, 12))])
                for _ in range(30)]
        vocab = fit_vocabulary(docs)
        X = vectorize(docs, vocab)
        assert X.shape == (30, len(vocab))
        for r in range(30):
            indices, values = _row(X, r)
            assert abs(math.sqrt(sum(v * v for v in values)) - 1.0) < 1e-9
            assert indices == sorted(set(indices))

    def test_rows_follow_input_order_and_match_single_docs(self):
        rng = random.Random(5)
        words = ["alpha", "beta", "gamma", "delta", "zzz"]
        docs = [make_tagged([rng.choice(words) for _ in range(rng.randint(0, 9))])
                for _ in range(25)]
        vocab = fit_vocabulary(docs[:15])
        X = vectorize(docs, vocab)
        for r, doc in enumerate(docs):
            alone = vectorize([doc], vocab)
            assert _row(X, r) == _row(alone, 0)  # bitwise: == on floats
        assert vectorize(list(reversed(docs)), vocab)[0].toarray().tolist() == \
            X[24].toarray().tolist()
        assert vectorize([], vocab).shape == (0, len(vocab))

    def test_duplicating_every_token_leaves_vector_unchanged(self):
        vocab = self._vocab()
        once = vectorize([make_tagged(["a", "b"])], vocab)
        twice = vectorize([make_tagged(["a", "b", "a", "b"])], vocab)
        assert _row(once, 0)[0] == _row(twice, 0)[0]
        for u, v in zip(_row(once, 0)[1], _row(twice, 0)[1]):
            assert u == pytest.approx(v, rel=1e-12)

    def test_vectorizing_never_mutates_vocabulary(self):
        vocab = self._vocab()
        snapshot = copy.deepcopy(vocab)
        vectorize([make_tagged(["a", "zzz", "new_term"]), make_tagged(["b"])], vocab)
        assert vocab == snapshot
