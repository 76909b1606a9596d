"""Term counting, vocabulary fitting and TF-IDF vectorization."""

import copy
import math
import random
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_tagged
from kbcat.features import (
    count_terms,
    document_terms,
    fit_vocabulary,
    vectorize,
)


def _tagged_with_injection(original: list[str], injected: list[str]):
    return replace(make_tagged(original), injected=injected)


class TestDocumentTerms:
    def test_original_tokens_lowercased_and_stemmed(self):
        doc = make_tagged(["Connections", "Heart"])
        assert document_terms(doc) == ["connect", "heart"]

    def test_injected_tokens_lowercased_only(self):
        doc = _tagged_with_injection([], ["Kaiser_Permanente", "Connections"])
        assert document_terms(doc) == ["kaiser_permanente", "connections"]

    def test_words_then_injected_terms(self):
        doc = _tagged_with_injection(["Connections"], ["Connections"])
        assert document_terms(doc) == ["connect", "connections"]


def _df(docs) -> dict[str, int]:
    """Document frequency per term of a vocabulary fitted on every doc."""
    counts, terms = count_terms(docs)
    vocab = fit_vocabulary(counts)
    return {terms[c]: df for c, df in zip(vocab.columns.tolist(), vocab.df.tolist())}


def _vectorize(train, docs):
    """Fit on ``train`` and vectorize ``docs``, both rows of one count
    matrix, the way a fold does."""
    counts, _ = count_terms(train + docs)
    vocab = fit_vocabulary(counts[:len(train)])
    return vectorize(counts[len(train):], vocab)


class TestCountTerms:
    def test_rows_in_input_order_columns_in_term_order(self):
        counts, terms = count_terms([make_tagged(["b", "a", "b"]), make_tagged([]),
                                     make_tagged(["Connections", "c"])])
        assert terms == ["a", "b", "c", "connect"]
        assert counts.toarray().tolist() == [[1, 2, 0, 0], [0, 0, 0, 0], [0, 0, 1, 1]]
        assert counts.dtype == np.int32 and counts.has_sorted_indices

    def test_entries_own_exact_size_buffers(self):
        # 5 tokens, 4 entries: summing the repeat keeps most entries, and
        # the arrays must not hold on to the token-sized buffers
        counts, _terms = count_terms([make_tagged(["a", "b", "a"]), make_tagged(["c", "d"])])
        assert counts.nnz == 4
        for array in (counts.indices, counts.data):
            assert array.base is None and array.size == counts.nnz

    def test_generator_counts_like_its_list(self):
        words = [["b", "a", "b"], [], ["Connections", "c", "a"], ["c", "c"]]
        listed, listed_terms = count_terms([make_tagged(w) for w in words])
        streamed, streamed_terms = count_terms(make_tagged(w) for w in words)
        assert streamed.shape == listed.shape == (4, 4)
        for name in ("indptr", "indices", "data"):
            assert getattr(streamed, name).tolist() == getattr(listed, name).tolist()
        assert streamed_terms == listed_terms

    def test_no_documents(self):
        counts, terms = count_terms([])
        assert counts.shape == (0, 0) and terms == []

    @pytest.mark.parametrize("length", [127, 128, 32_767, 32_768])
    @pytest.mark.parametrize("mixed", [False, True], ids=["one-term", "mixed"])
    def test_counts_exact_at_the_type_boundaries(self, length, mixed):
        # the ones summed are int8 up to 127 terms in the longest document,
        # int16 up to 32,767, else int32; the counts come out as int32
        words = ["x" if i % 4 or not mixed else f"w{i % 7}" for i in range(length)]
        docs = [make_tagged(words), make_tagged(["x", "y", "x"])]
        counts, terms = count_terms(docs)
        for row, doc in zip(counts.toarray().tolist(), docs):
            assert {terms[c]: n for c, n in enumerate(row) if n} == Counter(document_terms(doc))
        assert counts.dtype == np.int32
        for array in (counts.indices, counts.data):
            assert array.base is None and array.size == counts.nnz

    def test_peak_per_token(self):
        # TestNarrowCounts' corpus in test_kbindex as documents: 1,000 of
        # 40-120 words drawn Zipf from 500 (int8 ones), about 0.6 entries a
        # token. Summing each row's repeats before the relabel to sorted
        # columns peaks at 8.7 B a token. Relabelling every token first
        # peaked at 9.35 with the ones made after it and 10.3 with them made
        # before; int32 ones would give 11.7. The bound leaves 1.3 B a token
        # above and 1.7 below
        rng = random.Random(20261020)
        vocab = [f"w{i}" for i in range(500)]
        weights = [1 / (i + 1) for i in range(500)]
        docs = [make_tagged(rng.choices(vocab, weights, k=rng.randint(40, 120)))
                for _ in range(1000)]
        count_terms(docs)  # the stems are cached before the trace
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            counts, _terms = count_terms(docs)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        tokens = int(counts.sum())
        assert tokens >= 50_000 and max(len(d.tokens) for d in docs) < 128
        assert peak / tokens < 10.0


class TestFitVocabulary:
    def test_counts(self):
        counts, _ = count_terms([make_tagged(["a", "b"]), make_tagged(["a"])])
        vocab = fit_vocabulary(counts)
        assert len(vocab) == 2
        assert _df([make_tagged(["a", "b"]), make_tagged(["a"])]) == {"a": 2, "b": 1}

    def test_df_counts_documents_not_occurrences(self):
        assert _df([make_tagged(["a", "a", "a"])]) == {"a": 1}

    def test_injected_title_becomes_lowercase_unstemmed_term(self):
        docs = [_tagged_with_injection(["report"], ["Kaiser_Permanente"])]
        assert "kaiser_permanente" in _df(docs)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            fit_vocabulary(count_terms([])[0])

    def test_indices_dense(self):
        # fitted on rows 0 and 2, the vocabulary skips column "c" of row 1,
        # and vectorized rows index its terms densely in sorted order
        counts, terms = count_terms([make_tagged(["d", "a"]), make_tagged(["c"]),
                                     make_tagged(["b", "a"])])
        vocab = fit_vocabulary(counts[[0, 2]])
        assert [terms[c] for c in vocab.columns] == ["a", "b", "d"]
        X = vectorize(counts, vocab)
        assert X.shape == (3, 3)
        assert [_row(X, r)[0] for r in range(3)] == [[0, 2], [], [0, 1]]


def _row(X, r: int) -> tuple[list[int], list[float]]:
    start, end = X.indptr[r], X.indptr[r + 1]
    return X.indices[start:end].tolist(), X.data[start:end].tolist()


TRAIN = [make_tagged(["a", "b"]), make_tagged(["a"])]


class TestVectorize:
    def test_single_term_normalizes_to_one(self):
        X = _vectorize(TRAIN, [make_tagged(["a"])])
        assert X.shape == (1, 2)
        assert _row(X, 0) == ([0], [1.0])

    def test_hand_computed_weights(self):
        # N=2: idf(a) = ln(3/3)+1 = 1, idf(b) = ln(3/2)+1 = 1.4055
        _, values = _row(_vectorize(TRAIN, [make_tagged(["a", "b"])]), 0)
        assert values[0] == pytest.approx(0.5797, abs=1e-3)
        assert values[1] == pytest.approx(0.8149, abs=1e-3)
        pre_b = math.log(3 / 2) + 1
        assert values[1] / values[0] == pytest.approx(pre_b, rel=1e-9)

    def test_oov_only_doc_is_zero_vector(self):
        X = _vectorize(TRAIN, [make_tagged(["zzz"])])
        assert X.shape == (1, 2) and X.nnz == 0

    def test_norm_is_one_on_random_docs(self):
        rng = random.Random(4)
        words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
        docs = [make_tagged([rng.choice(words) for _ in range(rng.randint(1, 12))])
                for _ in range(30)]
        counts, _ = count_terms(docs)
        vocab = fit_vocabulary(counts)
        X = vectorize(counts, vocab)
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
        counts, _ = count_terms(docs)
        vocab = fit_vocabulary(counts[:15])
        X = vectorize(counts, vocab)
        for r in range(len(docs)):
            alone = vectorize(counts[[r]], vocab)
            assert _row(X, r) == _row(alone, 0)  # bitwise: == on floats
        assert vectorize(counts[::-1], vocab)[0].toarray().tolist() == \
            X[24].toarray().tolist()
        assert vectorize(counts[:0], vocab).shape == (0, len(vocab))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rows_equal_per_document_reference(self, seed):
        # bitwise (==) against the per-document definition: df over the
        # training documents, idf by math.log, weights in term order and
        # the norm a sequential sum of squares (np.sum would differ)
        rng = random.Random(seed)
        words = [f"w{i:02d}" for i in range(60)]
        docs = [make_tagged([rng.choice(words) for _ in range(rng.randint(0, 80))])
                for _ in range(40)]
        counts, _ = count_terms(docs)
        X = vectorize(counts, fit_vocabulary(counts[:30]))
        df = Counter(t for doc in docs[:30] for t in set(document_terms(doc)))
        index = {t: i for i, t in enumerate(sorted(df))}
        for r, doc in enumerate(docs):
            pairs = sorted((index[t], n * (math.log(31 / (1 + df[t])) + 1.0))
                           for t, n in Counter(document_terms(doc)).items() if t in df)
            norm = math.sqrt(sum(w * w for _, w in pairs))
            assert _row(X, r) == ([i for i, _ in pairs], [w / norm for _, w in pairs])

    def test_duplicating_every_token_leaves_vector_unchanged(self):
        X = _vectorize(TRAIN, [make_tagged(["a", "b"]), make_tagged(["a", "b", "a", "b"])])
        assert _row(X, 0)[0] == _row(X, 1)[0]
        for u, v in zip(_row(X, 0)[1], _row(X, 1)[1]):
            assert u == pytest.approx(v, rel=1e-12)

    def test_vectorizing_never_mutates_vocabulary(self):
        counts, _ = count_terms(TRAIN + [make_tagged(["a", "zzz", "new_term"]),
                                         make_tagged(["b"])])
        vocab = fit_vocabulary(counts[:2])
        snapshot, before = copy.deepcopy(vocab), counts.copy()
        vectorize(counts, vocab)
        for field in ("columns", "df", "idf"):
            assert np.array_equal(getattr(vocab, field), getattr(snapshot, field))
        assert (counts != before).nnz == 0
