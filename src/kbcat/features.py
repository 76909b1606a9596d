"""Vocabulary fitting and L2-normalized TF-IDF vectorization.

Original-text tokens are lowercased and stemmed here; enrichment-injected
concept tokens are lowercased but kept unstemmed so multi-word concepts
like ``Kaiser_Permanente`` survive as single features.

``vectorize`` turns a list of documents into one CSR matrix, which
``learn`` trains on and predicts from as it is.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import scipy.sparse as sp

from .porter import porter_stem
from .textproc import TaggedDocument

_stem = lru_cache(maxsize=1 << 16)(porter_stem)


@dataclass(frozen=True)
class SparseVector:  # a hand-made row: train_binary_svm takes a list of them
    indices: tuple[int, ...]  # strictly increasing
    values: tuple[float, ...]


@dataclass
class Vocabulary:
    index: dict[str, int]
    df: dict[str, int]
    n_docs: int

    def __len__(self) -> int:
        return len(self.index)


def document_terms(doc: TaggedDocument) -> list[str]:
    """Processed feature terms of a represented (possibly enriched) document."""
    terms = []
    for token, _tag in doc.tokens:
        lower = token.surface.lower()
        terms.append(lower if token.injected else _stem(lower))
    return terms


def fit_vocabulary(train_docs: list[TaggedDocument]) -> Vocabulary:
    """Assign dense indices to every processed term of the training set.

    Document frequency counts each document once per distinct term. Fit on
    training documents only; test documents are vectorized against the
    result without touching it.
    """
    if not train_docs:
        raise ValueError("cannot fit a vocabulary on an empty corpus")
    df: dict[str, int] = {}
    for doc in train_docs:
        for term in set(document_terms(doc)):
            df[term] = df.get(term, 0) + 1
    index = {term: i for i, term in enumerate(sorted(df))}
    return Vocabulary(index=index, df=df, n_docs=len(train_docs))


def idf(vocab: Vocabulary, term: str) -> float:
    # smoothed variant: never zero, never divides by zero
    return math.log((1 + vocab.n_docs) / (1 + vocab.df.get(term, 0))) + 1.0


def vectorize(docs: list[TaggedDocument], vocab: Vocabulary) -> sp.csr_matrix:
    """TF-IDF rows over the fitted vocabulary, each L2-normalized, one per
    document in input order; the matrix is ``len(vocab)`` columns wide.

    Out-of-vocabulary terms are dropped; a document with no in-vocabulary
    terms becomes an empty row. Each row's norm is a Python sum over its
    entries in column order, so every value is the same float whatever
    the other rows hold.
    """
    indptr, indices, data = [0], [], []
    for doc in docs:
        counts = Counter(t for t in document_terms(doc) if t in vocab.index)
        pairs = sorted((vocab.index[t], n * idf(vocab, t)) for t, n in counts.items())
        norm = math.sqrt(sum(w * w for _, w in pairs))
        indices.extend(i for i, _ in pairs)
        data.extend(w / norm for _, w in pairs)
        indptr.append(len(indices))
    return sp.csr_matrix((data, indices, indptr), shape=(len(docs), len(vocab)))
