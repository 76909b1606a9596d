"""Vocabulary fitting and L2-normalized TF-IDF vectorization.

Original-text tokens are lowercased and stemmed here; enrichment-injected
concept tokens are lowercased but kept unstemmed so multi-word concepts
like ``Kaiser_Permanente`` survive as single features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .porter import porter_stem
from .textproc import TaggedDocument

_stem = lru_cache(maxsize=1 << 16)(porter_stem)


@dataclass(frozen=True)
class SparseVector:
    indices: tuple[int, ...]  # strictly increasing
    values: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.indices)

    def norm(self) -> float:
        return math.sqrt(sum(v * v for v in self.values))


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


def vectorize(doc: TaggedDocument, vocab: Vocabulary) -> SparseVector:
    """TF-IDF vector over the fitted vocabulary, L2-normalized.

    Out-of-vocabulary terms are dropped; a document with no in-vocabulary
    terms becomes the zero vector.
    """
    counts: dict[str, int] = {}
    for term in document_terms(doc):
        if term in vocab.index:
            counts[term] = counts.get(term, 0) + 1
    if not counts:
        return SparseVector(indices=(), values=())
    pairs = sorted((vocab.index[t], n * idf(vocab, t)) for t, n in counts.items())
    norm = math.sqrt(sum(w * w for _, w in pairs))
    return SparseVector(
        indices=tuple(i for i, _ in pairs),
        values=tuple(w / norm for _, w in pairs),
    )
