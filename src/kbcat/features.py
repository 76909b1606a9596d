"""Term counting, vocabulary fitting and L2-normalized TF-IDF vectorization.

A document's words are lowercased and stemmed here; its enrichment-injected
concept terms are lowercased but kept unstemmed so multi-word concepts
like ``Kaiser_Permanente`` survive as single features.

``count_terms`` processes each document of a run once, into one CSR matrix
of term counts in sorted-term column order; a fold's training and test
sets are row selections of it. ``vectorize`` weights rows into the CSR
matrix that ``learn`` trains on and predicts from as it is.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .porter import porter_stem
from .textproc import TaggedDocument

_stem = lru_cache(maxsize=1 << 16)(porter_stem)


@dataclass
class Vocabulary:
    columns: np.ndarray  # count-matrix columns in the training rows, ascending
    df: np.ndarray  # documents per column among the training rows
    idf: np.ndarray

    def __len__(self) -> int:
        return len(self.columns)


def document_terms(doc: TaggedDocument) -> list[str]:
    """Processed feature terms of a represented (possibly enriched) document:
    its stemmed words, then its injected terms."""
    return [_stem(w.lower()) for w in doc.tokens] + [t.lower() for t in doc.injected]


def count_terms(docs: list[TaggedDocument]) -> tuple[sp.csr_matrix, list[str]]:
    """Term counts of every document, one row per document in input order,
    and the sorted terms that name the columns. Each document's term ids
    are laid end to end in an int32 array, so no per-term object outlives
    its document; summing the repeats of a row of ones gives the counts."""
    ids: defaultdict[str, int] = defaultdict(itertools.count().__next__)
    term_ids, ends = array("i"), array("q", [0])
    for doc in docs:
        term_ids.extend(map(ids.__getitem__, document_terms(doc)))
        ends.append(len(term_ids))
    terms = sorted(ids)
    column = np.empty(len(ids), dtype=np.int32)  # term id -> sorted position
    column[[ids[term] for term in terms]] = np.arange(len(terms), dtype=np.int32)
    tokens = column[np.frombuffer(term_ids, np.int32)]
    matrix = sp.csr_matrix((np.ones(len(tokens), dtype=np.int32), tokens, ends),
                           shape=(len(docs), len(ids)))
    matrix.sum_duplicates()
    return matrix, terms


def fit_vocabulary(counts: sp.csr_matrix) -> Vocabulary:
    """The columns with nonzero document frequency in the training rows'
    term counts, in sorted-term order, and their smoothed idf. Fit on
    training rows only; vectorizing test rows leaves the result untouched."""
    n_docs = counts.shape[0]
    if not n_docs:
        raise ValueError("cannot fit a vocabulary on an empty corpus")
    df = np.bincount(counts.indices, minlength=counts.shape[1])
    columns = np.flatnonzero(df)
    # smoothed variant: never zero, never divides by zero
    idf = [math.log((1 + n_docs) / (1 + d)) + 1.0 for d in df[columns].tolist()]
    return Vocabulary(columns=columns, df=df[columns], idf=np.array(idf))


def vectorize(counts: sp.csr_matrix, vocab: Vocabulary) -> sp.csr_matrix:
    """L2-normalized TF-IDF rows over the vocabulary, one per row of
    ``counts`` and ``len(vocab)`` columns wide; other terms are dropped. Each
    norm is a sequential Python sum in column order, the float a per-document
    loop gives (np.sum is pairwise and can differ in the last bit)."""
    x = counts[:, vocab.columns].astype(np.float64)  # ascending columns stay sorted
    x.data *= vocab.idf[x.indices]
    squares = x.data * x.data
    bounds = x.indptr.tolist()
    norms = [math.sqrt(sum(squares[a:b].tolist())) for a, b in zip(bounds, bounds[1:])]
    x.data /= np.repeat(norms, np.diff(x.indptr))
    return x
