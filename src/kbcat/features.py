"""Term counting, vocabulary fitting and L2-normalized TF-IDF vectorization.

A document's words are lowercased and stemmed here; its enrichment-injected
concept terms are lowercased but kept unstemmed so multi-word concepts
like ``Kaiser_Permanente`` survive as single features.

``count_rows``, the one term-count builder, makes both the documents'
term counts and each knowledge-base field's postings (``kbindex``).
``count_terms`` consumes a run's documents as an iterable, one at a time,
into one CSR matrix of term counts in sorted-term column order; a fold's
training and test sets are row selections of it. ``vectorize`` weights
rows into the CSR matrix that ``learn`` trains on and predicts from as it is.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections import defaultdict
from collections.abc import Iterable, Sequence
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


def count_rows(rows: Iterable[Sequence[str]]) -> tuple[sp.csr_matrix, dict[str, int]]:
    """The rows' term counts, unsummed, read one term list at a time: a CSR
    matrix with a one per term occurrence, rows in input order and columns
    in first-seen term order, and the term -> column map. No per-term
    object outlives its row: the ids are laid end to end in an int32 array,
    which the matrix's indices view. The ones are of the narrowest signed
    type that holds the longest row's length (int8, int16, else int32), in
    which a row's repeats of a term sum exactly."""
    columns: defaultdict[str, int] = defaultdict(itertools.count().__next__)
    term_ids, ends = array("i"), array("q", [0])
    for row in rows:
        if row:  # extending by an empty map still costs a call per row
            term_ids.extend(map(columns.__getitem__, row))
        ends.append(len(term_ids))
    columns.default_factory = None  # the term -> column map is complete
    longest = np.diff(ends).max(initial=0)
    dtype = next((t for t in (np.int8, np.int16) if longest <= np.iinfo(t).max), np.int32)
    return sp.csr_matrix((np.ones(len(term_ids), dtype), np.frombuffer(term_ids, np.int32), ends),
                         shape=(len(ends) - 1, len(columns))), columns


def count_terms(docs: Iterable[TaggedDocument]) -> tuple[sp.csr_matrix, list[str]]:
    """Term counts of the documents, read one at a time (a generator's can be
    dropped once counted), a row each in input order, and the sorted terms
    naming the columns: ``count_rows`` of their ``document_terms``, each
    row's repeats summed and the columns relabelled to sorted-term order.
    The counts come out as int32."""
    matrix, columns = count_rows(document_terms(doc) for doc in docs)
    # summing before the relabel makes it, and the copy of the ids it
    # makes, the size of the entries, not of the tokens
    matrix.sum_duplicates()
    terms = sorted(columns)
    sorted_column = np.empty(len(terms), dtype=np.int32)  # first-seen -> sorted
    sorted_column[[columns[term] for term in terms]] = np.arange(len(terms), dtype=np.int32)
    matrix.indices = sorted_column[matrix.indices]  # frees the token-sized ids
    matrix.has_sorted_indices = False
    matrix.sort_indices()
    matrix.data = matrix.data.astype(np.int32)
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
