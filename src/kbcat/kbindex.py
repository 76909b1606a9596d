"""Fielded inverted index over knowledge-base records.

Records carry a title, redirects, entity types, categories, linked
concepts, a bag-of-words contents field, and an integer page rank. The
index keeps them as columns, one list per field in dump order with a list
field's items in one '|'-joined cell (``KbColumns``); a ``KnowledgeRecord``
is made only when a caller asks for one by title, as enrichment does for
its search hits.
Queries are flat lists of (occurrence, field, term-or-range) clauses in a
small query language, e.g.::

    wikiTitle:usa contents:sterling contents:drug -pageRank:[1 TO 5]

Scoring is the classic practical vector-space formula: sqrt(tf) times
squared idf times a field-length norm, multiplied by a coordination
factor. Only contents and wikiTitle clauses contribute scored terms;
clauses on the remaining fields act as match-only filters that feed the
coordination factor.

A record's id is its row in the dump, which the loader's title -> row map
gives. Each field's postings are built the first time a query touches the
field, so an index whose queries use only contents and types never
tokenizes the titles, redirects, categories or linked concepts of its
records. A field build tokenizes each cell of
its column in one pass (``lowercase_words``; a '|' is a delimiter, so a
list cell gives the terms of its items), but for ``types``, whose items
are normalized one by one. A built field is a term -> row dict and
CSR arrays (Zobel & Moffat 2006): the int32 ids of the records holding a
row's term, ascending, with their int32 term counts, plus an int32 token
count per record; one int64 array holds every record's page rank. The
postings are the stable transpose of the field's record x term matrix of
ones from ``features.count_rows``, which counts the documents' terms too,
with each record's repeats of a term summed into its count.

Queries are evaluated term at a time (Turtle & Flood 1995): the candidates
are the records in the postings of the positive term clauses, and each
positive clause adds its score mass and one coordination count to every
record it matches. The clauses are walked in query order, repeats included
(added again, never multiplied), so every record's score is the same sum in
the same order as a clause-by-clause evaluation of that record alone:
scores are bit-identical to it, and ties between records that differ only
in the last bit break the same way. A query costs a dict lookup per clause,
a gather of the postings of each run of consecutive clauses on one field, a
``bincount`` over the KB and a ``score`` call per candidate (a lookup in the
last query's kept scores, for the bench's probe). MUST and MUST_NOT clauses
filter the candidates, which rank by score, then title, whatever the dump
order: ``search`` sorts only those scoring at least the n-th best score.
"""

from __future__ import annotations

import itertools
import math
import re
from array import array
from dataclasses import dataclass, field as dc_field
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .features import count_rows
from .textproc import DELIMITER_CHARS, lowercase_words


class FieldName(Enum):
    CONTENTS = "contents"
    WIKI_TITLE = "wikiTitle"
    REDIRECTS = "redirects"
    TYPES = "types"
    CATEGORIES = "categories"
    LINKED_CONCEPTS = "linkedConcepts"
    PAGE_RANK = "pageRank"


# fields whose matched term clauses contribute tf/idf score mass
SCORED_FIELDS = (FieldName.CONTENTS, FieldName.WIKI_TITLE)


class Occur(Enum):
    SHOULD = "should"
    MUST = "must"
    MUST_NOT = "must_not"


@dataclass(frozen=True)
class Term:
    text: str


@dataclass(frozen=True)
class RangeBody:
    lo: int
    hi: int  # inclusive on both ends


@dataclass(frozen=True)
class QueryClause:
    field: FieldName
    occur: Occur
    body: Term | RangeBody


@dataclass
class FieldedQuery:
    clauses: list[QueryClause] = dc_field(default_factory=list)


@dataclass
class KnowledgeRecord:
    title: str
    redirects: list[str] = dc_field(default_factory=list)
    entity_types: list[str] = dc_field(default_factory=list)
    categories: list[str] = dc_field(default_factory=list)
    linked_concepts: list[str] = dc_field(default_factory=list)
    contents: str = ""
    page_rank: int = 0


@dataclass(frozen=True)
class SearchHit:
    record_title: str
    score: float


class DuplicateTitleError(ValueError):
    pass


class QuerySyntaxError(ValueError):
    pass


def normalize_term(text: str) -> str:
    """Query-term form used for postings lookup: lowercase, surrounding
    delimiter characters stripped (``(milrinone)`` -> ``milrinone``)."""
    stripped = text.strip(DELIMITER_CHARS).lower()
    return stripped or text.lower()


def normalize_entity_type(item: str) -> str:
    """``Freebase: organization`` and ``Freebase:organization`` become the
    same single term."""
    return "".join(item.split()).lower()


def _items(cell: str) -> list[str]:
    return [item for item in cell.split("|") if item]


def _entity_type_terms(cell: str) -> list[str]:
    return [normalize_entity_type(item) for item in _items(cell)]


@dataclass(frozen=True)
class KbColumns:
    """A KB in dump order, one list per field: the titles (unique), the
    page ranks, the '|'-joined redirects, entity types, categories and
    linked concepts, and the contents. An empty cell is an empty string,
    and an empty item between two '|' is no item. ``rows`` maps each title
    to its row, which is the record's id in the index."""

    titles: list[str]
    rows: dict[str, int]
    page_ranks: array  # int64 ("q")
    redirects: list[str]
    entity_types: list[str]
    categories: list[str]
    linked_concepts: list[str]
    contents: list[str]

    def __len__(self) -> int:
        return len(self.titles)

    def record(self, row: int) -> KnowledgeRecord:
        return KnowledgeRecord(
            title=self.titles[row],
            redirects=_items(self.redirects[row]),
            entity_types=_items(self.entity_types[row]),
            categories=_items(self.categories[row]),
            linked_concepts=_items(self.linked_concepts[row]),
            contents=self.contents[row],
            page_rank=self.page_ranks[row],
        )


# the column each field's terms come from
_COLUMNS = {
    FieldName.CONTENTS: "contents",
    FieldName.WIKI_TITLE: "titles",
    FieldName.REDIRECTS: "redirects",
    FieldName.TYPES: "entity_types",
    FieldName.CATEGORIES: "categories",
    FieldName.LINKED_CONCEPTS: "linked_concepts",
}


class _Field(NamedTuple):
    """One field's postings: the records holding the term of row r are
    ``ids[starts[r]:starts[r + 1]]`` (ascending), each with its term count
    in ``tfs``; ``lengths`` is every record's token count in the field.
    ``ids``, ``tfs`` and ``lengths`` are int32 and own exact-size buffers."""

    rows: dict[str, int]
    starts: np.ndarray
    ids: np.ndarray
    tfs: np.ndarray
    lengths: np.ndarray


_EMPTY = np.zeros(0, dtype=np.int32)
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _rank_matches(body: Term | RangeBody, ranks: np.ndarray) -> np.ndarray:
    """Which of the page ranks a range, or a ``pageRank:<digits>`` term,
    matches."""
    if isinstance(body, RangeBody):
        lo, hi = body.lo, body.hi
    else:
        term = normalize_term(body.text)
        # isdecimal, not int()'s own check: int() accepts "1_0" as 10; past
        # 19 significant digits a term is beyond int64, and only those are
        # read, since int() refuses strings of over 4,300 digits
        if not term.isdecimal() or len(term.lstrip("0")) > 19:
            return np.zeros(len(ranks), dtype=bool)
        lo = hi = int(term.lstrip("0") or "0")
    # the bounds are clipped to int64 as Python ints, so a bound past int64
    # neither overflows nor rounds on any numpy version
    if lo > hi or lo > _INT64_MAX or hi < _INT64_MIN:
        return np.zeros(len(ranks), dtype=bool)
    return (ranks >= max(lo, _INT64_MIN)) & (ranks <= min(hi, _INT64_MAX))


class KbIndex:
    """A KB's columns, searchable by field; a record's id is its dump row,
    and search ranks equal scores by title. Each field's postings are built
    on first use (see ``_field``), so the columns must not change after
    construction: per field a term -> row dict, CSR postings of int32
    record ids and int32 term counts, and an int32 token count per record;
    the page ranks are read as an int64 view of their column. The columns
    come from a dump (``load_kb_dump``).

    Every built field and the last query's scores are each stored whole,
    so concurrent searches need no locking: two threads may build the same
    arrays at once, and the second stores a result equal to the first.
    ``counts`` holds the searches, the candidates they scored and their
    hits, exact for one thread, as ``prepare_documents`` searches."""

    def __init__(self, kb: KbColumns) -> None:
        self._kb = kb
        self._fields: dict[FieldName, _Field] = {}
        self._last_scores: tuple[list[QueryClause], np.ndarray, np.ndarray] | None = None
        self.counts = {"search_calls": 0, "candidates_scored": 0, "hits": 0}

    def __len__(self) -> int:
        return len(self._kb)

    def get_record(self, title: str) -> KnowledgeRecord | None:
        """The record with this title, made from its columns, or None."""
        row = self._kb.rows.get(title)
        return None if row is None else self._kb.record(row)

    def _field(self, fname: FieldName) -> _Field:
        """The field's postings and token counts, built the first time a
        query touches the field and stored whole: the record x term matrix
        of ones that ``count_rows`` reads from the field's cells, whose
        term -> column map is the term -> row map, transposed by scipy's
        stable counting sort, which leaves each term's ids ascending, and
        only then summed (summing first would sort every record's terms).
        With int8 ones the build peaks at about 10 B a token plus the map:
        the term ids, the ones and the transpose. ids are copied to exact
        size, freeing the transpose's index buffer, before the counts are
        widened to int32."""
        built = self._fields.get(fname)
        if built is None:
            column = getattr(self._kb, _COLUMNS[fname])
            terms_of = _entity_type_terms if fname is FieldName.TYPES else lowercase_words
            # an empty cell, most records' in a sparse field, is not tokenized
            ones, rows = count_rows(terms_of(cell) if cell else () for cell in column)
            lengths = np.diff(ones.indptr).astype(np.int32, copy=False)
            postings = ones.tocsc()
            del ones  # frees the term ids and the ones
            postings.sum_duplicates()
            starts, ids, tfs = postings.indptr, postings.indices.copy(), postings.data
            del postings  # frees the index buffer; tfs may still view its data
            built = self._fields[fname] = _Field(
                rows, starts, ids, tfs.astype(np.int32), lengths)
        return built

    def _postings(self, clause: QueryClause) -> np.ndarray:
        """The ascending ids of the records a field term clause matches."""
        field = self._field(clause.field)
        row = field.rows.get(normalize_term(clause.body.text))
        return field.ids[field.starts[row]:field.starts[row + 1]] if row is not None else _EMPTY

    def _query_scores(self, query: FieldedQuery) -> tuple[np.ndarray, np.ndarray]:
        """The ids of the records matching a positive term clause, and every
        record's score (0.0 off those ids), evaluated term at a time (a dict
        lookup per clause, one postings gather per field run, one bincount
        over the KB) and kept, so ``search``'s ``score`` per candidate is a lookup."""
        last = self._last_scores
        if last is not None and last[0] == query.clauses:
            return last[1], last[2]
        n = len(self._kb)
        positive = [c for c in query.clauses if c.occur is not Occur.MUST_NOT]
        terms, ranked = [], []
        for c in positive:
            is_rank = isinstance(c.body, RangeBody) or c.field is FieldName.PAGE_RANK
            (ranked if is_rank else terms).append(c)
        # per field run, each posting's id, tf, field token count and clause
        # idf = 1 + ln(N / (df + 1)) (0.0 on a match-only field), in query order
        walk = [(_EMPTY, _EMPTY, _EMPTY, np.zeros(0))]  # never empty, for np.concatenate
        for fname, run in itertools.groupby(terms, key=lambda c: c.field):
            field = self._field(fname)
            rows = [field.rows.get(normalize_term(c.body.text)) for c in run]
            rows = np.array([row for row in rows if row is not None], dtype=np.intp)
            begin = field.starts[rows]
            counts = field.starts[rows + 1] - begin
            # every span's offsets, begin + 0, 1, ..., count - 1, end to end
            spans = np.repeat(begin - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
            ids = field.ids[spans]
            # math.log, not np.log, which is not correctly rounded everywhere
            idf = ([1.0 + math.log(n / (df + 1)) for df in counts.tolist()]
                   if fname in SCORED_FIELDS else [0.0] * len(rows))
            walk.append((ids, field.tfs[spans], field.lengths[ids], np.repeat(idf, counts)))
        ids, tfs, lengths, idf = (np.concatenate(parts) for parts in zip(*walk))
        # the score mass sqrt(tf) * idf^2 * fieldNorm of each posting, with
        # fieldNorm = 1 / sqrt(field token count)
        mass = np.sqrt(tfs) * idf * idf * (1.0 / np.sqrt(lengths))
        # bincount adds the weights in input order, so each record's total is
        # its clause masses summed in clause order, as a clause-by-clause
        # evaluation of that record adds them
        totals = np.bincount(ids, weights=mass, minlength=n)
        matched = np.bincount(ids, minlength=n)
        candidate = matched > 0
        if ranked:
            ranks = np.asarray(self._kb.page_ranks, dtype=np.int64)  # a view
            for clause in ranked:
                hit = _rank_matches(clause.body, ranks)
                matched += hit
                if isinstance(clause.body, Term):
                    candidate |= hit
        candidates = np.flatnonzero(candidate)
        scores = np.zeros(n)
        scores[candidates] = (matched[candidates] / len(positive)) * totals[candidates]
        self._last_scores = (list(query.clauses), candidates, scores)
        return candidates, scores

    def score(self, query: FieldedQuery, title: str) -> float:
        """Practical scoring of one record against the query: the
        coordination factor (matched positive clauses / positive clauses)
        times the summed mass of its matching scored term clauses. A record
        that matches no positive term clause scores 0.0."""
        row = self._kb.rows[title]  # KeyError for an unknown title
        return float(self._query_scores(query)[1][row])

    def search(self, query: FieldedQuery, n: int) -> list[SearchHit]:
        """Top-n records by score; ties broken by title.

        Candidates are records matching at least one SHOULD or MUST term
        clause; records violating a MUST clause or matching a MUST_NOT
        clause are excluded. A search costs a dict lookup per clause, one
        postings gather per field run, one bincount over the KB, and one
        ``score`` call per candidate, kept for the bench's probe."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        titles, ranks = self._kb.titles, np.asarray(self._kb.page_ranks, dtype=np.int64)
        candidates, _ = self._query_scores(query)
        keep = np.ones(len(candidates), dtype=bool)
        for clause in query.clauses:
            if clause.occur is Occur.SHOULD:
                continue
            if isinstance(clause.body, RangeBody) or clause.field is FieldName.PAGE_RANK:
                hit = _rank_matches(clause.body, ranks[candidates])
            else:
                hit = np.isin(candidates, self._postings(clause), assume_unique=True)
            keep &= hit if clause.occur is Occur.MUST else ~hit
        ids = candidates[keep]
        # each hit's score is score()'s, one call per candidate scored (the
        # call bench/layertrace.py counts); the query's scores are kept
        scores = np.array([self.score(query, titles[i]) for i in ids.tolist()])
        self.counts["search_calls"] += 1
        self.counts["candidates_scored"] += len(ids)
        if len(ids) > n:
            # only the records scoring at least the n-th best score can rank
            top = scores >= np.partition(scores, len(ids) - n)[len(ids) - n]
            ids, scores = ids[top], scores[top]
        hits = sorted(zip(scores.tolist(), map(titles.__getitem__, ids.tolist())),
                      key=lambda hit: (-hit[0], hit[1]))[:n]
        self.counts["hits"] += len(hits)
        return [SearchHit(title, score) for score, title in hits]


_RANGE_RE = re.compile(r"^\[\s*(-?\d+)\s+TO\s+(-?\d+)\s*\]$")


def parse_query(text: str) -> FieldedQuery:
    """Parse the flat query language.

    query := clause+ ; clause := ['-'|'+'] field ':' (term | range) ;
    range := '[' int 'TO' int ']'. A leading '-' means MUST_NOT, '+'
    means MUST, nothing means SHOULD. Terms run to the next whitespace
    and are lowercased with surrounding delimiters stripped.
    """
    clauses: list[QueryClause] = []
    valid_fields = {f.value: f for f in FieldName}

    chunks = [(m.start(), m.group(0)) for m in re.finditer(r"\S+", text)]
    i = 0
    while i < len(chunks):
        start, chunk = chunks[i]
        i += 1
        occur = Occur.SHOULD
        if chunk.startswith("-"):
            occur, chunk, start = Occur.MUST_NOT, chunk[1:], start + 1
        elif chunk.startswith("+"):
            occur, chunk, start = Occur.MUST, chunk[1:], start + 1
        if ":" not in chunk:
            raise QuerySyntaxError(
                f"missing ':' in clause at column {start + 1}: {chunk!r}"
            )
        field_name, _, value = chunk.partition(":")
        if field_name not in valid_fields:
            raise QuerySyntaxError(
                f"unknown field {field_name!r} at column {start + 1}"
            )
        fname = valid_fields[field_name]
        if value.startswith("["):
            # ranges may contain spaces; consume chunks up to the closing bracket
            while "]" not in value and i < len(chunks):
                value += " " + chunks[i][1]
                i += 1
            m = _RANGE_RE.match(value)
            if m is None:
                raise QuerySyntaxError(
                    f"malformed range {value!r} at column {start + 1}"
                )
            if fname is not FieldName.PAGE_RANK:
                raise QuerySyntaxError(
                    f"range clause only allowed on pageRank, got {field_name!r}"
                    f" at column {start + 1}"
                )
            body: Term | RangeBody = RangeBody(int(m.group(1)), int(m.group(2)))
        else:
            if not value:
                raise QuerySyntaxError(f"empty term at column {start + 1}")
            body = Term(normalize_term(value))
        clauses.append(QueryClause(field=fname, occur=occur, body=body))
    return FieldedQuery(clauses=clauses)


def serialize_query(query: FieldedQuery) -> str:
    """Canonical single-line text form; inverse of parse_query up to term
    normalization (term surfaces are emitted verbatim)."""
    parts = []
    for clause in query.clauses:
        prefix = {Occur.SHOULD: "", Occur.MUST: "+", Occur.MUST_NOT: "-"}[clause.occur]
        if isinstance(clause.body, RangeBody):
            value = f"[{clause.body.lo} TO {clause.body.hi}]"
        else:
            value = clause.body.text
        parts.append(f"{prefix}{clause.field.value}:{value}")
    return " ".join(parts)


def load_kb_dump(path: str | Path) -> KbColumns:
    """Read the TAB-separated dump: title, page_rank, redirects,
    entity_types, categories, linked_concepts, contents. List fields use
    '|' between items; an empty field is an empty string. The cells are
    kept as they are, in dump order; a UTF-8 byte-order mark is skipped.
    Lines end at LF or CRLF; a CR anywhere else is an error, so a line
    number in an error is the file's own."""
    kb = KbColumns([], {}, array("q"), [], [], [], [], [])
    # the blank lines skipped: a row's line number is one past the row plus
    # the blank lines before it (a duplicate title's error names that line)
    blank_lines: list[int] = []
    with open(path, encoding="utf-8-sig", newline="\n") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.removesuffix("\n").removesuffix("\r")
            if not line:
                blank_lines.append(lineno)
                continue
            if "\r" in line:
                raise ValueError(f"{path}:{lineno}: carriage return inside a line")
            fields = line.split("\t")
            if len(fields) != 7:
                raise ValueError(
                    f"{path}:{lineno}: expected 7 TAB-separated fields, got {len(fields)}"
                )
            title, rank, redirects, types, cats, linked, contents = fields
            if not title:
                raise ValueError(f"{path}:{lineno}: empty title")
            # decimal digits after at most one '-': int() also reads "1_0",
            # "+5" and " 5"
            digits = rank.removeprefix("-")
            if not digits.isdecimal():
                raise ValueError(f"{path}:{lineno}: bad page rank {rank!r}")
            try:
                page_rank = int(digits)
            except ValueError:  # over 4,300 digits: read those after the
                # leading zeros, past 19 of which a rank is beyond int64
                significant = digits.lstrip("0")
                page_rank = int(significant or "0") if len(significant) <= 19 else _INT64_MAX + 1
            if page_rank and digits != rank:
                raise ValueError(f"{path}:{lineno}: negative page rank {rank}")
            if page_rank > _INT64_MAX:  # ranks are int64 in the index
                raise ValueError(
                    f"{path}:{lineno}: page rank {rank} is out of range 0..2**63-1")
            row = len(kb.titles)
            first = kb.rows.setdefault(title, row)
            if first != row:
                first += 1
                for blank in blank_lines:
                    first += blank <= first
                raise DuplicateTitleError(
                    f"{path}:{lineno}: duplicate title {title!r} (first on line {first})")
            kb.titles.append(title)
            kb.page_ranks.append(page_rank)
            kb.redirects.append(redirects)
            kb.entity_types.append(types)
            kb.categories.append(cats)
            kb.linked_concepts.append(linked)
            kb.contents.append(contents)
    return kb
