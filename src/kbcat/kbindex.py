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

Records get ids in sorted-title order. Each field's postings are built
the first time a query touches the field, so an index whose queries use
only contents and types never tokenizes the titles, redirects, categories
or linked concepts of its records. A field build tokenizes each cell of
its column in one pass (``lowercase_words``; a '|' is a delimiter, so a
list cell gives the terms of its items), but for ``types``, whose items
are normalized one by one. A built field is a term -> row dict and
CSR arrays (Zobel & Moffat 2006): the int32 ids of the records holding a
row's term, ascending, with their int32 term counts, plus an int32 token
count per record; one int64 array holds every record's page rank. The
postings are the stable transpose of the field's record x term matrix of
ones, with each record's repeats of a term summed into its count.

Queries are evaluated term at a time (Turtle & Flood 1995): the candidates
are the records in the postings of the positive term clauses, and each
positive clause adds its score mass and one coordination count to every
record it matches. The clauses are walked in query order, repeated ones
included (a repeat reuses the clause's postings but is added again, never
multiplied), so every record's score is the same sum in the same order as
a clause-by-clause evaluation of that record alone: scores are
bit-identical to it, and ties between records that differ only in the last
bit break the same way. MUST and MUST_NOT clauses filter the candidates,
which rank by score and then by title. The scores of the last query are
kept, so ``score`` on its records one by one is a lookup.
"""

from __future__ import annotations

import itertools
import math
import re
from array import array
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field as dc_field
from enum import Enum
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np
import scipy.sparse as sp

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


def _join_items(items: list[str]) -> str:
    for item in items:
        if not item or "|" in item:
            raise ValueError(f"a list item must be non-empty and hold no '|': {item!r}")
    return "|".join(items)


def _entity_type_terms(cell: str) -> list[str]:
    return [normalize_entity_type(item) for item in _items(cell)]


@dataclass(frozen=True)
class KbColumns:
    """A KB in dump order, one list per field: the titles (unique), the
    page ranks, the '|'-joined redirects, entity types, categories and
    linked concepts, and the contents. An empty cell is an empty string,
    and an empty item between two '|' is no item."""

    titles: list[str]
    page_ranks: array  # int64 ("q")
    redirects: list[str]
    entity_types: list[str]
    categories: list[str]
    linked_concepts: list[str]
    contents: list[str]

    def __len__(self) -> int:
        return len(self.titles)

    @classmethod
    def from_records(cls, records: Iterable[KnowledgeRecord]) -> KbColumns:
        """The columns of records whose titles are unique and whose list
        items are non-empty and hold no '|', so ``record`` gives each one
        back unchanged."""
        kb = cls([], array("q"), [], [], [], [], [])
        seen: set[str] = set()
        for r in records:
            if r.title in seen:
                raise DuplicateTitleError(f"duplicate record title: {r.title!r}")
            seen.add(r.title)
            kb.titles.append(r.title)
            kb.page_ranks.append(r.page_rank)
            kb.redirects.append(_join_items(r.redirects))
            kb.entity_types.append(_join_items(r.entity_types))
            kb.categories.append(_join_items(r.categories))
            kb.linked_concepts.append(_join_items(r.linked_concepts))
            kb.contents.append(r.contents)
        return kb

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


class _Order(NamedTuple):
    """Record ids follow sorted-title order: record i has the title
    ``titles[i]``, the page rank ``ranks[i]`` and the dump row
    ``dump_rows[i]``."""

    titles: list[str]
    ranks: np.ndarray
    dump_rows: list[int]


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


class _Postings(NamedTuple):
    """What a term clause adds to the records it matches (see
    ``KbIndex._postings``)."""

    ids: np.ndarray
    tfs: np.ndarray
    lengths: np.ndarray
    idf: float


_NO_POSTINGS = _Postings(*[np.zeros(0, dtype=np.int32)] * 3, 0.0)
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _rank_matches(body: Term | RangeBody, ranks: np.ndarray) -> np.ndarray:
    """Which of the page ranks a range, or a ``pageRank:<digits>`` term,
    matches."""
    if isinstance(body, RangeBody):
        lo, hi = body.lo, body.hi
    else:
        term = normalize_term(body.text)
        # isdecimal, not int()'s own check: int() accepts "1_0" as 10; past
        # 19 significant digits a term is beyond int64 (and int() refuses
        # strings of over 4,300 digits)
        if not term.isdecimal() or len(term.lstrip("0")) > 19:
            return np.zeros(len(ranks), dtype=bool)
        lo = hi = int(term)
    # the bounds are clipped to int64 as Python ints, so a bound past int64
    # neither overflows nor rounds on any numpy version
    if lo > hi or lo > _INT64_MAX or hi < _INT64_MIN:
        return np.zeros(len(ranks), dtype=bool)
    return (ranks >= max(lo, _INT64_MIN)) & (ranks <= min(hi, _INT64_MAX))


class KbIndex:
    """A KB's columns, searchable by field; record ids follow sorted-title
    order. Each field's postings are built on first use (see ``_field``),
    so the columns must not change after construction: per field a term ->
    row dict, CSR postings of int32 record ids and int32 term counts, and
    an int32 token count per record; one int64 page-rank array covers all
    records. Records given as ``KnowledgeRecord`` objects are turned into
    columns (``KbColumns.from_records``).

    The record order with the rank array, every built field and the last
    query's scores are each stored whole, so concurrent searches need no
    locking: two threads may build the same arrays at once, and the second
    stores a result equal to the first."""

    def __init__(self, kb: KbColumns | Iterable[KnowledgeRecord]) -> None:
        self._kb = kb if isinstance(kb, KbColumns) else KbColumns.from_records(kb)
        self._order: _Order | None = None
        self._fields: dict[FieldName, _Field] = {}
        self._last_scores: tuple[list[QueryClause], np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self._kb)

    def get_record(self, title: str) -> KnowledgeRecord | None:
        """The record with this title, made from its columns, or None."""
        i = self._record_id(title)
        return None if i is None else self._kb.record(self._sorted().dump_rows[i])

    def _record_id(self, title: str) -> int | None:
        titles = self._sorted().titles
        i = bisect_left(titles, title)
        return i if i < len(titles) and titles[i] == title else None

    def _sorted(self) -> _Order:
        """The record order, built with the first field or query and
        stored whole."""
        order = self._order
        if order is None:
            titles = self._kb.titles
            dump_rows = sorted(range(len(titles)), key=titles.__getitem__)
            ranks = np.asarray(self._kb.page_ranks, dtype=np.int64)[dump_rows]
            order = self._order = _Order([titles[r] for r in dump_rows], ranks, dump_rows)
        return order

    def _field(self, fname: FieldName) -> _Field:
        """The field's postings and token counts, built the first time a
        query touches the field and stored whole.

        One pass lays each record's term ids end to end in record order:
        the rows of a record x term matrix of ones, whose stable transpose
        (scipy's counting sort) with each record's repeats summed is the
        postings. The build peaks at about 17 B a token, 16 of them the term
        ids, the ones and the transpose; ids and tfs are copied to exact
        size once the first two are freed."""
        built = self._fields.get(fname)
        if built is None:
            column = getattr(self._kb, _COLUMNS[fname])
            terms_of = _entity_type_terms if fname is FieldName.TYPES else lowercase_words
            # a new term gets the next row
            rows: defaultdict[str, int] = defaultdict(itertools.count().__next__)
            term_ids = array("i")
            ends = array("q", [0])  # where each record's term ids end
            for cell in map(column.__getitem__, self._sorted().dump_rows):
                if cell:
                    term_ids.extend(map(rows.__getitem__, terms_of(cell)))
                ends.append(len(term_ids))
            ones = np.ones(len(term_ids), dtype=np.int32)
            postings = sp.csr_matrix((ones, np.frombuffer(term_ids, dtype=np.int32), ends),
                                     shape=(len(ends) - 1, len(rows))).tocsc()
            del term_ids, ones
            postings.sum_duplicates()
            built = self._fields[fname] = _Field(
                dict(rows), postings.indptr, postings.indices.copy(), postings.data.copy(),
                np.diff(ends).astype(np.int32))
        return built

    def _postings(self, clause: QueryClause) -> _Postings:
        """The postings of a field term clause: the ids of the records it
        matches, with each one's tf and field token count, and the term's
        idf = 1 + ln(N / (df + 1)), or 0.0 on a match-only field, whose
        clauses add no score mass."""
        field = self._field(clause.field)
        row = field.rows.get(normalize_term(clause.body.text))
        if row is None:
            return _NO_POSTINGS
        span = slice(field.starts[row], field.starts[row + 1])
        ids = field.ids[span]
        # math.log, not np.log, which is not correctly rounded everywhere
        idf = (1.0 + math.log(len(self._kb) / (len(ids) + 1))
               if clause.field in SCORED_FIELDS else 0.0)
        return _Postings(ids, field.tfs[span], field.lengths[ids], idf)

    def _query_scores(self, query: FieldedQuery) -> tuple[np.ndarray, np.ndarray]:
        """The ids of the records matching a positive term clause, and every
        record's score (0.0 off those ids), evaluated term at a time (see
        the module docstring) and kept for the last query."""
        last = self._last_scores
        if last is not None and last[0] == query.clauses:
            return last[1], last[2]
        ranks = self._sorted().ranks
        positive = [c for c in query.clauses if c.occur is not Occur.MUST_NOT]
        rank_matched = np.zeros(len(ranks), dtype=np.int64)
        rank_candidate = np.zeros(len(ranks), dtype=bool)
        postings: dict[tuple[FieldName, Term], _Postings] = {}
        walk = [_NO_POSTINGS]  # never empty, for np.concatenate
        for clause in positive:
            if isinstance(clause.body, RangeBody) or clause.field is FieldName.PAGE_RANK:
                hit = _rank_matches(clause.body, ranks)
                rank_matched += hit
                if isinstance(clause.body, Term):
                    rank_candidate |= hit
                continue
            key = (clause.field, clause.body)
            if key not in postings:
                postings[key] = self._postings(clause)
            walk.append(postings[key])
        # every positive term clause's postings in query order, repeats
        # included, with the score mass sqrt(tf) * idf^2 * fieldNorm of each
        # and fieldNorm = 1 / sqrt(field token count)
        ids = np.concatenate([p.ids for p in walk])
        idf = np.repeat([p.idf for p in walk], [len(p.ids) for p in walk])
        mass = (np.sqrt(np.concatenate([p.tfs for p in walk])) * idf * idf
                * (1.0 / np.sqrt(np.concatenate([p.lengths for p in walk]))))
        # bincount adds the weights in input order, so each record's total is
        # its clause masses summed in clause order, as a clause-by-clause
        # evaluation of that record adds them
        totals = np.bincount(ids, weights=mass, minlength=len(ranks))
        term_matched = np.bincount(ids, minlength=len(ranks))
        candidates = np.flatnonzero((term_matched > 0) | rank_candidate)
        scores = np.zeros(len(ranks))
        if len(candidates):
            matched = term_matched[candidates] + rank_matched[candidates]
            scores[candidates] = (matched / len(positive)) * totals[candidates]
        self._last_scores = (list(query.clauses), candidates, scores)
        return candidates, scores

    def score(self, query: FieldedQuery, title: str) -> float:
        """Practical scoring of one record against the query: the
        coordination factor (matched positive clauses / positive clauses)
        times the summed mass of its matching scored term clauses. A record
        that matches no positive term clause scores 0.0."""
        i = self._record_id(title)
        if i is None:
            raise KeyError(title)
        return float(self._query_scores(query)[1][i])

    def search(self, query: FieldedQuery, n: int) -> list[SearchHit]:
        """Top-n records by score; ties broken by title.

        Candidates are records matching at least one SHOULD or MUST term
        clause; records violating a MUST clause or matching a MUST_NOT
        clause are excluded.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        titles, ranks, _ = self._sorted()
        candidates, _ = self._query_scores(query)
        keep = np.ones(len(candidates), dtype=bool)
        for clause in query.clauses:
            if clause.occur is Occur.SHOULD:
                continue
            if isinstance(clause.body, RangeBody) or clause.field is FieldName.PAGE_RANK:
                hit = _rank_matches(clause.body, ranks[candidates])
            else:
                hit = np.isin(candidates, self._postings(clause).ids, assume_unique=True)
            keep &= hit if clause.occur is Occur.MUST else ~hit
        ids = candidates[keep]
        # each hit's score is score()'s, one call per candidate scored (the
        # call bench/layertrace.py counts); the query's scores are kept
        scores = np.array([self.score(query, titles[i]) for i in ids], dtype=np.float64)
        # ids follow title order, so equal scores rank by title
        return [SearchHit(titles[ids[j]], float(scores[j]))
                for j in np.lexsort((ids, -scores))[:n]]


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
    kept as they are, in dump order."""
    kb = KbColumns([], array("q"), [], [], [], [], [])
    first_line: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
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
            if not rank.removeprefix("-").isdecimal():
                raise ValueError(f"{path}:{lineno}: bad page rank {rank!r}")
            try:
                page_rank = int(rank)
            except ValueError:  # int() refuses strings of over 4,300 digits
                page_rank = _INT64_MAX + 1
            if page_rank < 0:
                raise ValueError(f"{path}:{lineno}: negative page rank {page_rank}")
            if page_rank > _INT64_MAX:  # ranks are int64 in the index
                raise ValueError(
                    f"{path}:{lineno}: page rank {rank} is out of range 0..2**63-1")
            first = first_line.setdefault(title, lineno)
            if first != lineno:
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
