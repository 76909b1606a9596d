"""Fielded inverted index over knowledge-base records.

Records carry a title, redirects, entity types, categories, linked
concepts, a bag-of-words contents field, and an integer page rank.
Queries are flat lists of (occurrence, field, term-or-range) clauses in a
small query language, e.g.::

    wikiTitle:usa contents:sterling contents:drug -pageRank:[1 TO 5]

Scoring is the classic practical vector-space formula: sqrt(tf) times
squared idf times a field-length norm, multiplied by a coordination
factor. Only contents and wikiTitle clauses contribute scored terms;
clauses on the remaining fields act as match-only filters that feed the
coordination factor.

Each field's postings are built the first time a query touches the field,
so an index whose queries use only contents and types never tokenizes the
titles, redirects, categories or linked concepts of its records.

Queries are evaluated term at a time: the candidates are the records in
the postings of the positive term clauses, and each positive clause adds
its score mass and one coordination count to every candidate it matches.
The clauses are walked in query order, repeated ones included (a repeat
reuses the clause's masses but is added again, never multiplied), so every
record's score is the same sum in the same order as a clause-by-clause
evaluation of that record alone: scores are bit-identical to it, and ties
between records that differ only in the last bit break the same way. The
scores of the last query are kept, so ``score`` on its records one by one
is a lookup; search filters the candidates once per MUST and MUST_NOT
clause and ranks the rest by ``score``.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field as dc_field
from enum import Enum
from pathlib import Path

from .textproc import DELIMITER_CHARS, split_words


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


def _field_terms(record: KnowledgeRecord, name: FieldName) -> list[str]:
    if name is FieldName.CONTENTS:
        return [w.lower() for w in split_words(record.contents)]
    if name is FieldName.WIKI_TITLE:
        return [w.lower() for w in split_words(record.title)]
    if name is FieldName.TYPES:
        return [normalize_entity_type(item) for item in record.entity_types]
    if name is FieldName.REDIRECTS:
        items = record.redirects
    elif name is FieldName.CATEGORIES:
        items = record.categories
    else:
        items = record.linked_concepts
    terms: list[str] = []
    for item in items:
        terms.extend(w.lower() for w in split_words(item))
    return terms


# one field's postings (term -> {title: tf}) and token count per title
_FieldIndex = tuple[dict[str, dict[str, int]], dict[str, int]]


class KbIndex:
    """Records by title, and each field's postings built on first use (see
    ``_field``), so the records must not change after construction. Every
    built field and the memo of the last query's scores are stored whole,
    so concurrent searches need no locking: two threads may build the same
    field at once, and the second stores a result equal to the first."""

    def __init__(self, records: list[KnowledgeRecord]) -> None:
        self._records: dict[str, KnowledgeRecord] = {}
        for record in records:
            if record.title in self._records:
                raise DuplicateTitleError(f"duplicate record title: {record.title!r}")
            self._records[record.title] = record
        self._fields: dict[FieldName, _FieldIndex] = {}
        self._last_scores: tuple[list[QueryClause], dict[str, float]] = ([], {})

    def __len__(self) -> int:
        return len(self._records)

    @property
    def titles(self) -> list[str]:
        return list(self._records)

    def get_record(self, title: str) -> KnowledgeRecord | None:
        return self._records.get(title)

    def _field(self, fname: FieldName) -> _FieldIndex:
        """The field's postings and token counts, built the first time a
        query touches the field and stored whole."""
        built = self._fields.get(fname)
        if built is None:
            postings: dict[str, dict[str, int]] = {}
            field_len: dict[str, int] = {}
            for title, record in self._records.items():
                terms = _field_terms(record, fname)
                field_len[title] = len(terms)
                for term, tf in Counter(terms).items():
                    postings.setdefault(term, {})[title] = tf
            built = self._fields[fname] = (postings, field_len)
        return built

    def _clause_matches(self, clause: QueryClause, title: str) -> bool:
        if isinstance(clause.body, RangeBody):
            return clause.body.lo <= self._records[title].page_rank <= clause.body.hi
        term = normalize_term(clause.body.text)
        if clause.field is FieldName.PAGE_RANK:
            # isdecimal, not int()'s own check: int() accepts "1_0" as 10
            return term.isdecimal() and self._records[title].page_rank == int(term)
        return title in self._field(clause.field)[0].get(term, ())

    def _clause_mass(self, clause: QueryClause, candidates: set[str]) -> dict[str, float]:
        """Score mass the clause adds to each candidate it matches:
        sqrt(tf) * idf^2 * fieldNorm for a scored term clause, with
        idf = 1 + ln(N / (df + 1)) and fieldNorm = 1 / sqrt(field token
        count); 0.0 for a match-only clause."""
        if isinstance(clause.body, Term) and clause.field is not FieldName.PAGE_RANK:
            postings, field_len = self._field(clause.field)
            by_title = postings.get(normalize_term(clause.body.text), {})
            if not by_title or clause.field not in SCORED_FIELDS:
                return dict.fromkeys(by_title, 0.0)
            idf = 1.0 + math.log(len(self._records) / (len(by_title) + 1))
            return {
                title: math.sqrt(tf) * idf * idf * (1.0 / math.sqrt(field_len[title]))
                for title, tf in by_title.items()
            }
        return {title: 0.0 for title in candidates if self._clause_matches(clause, title)}

    def _query_scores(self, query: FieldedQuery) -> dict[str, float]:
        """Score of every record matching a positive term clause, evaluated
        term at a time (see the module docstring) and kept for the last
        query."""
        last_clauses, scores = self._last_scores
        if last_clauses == query.clauses:
            return scores
        positive = [c for c in query.clauses if c.occur is not Occur.MUST_NOT]
        candidates: set[str] = set()
        for clause in positive:
            if not isinstance(clause.body, Term):
                continue
            if clause.field is FieldName.PAGE_RANK:
                candidates.update(
                    t for t in self._records if self._clause_matches(clause, t)
                )
                continue
            term = normalize_term(clause.body.text)
            candidates.update(self._field(clause.field)[0].get(term, ()))
        totals = dict.fromkeys(candidates, 0.0)
        matched = dict.fromkeys(candidates, 0)
        masses: dict[tuple[FieldName, Term | RangeBody], dict[str, float]] = {}
        for clause in positive:
            key = (clause.field, clause.body)
            mass = masses.get(key)
            if mass is None:
                mass = masses[key] = self._clause_mass(clause, candidates)
            for title, value in mass.items():
                totals[title] += value
                matched[title] += 1
        scores = {t: (matched[t] / len(positive)) * totals[t] for t in candidates}
        self._last_scores = (list(query.clauses), scores)
        return scores

    def score(self, query: FieldedQuery, title: str) -> float:
        """Practical scoring of one record against the query: the
        coordination factor (matched positive clauses / positive clauses)
        times the summed mass of its matching scored term clauses. A record
        that matches no positive term clause scores 0.0."""
        if title not in self._records:
            raise KeyError(title)
        return self._query_scores(query).get(title, 0.0)

    def search(self, query: FieldedQuery, n: int) -> list[SearchHit]:
        """Top-n records by score; ties broken by title.

        Candidates are records matching at least one SHOULD or MUST term
        clause; records violating a MUST clause or matching a MUST_NOT
        clause are excluded.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        candidates = set(self._query_scores(query))
        for clause in query.clauses:
            if clause.occur is not Occur.SHOULD:
                keep = clause.occur is Occur.MUST
                candidates = {
                    t for t in candidates if self._clause_matches(clause, t) == keep
                }
        # each hit's score is score()'s, one call per candidate scored (the
        # call bench/layertrace.py counts); the query's scores are memoized
        hits = [SearchHit(t, self.score(query, t)) for t in candidates]
        hits.sort(key=lambda h: (-h.score, h.record_title))
        return hits[:n]


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


def load_kb_dump(path: str | Path) -> list[KnowledgeRecord]:
    """Read the TAB-separated dump: title, page_rank, redirects,
    entity_types, categories, linked_concepts, contents. List fields use
    '|' between items; an empty field is an empty string."""
    records = []
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
            page_rank = int(rank)
            if page_rank < 0:
                raise ValueError(f"{path}:{lineno}: negative page rank {page_rank}")
            split = lambda s: [item for item in s.split("|") if item]
            records.append(KnowledgeRecord(
                title=title,
                redirects=split(redirects),
                entity_types=split(types),
                categories=split(cats),
                linked_concepts=split(linked),
                contents=contents,
                page_rank=page_rank,
            ))
    return records


def save_kb_dump(records: list[KnowledgeRecord], path: str | Path) -> None:
    def join(items: list[str]) -> str:
        for item in items:
            if "|" in item:
                raise ValueError(f"'|' not allowed inside list item: {item!r}")
        return "|".join(items)

    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            row = [r.title, str(r.page_rank), join(r.redirects),
                   join(r.entity_types), join(r.categories),
                   join(r.linked_concepts), r.contents]
            for cell in row:
                if "\t" in cell or "\n" in cell:
                    raise ValueError(f"TAB/newline not allowed in field: {cell!r}")
            fh.write("\t".join(row) + "\n")
