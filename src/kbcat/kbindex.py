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
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field as dc_field
from enum import Enum
from pathlib import Path

from .textproc import DELIMITER_CHARS, tokenize


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
        return [t.surface.lower() for t in tokenize(record.contents)]
    if name is FieldName.WIKI_TITLE:
        return [t.surface.lower() for t in tokenize(record.title)]
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
        terms.extend(t.surface.lower() for t in tokenize(item))
    return terms


_INDEXED_FIELDS = (
    FieldName.CONTENTS,
    FieldName.WIKI_TITLE,
    FieldName.REDIRECTS,
    FieldName.TYPES,
    FieldName.CATEGORIES,
    FieldName.LINKED_CONCEPTS,
)


class KbIndex:
    """Write-once inverted index; concurrent searches need no locking."""

    def __init__(self, records: list[KnowledgeRecord]) -> None:
        self._records: dict[str, KnowledgeRecord] = {}
        self._postings: dict[FieldName, dict[str, dict[str, int]]] = {
            f: {} for f in _INDEXED_FIELDS
        }
        self._field_len: dict[FieldName, dict[str, int]] = {
            f: {} for f in _INDEXED_FIELDS
        }
        for record in records:
            if record.title in self._records:
                raise DuplicateTitleError(f"duplicate record title: {record.title!r}")
            self._records[record.title] = record
            for fname in _INDEXED_FIELDS:
                terms = _field_terms(record, fname)
                self._field_len[fname][record.title] = len(terms)
                postings = self._postings[fname]
                for term in terms:
                    postings.setdefault(term, {}).setdefault(record.title, 0)
                    postings[term][record.title] += 1

    def __len__(self) -> int:
        return len(self._records)

    @property
    def titles(self) -> list[str]:
        return list(self._records)

    def get_record(self, title: str) -> KnowledgeRecord | None:
        return self._records.get(title)

    def tf(self, field: FieldName, term: str, title: str) -> int:
        return self._postings.get(field, {}).get(term, {}).get(title, 0)

    def df(self, field: FieldName, term: str) -> int:
        return len(self._postings.get(field, {}).get(term, {}))

    def _clause_matches(self, clause: QueryClause, title: str) -> bool:
        record = self._records[title]
        if isinstance(clause.body, RangeBody):
            return clause.body.lo <= record.page_rank <= clause.body.hi
        term = normalize_term(clause.body.text)
        if clause.field is FieldName.PAGE_RANK:
            try:
                return record.page_rank == int(term)
            except ValueError:
                return False
        return self.tf(clause.field, term, title) > 0

    def score(self, query: FieldedQuery, title: str) -> float:
        """Practical scoring of one record against the query.

        score = coord * sum over matching scored term clauses of
        sqrt(tf) * idf^2 * fieldNorm, with idf = 1 + ln(N / (df + 1)) and
        fieldNorm = 1 / sqrt(field token count).
        """
        n_records = len(self._records)
        positive = [c for c in query.clauses if c.occur is not Occur.MUST_NOT]
        if not positive:
            return 0.0
        matched = [c for c in positive if self._clause_matches(c, title)]
        coord = len(matched) / len(positive)
        total = 0.0
        for clause in matched:
            if not isinstance(clause.body, Term) or clause.field not in SCORED_FIELDS:
                continue
            term = normalize_term(clause.body.text)
            tf = self.tf(clause.field, term, title)
            df = self.df(clause.field, term)
            idf = 1.0 + math.log(n_records / (df + 1))
            norm = 1.0 / math.sqrt(self._field_len[clause.field][title])
            total += math.sqrt(tf) * idf * idf * norm
        return coord * total

    def search(self, query: FieldedQuery, n: int) -> list[SearchHit]:
        """Top-n records by score; ties broken by title.

        Candidates are records matching at least one SHOULD or MUST term
        clause; records violating a MUST clause or matching a MUST_NOT
        clause are excluded.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        candidates: set[str] = set()
        for clause in query.clauses:
            if clause.occur is Occur.MUST_NOT or not isinstance(clause.body, Term):
                continue
            if clause.field is FieldName.PAGE_RANK:
                candidates.update(
                    t for t in self._records if self._clause_matches(clause, t)
                )
                continue
            term = normalize_term(clause.body.text)
            candidates.update(self._postings.get(clause.field, {}).get(term, {}))

        hits = []
        for title in candidates:
            keep = True
            for clause in query.clauses:
                matches = self._clause_matches(clause, title)
                if clause.occur is Occur.MUST and not matches:
                    keep = False
                    break
                if clause.occur is Occur.MUST_NOT and matches:
                    keep = False
                    break
            if keep:
                hits.append(SearchHit(title, self.score(query, title)))
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
            try:
                page_rank = int(rank)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad page rank {rank!r}")
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
