"""A one-line text form of ``FieldedQuery``, for queries written in tests.

A clause is ``[-|+]field:term`` or ``[-|+]pageRank:[lo TO hi]`` (``-`` is
MUST_NOT, ``+`` MUST, bare is SHOULD), clauses are separated by whitespace
and a term is normalized as the index looks it up. The parser trusts its
input: a malformed clause is the test's own mistake."""

from __future__ import annotations

import re

from kbcat.kbindex import (
    FieldedQuery,
    FieldName,
    Occur,
    QueryClause,
    RangeBody,
    Term,
    normalize_term,
)

_CLAUSE_RE = re.compile(r"\S+:\[[^\]]*\]|\S+")
_RANGE_RE = re.compile(r"\[(-?\d+) TO (-?\d+)\]")
_OCCURS = {"-": Occur.MUST_NOT, "+": Occur.MUST}
_PREFIXES = {occur: prefix for prefix, occur in _OCCURS.items()} | {Occur.SHOULD: ""}


def parse_query(text: str) -> FieldedQuery:
    clauses = []
    for chunk in _CLAUSE_RE.findall(text):
        occur = _OCCURS.get(chunk[0], Occur.SHOULD)
        if occur is not Occur.SHOULD:
            chunk = chunk[1:]
        name, _, value = chunk.partition(":")
        bounds = _RANGE_RE.fullmatch(value)
        body = (RangeBody(int(bounds[1]), int(bounds[2])) if bounds
                else Term(normalize_term(value)))
        clauses.append(QueryClause(FieldName(name), occur, body))
    return FieldedQuery(clauses)


def serialize_query(query: FieldedQuery) -> str:
    """The text form, with each term as the query holds it."""
    return " ".join(
        f"{_PREFIXES[c.occur]}{c.field.value}:"
        + (f"[{c.body.lo} TO {c.body.hi}]" if isinstance(c.body, RangeBody) else c.body.text)
        for c in query.clauses)
