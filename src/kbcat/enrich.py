"""Document enrichment from the knowledge base.

Five strategies feed the experiment presets:

E1  retrieve top-k records by document contents; inject titles and their
    categories
E2  fielded query with an optional title clause and a page-rank floor;
    inject titles, categories and linked concepts
E3  E2 plus entity-type clauses derived from the document's entity tags
E4  keep only returned terms that start with an uppercase letter and
    contain no digit
E5  strip delimiters and stop words from returned terms, preserving
    underscores so multi-word concepts stay single tokens

Presets A1-A5 are fixed combinations of a representation, strategies,
and a retrieval depth k; all of them apply E4 and E5.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from enum import Enum

from .kbindex import (
    FieldedQuery,
    FieldName,
    KbIndex,
    Occur,
    QueryClause,
    RangeBody,
    Term,
)
from .textproc import (
    DELIMITER_CHARS,
    EntityTag,
    Representation,
    TaggedDocument,
    TextResources,
    Token,
    represent,
)


class Strategy(Enum):
    E1 = "E1"
    E2 = "E2"
    E3 = "E3"


@dataclass
class EnrichmentOutput:
    titles: list[str] = field(default_factory=list)
    categories: list[str] = field(default_factory=list)
    linked_concepts: list[str] = field(default_factory=list)

    def is_empty(self) -> bool:
        return not (self.titles or self.categories or self.linked_concepts)


@dataclass(frozen=True)
class Preset:
    name: str
    representation: Representation = Representation.T1
    strategies: frozenset[Strategy] = frozenset()
    k: int = 5
    include_linked: bool = False
    apply_e4: bool = True
    apply_e5: bool = True
    min_rank: int = 5
    title_term: str | None = None


PRESETS: dict[str, Preset] = {
    "baseline": Preset(name="baseline"),
    "A1": Preset(name="A1", strategies=frozenset({Strategy.E1}), k=5),
    "A2": Preset(name="A2", strategies=frozenset({Strategy.E1}), k=20),
    "A3": Preset(name="A3", strategies=frozenset({Strategy.E2}), k=5,
                 include_linked=True),
    "A4": Preset(name="A4", strategies=frozenset({Strategy.E2}), k=20,
                 include_linked=True),
    "A5": Preset(name="A5", strategies=frozenset({Strategy.E1, Strategy.E2}),
                 k=20, include_linked=True),
}


def _dedup(items: list[str]) -> list[str]:
    seen: set[str] = set()
    out = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out


def enrich_e1(doc: TaggedDocument, index: KbIndex, n: int) -> EnrichmentOutput:
    """Top-n records by matching document contents; titles plus their
    categories, in hit order."""
    if not doc.tokens:
        return EnrichmentOutput()
    query = FieldedQuery([
        QueryClause(FieldName.CONTENTS, Occur.SHOULD, Term(tok.surface))
        for tok, _ in doc.tokens
    ])
    hits = index.search(query, n)
    titles = []
    categories = []
    for hit in hits:
        record = index.get_record(hit.record_title)
        titles.append(record.title)
        categories.extend(record.categories)
    return EnrichmentOutput(titles=_dedup(titles), categories=_dedup(categories))


def build_e2_query(
    doc: TaggedDocument, title_term: str | None, min_rank: int
) -> FieldedQuery:
    """One SHOULD contents clause per document token (duplicates kept),
    an optional SHOULD wikiTitle clause, and a MUST_NOT page-rank range
    [1, min_rank] so only records ranked above min_rank survive."""
    clauses: list[QueryClause] = []
    if title_term:
        clauses.append(QueryClause(FieldName.WIKI_TITLE, Occur.SHOULD, Term(title_term)))
    clauses.extend(
        QueryClause(FieldName.CONTENTS, Occur.SHOULD, Term(tok.surface))
        for tok, _ in doc.tokens
    )
    clauses.append(
        QueryClause(FieldName.PAGE_RANK, Occur.MUST_NOT, RangeBody(1, min_rank))
    )
    return FieldedQuery(clauses)


def _gather(index: KbIndex, hits) -> EnrichmentOutput:
    titles, categories, linked = [], [], []
    for hit in hits:
        record = index.get_record(hit.record_title)
        titles.append(record.title)
        categories.extend(record.categories)
        linked.extend(record.linked_concepts)
    return EnrichmentOutput(
        titles=_dedup(titles),
        categories=_dedup(categories),
        linked_concepts=_dedup(linked),
    )


def enrich_e2(
    doc: TaggedDocument,
    index: KbIndex,
    k: int,
    title_term: str | None = None,
    min_rank: int = 5,
) -> EnrichmentOutput:
    if not doc.tokens:
        return EnrichmentOutput()
    query = build_e2_query(doc, title_term, min_rank)
    return _gather(index, index.search(query, k))


_TYPE_TERMS = {
    EntityTag.PERSON: "freebase:person",
    EntityTag.LOCATION: "freebase:location",
    EntityTag.ORGANIZATION: "freebase:organization",
}


def enrich_e3(
    doc: TaggedDocument,
    index: KbIndex,
    k: int,
    title_term: str | None = None,
    min_rank: int = 5,
) -> EnrichmentOutput:
    """E2 with an extra SHOULD types clause per distinct entity kind
    present in the document. With no tags this is exactly E2."""
    if not doc.tokens:
        return EnrichmentOutput()
    query = build_e2_query(doc, title_term, min_rank)
    kinds = {tag for _, tag in doc.tokens if tag is not EntityTag.NONE}
    type_clauses = [
        QueryClause(FieldName.TYPES, Occur.SHOULD, Term(_TYPE_TERMS[kind]))
        for kind in (EntityTag.PERSON, EntityTag.LOCATION, EntityTag.ORGANIZATION)
        if kind in kinds
    ]
    # keep the MUST_NOT page-rank clause last in the canonical form
    clauses = query.clauses[:-1] + type_clauses + query.clauses[-1:]
    return _gather(index, index.search(FieldedQuery(clauses), k))


def filter_e4(term: str) -> bool:
    """Keep a returned term only if its first character is an uppercase
    letter and it contains no digit."""
    if not term:
        return False
    first = term[0]
    if not (first.isalpha() and first.isupper()):
        return False
    return not any(ch.isdigit() for ch in term)


_E5_SPLIT_RE = re.compile(
    "[\\s" + re.escape(DELIMITER_CHARS.replace("_", "")) + "]+"
)


def clean_e5(terms: list[str], stoplist: set[str]) -> list[str]:
    """Split each term on delimiters except underscore, drop stop-word
    pieces, and rejoin the survivors with underscores. Terms reduced to
    nothing are dropped."""
    cleaned = []
    for term in terms:
        pieces = [p for p in _E5_SPLIT_RE.split(term) if p]
        kept = [p for p in pieces if p.lower() not in stoplist]
        if kept:
            cleaned.append("_".join(kept))
    return cleaned


_STRATEGY_ORDER = (Strategy.E1, Strategy.E2, Strategy.E3)


def strategy_outputs(
    doc: TaggedDocument, preset: Preset, index: KbIndex
) -> list[tuple[Strategy, EnrichmentOutput]]:
    """Run the preset's retrieval strategies, in E1, E2, E3 order."""
    outputs = []
    for strategy in _STRATEGY_ORDER:
        if strategy not in preset.strategies:
            continue
        if strategy is Strategy.E1:
            out = enrich_e1(doc, index, preset.k)
        elif strategy is Strategy.E2:
            out = enrich_e2(doc, index, preset.k, preset.title_term, preset.min_rank)
        else:
            out = enrich_e3(doc, index, preset.k, preset.title_term, preset.min_rank)
        outputs.append((strategy, out))
    return outputs


def enrichment_terms(
    doc: TaggedDocument,
    preset: Preset,
    index: KbIndex,
    stoplist: set[str],
) -> list[str]:
    """Run the preset's strategies and return the filtered, cleaned terms
    to append: titles first, then categories, then linked concepts."""
    outputs = [out for _, out in strategy_outputs(doc, preset, index)]
    titles = _dedup([t for out in outputs for t in out.titles])
    categories = _dedup([c for out in outputs for c in out.categories])
    linked = _dedup([l for out in outputs for l in out.linked_concepts])

    field_lists = [titles, categories]
    if preset.include_linked:
        field_lists.append(linked)

    terms: list[str] = []
    for raw_terms in field_lists:
        kept = [t for t in raw_terms if filter_e4(t)] if preset.apply_e4 else raw_terms
        cleaned = clean_e5(kept, stoplist) if preset.apply_e5 else list(kept)
        if preset.apply_e4:
            # cleaning can strip a leading stop word; re-check the invariant
            cleaned = [t for t in cleaned if filter_e4(t)]
        terms.extend(_dedup(cleaned))
    return terms


def apply_preset(
    doc,
    preset: Preset,
    index: KbIndex | None,
    resources: TextResources,
) -> TaggedDocument:
    """Represent a raw document and append its enrichment terms as
    injected tokens after the original tokens."""
    tagged = represent(doc, preset.representation, resources)
    if not preset.strategies or index is None:
        return tagged
    stoplist = resources.stopwords or set()
    terms = enrichment_terms(tagged, preset, index, stoplist)
    next_pos = max((tok.position for tok, _ in tagged.tokens), default=-1) + 1
    appended = [
        (Token(surface=term, position=next_pos + i, injected=True), EntityTag.NONE)
        for i, term in enumerate(terms)
    ]
    return replace(tagged, tokens=tagged.tokens + appended)
