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

E1-E3 are one retrieval step that differs only in its query:
``strategy_query`` builds each strategy's query and ``strategy_outputs``
searches and gathers the hits of every strategy the same way.

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
    cell_items,
)
from .textproc import (
    DELIMITER_CHARS,
    EntityTag,
    Representation,
    TaggedDocument,
    TextResources,
    represent,
)


class Strategy(Enum):
    # declaration order is the order strategy_outputs runs them in
    E1 = "E1"
    E2 = "E2"
    E3 = "E3"


@dataclass
class EnrichmentOutput:
    titles: list[str] = field(default_factory=list)
    categories: list[str] = field(default_factory=list)
    linked_concepts: list[str] = field(default_factory=list)


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
    return list(dict.fromkeys(items))


def build_e2_query(
    doc: TaggedDocument, title_term: str | None, min_rank: int
) -> FieldedQuery:
    """One SHOULD contents clause per document word (duplicates kept),
    an optional SHOULD wikiTitle clause, and a MUST_NOT page-rank range
    [1, min_rank] so only records ranked above min_rank survive."""
    clauses: list[QueryClause] = []
    if title_term:
        clauses.append(QueryClause(FieldName.WIKI_TITLE, Occur.SHOULD, Term(title_term)))
    clauses.extend(
        QueryClause(FieldName.CONTENTS, Occur.SHOULD, Term(word)) for word in doc.tokens
    )
    clauses.append(
        QueryClause(FieldName.PAGE_RANK, Occur.MUST_NOT, RangeBody(1, min_rank))
    )
    return FieldedQuery(clauses)


_TYPE_TERMS = {
    EntityTag.PERSON: "freebase:person",
    EntityTag.LOCATION: "freebase:location",
    EntityTag.ORGANIZATION: "freebase:organization",
}


def strategy_query(
    doc: TaggedDocument, strategy: Strategy, preset: Preset
) -> FieldedQuery:
    """E1: one SHOULD contents clause per word. E2: ``build_e2_query``.
    E3: E2 plus one SHOULD types clause per distinct entity kind in the
    document, in PERSON, LOCATION, ORGANIZATION order (untagged: E2)."""
    if strategy is Strategy.E1:
        return FieldedQuery([QueryClause(FieldName.CONTENTS, Occur.SHOULD, Term(word))
                             for word in doc.tokens])
    query = build_e2_query(doc, preset.title_term, preset.min_rank)
    if strategy is Strategy.E2:
        return query
    kinds = set(doc.tags)
    type_clauses = [
        QueryClause(FieldName.TYPES, Occur.SHOULD, Term(term))
        for kind, term in _TYPE_TERMS.items() if kind in kinds
    ]
    # keep the MUST_NOT page-rank clause last in the canonical form
    return FieldedQuery(query.clauses[:-1] + type_clauses + query.clauses[-1:])


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


def strategy_outputs(
    doc: TaggedDocument, preset: Preset, index: KbIndex
) -> list[tuple[Strategy, EnrichmentOutput]]:
    """Run the preset's strategies in E1, E2, E3 order, each gathering its
    top ``preset.k`` hits' titles, categories and (but for E1) linked
    concepts, deduplicated in hit order; a hit's categories and linked
    concepts are read from the KB's columns at its row. A document without
    words gets nothing."""
    outputs = []
    for strategy in Strategy:
        if strategy not in preset.strategies:
            continue
        hits = (index.search(strategy_query(doc, strategy, preset), preset.k)
                if doc.tokens else [])
        titles, categories, linked = [], [], []
        for hit in hits:
            titles.append(hit.record_title)
            categories.extend(cell_items(index.kb.categories[hit.row]))
            if strategy is not Strategy.E1:
                linked.extend(cell_items(index.kb.linked_concepts[hit.row]))
        outputs.append((strategy, EnrichmentOutput(
            _dedup(titles), _dedup(categories), _dedup(linked))))
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
    """Represent a raw document and give it its enrichment terms as
    ``injected``."""
    tagged = represent(doc, preset.representation, resources)
    if not preset.strategies or index is None:
        return tagged
    return replace(tagged, injected=enrichment_terms(tagged, preset, index, resources.stopwords))
