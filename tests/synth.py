"""Deterministic synthetic corpus + miniature knowledge base for the
end-to-end checks.

Design: four single-label classes in two confusable pairs. Documents mix
weak class words (some documents lean toward the paired rival class) with
distinctive per-record cue tokens. The knowledge base holds ten concept
records per class whose categories name the class, one low-page-rank decoy
per class carrying the rival's category (the page-rank floor of the
fielded query skips decoys; plain contents retrieval does not), and junk
records whose titles and categories are all droppable by the
uppercase/no-digit filter."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from kbcat.corpus import RawDocument
from kbcat.kbindex import KbColumns

CLASSES = ("alpha", "beta", "gamma", "delta")
PAIR = {"alpha": "beta", "beta": "alpha", "gamma": "delta", "delta": "gamma"}

CLASS_WORDS = {
    "alpha": ["ridge", "ember", "quartz", "lantern", "mosaic", "harbor"],
    "beta": ["violet", "canyon", "prism", "meadow", "cobalt", "drift"],
    "gamma": ["saffron", "timber", "anchor", "dune", "marble", "thicket"],
    "delta": ["willow", "comet", "garnet", "sable", "harvest", "fjord"],
}

# Cue tokens come in -ing/-ed pairs that the feature stemmer collapses to
# one stem, so the plain bag-of-words classifier cannot tell the paired
# classes apart through them, while the knowledge-base index (which does
# not stem) retrieves the right class's records exactly.
_CUE_BASES = {
    ("alpha", "beta"): ["brew", "cart", "dock", "farm", "hatch",
                        "lodge", "mint", "perch", "quilt", "rake"],
    ("gamma", "delta"): ["sail", "weld", "twist", "bloom", "forge",
                         "graft", "plow", "spool", "trawl", "knit"],
}


def _cue_suffix(base: str, suffix: str) -> str:
    if suffix == "ing" and base.endswith("e"):
        return base[:-1] + "ing"
    if suffix == "ed" and base.endswith("e"):
        return base + "d"
    return base + suffix

SHARED_WORDS = [
    "report", "meeting", "public", "office", "market", "weekly", "notes",
    "press", "record", "group", "local", "annual", "update", "board",
    "member", "session", "review", "general", "summary", "release",
]

CONCEPT_NOUNS = ["Exchange", "Forum", "Council", "Bureau", "Archive",
                 "Institute", "Society", "Network", "Guild", "Assembly"]

N_CONCEPTS = 10
DOCS_PER_CLASS = 50


def _cue(cls: str, j: int) -> str:
    for (first, second), bases in _CUE_BASES.items():
        if cls == first:
            return _cue_suffix(bases[j], "ing")
        if cls == second:
            return _cue_suffix(bases[j], "ed")
    raise ValueError(cls)


def build_kb() -> list[KnowledgeRecord]:
    rng = random.Random(4242)
    records: list[KnowledgeRecord] = []
    for cls in CLASSES:
        for j in range(N_CONCEPTS):
            # records match only through their distinctive cue token,
            # so retrieval stays reliable even for documents whose class
            # words lean toward the rival class, and the top-k cutoff
            # actually excludes unrelated concepts
            contents = " ".join([_cue(cls, j)] * 3)
            records.append(KnowledgeRecord(
                title=f"{cls.title()} {CONCEPT_NOUNS[j]}",
                redirects=[f"{cls.title()} {CONCEPT_NOUNS[j]} page"],
                entity_types=["Freebase: organization"] if j % 4 == 0 else [],
                categories=[f"Topic {cls.title()}", f"zone {cls[0]}{PAIR[cls][0]} 9"],
                linked_concepts=[
                    f"Ally {cls.title()} {('North', 'South', 'East')[j % 3]}"
                ],
                contents=contents,
                page_rank=8,
            ))
    # low-quality pair decoys: they match the cue tokens of both classes
    # of a confusable pair and carry both pair topics, so retrieval that
    # ignores the page-rank floor injects pair-ambiguous categories; the
    # fielded query's -pageRank:[1 TO 5] clause screens them out
    for pair in ("alpha", "gamma"):
        both = (pair, PAIR[pair])
        cues = [_cue(c, j) for c in both for j in range(N_CONCEPTS)]
        tag = pair[0] + PAIR[pair][0]
        for d, flavor in enumerate(("pile", "stack")):
            records.append(KnowledgeRecord(
                title=f"{tag} draft {flavor} {d}4",
                categories=[f"Topic {c.title()}" for c in both],
                linked_concepts=[f"stray {tag} link {d}3"],
                contents=" ".join(cues),
                page_rank=3,
            ))
    # aggregator junk: strong cue overlap with every class, excluded by the
    # page-rank floor, and nothing it returns survives the E4 filter
    for a in range(3):
        cues = [_cue(cls, j) for cls in CLASSES for j in range(N_CONCEPTS)]
        records.append(KnowledgeRecord(
            title=f"bulk archive {a}9",
            categories=[f"mixed dump {a}1", f"temp area {a}5"],
            linked_concepts=[f"crawl queue {a}7"],
            contents=" ".join(cues + SHARED_WORDS[:8]),
            page_rank=2,
        ))
    # plain junk: shared-word soup, passes the page-rank floor but injects
    # nothing once the uppercase/no-digit filter is on
    for a in range(3):
        records.append(KnowledgeRecord(
            title=f"scratch notes {a}3",
            categories=[f"misc bin {a}2"],
            linked_concepts=[f"loose ends {a}8"],
            contents=" ".join(SHARED_WORDS[a::2]),
            page_rank=9,
        ))
    assert len(records) == 50
    return records


def build_docs(seed: int = 1337) -> list[RawDocument]:
    rng = random.Random(seed)
    docs: list[RawDocument] = []
    for cls in CLASSES:
        rival = PAIR[cls]
        for i in range(DOCS_PER_CLASS):
            own_cues = [_cue(cls, j) for j in rng.sample(range(N_CONCEPTS), 2)]
            cross_class = rng.choice([c for c in CLASSES if c != cls])
            cross_cues = [_cue(cross_class, rng.randrange(N_CONCEPTS))]
            confusable = i % 10 < 3
            if confusable:
                words = (rng.sample(CLASS_WORDS[cls], 1)
                         + rng.sample(CLASS_WORDS[rival], 3))
            else:
                words = (rng.sample(CLASS_WORDS[cls], 3)
                         + rng.sample(CLASS_WORDS[rival], 1))
            shared = rng.sample(SHARED_WORDS, 4)
            tokens = own_cues + cross_cues + words + shared
            rng.shuffle(tokens)
            docs.append(RawDocument(
                id=f"{cls}/{i:03d}",
                title="",
                body=" ".join(tokens),
                labels={cls},
            ))
    return docs


def write_corpus_tree(docs: list[RawDocument], root: Path) -> None:
    for doc in docs:
        cls, name = doc.id.split("/")
        cat_dir = root / cls
        cat_dir.mkdir(parents=True, exist_ok=True)
        (cat_dir / name).write_text(f"Subject: {name}\n\n{doc.body}\n",
                                    encoding="utf-8")


@dataclass
class KnowledgeRecord:
    """One KB record as a test writes it into a dump."""

    title: str
    redirects: list[str] = field(default_factory=list)
    entity_types: list[str] = field(default_factory=list)
    categories: list[str] = field(default_factory=list)
    linked_concepts: list[str] = field(default_factory=list)
    contents: str = ""
    page_rank: int = 0


def write_kb_dump(records: list[KnowledgeRecord], path: Path) -> None:
    """Write the TAB-separated dump ``kbindex.load_kb_dump`` reads. A record
    the dump would not give back unchanged is refused: an empty title, an
    empty list item or one holding '|', or a TAB, newline or CR in a field."""
    def join(items: list[str]) -> str:
        for item in items:
            if not item or "|" in item:
                raise ValueError(f"a list item must be non-empty and hold no '|': {item!r}")
        return "|".join(items)

    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            if not r.title:
                raise ValueError(f"a record needs a title: {r!r}")
            row = [r.title, str(r.page_rank), join(r.redirects),
                   join(r.entity_types), join(r.categories),
                   join(r.linked_concepts), r.contents]
            for cell in row:
                if "\t" in cell or "\n" in cell or "\r" in cell:
                    raise ValueError(f"TAB/newline/CR not allowed in field: {cell!r}")
            fh.write("\t".join(row) + "\n")


def read_record(kb: KbColumns, title: str) -> KnowledgeRecord | None:
    """The record with this title as the loaded columns hold it, or None:
    the inverse of ``write_kb_dump`` for a record it accepts."""
    row = kb.rows.get(title)
    if row is None:
        return None

    def items(column: list[str]) -> list[str]:
        return [item for item in column[row].split("|") if item]

    return KnowledgeRecord(
        title=kb.titles[row], redirects=items(kb.redirects),
        entity_types=items(kb.entity_types), categories=items(kb.categories),
        linked_concepts=items(kb.linked_concepts), contents=kb.contents[row],
        page_rank=kb.page_ranks[row])


def write_reuters_sgml(docs: list[RawDocument], path: Path) -> None:
    """Write ``docs`` as one Reuters SGML file for ModApte split runs.

    Every fourth document is a TEST document and the rest are TRAIN, every
    fifth also carries its rival class's topic (multi-label), and every
    23rd is NOT-USED, so it is loaded and admitted but in neither set."""
    parts = ['<!DOCTYPE lewis SYSTEM "lewis.dtd">\n']
    for newid, doc in enumerate(docs, 1):
        cls = min(doc.labels)
        topics = [cls, PAIR[cls]] if newid % 5 == 0 else [cls]
        lewis = ("NOT-USED" if newid % 23 == 0
                 else "TEST" if newid % 4 == 0 else "TRAIN")
        d_tags = "".join(f"<D>{t}</D>" for t in topics)
        parts.append(
            f'<REUTERS TOPICS="YES" LEWISSPLIT="{lewis}" NEWID="{newid}">\n'
            f"<TOPICS>{d_tags}</TOPICS>\n<TEXT><TITLE>{doc.id}</TITLE>\n"
            f"<BODY>{doc.body}</BODY></TEXT>\n</REUTERS>\n")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(parts), encoding="latin-1")
