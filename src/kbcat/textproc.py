"""Tokenization, stop-word removal, entity tagging, noun filtering, and the
four document representations (T1-T4) used ahead of enrichment.

T1  tokens with stop words removed
T2  raw tokens with entity tags (stop words kept)
T3  T1 reduced to nouns only
T4  T3 with entity tags
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping

logger = logging.getLogger(__name__)

# Characters that terminate a token, besides whitespace. Underscore is a
# delimiter here; enrichment-injected concept tokens keep their underscores
# because they are appended directly and never pass through tokenize().
DELIMITER_CHARS = "{}[](),.;:!?\"'-/\\|<>@#$%^&*_=+~`"

_SPLIT_RE = re.compile("[\\s" + re.escape(DELIMITER_CHARS) + "]+")

NOUN_SUFFIXES = ("tion", "ment", "ness", "ity", "er", "or", "ism")


class ResourceError(ValueError):
    """A representation was requested without the resources it needs."""


class Representation(Enum):
    T1 = "T1"
    T2 = "T2"
    T3 = "T3"
    T4 = "T4"


class EntityTag(Enum):
    PERSON = "PERSON"
    LOCATION = "LOCATION"
    ORGANIZATION = "ORGANIZATION"
    NONE = "NONE"


@dataclass(frozen=True)
class Token:
    surface: str
    position: int
    injected: bool = False  # True for enrichment-appended concept tokens


@dataclass
class TaggedDocument:
    id: str
    tokens: list[tuple[Token, EntityTag]]
    labels: set[str]
    representation: Representation

    def surfaces(self) -> list[str]:
        return [tok.surface for tok, _ in self.tokens]


def split_words(text: str) -> list[str]:
    """The non-empty pieces of text between runs of whitespace and
    delimiter characters."""
    return [p for p in _SPLIT_RE.split(text) if p]


def tokenize(text: str) -> list[Token]:
    """Split text on whitespace and the delimiter set; positions run from 0."""
    return [Token(surface=p, position=i) for i, p in enumerate(split_words(text))]


def remove_stopwords(tokens: list[Token], stoplist: set[str]) -> list[Token]:
    """Drop tokens whose lowercased surface is in the stoplist.

    Order and original positions are preserved on the survivors.
    """
    return [t for t in tokens if t.surface.lower() not in stoplist]


def _normalize_word(word: str) -> str:
    """Canonical form for gazetteer matching: lowercase, delimiters stripped."""
    stripped = "".join(ch for ch in word.lower() if ch not in DELIMITER_CHARS)
    return stripped or word.lower()


class Gazetteer:
    """Multi-word surface -> entity kind map with greedy longest-match lookup."""

    def __init__(self, entries: Mapping[str, EntityTag] | None = None) -> None:
        self._entries: dict[tuple[str, ...], EntityTag] = {}
        self.max_words = 0
        if entries:
            for surface, kind in entries.items():
                self.add(surface, kind)

    def add(self, surface: str, kind: EntityTag) -> None:
        key = tuple(_normalize_word(w) for w in surface.split())
        if not key:
            return
        self._entries[key] = kind
        self.max_words = max(self.max_words, len(key))

    def lookup(self, words: tuple[str, ...]) -> EntityTag | None:
        return self._entries.get(words)

    def __len__(self) -> int:
        return len(self._entries)

    @classmethod
    def load(cls, path: str | Path) -> "Gazetteer":
        """Read ``surface<TAB>KIND`` lines, KIND in PERSON/LOCATION/ORGANIZATION."""
        gaz = cls()
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    surface, kind = line.split("\t")
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: expected surface<TAB>KIND")
                tag = EntityTag.__members__.get(kind.strip().upper())
                if tag in (None, EntityTag.NONE):
                    raise ValueError(f"{path}:{lineno}: unknown entity kind {kind.strip()!r}, "
                                     "expected PERSON, LOCATION or ORGANIZATION")
                gaz.add(surface, tag)
        return gaz


def tag_entities(
    tokens: list[Token], gaz: Gazetteer
) -> list[tuple[Token, EntityTag]]:
    """Greedy longest-match tagging of token n-grams against the gazetteer.

    Every token in a matched span receives the span's tag; unmatched tokens
    get EntityTag.NONE.
    """
    tagged: list[tuple[Token, EntityTag]] = []
    norms = [_normalize_word(t.surface) for t in tokens]
    i = 0
    n = len(tokens)
    while i < n:
        matched = False
        for span in range(min(gaz.max_words, n - i), 0, -1):
            kind = gaz.lookup(tuple(norms[i : i + span]))
            if kind is not None:
                tagged.extend((tokens[i + j], kind) for j in range(span))
                i += span
                matched = True
                break
        if not matched:
            tagged.append((tokens[i], EntityTag.NONE))
            i += 1
    return tagged


def is_noun(token: Token, lexicon: Mapping[str, bool]) -> bool:
    """Lexicon verdict when present, else suffix heuristic, else
    capitalized-mid-sentence rule."""
    word = token.surface
    lower = word.lower()
    if lower in lexicon:
        return lexicon[lower]
    if any(lower.endswith(suf) for suf in NOUN_SUFFIXES):
        return True
    return token.position > 0 and word[:1].isupper()


def filter_nouns(tokens: list[Token], lexicon: Mapping[str, bool]) -> list[Token]:
    return [t for t in tokens if is_noun(t, lexicon)]


@dataclass
class TextResources:
    """Immutable bundle of the lexical resources the representations need."""

    stopwords: set[str] | None = None
    gazetteer: Gazetteer | None = None
    nouns: Mapping[str, bool] = field(default_factory=dict)


def represent(doc, kind: Representation, resources: TextResources) -> TaggedDocument:
    """Build the requested representation of a raw document.

    Token case is preserved here; lowercasing (and stemming of original
    text) happens at feature extraction so that tagging can see
    capitalization.
    """
    text = "\n".join(part for part in (doc.title, doc.body) if part)
    tokens = tokenize(text)

    if kind in (Representation.T1, Representation.T3, Representation.T4):
        if resources.stopwords is None:
            raise ResourceError(f"{kind.value} needs a stop-word list")
        tokens = remove_stopwords(tokens, resources.stopwords)
    if kind in (Representation.T3, Representation.T4):
        tokens = filter_nouns(tokens, resources.nouns)

    if kind in (Representation.T2, Representation.T4):
        if resources.gazetteer is None:
            raise ResourceError(f"{kind.value} needs a gazetteer")
        tagged = tag_entities(tokens, resources.gazetteer)
    else:
        tagged = [(t, EntityTag.NONE) for t in tokens]

    return TaggedDocument(
        id=doc.id, tokens=tagged, labels=set(doc.labels), representation=kind
    )


def load_stoplist(path: str | Path) -> set[str]:
    """One word per line; lowercased, blank lines and # comments skipped."""
    words = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            word = line.strip().lower()
            if word and not word.startswith("#"):
                words.add(word)
    return words


def load_noun_lexicon(path: str | Path) -> dict[str, bool]:
    """One noun per line; every listed word is classified as a noun."""
    nouns: dict[str, bool] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            word = line.strip().lower()
            if word and not word.startswith("#"):
                nouns[word] = True
    return nouns


def stopwords_path() -> Path:
    return Path(__file__).parent / "data" / "stopwords_smart.txt"


def default_gazetteer_path() -> Path:
    return Path(__file__).parent / "data" / "gazetteer_default.tsv"


def default_nouns_path() -> Path:
    return Path(__file__).parent / "data" / "nouns_default.txt"
