"""Word splitting, stop-word removal, entity tagging, noun filtering, and the
four document representations (T1-T4) used ahead of enrichment.

T1  words with stop words removed
T2  all words with entity tags (stop words kept)
T3  T1 reduced to nouns only
T4  T3 with entity tags
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping

# Characters that end a word, besides whitespace. Underscore is a
# delimiter here; enrichment-injected concept terms keep their underscores
# because they are kept apart from the words and never pass through
# split_words().
DELIMITER_CHARS = "{}[](),.;:!?\"'-/\\|<>@#$%^&*_=+~`"

# each delimiter byte becomes a space, and str.split() splits at runs of
# whitespace (str.isspace). Translating the UTF-8 bytes gives the same text
# as translating the characters, and faster: every delimiter is ASCII, and
# UTF-8 never puts an ASCII byte inside a multi-byte character.
# "surrogatepass" carries the lone surrogates a str can hold through both.
_BYTES_TABLE = bytes.maketrans(DELIMITER_CHARS.encode("ascii"),
                               b" " * len(DELIMITER_CHARS))

NOUN_SUFFIXES = ("tion", "ment", "ness", "ity", "er", "or", "ism")


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


@dataclass
class TaggedDocument:
    """A represented document: its words in text order with case preserved,
    one entity tag per word, and the enrichment terms appended after them."""

    tokens: list[str]
    tags: list[EntityTag]
    injected: list[str] = field(default_factory=list)


def split_words(text: str) -> list[str]:
    """The non-empty pieces of text between runs of whitespace and
    delimiter characters."""
    return (text.encode("utf-8", "surrogatepass").translate(_BYTES_TABLE)
            .decode("utf-8", "surrogatepass").split())


def lowercase_words(text: str) -> list[str]:
    """``[w.lower() for w in split_words(text)]`` in one pass over the text.

    Lowering after the translate gives the same words because lowercasing
    maps no character to or from whitespace, and a space ends a word for
    the final-sigma rule just as it does for the split. Lowering before
    the translate does not: ``"ΑΣ.Β"`` would give ``ασ``, not ``ας``."""
    return (text.encode("utf-8", "surrogatepass").translate(_BYTES_TABLE)
            .decode("utf-8", "surrogatepass").lower().split())


class Gazetteer:
    """Multi-word surface -> entity kind map with greedy longest-match lookup."""

    def __init__(self, entries: Mapping[str, EntityTag] | None = None) -> None:
        self._entries: dict[tuple[str, ...], EntityTag] = {}
        self.max_words = 0
        if entries:
            for surface, kind in entries.items():
                self.add(surface, kind)

    def add(self, surface: str, kind: EntityTag) -> None:
        # the split the documents get, so "U.S." is keyed ("u", "s")
        key = tuple(lowercase_words(surface))
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
        """Read ``surface<TAB>KIND`` lines, KIND in PERSON/LOCATION/ORGANIZATION;
        a UTF-8 byte-order mark is skipped."""
        gaz = cls()
        with open(path, encoding="utf-8-sig") as fh:
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


def tag_entities(words: list[str], gaz: Gazetteer) -> list[EntityTag]:
    """Greedy longest-match tagging of word n-grams against the gazetteer:
    one tag per word. Every word in a matched span receives the span's
    tag; unmatched words get EntityTag.NONE."""
    tags: list[EntityTag] = []
    norms = [w.lower() for w in words]
    i = 0
    n = len(words)
    while i < n:
        for span in range(min(gaz.max_words, n - i), 0, -1):
            kind = gaz.lookup(tuple(norms[i : i + span]))
            if kind is not None:
                tags.extend([kind] * span)
                i += span
                break
        else:
            tags.append(EntityTag.NONE)
            i += 1
    return tags


def is_noun(word: str, position: int, nouns: set[str]) -> bool:
    """A word in the noun lexicon (lowercase) or with a noun suffix is a
    noun; any other word is one when capitalized mid-sentence
    (``position`` counts every word of the text from 0, stop words
    included)."""
    lower = word.lower()
    if lower in nouns or lower.endswith(NOUN_SUFFIXES):
        return True
    return position > 0 and word[:1].isupper()


def filter_nouns(words: list[str], nouns: set[str]) -> list[str]:
    """The nouns of a text's full word list; a word's index is its position."""
    return [w for i, w in enumerate(words) if is_noun(w, i, nouns)]


def remove_stopwords(words: list[str], stoplist: set[str]) -> list[str]:
    """Drop words whose lowercase form is in the stoplist; order is kept."""
    return [w for w in words if w.lower() not in stoplist]


@dataclass
class TextResources:
    """Immutable bundle of the lexical resources the representations need;
    the stop words and the noun lexicon are sets of lowercase words."""

    stopwords: set[str]
    gazetteer: Gazetteer
    nouns: set[str]


def represent(doc, kind: Representation, resources: TextResources) -> TaggedDocument:
    """Build the requested representation of a raw document.

    Word case is preserved here; lowercasing (and stemming of original
    text) happens at feature extraction so that tagging can see
    capitalization.
    """
    text = "\n".join(part for part in (doc.title, doc.body) if part)
    words = split_words(text)

    if kind in (Representation.T3, Representation.T4):
        # before stop-word removal, so a word's index is its position in the
        # text; both filters are per word, so the order changes no result
        words = filter_nouns(words, resources.nouns)
    if kind in (Representation.T1, Representation.T3, Representation.T4):
        words = remove_stopwords(words, resources.stopwords)

    if kind in (Representation.T2, Representation.T4):
        tags = tag_entities(words, resources.gazetteer)
    else:
        tags = [EntityTag.NONE] * len(words)

    return TaggedDocument(tokens=words, tags=tags)


def load_word_list(path: str | Path) -> set[str]:
    """A stop list or noun lexicon: one word per line, lowercased; blank
    lines, # comments and a UTF-8 byte-order mark skipped."""
    words = set()
    with open(path, encoding="utf-8-sig") as fh:
        for line in fh:
            word = line.strip().lower()
            if word and not word.startswith("#"):
                words.add(word)
    return words


def stopwords_path() -> Path:
    return Path(__file__).parent / "data" / "stopwords_smart.txt"


def default_gazetteer_path() -> Path:
    return Path(__file__).parent / "data" / "gazetteer_default.tsv"


def default_nouns_path() -> Path:
    return Path(__file__).parent / "data" / "nouns_default.txt"
