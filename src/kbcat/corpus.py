"""Benchmark corpus loading: Reuters-21578 SGML files, 20-Newsgroups
directory trees, category subset selection, and stratified fold assignment.
"""

from __future__ import annotations

import logging
import random
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

logger = logging.getLogger(__name__)


class SplitHint(Enum):
    TRAIN = "TRAIN"
    TEST = "TEST"
    UNSPLIT = "UNSPLIT"


@dataclass
class RawDocument:
    id: str
    title: str
    body: str
    labels: set[str]
    split_hint: SplitHint = SplitHint.UNSPLIT


class SubsetMode(Enum):
    TOP_TEN = "top_ten"
    AT_LEAST_ONE_TRAIN_ONE_TEST = "at_least_one_train_one_test"


class ReutersParseError(ValueError):
    """Malformed SGML; the message names the byte offset of the problem."""


# a declaration (``<!DOCTYPE ...>``, no ``name`` group) or a start or end tag
_MARKUP_RE = re.compile(
    r"<![^>]*>|<(?P<close>/?)(?P<name>[A-Za-z][-A-Za-z0-9]*)"
    r"(?P<attrs>(?:\s+[A-Za-z]+\s*=\s*\"[^\"]*\")*)\s*>"
)
_ATTR_RE = re.compile(r"([A-Za-z]+)\s*=\s*\"([^\"]*)\"")
_ENTITY_RE = re.compile(r"&(#\d+|[A-Za-z][A-Za-z0-9]*);")
_CONTROL_RE = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f]")
# the blank line that ends a post's headers, in a file of LF, CRLF or CR lines
_HEADER_END_RE = re.compile(r"\n\r?\n|\r\r")

_KNOWN_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'"}


def _decode_entity(m: re.Match) -> str:
    name = m.group(1)
    if name.startswith("#"):
        # past U+10FFFF (int() refuses very long digit strings) or a surrogate
        digits = name[1:].lstrip("0") or "0"
        if len(digits) <= 7:
            code = int(digits)
            if code <= 0x10FFFF and not 0xD800 <= code <= 0xDFFF:
                return chr(code)
    elif name.lower() in _KNOWN_ENTITIES:
        return _KNOWN_ENTITIES[name.lower()]
    logger.warning("unknown SGML entity &%s; kept verbatim", name)
    return m.group(0)


def _clean_text(text: str) -> str:
    return _CONTROL_RE.sub(" ", _ENTITY_RE.sub(_decode_entity, text)).strip()


def load_reuters_sgml(data: bytes) -> list[RawDocument]:
    """Parse the bytes of one Reuters-21578 Distribution 1.0 SGML file in
    one pass over its markup.

    Yields one document per REUTERS element. Labels come from the D
    children of TOPICS; the split hint follows the ModApte rule
    (LEWISSPLIT plus TOPICS attribute). The text between two pieces of
    markup is kept inside TITLE, BODY and a D of TOPICS; a declaration
    (``<!...>``) is skipped and a ``<`` that starts no markup is text.
    Bytes are read as latin-1, so a character offset is a byte offset.
    Character entities are decoded; unknown ones, and numeric references
    to no character (past U+10FFFF or a surrogate), are kept verbatim with
    a warning.
    """
    text = data.decode("latin-1")
    docs: list[RawDocument] = []
    stack: list[str] = []
    buffers: dict[str, list[str]] = {}
    doc_attrs: dict[str, str] = {}
    topics: list[str] = []

    pos = 0
    for markup in _MARKUP_RE.finditer(text):
        if stack and (stack[-1] in ("TITLE", "BODY") or stack[-2:] == ["TOPICS", "D"]):
            buffers.setdefault(stack[-1], []).append(text[pos:markup.start()])
        pos = markup.end()
        name = markup.group("name")
        if name is None:  # a declaration: the text runs on across it
            continue
        name = name.upper()
        if markup.group("close"):
            if not stack or stack[-1] != name:
                raise ReutersParseError(
                    f"unexpected closing tag </{name}> at byte {markup.start()}"
                    + (f" (open element: {stack[-1]})" if stack else "")
                )
            stack.pop()
            if name == "D" and stack and stack[-1] == "TOPICS":
                label = _clean_text("".join(buffers.pop("D", [])))
                if label:
                    topics.append(label)
            elif name == "REUTERS":
                docs.append(_finish_reuters_doc(doc_attrs, buffers, topics))
                buffers = {}
                doc_attrs = {}
                topics = []
        else:
            stack.append(name)
            if name == "REUTERS":
                doc_attrs = dict(
                    (k.upper(), v) for k, v in _ATTR_RE.findall(markup.group("attrs"))
                )

    if stack:
        raise ReutersParseError(
            f"unclosed element <{stack[-1]}> at byte {len(text)} (end of input)"
        )
    return docs


def _finish_reuters_doc(
    attrs: dict[str, str], buffers: dict[str, list[str]], topics: list[str]
) -> RawDocument:
    lewis = attrs.get("LEWISSPLIT", "").upper()
    has_topics = attrs.get("TOPICS", "").upper() == "YES"
    if lewis == "TRAIN" and has_topics:
        hint = SplitHint.TRAIN
    elif lewis == "TEST" and has_topics:
        hint = SplitHint.TEST
    else:
        hint = SplitHint.UNSPLIT
    return RawDocument(
        id=attrs.get("NEWID") or attrs.get("OLDID") or "",
        title=_clean_text("".join(buffers.get("TITLE", []))),
        body=_clean_text("".join(buffers.get("BODY", []))),
        labels=set(topics),
        split_hint=hint,
    )


def load_reuters_dir(path: str | Path) -> list[RawDocument]:
    """Load every reut2-*.sgm file under ``path`` in name order."""
    docs: list[RawDocument] = []
    files = sorted(Path(path).glob("reut2-*.sgm"))
    if not files:
        raise FileNotFoundError(f"no reut2-*.sgm files under {path}")
    for f in files:
        docs.extend(load_reuters_sgml(f.read_bytes()))
    logger.info("loaded %d documents from %d SGML files", len(docs), len(files))
    return docs


def load_20newsgroups(root: str | Path) -> list[RawDocument]:
    """Load a two-level category/file tree.

    The label is the directory name, the id is ``category/filename``, and
    header lines up to the first blank line are stripped from the body.
    Unreadable files are skipped with a warning.
    """
    root = Path(root)
    docs: list[RawDocument] = []
    skipped = 0
    for category_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        category = category_dir.name
        count = 0
        for doc_path in sorted(p for p in category_dir.iterdir() if p.is_file()):
            try:
                raw = doc_path.read_bytes().decode("latin-1")
            except OSError as exc:
                logger.warning("skipping unreadable file %s: %s", doc_path, exc)
                skipped += 1
                continue
            # a file without the blank line is all body
            body = _HEADER_END_RE.split(raw, 1)[-1].strip()
            docs.append(
                RawDocument(
                    id=f"{category}/{doc_path.name}",
                    title="",
                    body=body,
                    labels={category},
                )
            )
            count += 1
        logger.info("category %s: %d documents", category, count)
    if skipped:
        logger.warning("skipped %d unreadable files", skipped)
    return docs


def select_category_subset(
    docs: list[RawDocument], mode: SubsetMode
) -> tuple[str, ...]:
    """Pick the evaluated categories from split-hinted documents."""
    train_counts: dict[str, int] = {}
    test_counts: dict[str, int] = {}
    all_categories: set[str] = set()
    for doc in docs:
        for label in doc.labels:
            all_categories.add(label)
            if doc.split_hint is SplitHint.TRAIN:
                train_counts[label] = train_counts.get(label, 0) + 1
            elif doc.split_hint is SplitHint.TEST:
                test_counts[label] = test_counts.get(label, 0) + 1

    if mode is SubsetMode.TOP_TEN:
        if len(all_categories) < 10:
            raise ValueError(
                f"top-ten subset needs >= 10 categories, corpus has {len(all_categories)}"
            )
        ranked = sorted(all_categories, key=lambda c: (-train_counts.get(c, 0), c))
        return tuple(ranked[:10])

    kept = sorted(
        c for c in all_categories if train_counts.get(c, 0) >= 1 and test_counts.get(c, 0) >= 1
    )
    return tuple(kept)


def make_folds(docs: list[RawDocument], k: int, seed: int) -> list[int]:
    """Stratified k-fold assignment, deterministic for a fixed seed: the
    fold number of each document, in input order.

    Documents are stratified by their lexicographically smallest label and
    dealt round-robin within each stratum after a seeded shuffle, so fold
    sizes within a stratum differ by at most one.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    strata: dict[str, list[int]] = {}
    for row, doc in enumerate(docs):
        if not doc.labels:
            raise ValueError(f"document {doc.id} has no labels")
        strata.setdefault(min(doc.labels), []).append(row)

    rng = random.Random(seed)
    fold_of = [0] * len(docs)
    for label in sorted(strata):
        rows = strata[label]
        if k > len(rows):
            logger.warning(
                "stratum %r has %d documents for %d folds; spreading as evenly as possible",
                label, len(rows), k,
            )
        rng.shuffle(rows)
        for i, row in enumerate(rows):
            fold_of[row] = i % k
    return fold_of
