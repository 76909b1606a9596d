"""Seeded input generator for the kbcat benchmark workloads.

Each workload is written as plain files, the only thing the program gets:
a corpus (a 20-Newsgroups style tree or Reuters-21578 style SGML), a
knowledge-base TSV dump where the preset needs one, and a config that
references both by relative path. The same workload and seed give
byte-identical files; ``digest`` hashes them so that runs on two commits
can show they saw the same inputs.

The news workloads mirror the class/cue/decoy design of the acceptance
suite's synthetic corpus: four classes in two confusable pairs, class
words that sometimes lean toward the rival class, and cue tokens in
-ing/-ed pairs that the feature stemmer collapses to one stem while the
knowledge-base index, which does not stem, keeps them apart. All words
are seeded pseudo-words of shape CVCVCVC, so no word is a stop word, a
gazetteer entry or a word the Porter stemmer folds into another pool.

Usage: python3 bench/generate.py WORKLOAD SEED OUT_DIR
"""

from __future__ import annotations

import hashlib
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CLASSES = ("alpha", "beta", "gamma", "delta")
PAIR = {"alpha": "beta", "beta": "alpha", "gamma": "delta", "delta": "gamma"}

# Names from the bundled gazetteer, copied here so that the inputs do not
# change when the program's resources do. The kb-wide documents carry
# them so that E3 adds entity-type clauses.
GAZETTEER_NAMES = {
    "PERSON": ("Barack Obama", "John Kerry", "Janet Reno", "Albert Einstein",
               "Isaac Newton", "Henry Kaiser"),
    "LOCATION": ("Tokyo", "London", "Paris", "Karachi", "New York", "Canada",
                 "Mexico", "Los Angeles"),
    "ORGANIZATION": ("NATO", "NASA", "United Nations", "World Bank",
                     "Red Cross", "Microsoft"),
}

FUNCTION_WORDS = ("the", "of", "and", "to", "in", "for", "with", "on")

_CONSONANTS = "bdfgklmnprtvz"
_VOWELS = "aiou"
_N_WORDS = (len(_CONSONANTS) * len(_VOWELS)) ** 3 * len(_CONSONANTS)


def _word(i: int) -> str:
    letters = []
    for pos in range(7):
        alphabet = _CONSONANTS if pos % 2 == 0 else _VOWELS
        i, r = divmod(i, len(alphabet))
        letters.append(alphabet[r])
    return "".join(letters)


class Lexicon:
    """Disjoint pools of distinct pseudo-words drawn from one seeded stream."""

    def __init__(self, rng: random.Random, size: int) -> None:
        self._words = [_word(i) for i in rng.sample(range(_N_WORDS), size)]
        self._next = 0

    def take(self, n: int) -> list[str]:
        if self._next + n > len(self._words):
            raise ValueError("lexicon exhausted")
        pool = self._words[self._next:self._next + n]
        self._next += n
        return pool


def _kb_line(title, rank, redirects=(), types=(), categories=(), linked=(), contents=""):
    row = [title, str(rank), "|".join(redirects), "|".join(types),
           "|".join(categories), "|".join(linked), contents]
    return "\t".join(row) + "\n"


def _write_news_tree(root: Path, docs: list[tuple[str, int, str]]) -> None:
    for cls, i, body in docs:
        cat_dir = root / "corpus" / cls
        cat_dir.mkdir(parents=True, exist_ok=True)
        (cat_dir / f"{i:04d}").write_text(
            f"From: bench{i}@example.org\nSubject: {cls} {i}\n\n{body}\n",
            encoding="utf-8")


class _ClassDesign:
    """Class words and -ing/-ed cue pairs shared by the news workloads."""

    def __init__(self, lex: Lexicon, n_cues: int) -> None:
        self.class_words = {c: lex.take(6) for c in CLASSES}
        bases = {("alpha", "beta"): lex.take(n_cues), ("gamma", "delta"): lex.take(n_cues)}
        self.cues: dict[str, list[str]] = {}
        for (first, second), pool in bases.items():
            self.cues[first] = [b + "ing" for b in pool]
            self.cues[second] = [b + "ed" for b in pool]
        self.nouns = [w.title() for w in lex.take(n_cues)]
        self.shared = lex.take(20)

    def doc_tokens(self, rng: random.Random, cls: str, confusable: bool) -> list[str]:
        """Two own cues, one cue of a class of the other pair, class words
        (leaning toward the rival class if ``confusable``) and shared words.
        The stray cue never names the rival, so whether the KB can rescue
        a confusable document does not depend on the seed."""
        n_cues = len(self.cues[cls])
        own = [self.cues[cls][j] for j in rng.sample(range(n_cues), 2)]
        other = rng.choice([c for c in CLASSES if c not in (cls, PAIR[cls])])
        cross = [self.cues[other][rng.randrange(n_cues)]]
        if confusable:
            words = (rng.sample(self.class_words[cls], 1)
                     + rng.sample(self.class_words[PAIR[cls]], 3))
        else:
            words = (rng.sample(self.class_words[cls], 3)
                     + rng.sample(self.class_words[PAIR[cls]], 1))
        return own + cross + words + rng.sample(self.shared, 4)

    def concept_lines(self, types_for) -> list[str]:
        """Ten concept records per class, matched only through one cue."""
        lines = []
        for cls in CLASSES:
            title_cls = cls.title()
            for j, noun in enumerate(self.nouns):
                lines.append(_kb_line(
                    f"{title_cls} {noun}", 8,
                    redirects=[f"{title_cls} {noun} page"],
                    types=types_for(cls, j),
                    categories=[f"Topic {title_cls}", f"zone {cls[0]}{PAIR[cls][0]} 9"],
                    linked=[f"Ally {title_cls} {('North', 'South', 'East')[j % 3]}"],
                    contents=" ".join([self.cues[cls][j]] * 3),
                ))
        return lines


NEWS_DOCS_PER_CLASS = 25
NEWS_FILLER = 40


def _news_a4(rng: random.Random, root: Path) -> None:
    """100 documents whose E2 queries have ~50 clauses, against a KB of
    544 records of which about 75 are scored for each query."""
    lex = Lexicon(rng, 11000)
    design = _ClassDesign(lex, 10)
    filler = lex.take(10000)

    docs = []
    for cls in CLASSES:
        for i in range(NEWS_DOCS_PER_CLASS):
            # three documents in ten lean toward the rival class
            tokens = design.doc_tokens(rng, cls, confusable=i % 10 < 3)
            tokens += rng.sample(filler, NEWS_FILLER)
            rng.shuffle(tokens)
            docs.append((cls, i, " ".join(tokens)))
    _write_news_tree(root, docs)

    lines = design.concept_lines(
        lambda cls, j: ["Freebase: organization"] if j % 4 == 0 else [])
    # pair decoys below the page-rank floor carry both pair topics
    for first in ("alpha", "gamma"):
        both = (first, PAIR[first])
        cues = [cue for c in both for cue in design.cues[c]]
        for d, flavor in enumerate(("pile", "stack")):
            lines.append(_kb_line(
                f"{first[0]}{PAIR[first][0]} draft {flavor} {d}4", 3,
                categories=[f"Topic {c.title()}" for c in both],
                linked=[f"stray link {first}{d}3"], contents=" ".join(cues)))
    # filler records: titles and categories the uppercase/no-digit filter
    # drops, random page ranks, contents drawn from the documents' filler
    for r in range(500):
        lines.append(_kb_line(
            f"filler entry {r}", rng.randrange(10),
            categories=[f"misc bin {r % 50}"], linked=[f"stub {r}"],
            contents=" ".join(rng.choices(filler, k=80))))
    (root / "kb.tsv").write_text("".join(lines), encoding="utf-8")
    _write_config(root, [
        "dataset = news20", "corpus_dir = corpus", "kb_dump = kb.tsv",
        "preset = A4", "eval_mode = cv", "cv_folds = 4",
    ])


WIDE_DOCS_PER_CLASS = 24
WIDE_RECORDS = 20000
WIDE_CONTENTS = 30


def _kb_wide(rng: random.Random, root: Path) -> None:
    """96 documents with gazetteer names against a KB of 20,040 records
    whose contents mostly use words the documents do not."""
    lex = Lexicon(rng, 26000)
    design = _ClassDesign(lex, 10)
    wide_vocab = lex.take(20000)
    overlap = wide_vocab[:400]  # the only wide words documents use
    name_kinds = tuple(GAZETTEER_NAMES)

    docs = []
    for c, cls in enumerate(CLASSES):
        for i in range(WIDE_DOCS_PER_CLASS):
            tokens = design.doc_tokens(rng, cls, confusable=False)
            tokens += rng.sample(overlap, 4) + rng.sample(FUNCTION_WORDS, 4)
            kinds = (name_kinds[c % 3], name_kinds[(c + i) % 3])
            tokens += [rng.choice(GAZETTEER_NAMES[k]) for k in kinds]
            rng.shuffle(tokens)
            docs.append((cls, i, " ".join(tokens)))
    _write_news_tree(root, docs)

    kind_type = {k: f"Freebase: {k.lower()}" for k in name_kinds}
    lines = design.concept_lines(
        lambda cls, j: [kind_type[name_kinds[(CLASSES.index(cls) + j) % 3]]]
        if j % 2 == 0 else [])
    categories = [f"{a.title()} {b}" for a, b in zip(lex.take(300), lex.take(300))]
    for r in range(WIDE_RECORDS):
        lines.append(_kb_line(
            f"{wide_vocab[r].title()} {rng.choice(wide_vocab)}", rng.randrange(10),
            redirects=[f"{wide_vocab[r]} {rng.choice(wide_vocab)}"],
            types=[kind_type[rng.choice(name_kinds)]] if r % 100 == 0 else [],
            categories=rng.sample(categories, 2),
            linked=[f"{rng.choice(wide_vocab).title()} {rng.choice(wide_vocab)}"],
            contents=" ".join(rng.choices(wide_vocab, k=WIDE_CONTENTS)),
        ))
    (root / "kb.tsv").write_text("".join(lines), encoding="utf-8")
    _write_config(root, [
        "dataset = news20", "corpus_dir = corpus", "kb_dump = kb.tsv",
        "preset = custom", "representation = T2", "strategies = E1,E3",
        "include_linked = true", "k = 5", "eval_mode = cv", "cv_folds = 4",
    ])


# Reuters-like skew: one topic larger than the other
REUTERS_TOPICS = ("earn", "acq")
REUTERS_PRIORS = (0.6, 0.4)
REUTERS_TRAIN = 2150
REUTERS_TEST = 600
REUTERS_UNUSED = 100
REUTERS_TOPIC_WORDS = 12
REUTERS_NOISE_WORDS = 1
REUTERS_SHARED = 6
REUTERS_FILLER = 8


def _reuters_cliff(rng: random.Random, root: Path) -> None:
    """Reuters-21578 style SGML with just over 2,048 ModApte training
    documents, a few topics and some multi-label documents."""
    lex = Lexicon(rng, 4000)
    topic_words = {t: lex.take(REUTERS_TOPIC_WORDS) for t in REUTERS_TOPICS}
    shared = lex.take(200)
    filler = lex.take(3000)

    hints = (["TRAIN"] * REUTERS_TRAIN + ["TEST"] * REUTERS_TEST
             + ["NOT-USED"] * REUTERS_UNUSED)
    rng.shuffle(hints)
    docs = []
    for newid, lewis in enumerate(hints, 1):
        if lewis == "NOT-USED":
            labels: list[str] = []
        else:
            labels = rng.choices(REUTERS_TOPICS, REUTERS_PRIORS)
            if rng.random() < 0.15:
                others = [(t, p) for t, p in zip(REUTERS_TOPICS, REUTERS_PRIORS)
                          if t != labels[0]]
                labels += rng.choices([t for t, _ in others], [p for _, p in others])
        words = []
        for t in labels:
            words += rng.sample(topic_words[t], 3)
        noise = rng.choice(REUTERS_TOPICS)
        words += rng.sample(topic_words[noise], REUTERS_NOISE_WORDS)
        words += rng.sample(shared, REUTERS_SHARED) + rng.sample(filler, REUTERS_FILLER)
        rng.shuffle(words)
        title = " ".join(w.upper() for w in words[:5])
        body = " ".join(words) + f" &lt;{rng.choice(shared).title()} Corp&gt; said."
        topics_attr = "YES" if labels else "NO"
        d_tags = "".join(f"<D>{t}</D>" for t in labels)
        docs.append(
            f'<REUTERS TOPICS="{topics_attr}" LEWISSPLIT="{lewis}" '
            f'CGISPLIT="TRAINING-SET" OLDID="{20000 + newid}" NEWID="{newid}">\n'
            f"<DATE>26-FEB-1987 15:01:01.79</DATE>\n<TOPICS>{d_tags}</TOPICS>\n"
            f"<TEXT>\n<TITLE>{title}</TITLE>\n<BODY>{body}\n</BODY></TEXT>\n"
            f"</REUTERS>\n")
    corpus = root / "corpus"
    corpus.mkdir(parents=True)
    for f, start in enumerate(range(0, len(docs), 1000)):
        text = '<!DOCTYPE lewis SYSTEM "lewis.dtd">\n' + "".join(docs[start:start + 1000])
        (corpus / f"reut2-{f:03d}.sgm").write_text(text, encoding="latin-1")
    _write_config(root, [
        "dataset = reuters90", "corpus_dir = corpus", "preset = baseline",
    ])


def _write_config(root: Path, lines: list[str]) -> None:
    (root / "experiment.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class Workload:
    write: Callable[[random.Random, Path], None]
    categories: tuple[str, ...]  # the categories metrics.tsv must report
    cv_folds: int | None  # None for the fixed train/test split


WORKLOADS = {
    "news-a4": Workload(_news_a4, CLASSES, 4),
    "reuters-cliff": Workload(_reuters_cliff, REUTERS_TOPICS, None),
    "kb-wide": Workload(_kb_wide, CLASSES, 4),
}


def generate(workload: str, seed: int, root: Path) -> str:
    """Write the workload's inputs under an empty ``root`` and return their
    digest. The config is ``root/experiment.cfg``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    if any(root.iterdir()):
        raise ValueError(f"{root} is not empty")
    WORKLOADS[workload].write(random.Random(f"{workload}:{seed}"), root)
    return digest(root)


def digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__.strip().splitlines()[-1])
    print(generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])))
