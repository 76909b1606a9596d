"""Word splitting, stop words, tagging, noun filtering, and the golden
representation fixtures."""

import random
import re
import sys

import pytest

from conftest import (
    SAMPLE_GAZETTEER_ENTRIES,
    SAMPLE_NOUNS,
    SAMPLE_POST,
    SAMPLE_STOPLIST,
)
from kbcat.corpus import RawDocument
from kbcat.textproc import (
    DELIMITER_CHARS,
    EntityTag,
    Gazetteer,
    Representation,
    ResourceError,
    TextResources,
    filter_nouns,
    is_noun,
    lowercase_words,
    remove_stopwords,
    represent,
    split_words,
    tag_entities,
)


class TestTokenize:
    def test_bang_path_splits_on_delimiters(self):
        words = split_words("{uunet,pyramid}!optilink!cramer")
        assert words == ["uunet", "pyramid", "optilink", "cramer"]

    def test_empty(self):
        assert split_words("") == []

    def test_trailing_delimiters(self):
        assert split_words("He, Reno,") == ["He", "Reno"]

    def test_positions_sequential(self):
        # a word's position is its index in the split, counted from 0, so
        # only the first word is sentence-initial
        words = split_words("One, Two; Three")
        assert [i for i, w in enumerate(words) if is_noun(w, i, {})] == [1, 2]

    def test_underscore_is_a_delimiter(self):
        # injected concept terms keep underscores only because they are
        # never split
        assert split_words("a_b") == ["a", "b"]

    def test_every_code_point_splits_as_the_regex_does(self):
        # the regex split_words used before it split with str.split()
        split_re = re.compile("[\\s" + re.escape(DELIMITER_CHARS) + "]+")
        text = "x" + "x".join(map(chr, range(sys.maxunicode + 1))) + "x"
        assert split_words(text) == [p for p in split_re.split(text) if p]

    def test_bytes_table_splits_as_str_translate(self):
        # the delimiters are replaced in the UTF-8 bytes; the reference
        # replaces them in the characters
        table = str.maketrans(dict.fromkeys(DELIMITER_CHARS, " "))
        rng = random.Random(15)
        alphabet = [*DELIMITER_CHARS, *_WHITESPACE, "a", "Z", "é", "Σ", "ς", "İ",
                    "\U0001F600", "\U00010400", "\ud800", "\udfff", "\ud83d", "\ude00"]
        for _ in range(20000):
            text = "".join(rng.choices(alphabet, k=rng.randint(0, 16)))
            assert split_words(text) == text.translate(table).split(), ascii(text)
            assert lowercase_words(text) == text.translate(table).lower().split(), \
                ascii(text)


_WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]


class TestLowercaseWords:
    @pytest.mark.parametrize("text", [
        # a capital sigma lowercases to a final sigma only at a word's end,
        # so lowering "ΑΣ.Β" before the delimiter became a space gives "ασ"
        "ΑΣ.Β", "ΑΣ Β", "ΑΣΒ", "(ΣΟΦΙΑ)|ΑΣ",
        # a dotted capital I lowercases to two code points
        "İ", "İstanbul.İ",
        # the Kelvin sign lowercases to an ASCII k
        "\u212a", "\u212aelvin|\u212a",
        "", " | ", "Straße ǅemal K-Mart",
    ])
    def test_equals_lowercased_split(self, text):
        assert lowercase_words(text) == [w.lower() for w in split_words(text)]

    def test_every_whitespace_character_ends_a_word(self):
        for space in _WHITESPACE:
            text = f"ΑΣ{space}Β{space}İ{space}\u212a{space}Σ"
            expected = [w.lower() for w in split_words(text)]
            assert lowercase_words(text) == expected and len(expected) == 5, hex(ord(space))

    def test_random_cased_text(self):
        rng = random.Random(20261019)
        alphabet = ["Σ", "Α", "İ", "\u212a", "ǅ", "ß", "a", "\u0301", "·", "'", ".",
                    "|", "-", "\u200b", "ͅ", *_WHITESPACE]
        for _ in range(2000):
            text = "".join(rng.choices(alphabet, k=rng.randint(0, 12)))
            assert lowercase_words(text) == [w.lower() for w in split_words(text)], text


class TestRemoveStopwords:
    def test_case_insensitive(self):
        assert remove_stopwords(split_words("The boss"), {"the"}) == ["boss"]

    def test_empty(self):
        assert remove_stopwords([], {"the"}) == []

    def test_positions_preserved(self):
        # "Fox" keeps its place in the text after "the" is dropped, so the
        # noun rule does not see it as sentence-initial
        doc = RawDocument(id="d", title="", body="the Fox ran", labels={"c"})
        res = TextResources(stopwords={"the"}, nouns={})
        assert represent(doc, Representation.T1, res).tokens == ["Fox", "ran"]
        assert represent(doc, Representation.T3, res).tokens == ["Fox"]

    def test_idempotent(self):
        words = split_words(SAMPLE_POST)
        once = remove_stopwords(words, SAMPLE_STOPLIST)
        twice = remove_stopwords(once, SAMPLE_STOPLIST)
        assert once == twice


class TestTagEntities:
    def test_single_word_entities(self, sample_gazetteer):
        words = split_words("Reno called the FBI from America")
        tagged = dict(zip(words, tag_entities(words, sample_gazetteer)))
        assert tagged["Reno"] is EntityTag.PERSON
        assert tagged["FBI"] is EntityTag.ORGANIZATION
        assert tagged["America"] is EntityTag.LOCATION
        assert tagged["called"] is EntityTag.NONE

    def test_multiword_longest_match(self, sample_gazetteer):
        # "E." loses its period in the split, as the gazetteer entry does
        tags = tag_entities(split_words("Clayton E. Cramer"), sample_gazetteer)
        assert tags == [EntityTag.PERSON] * 3

    def test_empty_gazetteer(self):
        assert tag_entities(["Reno", "FBI"], Gazetteer()) == [EntityTag.NONE] * 2

    def test_entries_with_delimiters_match(self):
        gaz = Gazetteer({"U.S.": EntityTag.LOCATION,
                         "Coca-Cola": EntityTag.ORGANIZATION,
                         "AT&T": EntityTag.ORGANIZATION})
        words = split_words("The U.S. buys Coca-Cola from AT&T.")
        assert dict(zip(words, tag_entities(words, gaz))) == {
            "The": EntityTag.NONE, "U": EntityTag.LOCATION, "S": EntityTag.LOCATION,
            "buys": EntityTag.NONE, "Coca": EntityTag.ORGANIZATION,
            "Cola": EntityTag.ORGANIZATION, "from": EntityTag.NONE,
            "AT": EntityTag.ORGANIZATION, "T": EntityTag.ORGANIZATION,
        }


class TestGazetteerLoad:
    def test_kinds_read_case_insensitively(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_text("# comment\nClayton Cramer\tperson\nReno\t Location \n"
                        "FBI\tORGANIZATION\n", encoding="utf-8")
        gaz = Gazetteer.load(path)
        assert len(gaz) == 3
        assert gaz.lookup(("reno",)) is EntityTag.LOCATION
        assert gaz.lookup(("clayton", "cramer")) is EntityTag.PERSON

    @pytest.mark.parametrize("kind", ["ANIMAL", "NONE", "none", "PERSONS"])
    def test_unknown_kind_names_file_and_line(self, tmp_path, kind):
        path = tmp_path / "gaz.tsv"
        path.write_text(f"Reno\tPERSON\nFido\t{kind}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: unknown entity kind"):
            Gazetteer.load(path)


class TestFilterNouns:
    def test_keeps_lexicon_suffix_and_capitalized(self):
        words = split_words("said Reno boss reminder government quickly")
        out = filter_nouns(words, {"boss": True})
        assert out == ["Reno", "boss", "reminder", "government"]

    def test_empty(self):
        assert filter_nouns([], {}) == []

    def test_lexicon_can_veto(self):
        words = ["running", "reminder"]
        assert filter_nouns(words, {"running": False}) == ["reminder"]
        assert filter_nouns(words, {"reminder": False}) == []

    def test_sentence_initial_capital_not_a_noun(self):
        assert filter_nouns(["Run", "Reno"], {}) == ["Reno"]


def _resources() -> TextResources:
    return TextResources(
        stopwords=SAMPLE_STOPLIST,
        gazetteer=Gazetteer(SAMPLE_GAZETTEER_ENTRIES),
        nouns=SAMPLE_NOUNS,
    )


def _sample_doc() -> RawDocument:
    return RawDocument(id="179112", title="", body=SAMPLE_POST,
                       labels={"talk.politics.misc"})


# What the pipeline's deterministic rules produce on the sample post. The
# reference transcription drops one of the two "who" occurrences and ends
# at "opinions"; a deterministic stop list keeps both and "mine" (which
# the T3 reference output requires anyway, since T3 filters T1's tokens).
EXPECTED_T1 = [
    "reno", "fbi", "got", "wanted", "reminder", "of", "who", "boss",
    "america", "thugs", "who", "work", "government", "clayton", "cramer",
    "uunet", "pyramid", "optilink", "cramer", "opinions", "mine",
]

EXPECTED_T3 = [
    "Reno", "FBI", "reminder", "boss", "America", "thugs", "government",
    "Clayton", "Cramer", "uunet", "cramer", "opinions", "mine",
]


def _is_subsequence(needle: list[str], haystack: list[str]) -> bool:
    it = iter(haystack)
    return all(any(x == y for y in it) for x in needle)


class TestRepresent:
    def test_t1_golden(self):
        doc = represent(_sample_doc(), Representation.T1, _resources())
        lowered = [s.lower() for s in doc.tokens]
        assert lowered == EXPECTED_T1
        assert lowered[:5] == ["reno", "fbi", "got", "wanted", "reminder"]
        # the reference transcription is a subsequence of the rule output
        reference = ("reno fbi got wanted reminder of who boss america thugs "
                     "work government clayton cramer uunet pyramid optilink "
                     "cramer opinions").split()
        assert _is_subsequence(reference, lowered)
        assert doc.tags == [EntityTag.NONE] * len(doc.tokens)

    def test_t2_keeps_stopwords_and_tags(self):
        doc = represent(_sample_doc(), Representation.T2, _resources())
        assert "Why" in doc.tokens and "the" in doc.tokens  # stop words retained
        tags = dict(zip(doc.tokens, doc.tags))
        assert tags["Reno"] is EntityTag.PERSON
        assert tags["FBI"] is EntityTag.ORGANIZATION
        assert tags["America"] is EntityTag.LOCATION
        assert tags["Clayton"] is EntityTag.PERSON
        assert tags["Cramer"] is EntityTag.PERSON

    def test_t3_golden(self):
        doc = represent(_sample_doc(), Representation.T3, _resources())
        surfaces = doc.tokens
        assert surfaces == EXPECTED_T3
        assert surfaces[:3] == ["Reno", "FBI", "reminder"]
        assert surfaces[-2:] == ["opinions", "mine"]
        # contiguous run from the reference output
        i = surfaces.index("boss")
        assert surfaces[i:i + 4] == ["boss", "America", "thugs", "government"]

    def test_t4_golden_tags(self):
        doc = represent(_sample_doc(), Representation.T4, _resources())
        assert doc.tokens == EXPECTED_T3
        tags = dict(zip(doc.tokens, doc.tags))
        assert tags["FBI"] is EntityTag.ORGANIZATION
        assert tags["America"] is EntityTag.LOCATION
        assert tags["Clayton"] is EntityTag.PERSON
        assert tags["Cramer"] is EntityTag.PERSON

    def test_t3_subsequence_of_t1(self):
        res = _resources()
        t1 = represent(_sample_doc(), Representation.T1, res).tokens
        t3 = represent(_sample_doc(), Representation.T3, res).tokens
        assert _is_subsequence(t3, t1)

    def test_t4_tags_subset_of_t2(self):
        res = _resources()
        t2 = represent(_sample_doc(), Representation.T2, res)  # every word, tagged
        kept = [i for i, w in enumerate(t2.tokens)
                if w.lower() not in res.stopwords and is_noun(w, i, res.nouns)]
        t4 = represent(_sample_doc(), Representation.T4, res)
        assert t4.tokens == [t2.tokens[i] for i in kept]
        for i, tag in zip(kept, t4.tags):
            if tag is not EntityTag.NONE:
                assert t2.tags[i] is tag

    def test_missing_resource_errors(self):
        with pytest.raises(ResourceError):
            represent(_sample_doc(), Representation.T1, TextResources(stopwords=None))
        with pytest.raises(ResourceError):
            represent(_sample_doc(), Representation.T2,
                      TextResources(stopwords=SAMPLE_STOPLIST, gazetteer=None))

    def test_order_preserved_on_random_text(self):
        rng = random.Random(7)
        words = ["alpha", "the", "Boss", "of", "映", "reminder", "x1", "said"]
        for _ in range(50):
            text = " ".join(rng.choice(words) for _ in range(rng.randint(0, 30)))
            doc = RawDocument(id="r", title="", body=text, labels={"c"})
            for kind in Representation:
                tagged = represent(doc, kind, _resources())
                assert _is_subsequence(tagged.tokens, split_words(text))
                assert len(tagged.tags) == len(tagged.tokens)

    @pytest.mark.parametrize("kind", [Representation.T3, Representation.T4])
    def test_nouns_filtered_before_stop_words_match_per_word_rule(self, kind):
        # T3/T4 filter nouns on the full word list and then drop stop
        # words; the two per-word filters commute, so the result is the
        # one-pass rule over (index, word)
        rng = random.Random(11)
        pool = ["The", "the", "Boss", "boss", "of", "Of", "Reno", "reminder",
                "running", "quickly", "America", "x1", "He", "thugs", "映"]
        res = _resources()
        for _ in range(200):
            words = [rng.choice(pool) for _ in range(rng.randint(0, 25))]
            doc = RawDocument(id="r", title="", body=" ".join(words), labels={"c"})
            expected = [w for i, w in enumerate(words)
                        if w.lower() not in res.stopwords and is_noun(w, i, res.nouns)]
            assert represent(doc, kind, res).tokens == expected
