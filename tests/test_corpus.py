"""Reuters SGML parsing, 20-Newsgroups loading, subsets, and folds."""

import logging
import random

import pytest

from kbcat.corpus import (
    RawDocument,
    ReutersParseError,
    SplitHint,
    SubsetMode,
    load_20newsgroups,
    load_reuters_sgml,
    make_folds,
    select_category_subset,
)

SNIPPET = (
    '<REUTERS LEWISSPLIT="TRAIN" TOPICS="YES" NEWID="1">'
    "<TOPICS><D>earn</D></TOPICS>"
    "<TEXT><TITLE>t</TITLE><BODY>b</BODY></TEXT></REUTERS>"
)


class TestReutersSgml:
    def test_minimal_snippet(self):
        docs = load_reuters_sgml(SNIPPET.encode())
        assert len(docs) == 1
        doc = docs[0]
        assert doc.id == "1"
        assert doc.labels == {"earn"}
        assert doc.split_hint is SplitHint.TRAIN
        assert doc.title == "t"
        assert doc.body == "b"

    def test_topics_no_is_unsplit(self):
        docs = load_reuters_sgml(SNIPPET.replace('TOPICS="YES"', 'TOPICS="NO"').encode())
        assert docs[0].split_hint is SplitHint.UNSPLIT

    def test_empty_input(self):
        assert load_reuters_sgml(b"") == []

    def test_test_split(self):
        docs = load_reuters_sgml(SNIPPET.replace("TRAIN", "TEST").encode())
        assert docs[0].split_hint is SplitHint.TEST

    def test_multiple_topics_and_docs(self):
        text = (
            '<REUTERS LEWISSPLIT="TRAIN" TOPICS="YES" NEWID="7">'
            "<TOPICS><D>grain</D><D>wheat</D></TOPICS>"
            "<TEXT><TITLE>x</TITLE><BODY>y</BODY></TEXT></REUTERS>"
            '<REUTERS LEWISSPLIT="TEST" TOPICS="YES" NEWID="8">'
            "<TOPICS></TOPICS><TEXT><BODY>z</BODY></TEXT></REUTERS>"
        )
        docs = load_reuters_sgml(text.encode())
        assert docs[0].labels == {"grain", "wheat"}
        assert docs[1].labels == set()
        assert docs[1].title == ""

    def test_entities_decoded(self):
        text = SNIPPET.replace(
            "<BODY>b</BODY>", "<BODY>a &lt;b&gt; &amp; c &#65;</BODY>"
        )
        docs = load_reuters_sgml(text.encode())
        assert docs[0].body == "a <b> & c A"

    def test_unknown_entity_kept_with_warning(self, caplog):
        text = SNIPPET.replace("<BODY>b</BODY>", "<BODY>x &bogus; y</BODY>")
        with caplog.at_level(logging.WARNING):
            docs = load_reuters_sgml(text.encode())
        assert docs[0].body == "x &bogus; y"
        assert any("bogus" in rec.message for rec in caplog.records)

    @pytest.mark.parametrize("ref", [
        "&#99999999999;", "&#1114112;", "&#55296;", "&#57343;",
        pytest.param("&#" + "9" * 5000 + ";", id="5000-digits"),
    ])
    def test_numeric_reference_to_no_character_kept_with_warning(self, ref, caplog):
        text = SNIPPET.replace("<BODY>b</BODY>", f"<BODY>x {ref} y</BODY>")
        with caplog.at_level(logging.WARNING):
            docs = load_reuters_sgml(text.encode())
        assert docs[0].body == f"x {ref} y"
        assert any(ref[1:-1] in rec.message for rec in caplog.records)

    @pytest.mark.parametrize("ref, char", [
        ("&#1114111;", "\U0010ffff"), ("&#55295;", "\ud7ff"), ("&#57344;", "\ue000"),
        ("&#00000000065;", "A"),
    ])
    def test_numeric_reference_at_the_edges_decoded(self, ref, char):
        text = SNIPPET.replace("<BODY>b</BODY>", f"<BODY>x {ref} y</BODY>")
        assert load_reuters_sgml(text.encode())[0].body == f"x {char} y"

    def test_places_d_elements_are_not_labels(self):
        text = (
            '<REUTERS LEWISSPLIT="TRAIN" TOPICS="YES" NEWID="2">'
            "<TOPICS><D>earn</D></TOPICS><PLACES><D>usa</D></PLACES>"
            "<TEXT><BODY>b</BODY></TEXT></REUTERS>"
        )
        assert load_reuters_sgml(text.encode())[0].labels == {"earn"}

    def test_malformed_nesting_names_offset(self):
        bad = "<REUTERS><TOPICS></REUTERS></TOPICS>"
        with pytest.raises(ReutersParseError) as err:
            load_reuters_sgml(bad.encode())
        assert "byte 17" in str(err.value)

    def test_unclosed_element(self):
        with pytest.raises(ReutersParseError) as err:
            load_reuters_sgml(b"<REUTERS><TOPICS>")
        assert "end of input" in str(err.value)

    def test_doctype_skipped(self):
        text = '<!DOCTYPE lewis SYSTEM "lewis.dtd">\n' + SNIPPET
        assert len(load_reuters_sgml(text.encode())) == 1


def _body(text: str) -> bytes:
    return SNIPPET.replace("<BODY>b</BODY>", f"<BODY>{text}</BODY>").encode("latin-1")


class TestReutersSgmlText:
    """Which text the reader keeps, and how."""

    @pytest.mark.parametrize("text", ["a < b", "<3", "<<", "x <<3 y", "a<", "< /BODY"])
    def test_stray_lt_is_text(self, text):
        assert load_reuters_sgml(_body(text))[0].body == text

    def test_declaration_inside_body_joins_the_text_around_it(self):
        assert load_reuters_sgml(_body("ab<!-- c -->cd<!x>e"))[0].body == "abcde"

    def test_lowercase_tags(self):
        text = ('<reuters lewissplit="train" topics="yes" newid="1">'
                "<topics><d>earn</d></topics>"
                "<text><title>t</title><body>b</body></text></reuters>")
        assert load_reuters_sgml(text.encode()) == load_reuters_sgml(SNIPPET.encode())

    def test_text_outside_title_body_and_topics_d_dropped(self):
        text = ('<REUTERS NEWID="4">r<DATE>d</DATE><TOPICS>t<D>earn</D>u</TOPICS>'
                "<PLACES><D>usa</D></PLACES><TEXT>v<TITLE>x</TITLE>w"
                "<DATELINE>y</DATELINE><BODY>b<D>z</D>c</BODY></TEXT></REUTERS>")
        doc = load_reuters_sgml(text.encode())[0]
        assert (doc.title, doc.body, doc.labels) == ("x", "bc", {"earn"})

    def test_two_titles_concatenated(self):
        text = SNIPPET.replace("<TITLE>t</TITLE>", "<TITLE>one </TITLE><TITLE>two</TITLE>")
        assert load_reuters_sgml(text.encode())[0].title == "one two"

    def test_latin1_byte(self):
        assert load_reuters_sgml(_body("caf\xe9"))[0].body == "caf\u00e9"

    @pytest.mark.parametrize("seed", range(5))
    def test_closing_tag_error_names_the_byte_of_its_lt(self, seed):
        rng = random.Random(seed)
        filler = "".join(rng.choice("ab <&;\n\xe9") for _ in range(rng.randrange(200)))
        data = _body(filler + "</TITLE>")
        offset = data.index(b"</TITLE>", data.index(b"<BODY>"))
        with pytest.raises(ReutersParseError) as err:
            load_reuters_sgml(data)
        assert str(err.value) == (
            f"unexpected closing tag </TITLE> at byte {offset} (open element: BODY)")


_WORDS = ["oil", "Q3", "caf\xe9", "s&p", "<", "<5", "a > b", '"x"', "&", "A\x01B"]


def _text(rng: random.Random) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randrange(6)))


def _escape(rng: random.Random, text: str) -> str:
    """SGML for ``text``: ``&`` always escaped, ``<`` and ``\xe9`` sometimes."""
    out = []
    for ch in text:
        if ch == "&":
            out.append(rng.choice(["&amp;", "&#38;", "&AMP;"]))
        elif ch in "<\xe9" and rng.random() < 0.5:
            out.append(rng.choice(["&lt;", "&#60;"]) if ch == "<" else "&#233;")
        else:
            out.append(ch)
    return "".join(out)


def _random_document(rng: random.Random) -> tuple[str, RawDocument]:
    attrs = {"LEWISSPLIT": rng.choice(["TRAIN", "TEST", "NOT-USED", "train"]),
             "TOPICS": rng.choice(["YES", "NO", "BYPASS", "yes"]),
             "CGISPLIT": "TRAINING-SET"}
    if rng.random() < 0.8:
        attrs["NEWID"] = str(rng.randrange(10**5))
    if rng.random() < 0.5:
        attrs["OLDID"] = str(rng.randrange(10**5))
    keys = list(attrs)
    rng.shuffle(keys)
    attr_text = "".join(
        rng.choice([" ", "\n  "]) + (k if rng.random() < 0.8 else k.lower())
        + rng.choice(["=", " = "]) + f'"{attrs[k]}"' for k in keys)
    topics = [rng.choice(["earn", "acq", "s&p", "crude", "caf\xe9"])
              for _ in range(rng.randrange(4))]
    title, body = _text(rng), _text(rng)
    sgml = (f"<REUTERS{attr_text}>\n<DATE>1-MAR-1987</DATE>\n<TOPICS>"
            + "".join(f"<D>{_escape(rng, t)}</D>" for t in topics)
            + "</TOPICS>\n<PLACES><D>usa</D></PLACES>\n<TEXT>&#2;\n"
            + (f"<TITLE>{_escape(rng, title)}</TITLE>\n" if title or rng.random() < 0.5 else "")
            + "<DATELINE>LONDON, March 1 - </DATELINE>"
            + (f"<BODY>\n{_escape(rng, body)}\n&#3;</BODY>" if body or rng.random() < 0.5 else "")
            + "</TEXT>\n</REUTERS>\n")
    has_topics = attrs["TOPICS"].upper() == "YES"
    hint = {"TRAIN": SplitHint.TRAIN, "TEST": SplitHint.TEST}.get(attrs["LEWISSPLIT"].upper())
    doc = RawDocument(
        id=attrs.get("NEWID") or attrs.get("OLDID") or "",
        title=title.replace("\x01", " "), body=body.replace("\x01", " "),
        labels=set(topics), split_hint=hint if hint and has_topics else SplitHint.UNSPLIT)
    return sgml, doc


def test_random_documents_parse_back_to_their_fields():
    rng = random.Random(21578)
    for _ in range(100):
        pairs = [_random_document(rng) for _ in range(rng.randint(1, 9))]
        data = ('<!DOCTYPE lewis SYSTEM "lewis.dtd">\n'
                + "".join(sgml for sgml, _ in pairs)).encode("latin-1")
        assert load_reuters_sgml(data) == [doc for _, doc in pairs]


class TestLoad20Newsgroups:
    def test_header_stripping(self, tmp_path):
        cat = tmp_path / "talk.politics.misc"
        cat.mkdir()
        (cat / "178929").write_text("Subject: x\n\nBody")
        docs = load_20newsgroups(tmp_path)
        assert len(docs) == 1
        assert docs[0].labels == {"talk.politics.misc"}
        assert docs[0].body == "Body"
        assert docs[0].id == "talk.politics.misc/178929"

    def test_empty_category_reported(self, tmp_path, caplog):
        (tmp_path / "empty.cat").mkdir()
        with caplog.at_level(logging.INFO):
            docs = load_20newsgroups(tmp_path)
        assert docs == []
        assert any("empty.cat" in rec.message for rec in caplog.records)

    def test_two_categories(self, tmp_path):
        for cat in ("alt.a", "alt.b"):
            d = tmp_path / cat
            d.mkdir()
            (d / "1").write_text("Header: h\n\ntext")
        docs = load_20newsgroups(tmp_path)
        assert {next(iter(d.labels)) for d in docs} == {"alt.a", "alt.b"}

    def test_crlf_header_stripping(self, tmp_path):
        cat = tmp_path / "c"
        cat.mkdir()
        (cat / "1").write_bytes(b"From: a@b.c\r\nSubject: x\r\nOrganization: o\r\n\r\n"
                                b"Body line\r\n\r\nmore\r\n")
        assert load_20newsgroups(tmp_path)[0].body == "Body line\r\n\r\nmore"

    def test_cr_header_stripping(self, tmp_path):
        # old Mac line endings: a lone CR ends each line
        cat = tmp_path / "c"
        cat.mkdir()
        (cat / "1").write_bytes(b"Subject: x\rFrom: y\r\rbody\r\rmore\r")
        assert load_20newsgroups(tmp_path)[0].body == "body\r\rmore"

    def test_no_blank_line_keeps_whole_text(self, tmp_path):
        cat = tmp_path / "c"
        cat.mkdir()
        (cat / "1").write_text("just one line")
        assert load_20newsgroups(tmp_path)[0].body == "just one line"


def _doc(doc_id, labels, hint=SplitHint.UNSPLIT):
    return RawDocument(id=doc_id, title="", body="", labels=set(labels),
                       split_hint=hint)


class TestSelectCategorySubset:
    def test_top_n_with_tie_break(self):
        docs = (
            [_doc(f"a{i}", {"a"}, SplitHint.TRAIN) for i in range(5)]
            + [_doc(f"b{i}", {"b"}, SplitHint.TRAIN) for i in range(3)]
            + [_doc(f"c{i}", {"c"}, SplitHint.TRAIN) for i in range(5)]
            + [_doc(f"x{i}", {f"pad{i}"}, SplitHint.TRAIN) for i in range(8)]
        )
        categories = select_category_subset(docs, SubsetMode.TOP_TEN)
        # a and c tie at 5 training docs; lexicographic order breaks the tie
        assert categories[:3] == ("a", "c", "b")

    def test_top_ten_needs_ten_categories(self):
        docs = [_doc("1", {"a"}, SplitHint.TRAIN), _doc("2", {"b"}, SplitHint.TRAIN)]
        with pytest.raises(ValueError):
            select_category_subset(docs, SubsetMode.TOP_TEN)

    def test_train_and_test_required(self):
        docs = [
            _doc("1", {"both"}, SplitHint.TRAIN),
            _doc("2", {"both"}, SplitHint.TEST),
            _doc("3", {"train_only"}, SplitHint.TRAIN),
            _doc("4", {"test_only"}, SplitHint.TEST),
        ]
        categories = select_category_subset(docs, SubsetMode.AT_LEAST_ONE_TRAIN_ONE_TEST)
        assert categories == ("both",)


def _fold_ids(docs, folds, fold):
    return [d.id for d, f in zip(docs, folds, strict=True) if f == fold]


class TestMakeFolds:
    def test_forced_stratification(self):
        docs = [_doc(f"a{i}", {"a"}) for i in range(4)]
        docs += [_doc(f"b{i}", {"b"}) for i in range(4)]
        folds = make_folds(docs, 4, seed=3)
        for fold in range(4):
            ids = _fold_ids(docs, folds, fold)
            assert len(ids) == 2
            assert len({i[0] for i in ids}) == 2  # one of each label

    def test_deterministic(self):
        docs = [_doc(f"d{i}", {"x" if i % 2 else "y"}) for i in range(20)]
        assert make_folds(docs, 4, seed=11) == make_folds(docs, 4, seed=11)

    def test_round_robin_sizes(self):
        docs = [_doc(f"d{i}", {"only"}) for i in range(5)]
        folds = make_folds(docs, 4, seed=0)
        sizes = sorted(len(_fold_ids(docs, folds, f)) for f in range(4))
        assert sizes == [1, 1, 1, 2]

    def test_small_stratum_warns(self, caplog):
        docs = [_doc("1", {"tiny"}), _doc("2", {"tiny"})]
        with caplog.at_level(logging.WARNING):
            make_folds(docs, 4, seed=0)
        assert any("tiny" in rec.message for rec in caplog.records)

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            make_folds([_doc("1", {"a"})], 1, seed=0)

    def test_unlabeled_doc_rejected(self):
        with pytest.raises(ValueError):
            make_folds([_doc("1", set())], 2, seed=0)

    def test_partition_properties(self):
        docs = [_doc(f"d{i}", {f"c{i % 3}"}) for i in range(23)]
        folds = make_folds(docs, 4, seed=5)
        all_ids = [i for f in range(4) for i in _fold_ids(docs, folds, f)]
        assert sorted(all_ids) == sorted(d.id for d in docs)
        assert len(all_ids) == len(set(all_ids))
