"""Reuters SGML parsing, 20-Newsgroups loading, subsets, and folds."""

import logging

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
