"""Index construction, query parsing, scoring, search, and dump I/O."""

import hashlib
import itertools
import math
import random
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import kb_index, make_tagged, retrieve
from kbcat.enrich import Strategy
from kbcat.kbindex import (
    DuplicateTitleError,
    FieldedQuery,
    FieldName,
    KbIndex,
    KnowledgeRecord,
    Occur,
    QueryClause,
    QuerySyntaxError,
    RangeBody,
    SearchHit,
    Term,
    load_kb_dump,
    parse_query,
    serialize_query,
)
from kbcat.textproc import EntityTag
from oracles import _record_field_terms, brute_force_search
from synth import build_kb, write_kb_dump

INDEXED_FIELDS = [f for f in FieldName if f is not FieldName.PAGE_RANK]


def field_as_dicts(index: KbIndex, fname: FieldName
                   ) -> tuple[dict[str, dict[str, int]], dict[str, int]]:
    """The field's postings as {term: {title: tf}} and its token counts as
    {title: length}, rebuilt from the index's arrays."""
    field = index._field(fname)
    titles = index._kb.titles
    postings = {}
    for term, row in field.rows.items():
        span = slice(field.starts[row], field.starts[row + 1])
        postings[term] = {titles[i]: int(tf)
                          for i, tf in zip(field.ids[span], field.tfs[span])}
    return postings, dict(zip(titles, field.lengths.tolist()))


class TestBuildIndex:
    def test_empty_index(self):
        index = kb_index([])
        assert len(index) == 0
        for text in ["contents:x", "wikiTitle:x types:y +categories:z",
                     "pageRank:0 contents:x -pageRank:[1 TO 5]",
                     "+pageRank:[0 TO 9] contents:x"]:
            assert index.search(parse_query(text), 5) == [], text

    def test_entity_type_normalization(self, kb_sample):
        index = kb_index(kb_sample)
        hits = index.search(parse_query("types:freebase:organization contents:health"), 10)
        # both match "health" in contents, only the organization record
        # matches the types clause, so it scores a higher coordination
        assert hits[0].record_title == "Kaiser Permanente"
        only_types = index.search(FieldedQuery([
            QueryClause(FieldName.TYPES, Occur.SHOULD, Term("freebase:organization"))
        ]), 10)
        assert [h.record_title for h in only_types] == ["Kaiser Permanente"]

    def test_term_frequencies(self):
        index = kb_index([KnowledgeRecord(title="r", contents="drug drug heart")])
        postings, field_len = field_as_dicts(index, FieldName.CONTENTS)
        assert postings == {"drug": {"r": 2}, "heart": {"r": 1}}
        assert field_len == {"r": 3}

    def test_duplicate_title_rejected(self):
        records = [KnowledgeRecord(title="Same"), KnowledgeRecord(title="Same")]
        with pytest.raises(DuplicateTitleError, match="Same"):
            kb_index(records)

    @pytest.mark.parametrize("list_field", ["redirects", "entity_types", "categories",
                                            "linked_concepts"])
    @pytest.mark.parametrize("item", ["", "a|b", "|"])
    def test_list_item_a_dump_cannot_hold_rejected(self, list_field, item):
        # such an item would not come back unchanged from get_record
        record = KnowledgeRecord(title="t", **{list_field: ["ok", item]})
        with pytest.raises(ValueError, match="non-empty and hold no '\\|'"):
            kb_index([record])


# words whose lowercase is not the ASCII rule: a Greek capital sigma that
# lowercases to a final sigma only at the end of a word, a dotted capital I
# that lowercases to two code points, and a titlecase digraph
_CASED_WORDS = ["ΑΣ.Β", "ΑΣ", "İstanbul", "İ", "ǅemal", "Straße", "drug", "HEART",
                "K-Mart", "(Σοφία)"]


def _random_cased_record(rng: random.Random, i: int) -> KnowledgeRecord:
    def words(lo: int, hi: int) -> str:
        return " ".join(rng.choices(_CASED_WORDS, k=rng.randint(lo, hi)))

    return KnowledgeRecord(
        title=f"{words(1, 3)} {i}",
        redirects=[words(1, 2) for _ in range(rng.randint(0, 2))],
        entity_types=rng.sample(["Freebase: Organization", "FREEBASE:person",
                                 "Ίδρυμα: ΑΣ"], k=rng.randint(0, 2)),
        categories=[words(1, 3) for _ in range(rng.randint(0, 3))],
        linked_concepts=[words(1, 2) for _ in range(rng.randint(0, 2))],
        contents=words(0, 12),
        page_rank=rng.randint(0, 9),
    )


class TestLazyFields:
    @pytest.mark.parametrize("kb", ["sample", "random"])
    def test_field_equals_counter_over_field_terms(self, kb_sample, kb):
        if kb == "sample":
            records = kb_sample
        else:
            rng = random.Random(20261018)
            records = [_random_cased_record(rng, i) for i in range(40)]
        index = kb_index(records)
        for fname in INDEXED_FIELDS:
            counts = {r.title: Counter(_record_field_terms(r, fname)) for r in records}
            vocabulary = set().union(*counts.values())
            expected = {
                term: {title: c[term] for title, c in counts.items() if term in c}
                for term in vocabulary
            }
            postings, field_len = field_as_dicts(index, fname)
            assert postings == expected, fname
            assert field_len == {title: c.total() for title, c in counts.items()}, fname

    @pytest.mark.parametrize("title_term, tags, built", [
        (None, None, {FieldName.CONTENTS}),
        ("usa", None, {FieldName.CONTENTS, FieldName.WIKI_TITLE}),
        (None, [EntityTag.ORGANIZATION, EntityTag.NONE],
         {FieldName.CONTENTS, FieldName.TYPES}),
    ])
    def test_search_builds_only_the_fields_it_queries(self, kb_sample, title_term,
                                                      tags, built):
        # E3 without entity tags is exactly E2's query
        index = kb_index(kb_sample)
        assert index._fields == {}
        retrieve(make_tagged(["kaiser", "health"], tags=tags), index, Strategy.E3, 5,
                 title_term=title_term)
        assert set(index._fields) == built

    @pytest.mark.parametrize("kb", ["sample", "random"])
    def test_postings_are_exact_size_int32_with_ascending_ids(self, kb_sample, kb):
        # field_as_dicts sees neither the order of a term's ids nor a dtype
        rng = random.Random(20261018)
        records = kb_sample if kb == "sample" else [
            _random_cased_record(rng, i) for i in range(40)]
        index = kb_index(records)
        for fname in INDEXED_FIELDS:
            field = index._field(fname)
            starts = field.starts.tolist()
            assert len(starts) == len(field.rows) + 1, fname
            assert starts[0] == 0 and starts[-1] == len(field.ids), fname
            assert all(a <= b for a, b in zip(starts, starts[1:])), fname
            for a, b in zip(starts, starts[1:]):
                assert (np.diff(field.ids[a:b]) > 0).all(), fname
            for arr in (field.ids, field.tfs, field.lengths):
                assert arr.dtype == np.int32, fname
            for arr in (field.ids, field.tfs):
                # not a view into a buffer the size of the field's tokens
                assert arr.base is None or memoryview(arr.base).nbytes == arr.nbytes, fname

    def test_field_empty_in_every_record(self):
        index = kb_index([KnowledgeRecord(title="a", contents="x"), KnowledgeRecord(title="b")])
        field = index._field(FieldName.TYPES)
        assert field.rows == {} and field.starts.tolist() == [0]
        assert field.lengths.tolist() == [0, 0]
        assert index.search(parse_query("types:x"), 5) == []

    def test_repeated_list_item_counts_twice(self):
        index = kb_index([KnowledgeRecord(title="r", categories=["A", "A"])])
        assert field_as_dicts(index, FieldName.CATEGORIES) == ({"a": {"r": 2}}, {"r": 2})


class TestNarrowCounts:
    """A field's ones are of the narrowest integer type that holds its
    longest record's token count: int8 up to 127 tokens, int16 up to
    32,767, else int32. The counts summed in that type stay exact and come
    out as int32."""

    @pytest.mark.parametrize("length", [127, 128, 32_767, 32_768])
    @pytest.mark.parametrize("mixed", [False, True], ids=["one-term", "mixed"])
    def test_counts_exact_at_the_type_boundaries(self, length, mixed):
        # one term repeated, or x in three words of four among seven others
        words = ["x" if i % 4 or not mixed else f"w{i % 7}" for i in range(length)]
        records = [KnowledgeRecord(title="long", contents=" ".join(words)),
                   KnowledgeRecord(title="short", contents="x y x")]
        index = kb_index(records)
        counts = {r.title: Counter(r.contents.split()) for r in records}
        postings, lengths = field_as_dicts(index, FieldName.CONTENTS)
        assert postings == {term: {title: c[term] for title, c in counts.items() if term in c}
                            for term in set().union(*counts.values())}
        assert lengths == {"long": length, "short": 3}
        field = index._field(FieldName.CONTENTS)
        for arr in (field.ids, field.tfs, field.lengths):
            assert arr.dtype == np.int32
            assert arr.base is None or memoryview(arr.base).nbytes == arr.nbytes

    def test_contents_build_peak_per_token(self):
        # 1,000 records of 40-120 tokens (int8 ones) drawn Zipf from 500
        # words. With int32 ones the build peaked at 16.8 B a token; with
        # int8 ones, and ids copied to exact size before the counts are
        # widened, at 10.9. The bound leaves about 3 B a token on each side
        rng = random.Random(20261020)
        vocab = [f"w{i}" for i in range(500)]
        weights = [1 / (i + 1) for i in range(500)]
        index = kb_index([KnowledgeRecord(
            title=f"r{i:04d}", contents=" ".join(rng.choices(vocab, weights, k=rng.randint(40, 120))))
            for i in range(1000)])
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            field = index._field(FieldName.CONTENTS)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        tokens = int(field.lengths.sum())
        assert tokens >= 50_000 and field.lengths.max() < 128
        assert peak / tokens < 14.0


class TestParseQuery:
    def test_single_term_clause(self):
        query = parse_query("contents:drug")
        assert query.clauses == [
            QueryClause(FieldName.CONTENTS, Occur.SHOULD, Term("drug"))
        ]

    def test_mustnot_range(self):
        query = parse_query("-pageRank:[1 TO 5]")
        assert query.clauses == [
            QueryClause(FieldName.PAGE_RANK, Occur.MUST_NOT, RangeBody(1, 5))
        ]

    def test_must_prefix_and_lowercasing(self):
        query = parse_query("+wikiTitle:USA")
        clause = query.clauses[0]
        assert clause.occur is Occur.MUST
        assert clause.body == Term("usa")

    def test_parenthesized_term_stripped(self):
        query = parse_query("contents:(milrinone)")
        assert query.clauses[0].body == Term("milrinone")

    def test_missing_colon_names_column(self):
        with pytest.raises(QuerySyntaxError, match="column 15"):
            parse_query("contents:drug bare")

    def test_range_on_non_pagerank_rejected(self):
        with pytest.raises(QuerySyntaxError, match="pageRank"):
            parse_query("contents:[1 TO 5]")

    def test_unknown_field_rejected(self):
        with pytest.raises(QuerySyntaxError, match="bogus"):
            parse_query("bogus:x")

    def test_serialize_round_trip(self):
        text = "wikiTitle:usa contents:sterling +types:freebase:person -pageRank:[1 TO 5]"
        assert serialize_query(parse_query(text)) == text


class TestScore:
    def test_single_record_hand_value(self):
        index = kb_index([KnowledgeRecord(title="X", contents="drug")])
        score = index.score(parse_query("contents:drug"), "X")
        # coord 1 * sqrt(1) * (1 + ln(1/2))^2 * 1
        assert score == pytest.approx((1 + math.log(0.5)) ** 2, abs=1e-6)
        assert score == pytest.approx(0.0942, abs=1e-4)

    def test_sqrt_tf_law(self):
        index1 = kb_index([KnowledgeRecord(title="X", contents="drug aaa bbb ccc")])
        index4 = kb_index([KnowledgeRecord(
            title="X", contents="drug drug drug drug aaa bbb ccc")])
        q = parse_query("contents:drug")
        s1 = index1.score(q, "X")
        s4 = index4.score(q, "X")
        # field norms differ; compare the tf factor after removing them
        assert s4 * math.sqrt(7) == pytest.approx(2 * s1 * math.sqrt(4), rel=1e-12)

    def test_coordination_factor(self):
        index = kb_index([
            KnowledgeRecord(title="A", contents="drug heart"),
            KnowledgeRecord(title="B", contents="drug trial"),
        ])
        q = parse_query("contents:drug contents:heart")
        full = index.score(q, "A")
        half = index.score(q, "B")
        assert full > half
        # B matches one of two positive clauses
        per_clause = index.score(parse_query("contents:drug"), "B")
        assert half == pytest.approx(0.5 * per_clause, rel=1e-12)

    def test_non_negative(self, kb_sample):
        index = kb_index(kb_sample)
        q = parse_query("contents:health contents:kaiser wikiTitle:insurance")
        for record in kb_sample:
            assert index.score(q, record.title) >= 0.0

    def test_unknown_title_raises(self):
        index = kb_index([KnowledgeRecord(title="X", contents="drug")])
        with pytest.raises(KeyError):
            index.score(parse_query("contents:drug"), "Y")

    def test_scores_follow_the_query(self):
        # the last query's scores are kept; another query, or the same
        # query object with a clause added, must be scored afresh
        records = [
            KnowledgeRecord(title="A", contents="drug heart"),
            KnowledgeRecord(title="B", contents="drug trial"),
        ]
        index = kb_index(records)
        q_drug = parse_query("contents:drug")
        q_other = parse_query("contents:heart contents:trial wikiTitle:b")
        for q in (q_drug, q_other, q_drug):
            for title in ("A", "B"):
                assert index.score(q, title) == kb_index(records).score(q, title)
        before = index.score(q_drug, "B")
        q_drug.clauses.extend(parse_query("contents:heart").clauses)
        assert index.score(q_drug, "B") == pytest.approx(0.5 * before, rel=1e-12)
        assert index.score(q_drug, "B") == kb_index(records).score(q_drug, "B")

    def test_must_not_excludes_from_search_not_from_score(self):
        index = kb_index([
            KnowledgeRecord(title="A", contents="drug heart"),
            KnowledgeRecord(title="B", contents="drug trial"),
        ])
        q = parse_query("contents:drug -contents:heart")
        assert [h.record_title for h in index.search(q, 5)] == ["B"]
        assert index.score(q, "A") == index.score(parse_query("contents:drug"), "A") > 0


class TestSearch:
    def test_single_match(self):
        index = kb_index([KnowledgeRecord(title="X", contents="drug")])
        hits = index.search(parse_query("contents:drug"), 5)
        assert len(hits) == 1 and hits[0].score > 0

    def test_pagerank_exclusion(self):
        records = [
            KnowledgeRecord(title="low", contents="x", page_rank=3),
            KnowledgeRecord(title="high", contents="x", page_rank=8),
        ]
        index = kb_index(records)
        hits = index.search(parse_query("contents:x -pageRank:[1 TO 5]"), 10)
        assert [h.record_title for h in hits] == ["high"]

    def test_pagerank_zero_passes_the_filter(self):
        index = kb_index([KnowledgeRecord(title="z", contents="x", page_rank=0)])
        hits = index.search(parse_query("contents:x -pageRank:[1 TO 5]"), 10)
        assert [h.record_title for h in hits] == ["z"]

    def test_must_clause_filters(self):
        records = [
            KnowledgeRecord(title="a", contents="drug"),
            KnowledgeRecord(title="b", contents="drug", categories=["Trials"]),
        ]
        index = kb_index(records)
        hits = index.search(parse_query("contents:drug +categories:trials"), 10)
        assert [h.record_title for h in hits] == ["b"]

    @pytest.mark.parametrize("text", [
        "pageRank:1_0",
        "contents:drug +pageRank:1_0",
        "contents:drug -pageRank:1_0",
        "contents:drug pageRank:1_0",
        "contents:drug +pageRank:10",
        "contents:drug +pageRank:²",
    ])
    def test_pagerank_term_matches_decimal_digits_only(self, text):
        # int() reads "1_0" as 10 and rejects "²", which isdigit() accepts;
        # neither term names a rank
        records = [
            KnowledgeRecord(title="ten", contents="drug", page_rank=10),
            KnowledgeRecord(title="one", contents="drug", page_rank=1),
        ]
        query = parse_query(text)
        hits = kb_index(records).search(query, 5)
        expected = brute_force_search(records, query, 5)
        assert [h.record_title for h in hits] == [t for t, _ in expected]
        for hit, (_, score) in zip(hits, expected):
            assert hit.score == pytest.approx(score, rel=1e-12)

    @pytest.mark.parametrize("text", [
        "contents:x pageRank:9223372036854775807",
        "contents:x pageRank:00009223372036854775807",
        "contents:x +pageRank:9223372036854775808",
        "contents:x pageRank:9007199254740992",
        "contents:x +pageRank:9007199254740993",
        "contents:x -pageRank:[1 TO 99999999999999999999999]",
        "contents:x +pageRank:[-99999999999999999999 TO 0]",
        "contents:x +pageRank:[9223372036854775807 TO 9223372036854775808]",
        "contents:x +pageRank:[9223372036854775808 TO 99999999999999999999]",
        "contents:x +pageRank:[9007199254740992 TO 9007199254740992]",
        "contents:x -pageRank:[-99999999999999999999 TO -9223372036854775809]",
    ])
    def test_pagerank_bounds_past_int64_compare_exactly(self, text):
        # 2**63 - 1 and 2**53 + 1 round to other values as floats, and
        # 2**63 does not fit int64
        records = [
            KnowledgeRecord(title="zero", contents="x", page_rank=0),
            KnowledgeRecord(title="mid", contents="x", page_rank=2**53 + 1),
            KnowledgeRecord(title="max", contents="x", page_rank=2**63 - 1),
        ]
        query = parse_query(text)
        hits = kb_index(records).search(query, 5)
        expected = brute_force_search(records, query, 5)
        assert [(h.record_title, h.score) for h in hits] == expected

    def test_pagerank_term_of_thousands_of_digits_matches_nothing(self):
        # int() refuses to read a string of over 4,300 digits
        index = kb_index([KnowledgeRecord(title="r", contents="x", page_rank=1)])
        assert index.search(parse_query("pageRank:" + "1" * 5000), 5) == []
        hits = index.search(parse_query("contents:x -pageRank:" + "1" * 5000), 5)
        assert [h.record_title for h in hits] == ["r"]

    def test_pagerank_term_zero_padded_past_thousands_of_digits_matches(self):
        # only the digits after the leading zeros are read, so the term is
        # rank 1, not a string too long for int()
        index = kb_index([KnowledgeRecord(title="r", contents="x", page_rank=1),
                          KnowledgeRecord(title="s", contents="x y", page_rank=2)])
        one = "pageRank:" + "0" * 5000 + "1"
        assert index.search(parse_query(one), 5) == [SearchHit("r", 0.0)]
        hits = index.search(parse_query("contents:x -" + one), 5)
        assert [h.record_title for h in hits] == ["s"]
        hits = index.search(parse_query("contents:x +" + one), 5)
        assert [h.record_title for h in hits] == ["r"]

    def test_three_record_ranking_matches_brute_force(self):
        records = [
            KnowledgeRecord(title="r1", contents="drug heart drug"),
            KnowledgeRecord(title="r2", contents="drug trial safety data"),
            KnowledgeRecord(title="r3", contents="heart heart surgery"),
        ]
        index = kb_index(records)
        q = parse_query("contents:drug contents:heart")
        hits = index.search(q, 3)
        expected = brute_force_search(records, q, 3)
        assert [h.record_title for h in hits] == [t for t, _ in expected]
        for hit, (_, score) in zip(hits, expected):
            assert hit.score == pytest.approx(score, rel=1e-12)


def _random_record(rng: random.Random, i: int) -> KnowledgeRecord:
    vocab = ["drug", "heart", "trial", "safety", "kaiser", "health", "usa",
             "data", "market", "oral", "study", "press"]
    contents = " ".join(rng.choices(vocab, k=rng.randint(0, 10)))
    return KnowledgeRecord(
        title=f"Rec {i:02d}",
        redirects=[rng.choice(vocab)] if rng.random() < 0.3 else [],
        entity_types=(["Freebase: organization"] if rng.random() < 0.3 else
                      ["Freebase: person"] if rng.random() < 0.3 else []),
        categories=[" ".join(rng.choices(vocab, k=2))] if rng.random() < 0.5 else [],
        linked_concepts=[rng.choice(vocab)] if rng.random() < 0.4 else [],
        contents=contents,
        page_rank=rng.randint(0, 10),
    )


def _random_query(rng: random.Random) -> FieldedQuery:
    vocab = ["drug", "heart", "trial", "safety", "kaiser", "health", "usa",
             "data", "market", "oral", "study", "press", "absent"]
    clauses = []
    for _ in range(rng.randint(1, 6)):
        roll = rng.random()
        occur = rng.choice([Occur.SHOULD, Occur.SHOULD, Occur.SHOULD,
                            Occur.MUST, Occur.MUST_NOT])
        if roll < 0.15:
            lo = rng.randint(0, 6)
            clauses.append(QueryClause(
                FieldName.PAGE_RANK,
                rng.choice([Occur.MUST_NOT, Occur.MUST]),
                RangeBody(lo, lo + rng.randint(0, 5)),
            ))
        elif roll < 0.3:
            clauses.append(QueryClause(
                FieldName.TYPES, occur,
                Term(rng.choice(["freebase:organization", "freebase:person"])),
            ))
        elif roll < 0.45:
            clauses.append(QueryClause(
                rng.choice([FieldName.WIKI_TITLE, FieldName.CATEGORIES,
                            FieldName.REDIRECTS, FieldName.LINKED_CONCEPTS]),
                occur, Term(rng.choice(vocab + ["rec"])),
            ))
        else:
            clauses.append(QueryClause(FieldName.CONTENTS, occur,
                                       Term(rng.choice(vocab))))
    return FieldedQuery(clauses)


class TestSearchOracle:
    def test_search_equals_exhaustive_scoring(self):
        rng = random.Random(20260809)
        for trial in range(200):
            records = [_random_record(rng, i) for i in range(rng.randint(1, 20))]
            index = kb_index(records)
            query = _random_query(rng)
            n = rng.randint(1, len(records) + 3)
            hits = index.search(query, n)
            expected = brute_force_search(records, query, n)
            assert [h.record_title for h in hits] == [t for t, _ in expected], (
                f"trial {trial}: ranking diverged"
            )
            for hit, (_, score) in zip(hits, expected):
                assert hit.score == pytest.approx(score, rel=1e-9, abs=1e-12)

    def test_mustnot_monotonicity_and_prefix(self):
        rng = random.Random(99)
        for _ in range(50):
            records = [_random_record(rng, i) for i in range(12)]
            index = kb_index(records)
            query = FieldedQuery([
                QueryClause(FieldName.CONTENTS, Occur.SHOULD, Term("drug")),
                QueryClause(FieldName.CONTENTS, Occur.SHOULD, Term("heart")),
            ])
            base = index.search(query, 12)
            restricted = index.search(FieldedQuery(
                query.clauses
                + [QueryClause(FieldName.PAGE_RANK, Occur.MUST_NOT, RangeBody(1, 5))]
            ), 12)
            assert {h.record_title for h in restricted} <= {h.record_title for h in base}
            small = index.search(query, 3)
            assert [h.record_title for h in small] == [h.record_title for h in base[:3]]

    def test_search_deterministic(self, kb_sample):
        index = kb_index(kb_sample)
        q = parse_query("contents:health contents:kaiser")
        assert index.search(q, 5) == index.search(q, 5)


def _random_e2_query(rng: random.Random) -> FieldedQuery:
    """Shaped like enrich.strategy_query's E2/E3 queries: many repeated
    contents clauses (raw surfaces, so some need normalizing), an optional
    wikiTitle clause, occasional types clauses and the trailing page-rank
    floor."""
    vocab = ["drug", "heart", "trial", "safety", "kaiser", "health", "usa",
             "data", "Market", "oral,", "(study)", "absent"]
    clauses = []
    if rng.random() < 0.5:
        clauses.append(QueryClause(FieldName.WIKI_TITLE, Occur.SHOULD,
                                   Term(rng.choice(vocab + ["rec"]))))
    clauses.extend(
        QueryClause(FieldName.CONTENTS, Occur.SHOULD, Term(word))
        for word in rng.choices(vocab, k=rng.randint(20, 60))
    )
    for kind in ("freebase:organization", "freebase:person"):
        if rng.random() < 0.25:
            occur = rng.choice([Occur.SHOULD, Occur.MUST])
            clauses.append(QueryClause(FieldName.TYPES, occur, Term(kind)))
    clauses.append(QueryClause(FieldName.PAGE_RANK, Occur.MUST_NOT,
                               RangeBody(1, rng.randint(1, 9))))
    return FieldedQuery(clauses)


class TestE2SearchOracle:
    def test_search_equals_exhaustive_scoring(self):
        rng = random.Random(20261018)
        for trial in range(80):
            records = [_random_record(rng, i) for i in range(rng.randint(1, 30))]
            index = kb_index(records)
            query = _random_e2_query(rng)
            n = rng.randint(1, len(records) + 3)
            hits = index.search(query, n)
            expected = brute_force_search(records, query, n)
            assert [h.record_title for h in hits] == [t for t, _ in expected], (
                f"trial {trial}: ranking diverged"
            )
            for hit, (_, score) in zip(hits, expected):
                assert hit.score == pytest.approx(score, rel=1e-9, abs=1e-12)
                assert hit.score == index.score(query, hit.record_title)


# E2 queries with repeated terms against tests/synth.build_kb(), and the
# float.hex of every hit's score as clause-by-clause evaluation gave it.
# Exact equality pins each record's summation order (clause order), which
# decides ties that differ in the last bit; the approx oracle cannot.
GOLDEN_QUERIES = [
    "wikiTitle:alpha contents:brewing contents:brewing contents:carting contents:market"
    " contents:brewed contents:brewing contents:notes contents:public contents:carting"
    " -pageRank:[1 TO 5]",
    "contents:sailing contents:welding contents:sailed contents:sailing contents:brewing"
    " contents:sailing contents:report contents:report contents:welded contents:press"
    " contents:twisting -pageRank:[1 TO 1]",
    "wikiTitle:draft contents:docking contents:docked contents:docking contents:farming"
    " contents:docking types:freebase:organization contents:meeting contents:farming"
    " -pageRank:[1 TO 2]",
    "contents:market contents:notes contents:market contents:public contents:market"
    " contents:weekly contents:notes contents:absent +types:freebase:organization"
    " contents:brewing -pageRank:[1 TO 5]",
    "contents:market contents:notes contents:market contents:public contents:market"
    " contents:weekly contents:notes types:freebase:organization contents:summary"
    " contents:market contents:brewing contents:meeting contents:notes -pageRank:[1 TO 5]",
]

GOLDEN_HITS = [
    [
        ("Alpha Exchange", "0x1.8b0bd377f5fccp+3"),
        ("Alpha Forum", "0x1.a7a6aad38d7f1p+2"),
        ("scratch notes 23", "0x1.75dd3652c0ae1p+1"),
        ("scratch notes 03", "0x1.62adbb2850a04p+1"),
        ("Beta Exchange", "0x1.c272dbabb3f52p-1"),
        ("Alpha Archive", "0x1.c9ad75b978268p-2"),
        ("Alpha Assembly", "0x1.c9ad75b978268p-2"),
        ("Alpha Bureau", "0x1.c9ad75b978268p-2"),
        ("Alpha Council", "0x1.c9ad75b978268p-2"),
        ("Alpha Guild", "0x1.c9ad75b978268p-2"),
        ("Alpha Institute", "0x1.c9ad75b978268p-2"),
        ("Alpha Network", "0x1.c9ad75b978268p-2"),
        ("Alpha Society", "0x1.c9ad75b978268p-2"),
    ],
    [
        ("bulk archive 09", "0x1.dc3751ea41bb2p+3"),
        ("bulk archive 19", "0x1.dc3751ea41bb2p+3"),
        ("bulk archive 29", "0x1.dc3751ea41bb2p+3"),
        ("gd draft pile 04", "0x1.186c4d66cfb89p+3"),
        ("gd draft stack 14", "0x1.186c4d66cfb89p+3"),
        ("Gamma Exchange", "0x1.ccafa67b3ddd8p+2"),
        ("scratch notes 03", "0x1.4114de316e9efp+0"),
        ("Alpha Exchange", "0x1.997fb06d8c533p-1"),
        ("Delta Exchange", "0x1.997fb06d8c533p-1"),
        ("Delta Forum", "0x1.997fb06d8c533p-1"),
        ("Gamma Council", "0x1.997fb06d8c533p-1"),
        ("Gamma Forum", "0x1.997fb06d8c533p-1"),
        ("scratch notes 13", "0x1.4114de316e9efp-2"),
        ("ab draft pile 04", "0x1.6e445032b144bp-3"),
        ("ab draft stack 14", "0x1.6e445032b144bp-3"),
    ],
    [
        ("ab draft pile 04", "0x1.ad8249eab6f4bp+3"),
        ("ab draft stack 14", "0x1.ad8249eab6f4bp+3"),
        ("Alpha Council", "0x1.1987c94b50792p+3"),
        ("Alpha Bureau", "0x1.f47f9ebec7f3ep+1"),
        ("Beta Council", "0x1.f47f9ebec7f3ep-1"),
        ("gd draft pile 04", "0x1.363ed8f881c39p-1"),
        ("gd draft stack 14", "0x1.363ed8f881c39p-1"),
        ("scratch notes 13", "0x1.886ed6ae31deap-2"),
        ("Alpha Archive", "0x0.0p+0"),
        ("Alpha Exchange", "0x0.0p+0"),
        ("Alpha Guild", "0x0.0p+0"),
        ("Beta Archive", "0x0.0p+0"),
        ("Beta Exchange", "0x0.0p+0"),
        ("Beta Guild", "0x0.0p+0"),
        ("Delta Archive", "0x0.0p+0"),
        ("Delta Exchange", "0x0.0p+0"),
        ("Delta Guild", "0x0.0p+0"),
        ("Gamma Archive", "0x0.0p+0"),
        ("Gamma Exchange", "0x0.0p+0"),
        ("Gamma Guild", "0x0.0p+0"),
    ],
    [
        ("Alpha Exchange", "0x1.c272dbabb3f52p+0"),
        ("Alpha Archive", "0x0.0p+0"),
        ("Alpha Guild", "0x0.0p+0"),
        ("Beta Archive", "0x0.0p+0"),
        ("Beta Exchange", "0x0.0p+0"),
        ("Beta Guild", "0x0.0p+0"),
        ("Delta Archive", "0x0.0p+0"),
        ("Delta Exchange", "0x0.0p+0"),
        ("Delta Guild", "0x0.0p+0"),
        ("Gamma Archive", "0x0.0p+0"),
        ("Gamma Exchange", "0x0.0p+0"),
        ("Gamma Guild", "0x0.0p+0"),
    ],
    [
        ("scratch notes 23", "0x1.55481ccddd889p+4"),
        ("scratch notes 03", "0x1.43c4ab4bdda55p+4"),
        ("Alpha Exchange", "0x1.5a7fbcab76bc9p+0"),
        ("scratch notes 13", "0x1.0faf3229d3c19p+0"),
        ("Alpha Archive", "0x0.0p+0"),
        ("Alpha Guild", "0x0.0p+0"),
        ("Beta Archive", "0x0.0p+0"),
        ("Beta Exchange", "0x0.0p+0"),
        ("Beta Guild", "0x0.0p+0"),
        ("Delta Archive", "0x0.0p+0"),
        ("Delta Exchange", "0x0.0p+0"),
        ("Delta Guild", "0x0.0p+0"),
        ("Gamma Archive", "0x0.0p+0"),
        ("Gamma Exchange", "0x0.0p+0"),
        ("Gamma Guild", "0x0.0p+0"),
    ],
]


class TestBitExactScores:
    @pytest.mark.parametrize("i", range(len(GOLDEN_QUERIES)))
    def test_scores_and_ties_bit_exact(self, i):
        index = kb_index(build_kb())
        query = parse_query(GOLDEN_QUERIES[i])
        hits = index.search(query, 60)
        assert [(h.record_title, h.score.hex()) for h in hits] == GOLDEN_HITS[i]
        for hit in hits:
            assert hit.score == index.score(query, hit.record_title)


_ZIPF_WORDS = [f"w{i:04d}" for i in range(3000)]
_ZIPF_CUM = list(itertools.accumulate(1.0 / (i + 1) for i in range(len(_ZIPF_WORDS))))
_ZIPF_KINDS = ["freebase:person", "freebase:location", "freebase:organization"]


def _zipf_words(rng: random.Random, k: int) -> list[str]:
    return rng.choices(_ZIPF_WORDS, cum_weights=_ZIPF_CUM, k=k)


def _zipf_kb(rng: random.Random, n: int) -> list[KnowledgeRecord]:
    """Records whose contents and titles draw Zipf(1) words, so posting
    lists range from one record to most of the KB."""
    return [
        KnowledgeRecord(
            title=f"{' '.join(_zipf_words(rng, rng.randint(1, 3)))} {i}",
            entity_types=[f"Freebase: {kind.split(':')[1]}"
                          for kind in rng.sample(_ZIPF_KINDS, k=rng.randint(0, 2))],
            categories=[" ".join(_zipf_words(rng, 2))] if rng.random() < 0.5 else [],
            contents=" ".join(_zipf_words(rng, rng.randint(0, 60))),
            page_rank=rng.randint(0, 12),
        )
        for i in range(n)
    ]


def _zipf_query(rng: random.Random) -> FieldedQuery:
    """E1, E2 or E3 shaped: repeated SHOULD contents clauses, then for E2/E3
    an optional wikiTitle clause, E3's types clauses and the MUST_NOT
    page-rank floor, with occasional MUST/MUST_NOT term and page-rank
    clauses."""
    shape = rng.choice(["E1", "E2", "E3"])
    clauses = [QueryClause(FieldName.CONTENTS, Occur.SHOULD, Term(word))
               for word in _zipf_words(rng, rng.randint(1, 60))]
    if shape != "E1" and rng.random() < 0.5:
        clauses.insert(0, QueryClause(FieldName.WIKI_TITLE, Occur.SHOULD,
                                      Term(_zipf_words(rng, 1)[0])))
    if shape == "E3":
        clauses.extend(QueryClause(FieldName.TYPES, Occur.SHOULD, Term(kind))
                       for kind in rng.sample(_ZIPF_KINDS, k=rng.randint(1, 3)))
    if rng.random() < 0.3:
        occur = rng.choice([Occur.MUST, Occur.MUST_NOT])
        field = rng.choice([FieldName.CONTENTS, FieldName.CATEGORIES, FieldName.TYPES])
        term = rng.choice(_ZIPF_KINDS) if field is FieldName.TYPES else _zipf_words(rng, 1)[0]
        clauses.append(QueryClause(field, occur, Term(term)))
    if rng.random() < 0.2:
        occur = rng.choice([Occur.SHOULD, Occur.MUST, Occur.MUST_NOT])
        clauses.append(QueryClause(FieldName.PAGE_RANK, occur,
                                   Term(str(rng.randint(0, 12)))))
    if shape != "E1":
        clauses.append(QueryClause(FieldName.PAGE_RANK, Occur.MUST_NOT,
                                   RangeBody(1, rng.randint(1, 9))))
    return FieldedQuery(clauses)


# sha256 of the (title, score.hex()) hit lists of _zipf_query's 100 queries
# at k = 1, 5 and 20 against a 2,000-record _zipf_kb, as clause-by-clause
# evaluation gave them
ZIPF_GOLDEN_SHA256 = "843de256c2519985302d843a644b667f19bff8a919a437af42d17faabd0807d2"


class TestZipfGoldenSearch:
    def test_hits_and_scores_bit_exact(self):
        rng = random.Random(20261018)
        index = kb_index(_zipf_kb(rng, 2000))
        results = [
            [(h.record_title, h.score.hex()) for h in index.search(query, k)]
            for query in (_zipf_query(rng) for _ in range(100))
            for k in (1, 5, 20)
        ]
        assert sum(map(len, results)) > 2000
        digest = hashlib.sha256(repr(results).encode()).hexdigest()
        assert digest == ZIPF_GOLDEN_SHA256


def _battery(index: KbIndex, queries: list[FieldedQuery]) -> list[list[tuple[str, str]]]:
    return [[(h.record_title, h.score.hex()) for h in index.search(query, k)]
            for query in queries for k in (1, 5, 20)]


def _interleaved_query(rng: random.Random) -> FieldedQuery:
    """Term clauses on contents, wikiTitle, types and categories in random
    order, so runs of one field's clauses alternate, mostly SHOULD with some
    MUST and MUST_NOT: Zipf words, which repeat, words no record holds,
    repeats of earlier clauses, and pageRank terms between them."""
    fields = [FieldName.CONTENTS, FieldName.WIKI_TITLE, FieldName.TYPES,
              FieldName.CATEGORIES]
    clauses: list[QueryClause] = []
    for _ in range(rng.randint(1, 40)):
        occur = rng.choices(list(Occur), weights=[16, 1, 1])[0]
        roll = rng.random()
        if clauses and roll < 0.1:
            clauses.append(rng.choice(clauses))
        elif roll < 0.2:
            clauses.append(QueryClause(FieldName.PAGE_RANK, occur,
                                       Term(str(rng.randint(0, 12)))))
        else:
            field = rng.choice(fields)
            if roll < 0.3:
                term = f"absent{rng.randint(0, 3)}"
            elif field is FieldName.TYPES:
                term = rng.choice(_ZIPF_KINDS)
            else:
                term = _zipf_words(rng, 1)[0]
            clauses.append(QueryClause(field, occur, Term(term)))
    return FieldedQuery(clauses)


# sha256 of the (title, score.hex()) hit lists of _interleaved_query's 200
# queries at k = 1, 5 and 20 against a 1,000-record _zipf_kb. It was taken
# at commit 3142b78, whose search gathered each term clause's postings on
# its own, by printing this test's digest there
INTERLEAVED_GOLDEN_SHA256 = "04e3409bb8a3043d318541fa6c96b648ca186c6a9dc2db5a702c23f39b89a1ad"


class TestClauseOrderGoldenSearch:
    def test_interleaved_fields_hits_and_scores_bit_exact(self):
        rng = random.Random(20261021)
        index = kb_index(_zipf_kb(rng, 1000))
        queries = [_interleaved_query(rng) for _ in range(200)]
        assert sum(len({c.field for c in q.clauses}) > 2 for q in queries) > 100
        results = _battery(index, queries)
        assert sum(map(len, results)) > 2000
        digest = hashlib.sha256(repr(results).encode()).hexdigest()
        assert digest == INTERLEAVED_GOLDEN_SHA256


class TestColumns:
    @pytest.mark.parametrize("make", [
        lambda rng: _zipf_kb(rng, 300),
        lambda rng: [_random_record(rng, i) for i in range(40)],
        lambda rng: [_random_cased_record(rng, i) for i in range(40)],
    ], ids=["zipf", "random", "cased"])
    def test_dump_gives_back_every_record(self, make):
        # every test index is built through a dump (conftest.kb_index)
        records = make(random.Random(20261019))
        index = kb_index(records)
        assert len(index) == len(records)
        assert [index.get_record(r.title) for r in records] == records

    def test_load_build_and_search_make_no_record(self, tmp_path, monkeypatch):
        rng = random.Random(20261019)
        records = _zipf_kb(rng, 300)
        queries = ([_zipf_query(rng) for _ in range(30)]
                   + [_random_query(rng) for _ in range(30)])
        path = tmp_path / "kb.tsv"
        write_kb_dump(records, path)

        def refuse(self, *args, **kwargs):
            raise AssertionError("a KnowledgeRecord was made")

        monkeypatch.setattr(KnowledgeRecord, "__init__", refuse)
        index = KbIndex(load_kb_dump(path))
        for fname in INDEXED_FIELDS:
            index._field(fname)
        assert sum(map(len, _battery(index, queries))) > 0
        # the patch holds: asking for a record by title makes one
        with pytest.raises(AssertionError, match="KnowledgeRecord was made"):
            index.get_record(records[0].title)


def _tied_kb(rng: random.Random) -> list[KnowledgeRecord]:
    """Zipf records plus 30 that differ only in their titles, so that
    "tie"/"x" queries tie across the k = 5 and k = 20 boundaries, and three
    that score above the tied ones."""
    ties = [KnowledgeRecord(title=f"tie {rng.choice('abc')}{i}", contents="tie x pad",
                            entity_types=["Freebase: person"], page_rank=7)
            for i in range(30)]
    tops = [KnowledgeRecord(title=f"top {i}", contents="tie x", page_rank=7)
            for i in range(3)]
    return _zipf_kb(rng, 200) + ties + tops


_TIED_QUERIES = ["contents:tie", "contents:x contents:tie",
                 "contents:tie types:freebase:person -pageRank:[1 TO 5]",
                 "wikiTitle:tie contents:tie contents:x -pageRank:[1 TO 5]"]


class TestDumpOrder:
    """Record ids are dump rows, so the same records dumped in another
    order get other ids; search must still rank ties by title."""

    @pytest.mark.parametrize("make", [
        lambda rng: _zipf_kb(rng, 300),
        _tied_kb,
    ], ids=["zipf", "tied"])
    def test_search_is_independent_of_dump_order(self, make):
        rng = random.Random(20261021)
        records = make(rng)
        queries = [_zipf_query(rng) for _ in range(60)] + [
            parse_query(text) for text in _TIED_QUERIES]
        by_title = sorted(records, key=lambda r: r.title)
        shuffled = records[:]
        random.Random(7).shuffle(shuffled)
        results = []
        for order in (by_title, by_title[::-1], shuffled):
            index = kb_index(order)
            scores = [[index.score(query, r.title).hex() for r in by_title]
                      for query in queries[::10]]
            results.append((_battery(index, queries), scores,
                            [index.get_record(r.title) for r in by_title]))
        assert results[0] == results[1] == results[2]
        assert results[0][2] == by_title

    def test_ties_across_k_rank_by_title(self):
        records = _tied_kb(random.Random(20261021))
        index = kb_index(records[::-1])
        query = parse_query("contents:x contents:tie")
        tied = sorted(r.title for r in records if r.title.startswith("tie "))
        for k in (5, 20):
            hits = index.search(query, k)
            assert [h.record_title for h in hits] == (
                ["top 0", "top 1", "top 2"] + tied)[:k]
            assert len({h.score for h in hits[3:]}) == 1
            assert index.score(query, tied[k - 3]) == hits[-1].score  # left out


class TestGetRecord:
    def test_kaiser_categories(self, kb_sample):
        index = kb_index(kb_sample)
        record = index.get_record("Kaiser Permanente")
        assert "Hospital networks" in record.categories

    def test_health_linked_concepts(self, kb_sample):
        index = kb_index(kb_sample)
        record = index.get_record("Health insurance in the United States")
        assert "Congressional Budget Office" in record.linked_concepts

    def test_unknown_title(self, kb_sample):
        assert kb_index(kb_sample).get_record("Nope") is None


class TestPostingsConsistency:
    def test_tf_positive_iff_df_positive(self, kb_sample):
        index = kb_index(kb_sample)
        for fname in INDEXED_FIELDS:
            postings, _ = field_as_dicts(index, fname)
            for term, by_title in postings.items():
                assert len(by_title) > 0
                assert all(tf > 0 for tf in by_title.values())


_OUT_OF_RANGE = re.escape("is out of range 0..2**63-1")


class TestDumpIO:
    def test_round_trip(self, kb_sample, tmp_path):
        path = tmp_path / "kb.tsv"
        write_kb_dump(kb_sample, path)
        index = KbIndex(load_kb_dump(path))
        assert len(index) == len(kb_sample)
        assert [index.get_record(r.title) for r in kb_sample] == kb_sample

    def test_duplicate_title_names_both_lines(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text("a\t1\t\t\t\t\tx\nb\t2\t\t\t\t\ty\n\na\t3\t\t\t\t\tz\n",
                        encoding="utf-8")
        message = f"{path}:4: duplicate title 'a' (first on line 1)"
        with pytest.raises(DuplicateTitleError, match=f"^{re.escape(message)}$"):
            load_kb_dump(path)

    @pytest.mark.parametrize("text, first, line", [
        # the first "b" is row 1 on line 3, after a blank line
        ("a\t1\t\t\t\t\tx\n\nb\t2\t\t\t\t\ty\nc\t3\t\t\t\t\tz\nb\t4\t\t\t\t\tw\n", 3, 5),
        # row 1 on line 5, after three blank lines (one of them CRLF); the
        # repeat follows one more
        ("\na\t1\t\t\t\t\tx\n\r\n\nb\t2\t\t\t\t\ty\n\nb\t4\t\t\t\t\tw\n", 5, 7),
    ], ids=["one-blank", "blanks-around"])
    def test_duplicate_title_names_the_first_line_not_its_row(self, tmp_path, text,
                                                              first, line):
        path = tmp_path / "kb.tsv"
        path.write_bytes(text.encode())
        message = f"{path}:{line}: duplicate title 'b' (first on line {first})"
        with pytest.raises(DuplicateTitleError, match=f"^{re.escape(message)}$"):
            load_kb_dump(path)

    def test_empty_items_are_no_items(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text("t\t1\t|a||b|\t\t\t\tx\n", encoding="utf-8")
        assert KbIndex(load_kb_dump(path)).get_record("t").redirects == ["a", "b"]

    def test_field_count_error_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("only\tthree\tfields\n")
        with pytest.raises(ValueError, match=":1"):
            load_kb_dump(path)

    def test_bad_rank(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("t\tnan\t\t\t\t\tc\n")
        with pytest.raises(ValueError, match="page rank"):
            load_kb_dump(path)

    @pytest.mark.parametrize("rank, message", [
        ("1_0", "bad page rank '1_0'"),
        ("+5", r"bad page rank '\+5'"),
        (" 5", "bad page rank ' 5'"),
        ("5 ", "bad page rank '5 '"),
        ("²", "bad page rank '²'"),
        ("-", "bad page rank '-'"),
        ("", "bad page rank ''"),
        ("-3", "negative page rank -3"),
        ("9223372036854775808", f"page rank 9223372036854775808 {_OUT_OF_RANGE}"),
        ("-99999999999999999999", "negative page rank -99999999999999999999"),
        pytest.param("1" * 5000, f"page rank 1{{5000}} {_OUT_OF_RANGE}", id="5000-digits"),
    ])
    def test_rank_cells_int_would_read(self, tmp_path, rank, message):
        # int() reads "1_0" as 10, "+5" and " 5" as 5
        path = tmp_path / "bad.tsv"
        path.write_text(f"ok\t1\t\t\t\t\tc\nt\t{rank}\t\t\t\t\tc\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: {message}$"):
            load_kb_dump(path)

    def test_rank_at_int64_max_loads(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text("t\t009223372036854775807\t\t\t\t\tc\n", encoding="utf-8")
        kb = load_kb_dump(path)
        assert list(kb.page_ranks) == [2**63 - 1]
        assert KbIndex(kb).get_record("t").page_rank == 2**63 - 1

    @pytest.mark.parametrize("rank, expected", [
        ("0" * 5000 + "5", 5),
        ("0" * 5000 + "9223372036854775807", 2**63 - 1),
        ("-" + "0" * 5000, 0),
    ], ids=["5", "int64-max", "minus-zero"])
    def test_rank_zero_padded_past_thousands_of_digits_loads(self, tmp_path, rank,
                                                             expected):
        # int() refuses strings of over 4,300 digits; the loader reads only
        # the digits after the leading zeros
        path = tmp_path / "kb.tsv"
        path.write_text(f"t\t{rank}\t\t\t\t\tc\n", encoding="utf-8")
        kb = load_kb_dump(path)
        assert list(kb.page_ranks) == [expected]
        assert KbIndex(kb).get_record("t").page_rank == expected

    def test_byte_order_mark_is_not_part_of_the_first_title(self, tmp_path):
        text = "Alpha\t3\t\t\t\t\tfirst record\nBeta\t1\t\t\t\t\tsecond\n"
        plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        kb = load_kb_dump(marked)
        assert kb == load_kb_dump(plain)
        index = KbIndex(kb)
        assert index.get_record("Alpha") == KnowledgeRecord(
            title="Alpha", contents="first record", page_rank=3)
        assert [h.record_title for h in index.search(parse_query("wikiTitle:alpha"), 5)] \
            == ["Alpha"]

    def test_carriage_return_in_a_cell_names_the_files_line(self, tmp_path):
        # a CR read as a line end would split the record and name line 3
        path = tmp_path / "cr.tsv"
        path.write_bytes(b"a\t1\t\t\t\t\tx\nb\t2\t\t\t\t\tone\rtwo\n")
        message = f"{path}:2: carriage return inside a line"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_kb_dump(path)

    def test_crlf_dump_loads_like_its_lf_twin(self, tmp_path):
        text = "Alpha\t3\tA\t\tC1|C2\t\tfirst record\n\nBeta\t1\t\t\t\t\t\n"
        lf, crlf = tmp_path / "lf.tsv", tmp_path / "crlf.tsv"
        lf.write_bytes(text.encode())
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        assert load_kb_dump(crlf) == load_kb_dump(lf)
        assert load_kb_dump(lf).contents == ["first record", ""]

    def test_carriage_return_rejected_on_save(self, tmp_path):
        record = KnowledgeRecord(title="t", contents="one\rtwo")
        with pytest.raises(ValueError, match="CR"):
            write_kb_dump([record], tmp_path / "kb.tsv")

    def test_pipe_rejected_on_save(self, tmp_path):
        record = KnowledgeRecord(title="t", categories=["a|b"])
        with pytest.raises(ValueError, match=r"\|"):
            write_kb_dump([record], tmp_path / "kb.tsv")

    def test_empty_title_rejected_on_save(self, tmp_path):
        with pytest.raises(ValueError, match="title"):
            write_kb_dump([KnowledgeRecord(title="")], tmp_path / "kb.tsv")
