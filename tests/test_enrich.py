"""Enrichment strategies E1-E3, filters E4/E5, and the presets."""

import pytest

from conftest import HEALTH_RECORD, kb_index, make_tagged, retrieve
from kbcat.corpus import RawDocument
from kbcat.enrich import (
    PRESETS,
    EnrichmentOutput,
    Preset,
    Strategy,
    apply_preset,
    build_e2_query,
    clean_e5,
    filter_e4,
    strategy_query,
)
from kbcat.kbindex import FieldName, KbIndex, Occur
from kbcat.textproc import EntityTag, Gazetteer, Representation, TextResources
from oracles import brute_force_search
from querytext import serialize_query
from synth import KnowledgeRecord

# The preprocessed newswire story whose token list drives the query
# reproduction check; tokens are its whitespace-separated pieces.
DRUG_STORY = (
    "sterling drug said submitted new drug application food drug "
    "administration permission market oral form corotrope (milrinone) drug "
    "treating chronic congestive heart failure. sterling said application "
    "includes series studies 952 patients results multicenter studies "
    "involving 571 patients demonstrate efficacy safety drug alternative "
    "digitalis."
)

EXPECTED_E2_QUERY = (
    "wikiTitle:usa contents:sterling contents:drug contents:said "
    "contents:submitted contents:new contents:drug contents:application "
    "contents:food contents:drug contents:administration "
    "contents:permission contents:market contents:oral contents:form "
    "contents:corotrope contents:(milrinone) contents:drug "
    "contents:treating contents:chronic contents:congestive contents:heart "
    "contents:failure. contents:sterling contents:said contents:application "
    "contents:includes contents:series contents:studies contents:952 "
    "contents:patients contents:results contents:multicenter "
    "contents:studies contents:involving contents:571 contents:patients "
    "contents:demonstrate contents:efficacy contents:safety contents:drug "
    "contents:alternative contents:digitalis. -pageRank:[1 TO 5]"
)


class TestEnrichE1:
    def test_empty_doc(self, kb_sample):
        out = retrieve(make_tagged([]), kb_index(kb_sample), Strategy.E1, 5)
        assert out == EnrichmentOutput()

    def test_kaiser_retrieval(self, kb_sample):
        out = retrieve(make_tagged(["kaiser"]), kb_index(kb_sample), Strategy.E1, 5)
        assert out.titles == ["Kaiser Permanente"]
        assert "Health maintenance organizations" in out.categories
        assert out.linked_concepts == []

    def test_rank_order_matches_brute_force(self):
        records = [
            KnowledgeRecord(title=f"R{i}", contents=c, categories=[f"Cat {i}"])
            for i, c in enumerate([
                "drug heart", "drug drug heart", "heart", "drug trial", "other",
            ])
        ]
        index = kb_index(records)
        doc = make_tagged(["drug", "heart"])
        out = retrieve(doc, index, Strategy.E1, 5)
        # E1's query is the bare contents clauses; rebuild it for the oracle
        from kbcat.kbindex import FieldedQuery, QueryClause, Term
        query = FieldedQuery([
            QueryClause(FieldName.CONTENTS, Occur.SHOULD, Term(t))
            for t in ["drug", "heart"]
        ])
        expected = brute_force_search(records, query, 5)
        assert out.titles == [t for t, _ in expected]


class TestBuildE2Query:
    def test_reproduces_printed_query(self):
        doc = make_tagged(DRUG_STORY.split())
        query = build_e2_query(doc, title_term="usa", min_rank=5)
        assert serialize_query(query) == EXPECTED_E2_QUERY

    def test_clause_counts(self):
        doc = make_tagged(DRUG_STORY.split())
        query = build_e2_query(doc, title_term="usa", min_rank=5)
        should = [c for c in query.clauses if c.occur is Occur.SHOULD]
        must_not = [c for c in query.clauses if c.occur is Occur.MUST_NOT]
        contents = [c for c in should if c.field is FieldName.CONTENTS]
        titles = [c for c in should if c.field is FieldName.WIKI_TITLE]
        assert len(titles) == 1
        assert len(contents) == len(DRUG_STORY.split()) == 42
        assert len(must_not) == 1

    def test_no_title_term(self):
        query = build_e2_query(make_tagged(["drug"]), None, 5)
        assert serialize_query(query) == "contents:drug -pageRank:[1 TO 5]"

    def test_duplicate_tokens_preserved(self):
        query = build_e2_query(make_tagged(["drug", "drug"]), None, 5)
        assert serialize_query(query) == "contents:drug contents:drug -pageRank:[1 TO 5]"


class TestStrategyQuery:
    # tagged in reverse of the canonical kind order, with a repeated token
    DOC = make_tagged(
        ["fbi", "america", "reno", "drug", "drug"],
        tags=[EntityTag.ORGANIZATION, EntityTag.LOCATION, EntityTag.PERSON,
              EntityTag.NONE, EntityTag.NONE],
    )
    PRESET = Preset(name="custom", title_term="usa", min_rank=5)
    CONTENTS = ("contents:fbi contents:america contents:reno contents:drug "
                "contents:drug")

    def _serialized(self, strategy):
        return serialize_query(strategy_query(self.DOC, strategy, self.PRESET))

    def test_e1_is_bare_contents_clauses(self):
        assert self._serialized(Strategy.E1) == self.CONTENTS

    def test_e2_is_build_e2_query(self):
        expected = serialize_query(build_e2_query(self.DOC, "usa", 5))
        assert self._serialized(Strategy.E2) == expected
        assert expected == f"wikiTitle:usa {self.CONTENTS} -pageRank:[1 TO 5]"

    def test_e3_types_in_kind_order_before_page_rank(self):
        assert self._serialized(Strategy.E3) == (
            f"wikiTitle:usa {self.CONTENTS} types:freebase:person "
            "types:freebase:location types:freebase:organization "
            "-pageRank:[1 TO 5]"
        )


class TestEnrichE2:
    def test_empty_doc(self, kb_sample):
        out = retrieve(make_tagged([]), kb_index(kb_sample), Strategy.E2, 5)
        assert out == EnrichmentOutput()

    def test_linked_concepts_gathered(self):
        index = kb_index([HEALTH_RECORD])
        out = retrieve(make_tagged(["insurance", "medicare"]), index, Strategy.E2, 5)
        assert out.titles == ["Health insurance in the United States"]
        assert "Medicare (United States)" in out.linked_concepts

    def test_low_rank_records_excluded(self):
        records = [
            KnowledgeRecord(title="junky", contents="drug", page_rank=2),
            KnowledgeRecord(title="solid", contents="drug", page_rank=9),
        ]
        out = retrieve(make_tagged(["drug"]), kb_index(records), Strategy.E2, 5)
        assert out.titles == ["solid"]

    def test_top_k_prefix_property(self, kb_sample):
        index = kb_index(kb_sample)
        doc = make_tagged(["health", "insurance", "kaiser"])
        one = retrieve(doc, index, Strategy.E2, 1)
        two = retrieve(doc, index, Strategy.E2, 2)
        assert two.titles[: len(one.titles)] == one.titles
        assert two.categories[: len(one.categories)] == one.categories
        assert two.linked_concepts[: len(one.linked_concepts)] == one.linked_concepts


class TestEnrichE3:
    def _typed_index(self):
        return kb_index([
            KnowledgeRecord(title="Plain", contents="shared words", page_rank=8),
            KnowledgeRecord(title="Org", contents="shared words", page_rank=8,
                            entity_types=["Freebase: organization"]),
        ])

    def test_types_clause_boosts_typed_record(self):
        doc = make_tagged(["shared"], tags=[EntityTag.ORGANIZATION])
        out = retrieve(doc, self._typed_index(), Strategy.E3, 2)
        assert out.titles == ["Org", "Plain"]

    def test_untagged_doc_equals_e2(self):
        doc = make_tagged(["shared"])
        assert retrieve(doc, self._typed_index(), Strategy.E3, 2) == retrieve(
            doc, self._typed_index(), Strategy.E2, 2
        )

    def test_empty_doc(self):
        out = retrieve(make_tagged([]), self._typed_index(), Strategy.E3, 2)
        assert out == EnrichmentOutput()


class TestFilterE4:
    TRUTH_TABLE = [
        ("Barack_Obama", True),
        ("barack_obama", False),
        ("United_States_presidential_candidates_2008", False),
        ("Kaiser Permanente", True),
        ("kaiser permanente", False),
        ("Health insurance", True),
        ("Hospital networks", True),
        ("Medicare (United States)", True),
        ("2008_elections", False),
        ("iPhone", False),
        ("X", True),
        ("x", False),
        ("", False),
        ("9", False),
        ("Area_51", False),
        ("École", True),
        ("_Obama", False),
        ("(Paren)", False),
        ("Congressional Budget Office", True),
        ("TRICARE", True),
        ("thugs", False),
        ("Route 66", False),
        ("Week-end", True),
        ("McDonald's", True),
        ("eBay", False),
        ("3M", False),
        ("Boeing 747", False),
        ("United_Church_of_Christ_members", True),
        ("Georgia (U.S. state)", True),
        ("Y2K", False),
    ]

    def test_table_size(self):
        assert len(self.TRUTH_TABLE) == 30

    @pytest.mark.parametrize("term,expected", TRUTH_TABLE)
    def test_truth_table(self, term, expected):
        assert filter_e4(term) is expected


class TestCleanE5:
    def test_delimiters_removed_and_joined(self):
        out = clean_e5(["Medicare (United States)"], set())
        assert out == ["Medicare_United_States"]

    def test_stop_word_removed_entirely(self):
        assert clean_e5(["the"], {"the"}) == []

    def test_empty(self):
        assert clean_e5([], {"the"}) == []

    def test_underscored_concept_stays_single(self):
        out = clean_e5(["United_Church_of_Christ_members"], {"of", "the"})
        assert out == ["United_Church_of_Christ_members"]

    def test_stop_pieces_dropped_before_join(self):
        out = clean_e5(["Health insurance in the United States"], {"in", "the"})
        assert out == ["Health_insurance_United_States"]


def _mini_index() -> KbIndex:
    records = [
        KnowledgeRecord(
            title="Alpha Exchange", contents="ember quartz ember",
            categories=["Topic Alpha", "zone ab 9"],
            linked_concepts=["Ally Alpha"], page_rank=8,
        ),
        KnowledgeRecord(
            title="Alpha Forum", contents="ember lantern",
            categories=["Topic Alpha"], linked_concepts=["Ally Alpha Two"],
            page_rank=8,
        ),
        KnowledgeRecord(
            title="beta draft 2", contents="violet prism",
            categories=["Topic Beta"], linked_concepts=[], page_rank=8,
        ),
        KnowledgeRecord(
            title="Gamma Council", contents="saffron",
            categories=["Topic Gamma"], linked_concepts=["Ally Gamma"],
            page_rank=3,
        ),
    ]
    return kb_index(records)


def _resources() -> TextResources:
    return TextResources(stopwords={"the", "of", "in"}, gazetteer=Gazetteer(), nouns=set())


class TestApplyPreset:
    def test_a1_appends_filtered_titles_and_categories(self):
        doc = RawDocument(id="d", title="", body="ember quartz report",
                          labels={"alpha"})
        enriched = apply_preset(doc, PRESETS["A1"], _mini_index(), _resources())
        injected = enriched.injected
        assert enriched.tokens == ["ember", "quartz", "report"]
        assert "Alpha_Exchange" in injected
        assert "Topic_Alpha" in injected
        # junk category has a digit, junk title starts lowercase
        assert all("9" not in term and not term[0].islower() for term in injected)
        # A1 carries no linked concepts
        assert "Ally_Alpha" not in injected

    def test_a4_includes_linked_concepts(self):
        doc = RawDocument(id="d", title="", body="ember quartz", labels={"alpha"})
        enriched = apply_preset(doc, PRESETS["A4"], _mini_index(), _resources())
        injected = enriched.injected
        assert "Ally_Alpha" in injected

    def test_empty_index_leaves_document_unchanged(self):
        doc = RawDocument(id="d", title="", body="ember quartz", labels={"alpha"})
        enriched = apply_preset(doc, PRESETS["A4"], kb_index([]), _resources())
        assert enriched.injected == []
        assert enriched.tokens == ["ember", "quartz"]

    def test_original_tokens_never_touched(self):
        doc = RawDocument(id="d", title="head", body="ember quartz the report",
                          labels={"alpha"})
        plain = apply_preset(doc, PRESETS["baseline"], None, _resources())
        enriched = apply_preset(doc, PRESETS["A4"], _mini_index(), _resources())
        assert (enriched.tokens, enriched.tags) == (plain.tokens, plain.tags)

    def test_k_monotonic_title_prefix(self):
        doc = make_tagged(["ember", "violet"])
        small = retrieve(doc, _mini_index(), Strategy.E2, 1)
        large = retrieve(doc, _mini_index(), Strategy.E2, 3)
        assert large.titles[: len(small.titles)] == small.titles

    def test_deterministic(self):
        doc = RawDocument(id="d", title="", body="ember quartz violet",
                          labels={"alpha"})
        first = apply_preset(doc, PRESETS["A5"], _mini_index(), _resources())
        second = apply_preset(doc, PRESETS["A5"], _mini_index(), _resources())
        assert first == second

    def test_unfiltered_preset_keeps_junk(self):
        doc = RawDocument(id="d", title="", body="ember violet", labels={"alpha"})
        preset = Preset(name="custom", strategies=frozenset({Strategy.E1}),
                        k=4, apply_e4=False)
        enriched = apply_preset(doc, preset, _mini_index(), _resources())
        injected = enriched.injected
        assert "beta_draft_2" in injected
        assert "zone_ab_9" in injected

    def test_appended_terms_pass_e4_after_cleaning(self):
        # a title whose leading piece is a stop word would start lowercase
        # after cleaning; the re-check must drop it
        index = kb_index([KnowledgeRecord(
            title="The ember collective", contents="ember", page_rank=8,
            categories=["Topic Alpha"],
        )])
        doc = RawDocument(id="d", title="", body="ember", labels={"alpha"})
        preset = PRESETS["A1"]
        enriched = apply_preset(doc, preset, index, _resources())
        injected = enriched.injected
        assert injected == ["Topic_Alpha"]
        for term in injected:
            assert filter_e4(term)


class TestPresetDefinitions:
    def test_paper_preset_shapes(self):
        assert PRESETS["A1"].strategies == {Strategy.E1}
        assert PRESETS["A1"].k == 5 and not PRESETS["A1"].include_linked
        assert PRESETS["A2"].strategies == {Strategy.E1}
        assert PRESETS["A2"].k == 20 and not PRESETS["A2"].include_linked
        assert PRESETS["A3"].strategies == {Strategy.E2}
        assert PRESETS["A3"].k == 5 and PRESETS["A3"].include_linked
        assert PRESETS["A4"].strategies == {Strategy.E2}
        assert PRESETS["A4"].k == 20 and PRESETS["A4"].include_linked
        assert PRESETS["A5"].strategies == {Strategy.E1, Strategy.E2}
        assert PRESETS["A5"].k == 20 and PRESETS["A5"].include_linked
        for name in ("A1", "A2", "A3", "A4", "A5"):
            assert PRESETS[name].apply_e4 and PRESETS[name].apply_e5
            assert PRESETS[name].representation is Representation.T1
