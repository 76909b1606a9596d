"""Shared fixtures: the worked-example newsgroup post, the two-record
knowledge-base sample, and the lexical resources the golden tests use."""

from __future__ import annotations

import os

import pytest

from kbcat import learn
from kbcat.enrich import EnrichmentOutput, Preset, Strategy, strategy_outputs
from kbcat.kbindex import KbIndex, KnowledgeRecord
from kbcat.textproc import EntityTag, Gazetteer, TaggedDocument

# A 20-Newsgroups style post used as the golden representation fixture.
SAMPLE_POST = (
    "Why? He, Reno, and the FBI got what they wanted -- a reminder of who is "
    "the boss in America -- the thugs who work for the government.-- "
    "Clayton E. Cramer {uunet,pyramid}!optilink!cramer My opinions, all mine!"
)

# Stop words the golden fixture removes; deliberately small so the worked
# example keeps words like "got", "of" and "who".
SAMPLE_STOPLIST = {
    "why", "he", "and", "the", "what", "they", "a", "is", "in", "for",
    "my", "all", "e",
}

SAMPLE_NOUNS = {"boss", "thugs", "opinions", "mine", "uunet"}

SAMPLE_GAZETTEER_ENTRIES = {
    "Reno": EntityTag.PERSON,
    "FBI": EntityTag.ORGANIZATION,
    "America": EntityTag.LOCATION,
    "Clayton E. Cramer": EntityTag.PERSON,
    "Clayton Cramer": EntityTag.PERSON,
}


@pytest.fixture()
def sample_gazetteer() -> Gazetteer:
    return Gazetteer(SAMPLE_GAZETTEER_ENTRIES)


# The knowledge-base sample: a health-insurance concept and a managed-care
# organization, with the fields a record dump carries.
HEALTH_RECORD = KnowledgeRecord(
    title="Health insurance in the United States",
    redirects=["Health insurance in US", "Health insurance reform"],
    entity_types=[],
    categories=[
        "Health insurance",
        "Medicare and Medicaid (United States)",
        "Healthcare in the United States",
    ],
    linked_concepts=[
        "American Enterprise Institute",
        "Congressional Budget Office",
        "Newborns' and Mothers' Health Protection Act",
        "American College of Physicians",
        "United States Census Bureau",
        "TRICARE",
        "Medicare (United States)",
    ],
    contents=(
        "health insurance coverage in the united states government programs "
        "medicare medicaid employer private plans"
    ),
    page_rank=6,
)

KAISER_RECORD = KnowledgeRecord(
    title="Kaiser Permanente",
    redirects=[
        "Kaiser Foundation Research Institute",
        "Kaiser Permanente Hospital",
        "Kaiser Permanente entities",
    ],
    entity_types=["Freebase: organization"],
    categories=[
        "Health care companies of the United States",
        "Hospital networks",
        "Non-profit organizations based in the United States",
        "Health maintenance organizations",
        "Medical and health organizations based in the United States",
        "Companies based in Oakland, California",
    ],
    linked_concepts=[
        "AFL-CIO",
        "Elk City, Oklahoma",
        "Ohio",
        "Georgia (U.S. state)",
        "Preventive medicine",
        "Los Angeles Times",
        "Henry J. Kaiser",
        "Centers for Disease Control and Prevention",
        "Sieko",
    ],
    contents=(
        "kaiser permanente integrated managed care consortium hospitals "
        "health plan members oakland california"
    ),
    page_rank=8,
)


@pytest.fixture()
def kb_sample() -> list[KnowledgeRecord]:
    return [HEALTH_RECORD, KAISER_RECORD]


def make_tagged(
    surfaces: list[str], tags: list[EntityTag] | None = None
) -> TaggedDocument:
    """Build a TaggedDocument directly from its words (bypassing
    split_words), the way enrichment receives already-split text."""
    return TaggedDocument(
        tokens=list(surfaces),
        tags=tags or [EntityTag.NONE] * len(surfaces),
    )


def retrieve(
    doc: TaggedDocument,
    index: KbIndex,
    strategy: Strategy,
    k: int,
    title_term: str | None = None,
    min_rank: int = 5,
) -> EnrichmentOutput:
    """One strategy's output for a document, through ``strategy_outputs``."""
    preset = Preset(name="custom", strategies=frozenset({strategy}), k=k,
                    title_term=title_term, min_rank=min_rank)
    [(_, out)] = strategy_outputs(doc, preset, index)
    return out


@pytest.fixture()
def forced_pool(monkeypatch):
    """Make every one-vs-rest training of two or more categories use the
    worker pool: no training set is within the Gram limit, and the
    affinity set holds two CPUs. A limit of 0 also sets each worker's Gram
    row source to cache only 2 rows, its floor, so the workers train on the
    evicting path."""
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("the worker pool needs os.sched_getaffinity")
    monkeypatch.setattr(learn, "_GRAM_LIMIT", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
