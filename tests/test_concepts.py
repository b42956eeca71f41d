"""Concept store, lexicon, and text-reading behaviour."""

import copy
import random

import pytest

from ksengine.concepts import (
    COOCCUR_LABEL,
    ConceptStore,
    Lexicon,
    ObservationScope,
    enrich_concept,
    generalize_concepts,
    import_category_hierarchy,
    read_text,
)
from ksengine.ksif import export_state, import_state
from ksengine.state import EngineState
from ksengine.errors import (
    CyclicHierarchy,
    DanglingReference,
    DuplicateId,
    InvalidId,
    InvalidRep,
    NonFiniteWeight,
    TooFewConcepts,
    UnknownCompartment,
    UnknownConcept,
)

import oracles
from generators import random_text, reading_fixture


def test_add_concept_generates_sequential_ids():
    store = ConceptStore()
    first = store.add_concept("one")
    second = store.add_concept("two")
    assert first.id == "c000001"
    assert second.id == "c000002"
    with pytest.raises(DuplicateId):
        store.add_concept("again", concept_id=first.id)


def test_get_unknown_concept():
    store = ConceptStore()
    with pytest.raises(UnknownConcept):
        store.get("nope")


def test_class_links_stay_acyclic():
    store = ConceptStore()
    a = store.add_concept("a").id
    b = store.add_concept("b").id
    c = store.add_concept("c").id
    store.add_class_link(a, b)
    store.add_class_link(b, c)
    store.add_class_link(a, b)  # repeat is a no-op
    assert store.get(a).structure.classes == [b]
    with pytest.raises(CyclicHierarchy):
        store.add_class_link(c, a)
    assert store.is_class_ancestor(c, a)
    assert not store.is_class_ancestor(a, c)


def test_relations_accumulate_weight():
    store = ConceptStore()
    a = store.add_concept("a").id
    b = store.add_concept("b").id
    assert store.add_relation(a, "uses", b, 1.0) == 1.0
    assert store.add_relation(a, "uses", b, 0.5) == 1.5
    assert store.relation_weight(a, "uses", b) == 1.5
    assert store.relation_weight(b, "uses", a) == 0.0


@pytest.mark.parametrize("start, increment", [
    (0.0, float("inf")),
    (0.0, float("nan")),
    (1e308, 1e308),  # both finite; the sum overflows to inf
])
def test_relation_refuses_non_finite_weight(start, increment):
    store = ConceptStore()
    a = store.add_concept("a").id
    b = store.add_concept("b").id
    if start:
        store.add_relation(a, "uses", b, start)
    with pytest.raises(NonFiniteWeight):
        store.add_relation(a, "uses", b, increment)
    assert store.relation_weight(a, "uses", b) == start
    text = export_state(EngineState(concepts=store))
    assert export_state(import_state(text)) == text


def test_relation_label_must_be_non_empty():
    # KSIF import refuses an empty relation label, so the mutator does too.
    store = ConceptStore()
    a = store.add_concept("a").id
    b = store.add_concept("b").id
    with pytest.raises(InvalidRep, match="relation label '' must be non-empty text"):
        store.add_relation(a, "", b, 1.0)
    assert store.get(a).structure.relations == {}


def test_lexicon_candidates_must_be_ids():
    # KSIF import refuses a candidate that is not an id, so the mutator does too.
    lex = Lexicon()
    lex.set_candidates("bank", ["c1"])
    with pytest.raises(InvalidId, match="candidate 'not an id'"):
        lex.set_candidates("bank", ["c2", "not an id"])
    assert lex.candidates("bank") == ["c1"]


def test_lexicon_words_must_be_non_empty():
    # KSIF import refuses an empty word, so both mutators do, before storing.
    lex = Lexicon()
    for store in (lambda: lex.add("", "c1"), lambda: lex.set_candidates("", ["c1"])):
        with pytest.raises(InvalidRep, match="lexicon words must be non-empty"):
            store()
    assert len(lex) == 0 and "" not in lex


def test_lexicon_words_must_be_text():
    # Export escapes each word as text, so a word of another type would be
    # stored and then fail export outside the engine's errors.
    lex = Lexicon()
    for word in (5, ("w",), None):
        for store in (lambda: lex.add(word, "c1"), lambda: lex.set_candidates(word, ["c1"])):
            with pytest.raises(InvalidRep, match="lexicon words must be non-empty text"):
                store()
    assert len(lex) == 0


def test_link_count_counts_both_directions():
    store = ConceptStore()
    a = store.add_concept("a").id
    b = store.add_concept("b").id
    c = store.add_concept("c").id
    store.add_class_link(a, b)
    store.add_relation(c, "near", a, 1.0)
    assert store.link_count_to(a, {b, c}) == 2
    assert store.link_count_to(a, set()) == 0
    assert store.link_count_to("ghost", {a}) == 0


def test_lexicon_keeps_priority_order():
    lex = Lexicon()
    lex.add("bank", "c2")
    lex.add("bank", "c1")
    lex.add("bank", "c2")  # duplicate ignored
    assert lex.candidates("bank") == ["c2", "c1"]
    lex.set_candidates("bank", ["c1", "c2", "c1"])
    assert lex.candidates("bank") == ["c1", "c2"]
    assert "bank" in lex
    assert lex.candidates("missing") == []
    with pytest.raises(InvalidRep):
        lex.add("", "c1")


def test_observation_scope_clips_window():
    scope = ObservationScope(center=0, radius=2, length=10)
    assert list(scope.window) == [0, 1, 2]
    scope = ObservationScope(center=9, radius=2, length=10)
    assert list(scope.window) == [7, 8, 9]
    scope = ObservationScope(center=5, radius=2, length=10)
    assert list(scope.window) == [3, 4, 5, 6, 7]
    with pytest.raises(ValueError):
        ObservationScope(center=0, radius=0, length=10)


def test_reading_skips_unknown_words():
    store = ConceptStore()
    lex = Lexicon()
    lex.add("orphan", "c999999")  # word known, concept absent
    trace = read_text(store, ["mystery", "orphan"], lex)
    assert trace.summary.tokens == 2
    assert trace.summary.skipped == 2
    assert trace.events[0].detail == "no lexicon entry"
    assert trace.events[1].detail == "no known candidate"


def test_reading_breaks_ties_by_lexicon_order():
    store = ConceptStore()
    first = store.add_concept("first").id
    second = store.add_concept("second").id
    lex = Lexicon()
    lex.set_candidates("word", [second, first])
    trace = read_text(store, ["word"], lex)
    assert trace.events[0].concept == second


def test_reading_prefers_activated_candidate():
    store = ConceptStore()
    anchor = store.add_concept("anchor").id
    plain = store.add_concept("plain").id
    linked = store.add_concept("linked").id
    store.add_relation(linked, "near", anchor, 1.0)
    lex = Lexicon()
    lex.add("anchor", anchor)
    lex.set_candidates("word", [plain, linked])
    # without context the first candidate wins
    solo = read_text(copy.deepcopy(store), ["word"], lex)
    assert solo.events[0].concept == plain
    # an anchor mention inside the window flips the choice
    ctx = read_text(copy.deepcopy(store), ["anchor", "word"], lex)
    assert ctx.events[1].concept == linked
    # goals act as standing context even with no nearby mention
    goal = read_text(copy.deepcopy(store), ["word"], lex, goals=[anchor])
    assert goal.events[0].concept == linked


def test_reading_activation_respects_radius():
    store = ConceptStore()
    anchor = store.add_concept("anchor").id
    plain = store.add_concept("plain").id
    linked = store.add_concept("linked").id
    store.add_relation(linked, "near", anchor, 1.0)
    lex = Lexicon()
    lex.add("anchor", anchor)
    lex.add("the", store.add_concept("filler").id)
    lex.set_candidates("word", [plain, linked])
    # anchor sits three tokens back with radius 2: out of scope
    trace = read_text(copy.deepcopy(store), ["anchor", "the", "the", "word"], lex, radius=2)
    assert trace.events[3].concept == plain
    trace = read_text(copy.deepcopy(store), ["anchor", "the", "the", "word"], lex, radius=3)
    assert trace.events[3].concept == linked


def test_relation_word_connects_neighbors():
    store = ConceptStore()
    cat = store.add_concept("cat", concept_id="cat").id
    mat = store.add_concept("mat", concept_id="mat").id
    on = store.add_concept("on", concept_id="on", link_type="rests-on").id
    lex = Lexicon()
    lex.add("cat", cat)
    lex.add("mat", mat)
    lex.add("on", on)
    trace = read_text(store, ["cat", "on", "mat"], lex)
    assert store.relation_weight(cat, "rests-on", mat) == 1.0
    assert trace.summary.relations_created == 1
    rel_events = [e for e in trace.events if e.action == "relation"]
    assert len(rel_events) == 1
    assert rel_events[0].detail == f"{cat} -rests-on-> {mat}"


def test_relation_word_without_source_is_dropped():
    store = ConceptStore()
    mat = store.add_concept("mat", concept_id="mat").id
    on = store.add_concept("on", concept_id="on", link_type="rests-on").id
    lex = Lexicon()
    lex.add("mat", mat)
    lex.add("on", on)
    trace = read_text(store, ["on", "mat"], lex)
    dropped = [e for e in trace.events if e.action == "relation-dropped"]
    assert len(dropped) == 1
    assert "no preceding entity" in dropped[0].detail
    assert trace.summary.relations_created == 0


def test_relation_word_without_target_is_dropped():
    store = ConceptStore()
    cat = store.add_concept("cat", concept_id="cat").id
    on = store.add_concept("on", concept_id="on", link_type="rests-on").id
    lex = Lexicon()
    lex.add("cat", cat)
    lex.add("on", on)
    trace = read_text(store, ["cat", "on"], lex)
    dropped = [e for e in trace.events if e.action == "relation-dropped"]
    assert len(dropped) == 1
    assert "no following entity" in dropped[0].detail


def test_relation_completion_skips_intervening_relation_words():
    store = ConceptStore()
    cat = store.add_concept("cat", concept_id="cat").id
    mat = store.add_concept("mat", concept_id="mat").id
    store.add_concept("on", concept_id="on", link_type="rests-on")
    store.add_concept("near", concept_id="nearby", link_type="close-to")
    lex = Lexicon()
    lex.add("cat", cat)
    lex.add("mat", mat)
    lex.add("on", "on")
    lex.add("near", "nearby")
    read_text(store, ["cat", "on", "near", "mat"], lex)
    assert store.relation_weight(cat, "rests-on", mat) == 1.0
    assert store.relation_weight(cat, "close-to", mat) == 1.0


def test_cooccurrence_stored_once_lexicographically():
    store = ConceptStore()
    zeta = store.add_concept("zeta", concept_id="zzz").id
    alpha = store.add_concept("alpha", concept_id="aaa").id
    lex = Lexicon()
    lex.add("zeta", zeta)
    lex.add("alpha", alpha)
    trace = read_text(store, ["zeta", "alpha"], lex)
    assert store.relation_weight("aaa", COOCCUR_LABEL, "zzz") == 1.0
    assert store.relation_weight("zzz", COOCCUR_LABEL, "aaa") == 0.0
    assert trace.summary.cooccurrence_updates == 1


def test_cooccurrence_weights_match_window_recount():
    rng = random.Random(314)
    for _ in range(15):
        store, lexicon, _ = reading_fixture(rng)
        tokens = random_text(rng, store, lexicon, max_tokens=80)
        radius = rng.choice((1, 2, 3))
        before = copy.deepcopy(store)
        trace = read_text(store, tokens, lexicon, radius=radius)
        entity_positions = [
            (e.position, e.concept)
            for e in trace.events
            if e.action == "resolved" and store.get(e.concept).link_type is None
        ]
        want = oracles.window_pair_weights(entity_positions, radius)
        for (lo, hi), expect in want.items():
            delta = (
                store.relation_weight(lo, COOCCUR_LABEL, hi)
                - before.relation_weight(lo, COOCCUR_LABEL, hi)
            )
            assert delta == pytest.approx(expect), (lo, hi, tokens)
        # and nothing else moved
        total_delta = 0.0
        for cid in store.ids():
            for (label, target), w in store.get(cid).structure.relations.items():
                if label == COOCCUR_LABEL:
                    total_delta += w - before.relation_weight(cid, label, target)
        assert total_delta == pytest.approx(sum(want.values()))


def test_reading_is_deterministic():
    rng = random.Random(271)
    store, lexicon, _ = reading_fixture(rng)
    tokens = random_text(rng, store, lexicon, max_tokens=60)
    t1 = read_text(copy.deepcopy(store), tokens, lexicon)
    t2 = read_text(copy.deepcopy(store), tokens, lexicon)
    assert t1 == t2


def test_import_category_hierarchy_links_children():
    store = ConceptStore()
    rows = [
        ("root", None, "everything"),
        ("mid", "root", "middle"),
        ("leaf", "mid", "detail"),
    ]
    created = import_category_hierarchy(store, rows)
    assert created == ["root", "mid", "leaf"]
    assert store.get("root").priori
    assert not store.get("leaf").priori
    assert store.get("leaf").structure.classes == ["mid"]
    assert store.is_class_ancestor("root", "leaf")


def test_import_category_hierarchy_names_missing_parent():
    rows = [("root", None, "everything"), ("leaf", "ghost", "detail")]
    with pytest.raises(DanglingReference) as info:
        import_category_hierarchy(ConceptStore(), rows)
    assert info.value.ref == "ghost"


def test_generalize_concepts_shares_attributes():
    store = ConceptStore()
    a = store.add_concept("apple")
    b = store.add_concept("pear")
    a.structure.attributes.update({"edible": "yes", "color": "red"})
    b.structure.attributes.update({"edible": "yes", "color": "green"})
    with pytest.raises(TooFewConcepts):
        generalize_concepts(store, [a.id])
    parent = generalize_concepts(store, [a.id, b.id])
    assert parent.name == "apple+pear"
    assert parent.structure.attributes == {"edible": "yes"}
    assert parent.id in store.get(a.id).structure.classes
    assert parent.id in store.get(b.id).structure.classes


def test_enrich_concept_compartments():
    store = ConceptStore()
    a = store.add_concept("a")
    b = store.add_concept("b")
    enrich_concept(store, a.id, [
        ("attribute", ("size", 4)),
        ("process", ["read", "write"]),
        ("process", ["read", "write"]),
        ("relation", ("uses", b.id)),
        ("instance", "a1"),
        ("instance", "a1"),
        ("media", "photo"),
    ])
    assert a.structure.attributes["size"] == 4
    assert a.services.processes == [("read", "write")]
    assert a.structure.relations[("uses", b.id)] == 1.0
    assert a.structure.instances == ["a1"]
    assert a.sense.media == ["photo"]
    with pytest.raises(UnknownCompartment):
        enrich_concept(store, a.id, [("nonsense", "x")])
    with pytest.raises(UnknownConcept):
        enrich_concept(store, a.id, [("relation", ("uses", "ghost"))])
    # Relations go through add_relation: an empty label is refused and
    # changes nothing; a relation already held keeps its weight.
    with pytest.raises(InvalidRep):
        enrich_concept(store, a.id, [("relation", ("", b.id))])
    store.add_relation(a.id, "uses", b.id, 1.5)
    enrich_concept(store, a.id, [("relation", ("uses", b.id))])
    assert a.structure.relations == {("uses", b.id): 2.5}


@pytest.mark.parametrize("records", [
    [("instance", None)],
    [("process", [1, None])],
    [("relation", (5, "b"))],
    [("media", "photo"), ("rule", 3)],  # a refused record keeps the ones before it out
])
def test_enrich_concept_refuses_what_is_not_text(records):
    """Entries, process steps and relation labels are text, as
    ConceptStore.add checks them; a payload that is not is refused before
    anything is stored, not stored as its str()."""
    store = ConceptStore()
    a = store.add_concept("a", concept_id="a")
    store.add_concept("b", concept_id="b")
    before = copy.deepcopy(a)
    with pytest.raises(InvalidRep):
        enrich_concept(store, "a", records)
    assert store.get("a") == before
