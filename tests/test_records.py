"""The engine's record classes: equality, hashing and immutability.

Records are NamedTuples (immutable values) or slotted classes built on
ksengine.record. Records of one class with equal fields are equal, and
records of different classes are not; a slotted record that can change is
unhashable, a frozen one hashes by its fields and refuses assignment, and an
Explanation compares by identity.
The tuples are immutable and hash as tuples do (a list field makes them
unhashable); those that were mutable dataclasses are records nothing
reassigns a field of.
"""

import copy
import importlib
import pickle

import pytest

from ksengine.concepts import (
    Concept, ConceptExperiences, ConceptServices, ConceptSense, ConceptStore, ConceptStructure,
    Lexicon, ObservationScope, ReadSummary, ReadTrace, TraceEvent,
)
from ksengine.discovery import (
    AbilityEntry, AbilityReport, AnalogyResult, Candidate, CauseEffectEdge, CauseEffectTrace,
    IncrementFragment, LinkCandidate, Recommendation, RelationStatus, Verdict,
)
from ksengine.record import Record
from ksengine.rules import BaseAtom, Explanation, PatternAtom, Rule
from ksengine.sln import (
    ClassRef, FileRef, LinkType, Network, QueryPattern, RepBundle, SemanticLink,
    SemanticNode,
)
from ksengine.space import Dimension, NormalFormReport, Space
from ksengine.state import AnomalyRule, EngineState, Problem
from ksengine.taxonomy import CategoryNode, CategoryTree

REP = RepBundle("w", "m", "h", ("k1",))
ATOM = PatternAtom("?x", "t", "?y")
NET, SPACE, STORE, LEXICON, TREE = Network(), Space(), ConceptStore(), Lexicon(), CategoryTree()

# Per record class, two builders of distinct records of that class; calling
# one builder twice gives two equal records.
RECORDS = [
    (lambda: FileRef("a.txt"), lambda: FileRef("b.txt")),
    (lambda: ClassRef("C"), lambda: ClassRef("D")),
    (lambda: RepBundle("w", "m", "h", ("k1",)), lambda: RepBundle("w", "m", "h", ("k2",))),
    (lambda: SemanticNode("n1", REP), lambda: SemanticNode("n1", REP, {"x": 1})),
    (lambda: LinkType("t", REP), lambda: LinkType("t", REP, transitive=True)),
    (lambda: SemanticLink("k1", "a", "t", "b", 1.0),
     lambda: SemanticLink("k1", "a", "t", "b", 1.0, "r", ("k2",))),
    (lambda: QueryPattern("a", None, "b"), lambda: QueryPattern(None, "t", "b")),
    (lambda: PatternAtom("?x", "t", "?y"), lambda: PatternAtom("?x", "t", "?z")),
    (lambda: BaseAtom("?x", "t", "?y"), lambda: BaseAtom("?x", "t", "?z")),
    (lambda: Rule("r", REP, (ATOM,), (ATOM,)), lambda: Rule("r", REP, (ATOM,), ())),
    (lambda: Problem("p1", "anomaly", "s"), lambda: Problem("p1", "anomaly", "s", ("e",))),
    (lambda: AnomalyRule("a1", (ATOM,), "count", "ge", 1.0, "t"),
     lambda: AnomalyRule("a1", (ATOM,), "count", "gt", 1.0, "t")),
    (lambda: EngineState(NET, SPACE, STORE, LEXICON),
     lambda: EngineState(NET, SPACE, STORE, LEXICON, {"p1": Problem("p1", "anomaly", "s")})),
    (lambda: CategoryNode("c1", "tech", None), lambda: CategoryNode("c1", "tech", "root")),
    (lambda: Dimension("d1", "topic", TREE), lambda: Dimension("d1", "year", TREE)),
    (lambda: NormalFormReport([], [], []), lambda: NormalFormReport([], [], ["d1"])),
    (lambda: ConceptStructure(), lambda: ConceptStructure(classes=["c"])),
    (lambda: ConceptServices(), lambda: ConceptServices(interfaces=["i"])),
    (lambda: ConceptExperiences(), lambda: ConceptExperiences(events=["e"])),
    (lambda: ConceptSense(), lambda: ConceptSense(media=["m"])),
    (lambda: Concept("c1", "tech"), lambda: Concept("c1", "tech", priori=True)),
    (lambda: ObservationScope(3, 1, 10), lambda: ObservationScope(3, 2, 10)),
    (lambda: TraceEvent(0, "w", "resolved"), lambda: TraceEvent(0, "w", "skipped")),
    (lambda: ReadSummary(), lambda: ReadSummary(tokens=1)),
    (lambda: ReadTrace(), lambda: ReadTrace([TraceEvent(0, "w", "resolved")])),
    (lambda: LinkCandidate("a", "t", "b"), lambda: LinkCandidate("a", "t", "b", 2.0)),
    (lambda: Candidate("link", "x"), lambda: Candidate("link", "x", "note")),
    (lambda: Verdict(True, None, "m"), lambda: Verdict(False, None, "m")),
    (lambda: CauseEffectEdge("a", "l", "b", 1.0, ("forward",)),
     lambda: CauseEffectEdge("a", "l", "b", 1.0, ("backward",))),
    (lambda: CauseEffectTrace(["a"], []), lambda: CauseEffectTrace(["b"], [])),
    (lambda: Recommendation("p", ("s",), False), lambda: Recommendation("p", (), True)),
    (lambda: RelationStatus(("a", "t", "b"), "present"),
     lambda: RelationStatus(("a", "t", "b"), "conjectured")),
    (lambda: AnalogyResult("none"), lambda: AnalogyResult("exact", {"a": "b"})),
    (lambda: IncrementFragment(), lambda: IncrementFragment(rules=[Rule("r", REP, (), ())])),
    (lambda: AbilityEntry(0, 1, 2, 3), lambda: AbilityEntry(1, 1, 2, 3)),
    (lambda: AbilityReport([]), lambda: AbilityReport([AbilityEntry(0, 1, 2, 3)])),
]

FROZEN = {FileRef, ClassRef, QueryPattern, PatternAtom, BaseAtom}
RECORD_MODULES = ("sln", "rules", "state", "taxonomy", "space", "concepts", "discovery")


def _name(pair):
    return type(pair[0]()).__name__


def test_every_record_class_is_covered():
    covered = {type(make()) for make, _other in RECORDS} | {Explanation}
    assert len(covered) == 37
    for module_name in RECORD_MODULES:
        module = importlib.import_module(f"ksengine.{module_name}")
        for value in vars(module).values():
            if (isinstance(value, type) and value.__module__ == module.__name__
                    and (issubclass(value, Record) or hasattr(value, "_fields"))):
                assert value in covered, value


@pytest.mark.parametrize("make, other", RECORDS, ids=[_name(pair) for pair in RECORDS])
def test_records_compare_by_class_and_fields(make, other):
    a, b, c = make(), make(), other()
    assert a == b and not a != b
    assert a != c and not a == c
    assert type(a) is type(c)
    if isinstance(a, tuple) or type(a) in FROZEN:
        try:
            assert hash(a) == hash(b)
        except TypeError:  # a NamedTuple holding a list
            assert isinstance(a, tuple) and type(a) not in FROZEN
        assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a
        field = a._fields[0]
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(c, field))
        assert a == b
    else:
        with pytest.raises(TypeError):
            hash(a)
        field = next(name for name in a._fields if getattr(a, name) != getattr(c, name))
        setattr(a, field, getattr(c, field))
        assert a != b


def test_records_of_different_classes_never_compare_equal():
    assert FileRef("x") != ClassRef("x") and ClassRef("x") != FileRef("x")
    atom, base = PatternAtom("?x", "t", "?y"), BaseAtom("?x", "t", "?y")
    assert atom != base and base != atom
    assert isinstance(base, PatternAtom)
    assert len({atom, base}) == 2


def test_record_repr_names_the_class_and_each_field():
    assert repr(FileRef("a.txt")) == "FileRef(path='a.txt')"
    assert repr(BaseAtom("?x", "t", "?y")) == "BaseAtom(source='?x', type='t', target='?y')"
    assert repr(SemanticLink("k1", "a", "t", "b", 1.0)) == (
        "SemanticLink(id='k1', source='a', type='t', target='b', weight=1.0, "
        "rule_id=None, premises=())")
    assert repr(SemanticLink("k2", "a", "t", "c", 1.0, "r", ("k1",))).endswith(
        "rule_id='r', premises=('k1',))")


def test_explanations_compare_by_identity():
    a = Explanation("k1", ("a", "t", "b"), "explicit")
    b = Explanation("k1", ("a", "t", "b"), "explicit")
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert len({a, b}) == 2
    assert a.children == [] and a.children is not b.children

