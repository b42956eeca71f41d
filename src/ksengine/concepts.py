"""Concept networks grown from category imports and active text reading.

A concept bundles five compartments: structure (attributes, classes,
instances, relations), services (interfaces, processes), experiences
(use cases, objects, events), rules, and sense (media, language). Reading a
token stream resolves words through a lexicon, disambiguating by connectivity
to recently active concepts and to the reader's goals; relation words create
typed links between neighboring entity concepts while plain mentions
strengthen windowed co-occurrence links.
"""

from __future__ import annotations

import math
import sys
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from .errors import (
    CyclicHierarchy,
    InvalidRep,
    NonFiniteWeight,
    TooFewConcepts,
    UnknownCompartment,
    UnknownConcept,
)
from .record import Record
from .sln import Scalar, check_attribute, check_flag, check_id, check_str, check_text, fresh_id
from .taxonomy import CategoryTree

COOCCUR_LABEL = "co-occur"


class ConceptStructure(Record):
    __slots__ = ("attributes", "classes", "instances", "relations")

    def __init__(self, attributes: Optional[Dict[str, Scalar]] = None,
                 classes: Optional[List[str]] = None, instances: Optional[List[str]] = None,
                 relations: Optional[Dict[Tuple[str, str], float]] = None) -> None:
        self.attributes = {} if attributes is None else attributes
        self.classes = [] if classes is None else classes
        self.instances = [] if instances is None else instances
        self.relations = {} if relations is None else relations


class ConceptServices(Record):
    __slots__ = ("interfaces", "processes")

    def __init__(self, interfaces: Optional[List[str]] = None,
                 processes: Optional[List[Tuple[str, ...]]] = None) -> None:
        self.interfaces = [] if interfaces is None else interfaces
        self.processes = [] if processes is None else processes


class ConceptExperiences(Record):
    __slots__ = ("use_cases", "objects", "events")

    def __init__(self, use_cases: Optional[List[str]] = None,
                 objects: Optional[List[str]] = None, events: Optional[List[str]] = None) -> None:
        self.use_cases = [] if use_cases is None else use_cases
        self.objects = [] if objects is None else objects
        self.events = [] if events is None else events


class ConceptSense(Record):
    __slots__ = ("media", "language")

    def __init__(self, media: Optional[List[str]] = None,
                 language: Optional[List[str]] = None) -> None:
        self.media = [] if media is None else media
        self.language = [] if language is None else language


class Concept(Record):
    __slots__ = ("id", "name", "priori", "link_type", "structure", "services", "experiences",
                 "rules", "sense")

    def __init__(self, id: str, name: str, priori: bool = False, link_type: Optional[str] = None,
                 structure: Optional[ConceptStructure] = None,
                 services: Optional[ConceptServices] = None,
                 experiences: Optional[ConceptExperiences] = None,
                 rules: Optional[List[str]] = None, sense: Optional[ConceptSense] = None) -> None:
        self.id = id
        self.name = name
        self.priori = priori
        self.link_type = link_type  # set when this word denotes a relation
        self.structure = ConceptStructure() if structure is None else structure
        self.services = ConceptServices() if services is None else services
        self.experiences = ConceptExperiences() if experiences is None else experiences
        self.rules = [] if rules is None else rules
        self.sense = ConceptSense() if sense is None else sense


def _check_word(word: str) -> None:
    """KSIF import reads a word as non-empty text, so the mutators refuse
    anything else before storing it."""
    if not isinstance(word, str) or not word:
        raise InvalidRep("lexicon words must be non-empty text")


class Lexicon:
    """word -> ordered candidate concept ids; order is the tie-break priority."""

    def __init__(self) -> None:
        self._entries: Dict[str, List[str]] = {}

    def add(self, word: str, concept_id: str) -> None:
        _check_word(word)
        check_id(concept_id, "concept id")
        bucket = self._entries.setdefault(word, [])
        if concept_id not in bucket:
            bucket.append(concept_id)

    def set_candidates(self, word: str, candidates: Sequence[str]) -> None:
        _check_word(word)
        if not candidates:
            raise InvalidRep(f"candidate list for {word!r} must be non-empty")
        for concept_id in candidates:
            check_id(concept_id, "candidate")
        self._entries[word] = list(dict.fromkeys(candidates))

    def candidates(self, word: str) -> List[str]:
        return list(self._entries.get(word, ()))

    def words(self) -> List[str]:
        return sorted(self._entries)

    def __contains__(self, word: str) -> bool:
        return word in self._entries

    def __len__(self) -> int:
        return len(self._entries)


class ObservationScope(Record):
    """The reading window [center - radius, center + radius], clipped."""

    __slots__ = ("center", "radius", "length")

    def __init__(self, center: int, radius: int, length: int) -> None:
        if radius < 1:
            raise ValueError("radius must be >= 1")
        self.center = center
        self.radius = radius
        self.length = length

    @property
    def window(self) -> range:
        lo = max(0, self.center - self.radius)
        hi = min(self.length - 1, self.center + self.radius)
        return range(lo, hi + 1)


class TraceEvent(NamedTuple):
    position: int
    token: str
    action: str  # resolved | skipped | relation | relation-dropped
    concept: Optional[str] = None
    detail: str = ""


class ReadSummary(Record):
    __slots__ = ("tokens", "resolved", "skipped", "relations_created", "cooccurrence_updates")

    def __init__(self, tokens: int = 0, resolved: int = 0, skipped: int = 0,
                 relations_created: int = 0, cooccurrence_updates: int = 0) -> None:
        self.tokens = tokens
        self.resolved = resolved
        self.skipped = skipped
        self.relations_created = relations_created
        self.cooccurrence_updates = cooccurrence_updates


class ReadTrace(Record):
    __slots__ = ("events", "summary")

    def __init__(self, events: Optional[List[TraceEvent]] = None,
                 summary: Optional[ReadSummary] = None) -> None:
        self.events = [] if events is None else events
        self.summary = ReadSummary() if summary is None else summary


class ConceptStore:
    """All concepts known to the engine, with class and relation links."""

    def __init__(self) -> None:
        self.concepts: Dict[str, Concept] = {}
        self._counters: Dict[str, int] = {}

    def __contains__(self, concept_id: str) -> bool:
        return concept_id in self.concepts

    def __len__(self) -> int:
        return len(self.concepts)

    def get(self, concept_id: str) -> Concept:
        try:
            return self.concepts[concept_id]
        except KeyError:
            raise UnknownConcept(f"concept {concept_id!r} not found", concept_id) from None

    def ids(self) -> List[str]:
        return sorted(self.concepts)

    def add_concept(
        self,
        name: str,
        concept_id: Optional[str] = None,
        priori: bool = False,
        link_type: Optional[str] = None,
    ) -> Concept:
        return self.add(Concept(concept_id, name, priori=priori, link_type=link_type))

    def add(self, concept: Concept) -> Concept:
        """Store a concept under its id, or a fresh "c" id it sets when that
        is None. Refused, nothing stored, unless its name is text, link_type
        None or a relation label, priori a bool, and each attribute, entry,
        process step and relation label and weight one KSIF writes. Class ids
        and relation targets go unchecked, as import links them later."""
        check_str(concept.name, "concept name")
        if concept.link_type is not None:
            check_text(concept.link_type, "relation label")
        check_flag(concept.priori, "priori flag")
        structure, services, experiences = concept.structure, concept.services, concept.experiences
        for label, value in structure.attributes.items():
            check_attribute(label, value)
        for entries in (structure.instances, services.interfaces, *services.processes,
                        experiences.use_cases, experiences.objects, experiences.events,
                        concept.rules, concept.sense.media, concept.sense.language):
            for entry in entries:
                check_str(entry, "compartment entry")
        for (label, _target), weight in structure.relations.items():
            check_text(label, "relation label")
            if type(weight) not in (int, float) or not abs(weight) <= sys.float_info.max:
                raise NonFiniteWeight(f"relation weight {weight!r} must be a finite number")
        concept.id = fresh_id(self._counters, "c", self.concepts, concept.id, "concept")
        self.concepts[concept.id] = concept
        return concept

    def add_class_link(self, child_id: str, parent_id: str) -> None:
        child = self.get(child_id)
        self.get(parent_id)
        if parent_id in child.structure.classes:
            return
        if self.is_class_ancestor(child_id, parent_id):
            raise CyclicHierarchy(
                f"{parent_id!r} already specializes {child_id!r}; link would loop"
            )
        child.structure.classes.append(parent_id)

    def is_class_ancestor(self, ancestor: str, concept_id: str) -> bool:
        """True when ancestor is reachable from concept_id via class links."""
        seen: Set[str] = set()
        stack = [concept_id]
        while stack:
            cur = stack.pop()
            if cur == ancestor:
                return True
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(self.concepts[cur].structure.classes)
        return False

    def add_relation(
        self, source: str, label: str, target: str, increment: float = 1.0
    ) -> float:
        """Add increment to a relation's weight; returns the new weight.

        Raises NonFiniteWeight, leaving the weight as it was, when the
        increment or the sum is nan or infinite: KSIF import refuses those.
        """
        src = self.get(source)
        self.get(target)
        check_text(label, "relation label")
        key = (label, target)
        total = src.structure.relations.get(key, 0.0) + increment
        if not math.isfinite(total):
            raise NonFiniteWeight(
                f"relation ({source}, {label}, {target}) plus {increment!r} is {total!r}"
            )
        src.structure.relations[key] = total
        return total

    def relation_weight(self, source: str, label: str, target: str) -> float:
        return self.get(source).structure.relations.get((label, target), 0.0)

    def link_count_to(self, concept_id: str, others: Set[str]) -> int:
        """Number of class/relation edges joining concept_id to any of others."""
        if not others or concept_id not in self.concepts:
            return 0
        concept = self.concepts[concept_id]
        count = 0
        for parent in concept.structure.classes:
            if parent in others:
                count += 1
        for (_label, target) in concept.structure.relations:
            if target in others:
                count += 1
        for other_id in others:
            other = self.concepts.get(other_id)
            if other is None or other_id == concept_id:
                continue
            if concept_id in other.structure.classes:
                count += 1
            for (_label, target) in other.structure.relations:
                if target == concept_id:
                    count += 1
        return count


def import_category_hierarchy(
    store: ConceptStore, rows: Iterable[Tuple[str, Optional[str], str]]
) -> List[str]:
    """Create one concept per category row (id, parent_or_None, name).

    Child concepts get a class link to their parent's concept; the root is
    marked priori. Returns the created concept ids in creation order.
    """
    tree = CategoryTree.from_rows(rows)
    created: List[str] = []
    for cat_id in tree.topological_ids():
        node = tree.get(cat_id)
        store.add_concept(node.name, concept_id=cat_id, priori=node.parent is None)
        created.append(cat_id)
    for cat_id in tree.topological_ids():
        parent = tree.get(cat_id).parent
        if parent is not None:
            store.add_class_link(cat_id, parent)
    return created


def read_text(
    store: ConceptStore,
    tokens: Sequence[str],
    lexicon: Lexicon,
    goals: Iterable[str] = (),
    radius: int = 2,
) -> ReadTrace:
    """Scan tokens left to right, growing the concept network.

    Each token with lexicon candidates resolves to the candidate with the most
    links to concepts active in the observation scope plus the goal set (ties
    fall back to lexicon order). Relation-word concepts open a pending typed
    relation from the nearest preceding entity concept, completed by the next
    entity concept; entity mentions strengthen co-occurrence links with the
    distinct entity concepts resolved inside the window. Deterministic.
    """
    goal_set = set(goals)
    trace = ReadTrace()
    trace.summary.tokens = len(tokens)
    resolved: List[Tuple[int, str, bool]] = []  # (position, concept, is_relation)
    pending: List[Tuple[int, str, Optional[str]]] = []  # (pos, label, source)
    for position, token in enumerate(tokens):
        scope = ObservationScope(position, radius, len(tokens))
        candidates = [c for c in lexicon.candidates(token) if c in store]
        if not candidates:
            reason = "no lexicon entry" if token not in lexicon else "no known candidate"
            trace.events.append(TraceEvent(position, token, "skipped", detail=reason))
            trace.summary.skipped += 1
            continue
        active = {
            cid for (pos, cid, _rel) in resolved
            if pos in scope.window and pos < position
        }
        context = active | goal_set
        best = candidates[0]
        best_score = store.link_count_to(best, context)
        for candidate in candidates[1:]:
            score = store.link_count_to(candidate, context)
            if score > best_score:
                best, best_score = candidate, score
        concept = store.get(best)
        trace.events.append(
            TraceEvent(position, token, "resolved", concept=best,
                       detail=f"score={best_score}")
        )
        trace.summary.resolved += 1
        if concept.link_type is not None:
            source = next(
                (cid for (pos, cid, rel) in reversed(resolved) if not rel), None
            )
            pending.append((position, concept.link_type, source))
            resolved.append((position, best, True))
            continue
        partners = sorted(
            {
                cid for (pos, cid, rel) in resolved
                if pos in scope.window and pos < position and not rel and cid != best
            }
        )
        for partner in partners:
            lo, hi = sorted((best, partner))
            store.add_relation(lo, COOCCUR_LABEL, hi, 1.0)
            trace.summary.cooccurrence_updates += 1
        for (rel_pos, label, source) in pending:
            if source is None:
                trace.events.append(
                    TraceEvent(rel_pos, tokens[rel_pos], "relation-dropped",
                               detail=f"no preceding entity for {label!r}")
                )
                continue
            store.add_relation(source, label, best, 1.0)
            trace.summary.relations_created += 1
            trace.events.append(
                TraceEvent(rel_pos, tokens[rel_pos], "relation",
                           concept=best, detail=f"{source} -{label}-> {best}")
            )
        pending.clear()
        resolved.append((position, best, False))
    for (rel_pos, label, _source) in pending:
        trace.events.append(
            TraceEvent(rel_pos, tokens[rel_pos], "relation-dropped",
                       detail=f"no following entity for {label!r}")
        )
    return trace


def generalize_concepts(store: ConceptStore, concept_ids: Sequence[str]) -> Concept:
    """Create a common parent holding the shared attributes of the inputs."""
    ids = list(concept_ids)
    if len(ids) < 2:
        raise TooFewConcepts(f"need at least two concepts, got {len(ids)}")
    members = [store.get(cid) for cid in ids]
    shared: Dict[str, Scalar] = {}
    first = members[0]
    for label, value in first.structure.attributes.items():
        if all(m.structure.attributes.get(label) == value for m in members[1:]):
            shared[label] = value
    parent = store.add_concept("+".join(sorted(m.name for m in members)))
    parent.structure.attributes = dict(shared)
    for cid in ids:
        store.add_class_link(cid, parent.id)
    return parent


_LIST_COMPARTMENTS = {
    "instance": lambda c: c.structure.instances,
    "interface": lambda c: c.services.interfaces,
    "use_case": lambda c: c.experiences.use_cases,
    "object": lambda c: c.experiences.objects,
    "event": lambda c: c.experiences.events,
    "rule": lambda c: c.rules,
    "media": lambda c: c.sense.media,
    "language": lambda c: c.sense.language,
}


def enrich_concept(
    store: ConceptStore,
    concept_id: str,
    records: Iterable[Tuple[str, object]],
) -> Concept:
    """Append entries to a concept's compartments, collapsing duplicates.

    Records are (compartment, payload) pairs: "attribute" takes (label, value),
    checked as Network.add_node checks it, "process" takes a sequence of text
    steps, "relation" takes (label, target), a non-empty text label and the
    text id of a stored concept, and the list compartments (instance, interface,
    use_case, object, event, rule, media, language) take one text entry
    each. Every record is checked before any is stored, as ConceptStore.add
    checks what it stores: a payload that is not text is an InvalidRep, and
    a refused call stores nothing.
    """
    concept = store.get(concept_id)
    entries = []
    for compartment, payload in records:
        if compartment == "attribute":
            entry = check_attribute(*payload)  # type: ignore[misc]
        elif compartment == "process":
            entry = tuple(check_str(step, "compartment entry") for step in payload)  # type: ignore
        elif compartment == "relation":
            label, target = payload  # type: ignore[misc]
            entry = (check_text(label, "relation label"),
                     store.get(check_str(target, "relation target")).id)
        elif compartment in _LIST_COMPARTMENTS:
            entry = check_str(payload, "compartment entry")  # type: ignore[arg-type]
        else:
            raise UnknownCompartment(f"no compartment named {compartment!r}")
        entries.append((compartment, entry))
    for compartment, entry in entries:
        if compartment == "attribute":
            concept.structure.attributes[entry[0]] = entry[1]
        elif compartment == "process":
            if entry not in concept.services.processes:
                concept.services.processes.append(entry)
        elif compartment == "relation":
            if entry not in concept.structure.relations:
                store.add_relation(concept_id, *entry)
        else:
            bucket = _LIST_COMPARTMENTS[compartment](concept)
            if entry not in bucket:
                bucket.append(entry)
    return concept
