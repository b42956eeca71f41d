"""Typed semantic link networks.

Nodes and link types carry a three-level representation bundle: a machine
scalar, a natural-language word and sentence, and a set of anchor ids tying the
entry into a category hierarchy. Links are explicit (asserted) or derived
(recorded by the rule engine with their provenance). Symmetric link types are
stored once and completed at query time; transitive types behave like an
implicit chain rule (the rule engine synthesizes it).

All mutation goes through the public methods, and every insertion through
Network._store, so the link indexes (by type and source, by type and target)
stay a pure function of the link set, and identical operation sequences on
empty networks produce identical canonical exports. Other modules read links
through Network.rows (or a Network.prober) and Network.readings, never
through the indexes. rows(..., base=True) reads only a type's base links
(is_base: those its transitive closure rule did not derive) from a view of
the indexes, built on first use and kept in step with them.

Records follow one convention across the package: a typing.NamedTuple for
an immutable value, and otherwise a slotted class with a hand-written
__init__ on the ksengine.record bases. No module uses dataclasses: each
decorated class generates and execs code at import, and every CLI process
would pay for it. A stored link is one record, provenance included, so the
derived store, which grows far faster than the explicit one, holds one
object per link for the cyclic collector to track.
"""

from __future__ import annotations

import re
import sys
from typing import Callable, Collection, Dict, Iterable, List, Optional, Set, Tuple, Union

from .errors import (
    CannotRetractDerived,
    CyclicHierarchy,
    DuplicateExplicitLink,
    DuplicateId,
    InvalidRep,
    InvalidRule,
    MalformedPattern,
    NegativeWeight,
    UnknownLink,
    UnknownLinkType,
    UnknownNode,
    UnknownRule,
)
from .record import FrozenRecord, Record, _set
from .taxonomy import ID_PATTERN, CategoryTree, check_id, check_str

Scalar = Union[str, int, float]


def fresh_id(counters: Dict[str, int], prefix: str, taken: Collection[str],
             given: Optional[str] = None, noun: str = "record") -> str:
    """The engine's one id allocator. A given id comes back as it is once
    check_id accepts it and taken lacks it, else DuplicateId "<noun> '<id>'
    already exists". With none, the next "<prefix>NNNNNN" id not in taken;
    counters keeps, per prefix, where the next search starts. Only that
    numbering changes anything, so a mutator that claims its id after its
    other checks leaves no trace when it raises."""
    if given is not None:
        if check_id(given, f"{noun} id") in taken:
            raise DuplicateId(f"{noun} {given!r} already exists")
        return given
    n = counters.get(prefix, 1)
    while (token := f"{prefix}{n:06d}") in taken:
        n += 1
    counters[prefix] = n + 1
    return token


class FileRef(FrozenRecord):
    """Machine representation pointing at an external file."""

    __slots__ = ("path",)

    def __init__(self, path: str) -> None:
        _set(self, "path", path)


class ClassRef(FrozenRecord):
    """Machine representation naming a class of entities."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)


RepValue = Union[str, int, float, FileRef, ClassRef]


class RepBundle(Record):
    """Three-level representation: machine scalar, words, and anchor ids.

    word must be non-empty and rep_h text; rep_k anchors are kept in
    first-seen order with duplicates dropped. Anchor resolution (to
    categories or concepts) is a validation-time concern, not a
    construction-time one.
    """

    __slots__ = ("word", "rep_c", "rep_h", "rep_k")

    def __init__(self, word: str, rep_c: RepValue = "", rep_h: str = "",
                 rep_k: Tuple[str, ...] = ()) -> None:
        if not isinstance(word, str) or word == "":
            raise InvalidRep("word must be a non-empty string")
        if not isinstance(rep_c, (FileRef, ClassRef)):
            check_scalar(rep_c, "machine value")
        check_str(rep_h, "sentence")
        seen = []
        for anchor in rep_k:
            check_id(anchor, "anchor")
            if anchor not in seen:
                seen.append(anchor)
        self.word = word
        self.rep_c = rep_c
        self.rep_h = rep_h
        self.rep_k = tuple(seen)


def check_weight(weight: float) -> float:
    """A link weight as a float; it must be a finite number >= 0."""
    if isinstance(weight, bool) or not isinstance(weight, (int, float)) or not (
        0 <= weight <= sys.float_info.max
    ):
        raise NegativeWeight(f"weight must be a finite number >= 0, got {weight!r}")
    return float(weight)


def check_scalar(value: Scalar, what: str = "value") -> Scalar:
    """A machine or attribute value: text, an integer or a finite real."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)) or (
        isinstance(value, float) and not abs(value) <= sys.float_info.max
    ):
        raise InvalidRep(f"{what} must be text, an integer or a finite real, got {value!r}")
    return value


def check_text(text: str, what: str = "text") -> str:
    """Text that must not be empty: a name, label or word."""
    if not isinstance(text, str) or text == "":
        raise InvalidRep(f"{what} {text!r} must be non-empty text")
    return text


def check_flag(flag: bool, what: str) -> bool:
    """A flag: True or False, and no other value."""
    if not isinstance(flag, bool):
        raise InvalidRep(f"{what} {flag!r} must be True or False")
    return flag


def check_attribute(label: str, value: Scalar) -> Tuple[str, Scalar]:
    """An attribute entry: a non-empty text label and a scalar value."""
    return check_text(label, "attribute label"), check_scalar(value, f"attribute {label!r}")


class SemanticNode(Record):
    __slots__ = ("id", "rep", "attributes", "rank")

    def __init__(self, id: str, rep: RepBundle, attributes: Optional[Dict[str, Scalar]] = None,
                 rank: float = 0.0) -> None:
        self.id = id
        self.rep = rep
        self.attributes = {} if attributes is None else attributes
        self.rank = rank


class LinkType(Record):
    __slots__ = ("id", "rep", "transitive", "symmetric", "parent")

    def __init__(self, id: str, rep: RepBundle, transitive: bool = False,
                 symmetric: bool = False, parent: Optional[str] = None) -> None:
        self.id = id
        self.rep = rep
        self.transitive = transitive
        self.symmetric = symmetric
        self.parent = parent


def Explicit() -> None:
    """The rule id of an asserted link, None. Kept as a name because callers
    outside the package build links as SemanticLink(..., weight, Explicit())."""
    return None


class SemanticLink(Record):
    """A stored link and its provenance: rule_id and premises (the premise
    link ids, in body order) of the firing that derived it, or None and ()
    for an asserted link."""

    __slots__ = ("id", "source", "type", "target", "weight", "rule_id", "premises")

    def __init__(self, id: str, source: str, type: str, target: str, weight: float,
                 rule_id: Optional[str] = None, premises: Tuple[str, ...] = ()) -> None:
        self.id = id
        self.source = source
        self.type = type
        self.target = target
        self.weight = weight
        self.rule_id = rule_id
        self.premises = premises

    @property
    def is_explicit(self) -> bool:
        return self.rule_id is None

    def triple(self) -> Tuple[str, str, str]:
        return (self.source, self.type, self.target)


class QueryPattern(FrozenRecord):
    """A link query with exactly one hole (None) among the three fields."""

    __slots__ = ("source", "type", "target")

    def __init__(self, source: Optional[str], type: Optional[str],
                 target: Optional[str]) -> None:
        holes = [source, type, target].count(None)
        if holes != 1:
            raise MalformedPattern(
                f"pattern must have exactly one hole, found {holes}"
            )
        _set(self, "source", source)
        _set(self, "type", type)
        _set(self, "target", target)


_PATTERN_RE = re.compile(r"^\(\s*([^\s,()]+)\s*,\s*([^\s,()]+)\s*,\s*([^\s,()]+)\s*\)$")


def parse_pattern(text: str) -> QueryPattern:
    """Parse "(a, T, ?)" style pattern text; "?" marks the single hole."""
    m = _PATTERN_RE.match(text.strip())
    if not m:
        raise MalformedPattern(f"cannot parse pattern {text!r}")
    parts: List[Optional[str]] = []
    for piece in m.groups():
        if piece == "?":
            parts.append(None)
        elif ID_PATTERN.match(piece):
            parts.append(piece)
        else:
            raise MalformedPattern(f"bad pattern field {piece!r}")
    return QueryPattern(parts[0], parts[1], parts[2])


TRANSITIVE_PREFIX = "sys.transitive."  # + a type id: that type's closure rule


def is_base(link: SemanticLink) -> bool:
    """Whether a link is a base link of its type: one that the type's
    transitive closure rule did not derive (an explicit link or one of a
    user rule)."""
    return link.rule_id != TRANSITIVE_PREFIX + link.type


_NO_ENDS: Dict = {}  # stands in for a missing index bucket; never written
Row = Tuple[str, str, str]  # (source, target, link id)


def no_rows(_source: Optional[str], _target: Optional[str]) -> List[Row]:
    """The probe of a type with no links."""
    return []


class Network:
    """A semantic link network with nodes, typed links, and attached rules."""

    def __init__(self) -> None:
        self.nodes: Dict[str, SemanticNode] = {}
        self.link_types: Dict[str, LinkType] = {}
        self.links: Dict[str, SemanticLink] = {}
        self.categories = CategoryTree()
        self.rules: Dict[str, object] = {}  # rule id -> rules.Rule
        # type -> source -> target -> link id, and type -> target -> source ->
        # link id. Insertion-ordered, so joins over them are deterministic.
        self._by_source: Dict[str, Dict[str, Dict[str, str]]] = {}
        self._by_target: Dict[str, Dict[str, Dict[str, str]]] = {}
        # Link id -> insertion stamp; stamps only grow, so a derive round's
        # delta is every link stamped at or after the round's first new link.
        self._stamp: Dict[str, int] = {}
        self._next_stamp = 0
        # type -> (by source, by target) of the type's base links alone,
        # read by rows(..., base=True). Built from the main indexes on first
        # use, then kept in step by each insertion and removal of a base
        # link; an upgrade drops its type's view. An end's links keep the
        # main index order; an end with no base link has no entry.
        self._base: Dict[str, Tuple[dict, dict]] = {}
        self._premises_first = True  # see provenance_closure
        # (rule/type signature, link count) at the last fixpoint, written by
        # rules.derive_fixpoint and rules.retract_with_maintenance; any link
        # removal voids it.
        self.derive_mark: Optional[tuple] = None
        self._counters: Dict[str, int] = {}

    # ===== nodes and types =====

    def add_node(
        self,
        rep: RepBundle,
        attributes: Optional[Dict[str, Scalar]] = None,
        node_id: Optional[str] = None,
    ) -> str:
        attrs = dict(check_attribute(*item) for item in (attributes or {}).items())
        node_id = fresh_id(self._counters, "n", self.nodes, node_id, "node")
        self.nodes[node_id] = SemanticNode(node_id, rep, attrs, 0.0)
        return node_id

    def add_link_type(
        self,
        rep: RepBundle,
        transitive: bool = False,
        symmetric: bool = False,
        parent: Optional[str] = None,
        type_id: Optional[str] = None,
    ) -> str:
        check_flag(transitive, "transitive flag")
        check_flag(symmetric, "symmetric flag")
        if parent is not None and parent not in self.link_types:
            raise UnknownLinkType(f"parent link type {parent!r} not found", parent)
        type_id = fresh_id(self._counters, "t", self.link_types, type_id, "link type")
        self.link_types[type_id] = LinkType(type_id, rep, transitive, symmetric, parent)
        return type_id

    def set_type_parent(self, type_id: str, parent: Optional[str]) -> None:
        """Re-wire a type's parent, keeping the parent chain acyclic."""
        lt = self.link_type(type_id)
        if parent is not None:
            if parent not in self.link_types:
                raise UnknownLinkType(f"parent link type {parent!r} not found", parent)
            cur: Optional[str] = parent
            while cur is not None:
                if cur == type_id:
                    raise CyclicHierarchy(
                        f"setting parent of {type_id!r} to {parent!r} creates a cycle"
                    )
                cur = self.link_types[cur].parent
        lt.parent = parent

    def add_rule(self, rule) -> None:
        """Store a rules.Rule under an id no stored rule holds, else
        InvalidRule. The rule's structure is rules.validate_rule's to check:
        the KSIF RULE row and derive_fixpoint run it."""
        if rule.id in self.rules:
            raise InvalidRule(f"rule {rule.id!r} already present")
        self.rules[rule.id] = rule

    def node(self, node_id: str) -> SemanticNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownNode(f"node {node_id!r} not found", node_id) from None

    def link_type(self, type_id: str) -> LinkType:
        try:
            return self.link_types[type_id]
        except KeyError:
            raise UnknownLinkType(f"link type {type_id!r} not found", type_id) from None

    def link(self, link_id: str) -> SemanticLink:
        try:
            return self.links[link_id]
        except KeyError:
            raise UnknownLink(f"link {link_id!r} not found", link_id) from None

    def explicit_link(self, link_id: str) -> SemanticLink:
        """The stored link, refused unless it is explicit: only an explicit
        link can be retracted."""
        link = self.link(link_id)
        if not link.is_explicit:
            raise CannotRetractDerived(f"link {link_id!r} is derived")
        return link

    # ===== link store =====

    def _find_stored(self, source: str, type_id: str, target: str) -> Optional[SemanticLink]:
        """Stored link answering the triple, honoring symmetric completion."""
        by_source = self._by_source.get(type_id, _NO_ENDS)
        lid = by_source.get(source, _NO_ENDS).get(target)
        if lid is None and self.link_types[type_id].symmetric:
            lid = by_source.get(target, _NO_ENDS).get(source)
        return None if lid is None else self.links[lid]

    def assert_link(self, source: str, type_id: str, target: str, weight: float = 1.0,
                    link_id: Optional[str] = None) -> str:
        """Assert an explicit link; returns the link id.

        If the triple already exists as a derived link, that link is upgraded
        to explicit in place (same id) so provenance references stay valid.
        """
        weight, existing = self._check_link(source, type_id, target, weight)
        if existing is not None:
            if existing.is_explicit:
                raise DuplicateExplicitLink(
                    f"explicit {existing.triple()} already stored as {existing.id!r}"
                )
            # Upgrade the derived link in place.
            if link_id is not None and link_id != existing.id:
                raise DuplicateId(
                    f"triple already stored as {existing.id!r}, cannot use {link_id!r}"
                )
            existing.rule_id, existing.premises = None, ()
            self._base.pop(type_id, None)  # the link may just have become base
            existing.weight = weight
            return existing.id
        return self._store(source, type_id, target, weight, None, (), True, link_id).id

    def add_derived(self, source: str, type_id: str, target: str, weight: float,
                    rule_id: str, premises: Tuple[str, ...],
                    link_id: Optional[str] = None) -> str:
        """Check and record a rule-derived link (import uses it), all but its
        premises, which may come later in a file; firings call _store."""
        weight, existing = self._check_link(source, type_id, target, weight)
        self.closure_type(rule_id)  # an unknown rule raises
        if existing is not None:
            raise DuplicateId(f"triple ({source}, {type_id}, {target}) already stored")
        self._premises_first = self._premises_first and all(p in self.links for p in premises)
        return self._store(source, type_id, target, weight, rule_id, premises,
                           rule_id != TRANSITIVE_PREFIX + type_id, link_id).id

    def closure_type(self, rule_id: str) -> Optional[str]:
        """How a rule id resolves: None for a stored rule, and the type id
        for TRANSITIVE_PREFIX + the id of a transitive type, whose closure
        rule it names. Any other id is an UnknownRule."""
        if rule_id in self.rules:
            return None
        if isinstance(rule_id, str) and rule_id.startswith(TRANSITIVE_PREFIX):
            tid = rule_id[len(TRANSITIVE_PREFIX):]
            if tid in self.link_types and self.link_types[tid].transitive:
                return tid
        raise UnknownRule(f"rule {rule_id!r} not found", rule_id)

    def _check_link(self, source: str, type_id: str, target: str, weight: float
                    ) -> Tuple[float, Optional[SemanticLink]]:
        """An inserted link's checks: both ends and the type exist and the
        weight is valid. Returns the weight as a float and the stored link
        answering the triple, if any."""
        for end in (source, target):
            if end not in self.nodes:
                raise UnknownNode(f"node {end!r} not found", end)
        if type_id not in self.link_types:
            raise UnknownLinkType(f"link type {type_id!r} not found", type_id)
        return check_weight(weight), self._find_stored(source, type_id, target)

    def _store(self, source: str, type_id: str, target: str, weight: float,
               rule_id: Optional[str], premises: Tuple[str, ...], base: bool,
               link_id: Optional[str] = None) -> SemanticLink:
        """Insert and index a link under link_id or, without one, the next
        fresh "k" id; every insertion comes here, and claims its id here,
        through fresh_id. It checks nothing else: the caller vouches that
        both ends and the type exist, the weight is valid, no stored link
        answers the triple and base is is_base(link). assert_link and
        add_derived check it, and a rule firing has proved it (the triple was
        just looked up, the weight is the least of stored weights, and
        validate_rule and the rule vouch for the head's terms and its links'
        base-ness)."""
        links = self.links
        link_id = fresh_id(self._counters, "k", links, link_id, "link")
        link = links[link_id] = SemanticLink(link_id, source, type_id, target, weight,
                                             rule_id, premises)
        forward, backward = self._by_source.get(type_id), self._by_target.get(type_id)
        if forward is None:  # both indexes hold a type or neither does
            forward = self._by_source[type_id] = {}
            backward = self._by_target[type_id] = {}
        # get first: only a missing end costs a setdefault and a new dict
        (forward.get(source) or forward.setdefault(source, {}))[target] = link_id
        (backward.get(target) or backward.setdefault(target, {}))[source] = link_id
        if base and type_id in self._base:
            view = self._base[type_id]
            view[0].setdefault(source, {})[target] = link_id
            view[1].setdefault(target, {})[source] = link_id
        self._stamp[link_id] = self._next_stamp
        self._next_stamp += 1
        return link

    def retract_link(self, link_id: str) -> List[SemanticLink]:
        """Remove an explicit link plus every derived link leaning on it.

        Over-deletes: a derived link goes when its provenance cites a removed
        link, even if another firing would still support it. Returns the
        removed links themselves (the retracted one first, then by id), so a
        caller can re-derive their triples without walking the closure again;
        rules.retract_with_maintenance does. The closure is provenance_closure's
        walk, and the batch leaves the indexes and the stamps in one pass. Any
        removal voids the derive mark.
        """
        def drop(index: dict, near: str, far: str) -> None:
            ends = index[near]
            del ends[far]
            if not ends:
                del index[near]
        self.explicit_link(link_id)
        closure = self.provenance_closure([link_id])
        removed = [self.links.pop(rid) for rid in (link_id, *sorted(closure - {link_id}))]
        by_source, by_target, base = self._by_source, self._by_target, self._base
        for link in removed:
            tid, source, target = link.type, link.source, link.target
            drop(by_source[tid], source, target)
            drop(by_target[tid], target, source)
            if tid in base and is_base(link):
                drop(base[tid][0], source, target)
                drop(base[tid][1], target, source)
            del self._stamp[link.id]
        for tid in [tid for tid, ends in by_source.items() if not ends]:
            del by_source[tid], by_target[tid]  # both hold a type or neither does
        self.derive_mark = None
        return removed

    def provenance_closure(self, ids: Iterable[str]) -> Set[str]:
        """The given link ids plus every derived link whose provenance cites
        one of them, directly or through other derived links.

        Firings, DRed restores and upgrades store each derived premise before
        the links citing it, so while _premises_first holds one pass in
        storing order is exact. add_derived citing a link not yet stored and
        an import whose ids do not follow derive order clear it; the closure
        is then walked over a premise -> dependents map.
        """
        closure = set(ids)
        if self._premises_first:
            add, disjoint = closure.add, closure.isdisjoint
            for link in self.links.values():
                if not disjoint(link.premises):
                    add(link.id)
            return closure
        dependents: Dict[str, List[str]] = {}  # premise id -> ids citing it
        for link in self.links.values():
            for premise in link.premises:
                dependents.setdefault(premise, []).append(link.id)
        stack = list(closure)
        while stack:
            fresh = [lid for lid in dependents.get(stack.pop(), ()) if lid not in closure]
            closure.update(fresh)
            stack += fresh
        return closure

    # ===== queries =====

    def readings(self, link: SemanticLink) -> List[Tuple[str, str]]:
        """The (source, target) pairs a stored link answers: its own, and for
        a symmetric type also the reverse, except on a self-loop."""
        if self.link_types[link.type].symmetric and link.source != link.target:
            return [(link.source, link.target), (link.target, link.source)]
        return [(link.source, link.target)]

    def _base_view(self, type_id: str) -> Tuple[dict, dict]:
        """The type's (by source, by target) indexes of base links alone."""
        view = self._base.get(type_id)
        if view is None:
            view = self._base[type_id] = ({}, {})
            for index, kept in zip((self._by_source, self._by_target), view):
                for near, ends in index.get(type_id, _NO_ENDS).items():
                    base = {far: lid for far, lid in ends.items() if is_base(self.links[lid])}
                    if base:
                        kept[near] = base
        return view

    def rows(self, type_id: str, source: Optional[str] = None, target: Optional[str] = None,
             before: Optional[int] = None, base: bool = False) -> List[Row]:
        """(source, target, link id) rows of one type, each stored link read
        as self.readings says, restricted to a bound source and/or target, to
        links stamped below before (all links when None) and, when base is
        true, to base links (is_base).

        A bound source or target is looked up in the (type, source) or (type,
        target) index, never scanned; rows come in index order, which for a
        base read with an end bound is the order of the unfiltered rows. A
        base read with both ends free gives the same rows in no set order.
        """
        return self.prober(type_id, before, base)(source, target)

    def prober(self, type_id: str, before: Optional[int] = None, base: bool = False
               ) -> Callable[[Optional[str], Optional[str]], List[Row]]:
        """rows(type_id, source, target, before, base) as a function of source
        and target, with the type's indexes looked up once, for a join that
        probes one type many times; valid until the network next changes."""
        if base:
            forward, backward = self._base_view(type_id)
        else:
            forward, backward = self._by_source.get(type_id), self._by_target.get(type_id)
        if not forward:
            return no_rows
        limit = self._next_stamp if before is None else before
        stamp = self._stamp
        sym = self.link_types[type_id].symmetric

        def probe(source: Optional[str], target: Optional[str]) -> List[Row]:
            rows: List[Row] = []
            if source is not None and target is not None:
                for a, b in (source, target), (target, source):
                    lid = forward.get(a, _NO_ENDS).get(b)
                    if lid is not None and stamp[lid] < limit:
                        rows.append((source, target, lid))
                    if not sym or source == target:
                        break
            elif source is not None:
                for end, lid in forward.get(source, _NO_ENDS).items():
                    if stamp[lid] < limit:
                        rows.append((source, end, lid))
                if sym:
                    for end, lid in backward.get(source, _NO_ENDS).items():
                        if end != source and stamp[lid] < limit:
                            rows.append((source, end, lid))
            elif target is not None:
                for end, lid in backward.get(target, _NO_ENDS).items():
                    if stamp[lid] < limit:
                        rows.append((end, target, lid))
                if sym:
                    for end, lid in forward.get(target, _NO_ENDS).items():
                        if end != target and stamp[lid] < limit:
                            rows.append((end, target, lid))
            else:
                for a, targets in forward.items():
                    for b, lid in targets.items():
                        if stamp[lid] < limit:
                            rows.append((a, b, lid))
                            if sym and a != b:
                                rows.append((b, a, lid))
            return rows

        return probe

    def links_between(self, source: str, target: str) -> List[SemanticLink]:
        self.node(source)
        self.node(target)
        found = [lid for tid in self._by_source for _s, _t, lid in self.rows(tid, source, target)]
        return [self.links[lid] for lid in sorted(found)]

    def has_fact(self, source: str, type_id: str, target: str) -> bool:
        if type_id not in self.link_types:
            return False
        return self._find_stored(source, type_id, target) is not None

    def type_facts(self, type_id: str) -> List[Tuple[str, str, str]]:
        """(source, target, link id) rows for one type, symmetric view included."""
        return sorted(self.rows(type_id))

    def answer_query(self, pattern: QueryPattern) -> List[str]:
        """Bindings for the pattern's hole, ascending, duplicates removed."""
        if pattern.source is not None:
            self.node(pattern.source)
        if pattern.target is not None:
            self.node(pattern.target)
        if pattern.type is not None:
            self.link_type(pattern.type)
        out: Set[str] = set()
        if pattern.type is None:
            assert pattern.source is not None and pattern.target is not None
            for link in self.links_between(pattern.source, pattern.target):
                out.add(link.type)
            return sorted(out)
        if pattern.source is None:
            bound, forward, backward = pattern.target, self._by_target, self._by_source
        else:
            bound, forward, backward = pattern.source, self._by_source, self._by_target
        out.update(forward.get(pattern.type, _NO_ENDS).get(bound, ()))
        if self.link_types[pattern.type].symmetric:
            out.update(backward.get(pattern.type, _NO_ENDS).get(bound, ()))
        return sorted(out)

    # ===== ranks =====

    def recompute_ranks(self) -> Dict[str, float]:
        """Rank nodes by normalized weighted in-degree over stored links.

        Falls back to the uniform distribution when the total incoming weight
        is zero; ranks always sum to 1 on a non-empty network.
        """
        incoming = {nid: 0.0 for nid in self.nodes}
        for link in self.links.values():
            incoming[link.target] += link.weight
        total = sum(incoming.values())
        ranks: Dict[str, float] = {}
        for nid in sorted(self.nodes):
            ranks[nid] = incoming[nid] / total if total > 0 else 1.0 / len(self.nodes)
            self.nodes[nid].rank = ranks[nid]
        return ranks

    # ===== maintenance helpers =====

    def explicit_links(self) -> List[SemanticLink]:
        return [self.links[lid] for lid in sorted(self.links) if self.links[lid].is_explicit]

    def derived_links(self) -> List[SemanticLink]:
        return [self.links[lid] for lid in sorted(self.links) if not self.links[lid].is_explicit]

