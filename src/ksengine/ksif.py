"""Canonical text persistence (KSIF) for engine states.

KSIF is a line-oriented, tab-separated format: one header line "KSIF 1"
followed by records. Export is canonical — records grouped by kind in a fixed
order, each group sorted, floats written with repr() — so equal states produce
byte-identical text. One reader, _read, turns text into records for import
and every fragment parser, checking each line in full before the next.
Import accepts records in any order: it reads the whole document, then runs
each build step through _store_each, which stores every record by its
kind's store method, or looks a reference up in the store that holds it,
and gives any fault its line and import's class (_line_fault). Besides the
pool anchors must resolve in, import checks itself only a premise cycle, a
dimension without categories and a repeated coordinate. Read faults come
first, the first in file order; build faults follow, step by step.
Fields escape tab, newline, and backslash as \\t, \\n, \\\\; ids never need
escaping. Blank lines and '#' comment lines are skipped on import
and never emitted on export.

Each record kind's field layout is written once, as a row of _ROWS built
from a few value codecs (after Kennedy's pickler combinators, JFP 2004):
export writes every record and import reads it through that one row.

Import is a bulk load. A kind with many lines is read by its row's fast
path: one regex, built from the row's codecs, for the text export writes,
and the codecs' own parse and build functions on the groups it captures.
A line it misses goes to the row's table reader, the one place a read
fault is named. A link whose ends, type and rule resolve is stored by
Network._store under the ids the network holds; any other goes through its
mutator, which names the fault. rules.step_replay checks each derived
step by comparing terms, and replays in full a step the comparison refuses.
"""

from __future__ import annotations

import re
import sys
from functools import partial
from itertools import islice
from operator import attrgetter, itemgetter
from typing import (
    TYPE_CHECKING, Callable, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple,
)

from .concepts import (
    Concept,
    ConceptExperiences,
    ConceptSense,
    ConceptServices,
    ConceptStructure,
)
from .errors import (
    BadHeader,
    DanglingReference,
    DuplicateId,
    InvalidProblem,
    InvalidRep,
    InvalidRule,
    KsError,
    MalformedRecord,
    MissingCoordinate,
    NotFound,
    UnknownKind,
)
from .rules import (
    PatternAtom, PremiseCycle, Rule, premise_walk, step_replay, validate_rule,
)
from .sln import (
    ClassRef,
    FileRef,
    LinkType,
    Network,
    RepBundle,
    SemanticLink,
    SemanticNode,
    check_attribute,
    check_id,
    check_scalar,
    check_text,
    check_weight,
)
from .space import Space
from .state import AnomalyRule, EngineState, Problem, new_state
from .taxonomy import ID_PATTERN, CategoryTree

if TYPE_CHECKING:
    from .discovery import Candidate, IncrementFragment

HEADER = "KSIF 1"


# ===== field encoding =====

def escape_field(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


_ESCAPE = re.compile(r"\\(.?)", re.DOTALL)
_UNESCAPED = {"t": "\t", "n": "\n", "\\": "\\"}


def unescape_field(text: str, line: int) -> str:
    if "\\" not in text:
        return text

    def unescape(match: re.Match) -> str:
        escaped = match.group(1)
        if escaped in _UNESCAPED:
            return _UNESCAPED[escaped]
        if escaped == "":
            raise MalformedRecord(line, "dangling backslash escape")
        raise MalformedRecord(line, f"unknown escape \\{escaped}")

    return _ESCAPE.sub(unescape, text)


# ===== value codecs =====
# A codec holds one layout for both directions: write(value) gives the
# value's fields, escaped and tab-joined, and read(fields, line, name) takes
# them from the iterator fields, naming the line and the field in any fault.
# A scalar whose write is None is an id, written as it is. Values are checked
# by the checks their mutators use, so import accepts what the engine holds.
#
# The fast path (see _read) reads a line by one regex per row. A codec's
# pattern matches the text export writes for it, with a group per field
# (None: no fast path, for the codec or a row holding it). expr(at, names)
# gives the Python expression of its value over the groups g of a match,
# its first group at g[at], and the index after its last, putting what it
# calls in names. _taker compiles a row's expression, so the fast path runs
# the parse and build functions the table reader runs, and no code per codec.

_ID_SHAPE = ID_PATTERN.pattern.removesuffix(r"\Z")
_REAL_SHAPE = r"[-+.0-9e]+"  # wide enough for repr of a finite float; parse checks it


def _named(names: Dict[str, object], value: object) -> str:
    name = f"_{len(names)}"
    names[name] = value
    return name


def _taker(codec) -> Callable[[tuple], object]:
    """The codec's value from the groups of a match of its pattern. The
    expression is built from the codec table alone, never from text."""
    names: Dict[str, object] = {}
    return eval(f"lambda g: {codec.expr(0, names)[0]}", names)


class _Scalar:
    """One field. parse raises KsError, KeyError or ValueError on text that
    is not what `expected` says. shape is a regex for the field's text; with
    exact, text that shape matches is the value, the shape its whole check."""

    def __init__(self, write: Optional[Callable[[object], str]],
                 parse: Callable[[str], object], expected: str,
                 shape: Optional[str] = None, exact: bool = False):
        self.write, self.parse, self.expected = write, parse, expected
        self.shape, self.pattern, self.exact = shape, shape and f"({shape})", exact

    def read(self, fields: Iterator[str], line: int, name: str) -> object:
        text = next(fields, None)
        if text is None:
            raise MalformedRecord(line, f"missing field: {name}")
        try:
            return self.parse(text)
        except (KsError, KeyError, ValueError):
            raise MalformedRecord(line, f"{name} {text!r} is not {self.expected}") from None

    def expr(self, at: int, names: Dict[str, object]) -> Tuple[str, int]:
        return (f"g[{at}]" if self.exact else f"{_named(names, self.parse)}(g[{at}])"), at + 1


class _Group:
    """Named codecs in field order: read gives build(*values), and write
    takes the values from parts(value)."""

    def __init__(self, fields: Sequence[Tuple[str, object]], build: Callable,
                 parts: Callable[[object], Sequence[object]]):
        # (name, parse, expected, read) per field. A scalar is read here, as
        # _Scalar.read would, so decoding costs no call per field; an id's
        # parse is None, as text from split needs only the pattern match.
        self.readers = tuple(
            (name, None if codec is _ID else codec.parse, codec.expected, None)
            if isinstance(codec, _Scalar) else (name, None, None, codec.read)
            for name, codec in fields
        )
        # (position, write) of each field that is not written as it is
        self.writers = tuple((i, codec.write) for i, (_name, codec) in enumerate(fields)
                             if codec.write is not None)
        self.build, self.parts = build, parts
        self.codecs = [codec for _name, codec in fields]
        patterns = [codec.pattern for codec in self.codecs]
        self.pattern = None if None in patterns else "\t".join(patterns)

    def read(self, fields: Iterator[str], line: int, name: str = "") -> object:
        values = []
        for what, parse, expected, read in self.readers:
            if read is not None:
                values.append(read(fields, line, what))
                continue
            text = next(fields, None)
            if text is None:
                raise MalformedRecord(line, f"missing field: {what}")
            if parse is None:
                if _is_id(text) is None:
                    raise MalformedRecord(line, f"{what} {text!r} is not {expected}")
                values.append(text)
                continue
            try:
                values.append(parse(text))
            except (KsError, KeyError, ValueError):
                raise MalformedRecord(line, f"{what} {text!r} is not {expected}") from None
        return self.build(*values)

    def expr(self, at: int, names: Dict[str, object]) -> Tuple[str, int]:
        values = []
        for codec in self.codecs:
            value, at = codec.expr(at, names)
            values.append(value)
        return f"{_named(names, self.build)}({', '.join(values)})", at

    def write(self, value: object) -> str:
        fields = list(self.parts(value))
        for i, write in self.writers:
            fields[i] = write(fields[i])
        return "\t".join(fields)


class _Counted:
    """A count, then that many items of one codec; read gives a list. Only
    a list of exact scalars has a fast path: its items are the fields its
    group splits into, which must be as many as the count says."""

    def __init__(self, item, item_name: str):
        self.item, self.item_name, self.count_name = item, item_name, f"{item_name} count"
        exact = isinstance(item, _Scalar) and item.exact
        self.pattern = rf"([0-9]+)((?:\t{item.shape})*)" if exact else None

    def read(self, fields: Iterator[str], line: int, name: str = "") -> list:
        count = _COUNT.read(fields, line, self.count_name)
        read, what = self.item.read, self.item_name
        if self.item is not _ID:
            return [read(fields, line, what) for _ in range(count)]
        # Ids in one pass, faulting as reading them one by one would: the
        # first bad id, else a missing one. A line holds fewer than maxsize
        # fields, so the clamp (islice refuses more) changes nothing.
        ids = list(islice(fields, min(count, sys.maxsize)))
        for text in ids:
            if _is_id(text) is None:
                raise MalformedRecord(line, f"{what} {text!r} is not {_ID.expected}")
        if len(ids) < count:
            raise MalformedRecord(line, f"missing field: {what}")
        return ids

    def expr(self, at: int, names: Dict[str, object]) -> Tuple[str, int]:
        return f"{_named(names, self.take)}(g[{at}], g[{at + 1}])", at + 2

    def take(self, count: str, items: str) -> list:
        found = items.split("\t")[1:]  # the text before the first tab is ""
        if len(found) != _count(count):
            raise ValueError(f"{count} {self.item_name} items expected")
        return found

    def write(self, items: Sequence[object]) -> str:
        write = self.item.write
        return "\t".join((str(len(items)), *(items if write is None else map(write, items))))


class _Pairs(_Counted):
    """A counted list of (key, value) items read as a dict; a repeated key
    is malformed, and keys are written sorted."""

    def read(self, fields: Iterator[str], line: int, name: str = "") -> dict:
        mapping = {}
        for key, value in super().read(fields, line):
            if key in mapping:
                raise MalformedRecord(line, f"{self.item_name} {key!r} repeated")
            mapping[key] = value
        return mapping

    def write(self, mapping: Dict) -> str:
        return super().write(sorted(mapping.items()))


class _Tagged:
    """A tag field, then the fields of the alternative it names. Each
    alternative is (tag, type of its values, codec); with codec None the
    tag alone stands for type(). The pattern has a group for each
    alternative's tag, then the groups of its fields."""

    def __init__(self, alternatives: Sequence[Tuple[str, type, object]]):
        self.alternatives = tuple(alternatives)
        self.by_tag = {tag: (kind, codec) for tag, kind, codec in alternatives}
        self.by_type = {kind: (tag, None) if codec is None else (tag + "\t", codec.write)
                        for tag, kind, codec in alternatives}
        self.pattern = None
        if all(codec is None or codec.pattern for _tag, _kind, codec in alternatives):
            self.pattern = "(?:" + "|".join(
                f"({tag})" if codec is None else rf"({tag})\t{codec.pattern}"
                for tag, _kind, codec in alternatives) + ")"

    def read(self, fields: Iterator[str], line: int, name: str) -> object:
        tag = next(fields, None)
        if tag is None:
            raise MalformedRecord(line, f"missing field: {name} tag")
        if tag not in self.by_tag:
            raise MalformedRecord(line, f"bad {name} tag {tag!r}")
        kind, codec = self.by_tag[tag]
        return kind() if codec is None else codec.read(fields, line, name)

    def expr(self, at: int, names: Dict[str, object]) -> Tuple[str, int]:
        # The value of the alternative whose tag group is set; the last needs no test.
        values, tests = [], []
        for _tag, kind, codec in self.alternatives:
            tests.append(f"g[{at}] is not None")
            if codec is None:
                value, at = f"{_named(names, kind)}()", at + 1
            else:
                value, at = codec.expr(at + 1, names)
            values.append(value)
        return "(" + "".join(f"{value} if {test} else "
                             for value, test in zip(values[:-1], tests)) + values[-1] + ")", at

    def write(self, value: object) -> str:
        try:
            prefix, write = self.by_type[type(value)]
        except KeyError:
            raise InvalidRep(f"cannot write {value!r}") from None
        return prefix if write is None else prefix + write(value)


def _count(text: str) -> int:
    count = int(text)
    if count < 0:
        raise ValueError(text)
    return count


def _same(record: tuple) -> tuple:
    return record


def _record(*values: object) -> tuple:
    return values


_ID = _Scalar(None, check_id, "a valid id", _ID_SHAPE, exact=True)
_is_id = ID_PATTERN.match  # check_id on text known to be str
_OPT_ID = _Scalar(lambda value: value or "", lambda text: check_id(text) if text else None,
                  "a valid id or empty", f"(?:{_ID_SHAPE})?")
_TEXT = _Scalar(escape_field, str, "text", r"[^\t]*", exact=True)
_NONEMPTY = _Scalar(escape_field, check_text, "non-empty text", r"[^\t]+")
_FLAG = _Scalar(("0", "1").__getitem__, {"0": False, "1": True}.__getitem__, "1 or 0", "[01]")
_COUNT = _Scalar(str, _count, "a count (an integer >= 0)", "[0-9]+")
_REAL = _Scalar(lambda value: repr(float(value)), lambda text: check_scalar(float(text)),
                "a finite number", _REAL_SHAPE)
_WEIGHT = _Scalar(repr, lambda text: check_weight(float(text)), "a finite number >= 0",
                  _REAL_SHAPE)


def _texts(item_name: str) -> _Counted:
    return _Counted(_TEXT, item_name)


# Attribute values are text, integers and reals; machine values may also
# point at a file or name a class.
_SCALAR_TAGS = (
    ("S", str, _TEXT),
    ("I", int, _Scalar(str, int, "an integer", "-?[0-9]+")),
    ("R", float, _REAL),
)
_SCALAR = _Tagged(_SCALAR_TAGS)
_VALUE = _Tagged(_SCALAR_TAGS + (
    ("F", FileRef, _Group((("path", _TEXT),), FileRef, lambda ref: (ref.path,))),
    ("C", ClassRef, _Group((("class name", _TEXT),), ClassRef, lambda ref: (ref.name,))),
))

_REP = _Group(
    (("machine value", _VALUE), ("word", _TEXT), ("sentence", _TEXT),
     ("anchors", _Counted(_ID, "anchor"))),
    lambda rep_c, word, rep_h, anchors: RepBundle(word, rep_c, rep_h, tuple(anchors)),
    attrgetter("rep_c", "word", "rep_h", "rep_k"),
)
_ATTRIBUTES = _Pairs(
    _Group((("attribute label", _TEXT), ("attribute", _SCALAR)), check_attribute, _same),
    "attribute",
)
# Rule terms are "?var" or an id; the rule's validation checks them.
_ATOM = _Group(
    (("source", _TEXT), ("type", _TEXT), ("target", _TEXT)),
    PatternAtom, attrgetter("source", "type", "target"),
)
# A link's provenance: E, read as None, or D and its (rule id, premises).
_PROVENANCE = _Tagged((
    ("E", type(None), None),
    ("D", tuple, _Group(
        (("rule id", _ID), ("premises", _Counted(_ID, "premise"))),
        lambda rule_id, premises: (rule_id, tuple(premises)), _same,
    )),
))


# ===== record layouts =====
# One row per record kind, in export order. A row's fields are the record's
# fields in file order; build makes the record from them, and parts gives
# them back from a record. Rows that make no engine object read into (and
# write from) plain tuples. Checks that span records are left to the builds
# in the import section.

def _rule(rule_id: str, rep: RepBundle, body: list, head: list) -> Rule:
    rule = Rule(rule_id, rep, tuple(body), tuple(head))
    problems = validate_rule(rule)
    if problems:
        raise InvalidRule("; ".join(problems))
    return rule


def _concept(cid, name, priori, link_type, attributes, classes, instances, relations,
             interfaces, processes, use_cases, objects, events, rules, media,
             language) -> Concept:
    return Concept(
        cid, name, priori, link_type or None,
        ConceptStructure(attributes, classes, instances, relations),
        ConceptServices(interfaces, [tuple(steps) for steps in processes]),
        ConceptExperiences(use_cases, objects, events),
        rules, ConceptSense(media, language),
    )


def _concept_parts(c: Concept) -> tuple:
    structure, services, experiences = c.structure, c.services, c.experiences
    return (c.id, c.name, c.priori, c.link_type or "", structure.attributes,
            structure.classes, structure.instances, structure.relations,
            services.interfaces, services.processes, experiences.use_cases,
            experiences.objects, experiences.events, c.rules, c.sense.media,
            c.sense.language)


class _Row(_Group):
    """A record kind's layout, with the noun that names a record in messages
    (by its first field) and its key: a key seen twice within a kind is a
    duplicate. fast is the row's fast path once compiled: (fullmatch, which
    matches a line's fields in full from a position, take, which gives the
    record from the groups matched)."""

    def __init__(self, noun: str, key: Callable[[object], Hashable], fields, build, parts):
        super().__init__(fields, build, parts)
        self.noun, self.key = noun, key
        self.fast: Optional[tuple] = None


_by_id, _by_first = attrgetter("id"), itemgetter(0)


_ROWS: Dict[str, _Row] = {
    "LINKTYPE": _Row(
        "link type", _by_id,
        (("link-type id", _ID), ("transitive flag", _FLAG), ("symmetric flag", _FLAG),
         ("parent", _OPT_ID), ("rep", _REP)),
        lambda tid, transitive, symmetric, parent, rep:
            LinkType(tid, rep, transitive, symmetric, parent),
        attrgetter("id", "transitive", "symmetric", "parent", "rep"),
    ),
    "NODE": _Row(
        "node", _by_id,
        (("node id", _ID), ("rank", _REAL), ("rep", _REP), ("attributes", _ATTRIBUTES)),
        lambda nid, rank, rep, attributes: SemanticNode(nid, rep, attributes, rank),
        attrgetter("id", "rank", "rep", "attributes"),
    ),
    "LINK": _Row(
        "link", _by_id,
        (("link id", _ID), ("source", _ID), ("link type", _ID), ("target", _ID),
         ("weight", _WEIGHT), ("provenance", _PROVENANCE)),
        lambda lid, source, tid, target, weight, step:
            SemanticLink(lid, source, tid, target, weight, *(step or ())),
        lambda link: (link.id, link.source, link.type, link.target, link.weight,
                      None if link.is_explicit else (link.rule_id, link.premises)),
    ),
    "RULE": _Row(
        "rule", _by_id,
        (("rule id", _ID), ("rep", _REP), ("body", _Counted(_ATOM, "body atom")),
         ("head", _Counted(_ATOM, "head atom"))),
        _rule, attrgetter("id", "rep", "body", "head"),
    ),
    # (dimension id, name)
    "DIM": _Row("dimension", _by_first,
                (("dimension id", _ID), ("dimension name", _NONEMPTY)), _record, _same),
    # (category id, owner dimension or None, parent or None, name). Network
    # and space categories are separate id namespaces, so the key says if an
    # owner is set.
    "CAT": _Row(
        "category", lambda cat: (cat[0], cat[1] is None),
        (("category id", _ID), ("owner dimension", _OPT_ID), ("parent", _OPT_ID),
         ("name", _TEXT)),
        _record, _same,
    ),
    # (resource id, [(dimension id, category id), ...])
    "PLACE": _Row(
        "resource", _by_first,
        (("resource id", _ID), ("coordinates", _Counted(
            _Group((("dimension", _ID), ("category", _ID)), _record, _same), "coordinate"))),
        _record, _same,
    ),
    "CONCEPT": _Row(
        "concept", _by_id,
        (("concept id", _ID), ("concept name", _TEXT), ("priori flag", _FLAG),
         ("relation label", _TEXT), ("attributes", _ATTRIBUTES),
         ("classes", _Counted(_ID, "class")), ("instances", _texts("instance")),
         ("relations", _Pairs(_Group(
             (("relation label", _NONEMPTY), ("relation target", _ID),
              ("relation weight", _REAL)),
             lambda label, target, weight: ((label, target), weight),
             lambda relation: (*relation[0], relation[1])), "relation")),
         ("interfaces", _texts("interface")),
         ("processes", _Counted(_texts("process step"), "process")),
         ("use cases", _texts("use case")), ("objects", _texts("object")),
         ("events", _texts("event")), ("rules", _texts("rule entry")),
         ("media", _texts("media entry")), ("language", _texts("language entry"))),
        _concept, _concept_parts,
    ),
    # (word, [candidate concept id, ...])
    "LEXEME": _Row("word", _by_first,
                   (("word", _NONEMPTY), ("candidates", _Counted(_ID, "candidate"))),
                   _record, _same),
    "PROBLEM": _Row(
        "problem", _by_id,
        (("problem id", _ID), ("problem kind", _TEXT), ("statement", _TEXT),
         ("category", _OPT_ID), ("evidence", _texts("evidence")),
         ("concepts", _texts("concept"))),
        lambda pid, kind, statement, category, evidence, concepts:
            Problem(pid, kind, statement, tuple(evidence), category, tuple(concepts)),
        attrgetter("id", "kind", "statement", "category", "evidence", "concepts"),
    ),
    "ANOMALYRULE": _Row(
        "anomaly rule", _by_id,
        (("anomaly rule id", _ID), ("metric", _TEXT), ("comparison op", _TEXT),
         ("threshold", _REAL), ("template", _TEXT),
         ("condition", _Counted(_ATOM, "condition atom"))),
        lambda rid, metric, op, threshold, template, atoms:
            AnomalyRule(rid, tuple(atoms), metric, op, threshold, template),
        attrgetter("id", "metric", "op", "threshold", "template", "atoms"),
    ),
}

KIND_ORDER = tuple(_ROWS)


# ===== export =====

Groups = Dict[str, list]  # kind -> records, each as its row reads it


def _document(groups: Groups) -> str:
    lines = [HEADER + "\n"]
    for kind, records in groups.items():
        prefix, write = kind + "\t", _ROWS[kind].write
        lines += [prefix + write(record) + "\n" for record in records]
    return "".join(lines)


def _in_order(mapping: Dict[str, object]) -> list:
    return [mapping[key] for key in sorted(mapping)]


def _space_records(space: Space) -> Groups:
    groups: Groups = {"DIM": [], "CAT": [], "PLACE": []}
    for dim in sorted(space.dimensions(), key=attrgetter("id")):
        groups["DIM"].append((dim.id, dim.name))
        for cid, parent, name in dim.tree.to_rows():
            groups["CAT"].append((cid, dim.id, parent, name))
    for resource in sorted(space.placements):
        groups["PLACE"].append((resource, sorted(space.placements[resource].items())))
    return groups


def export_state(state: EngineState) -> str:
    net, lexicon = state.network, state.lexicon
    space = _space_records(state.space)
    cats = [(cid, None, parent, name) for cid, parent, name in net.categories.to_rows()]
    cats += space["CAT"]
    cats.sort(key=lambda cat: (cat[0], cat[1] or ""))
    return _document({
        "LINKTYPE": _in_order(net.link_types),
        "NODE": _in_order(net.nodes),
        "LINK": _in_order(net.links),
        "RULE": _in_order(net.rules),
        "DIM": space["DIM"],
        "CAT": cats,
        "PLACE": space["PLACE"],
        "CONCEPT": _in_order(state.concepts.concepts),
        "LEXEME": [(word, lexicon.candidates(word)) for word in lexicon.words()],
        "PROBLEM": _in_order(state.problems),
        "ANOMALYRULE": _in_order(state.anomaly_rules),
    })


def export_space_fragment(space: Space) -> str:
    return _document(_space_records(space))


# ===== import =====

Records = Dict[str, List[Tuple[int, object]]]  # kind -> (line, decoded record)


# A kind whose first line in a document has another line of its kind this
# many lines on, as in export's grouped order, has its row's fast path
# compiled, once per process: compiling costs about what the fast path
# saves on a few hundred lines, and every CLI call loads the module afresh.
_BULK = 256


def _read(text: str, kinds: Sequence[str], what: str) -> Records:
    """The document's records, each read once through its row, grouped by
    kind in file order. A kind outside kinds is malformed in this document
    (what names it in the message); a key repeated within a kind is a
    DuplicateId. Only a line holding a backslash has escapes to undo.

    A line without one goes first by its row's fast path, if compiled. A
    line its pattern misses, or whose take raises, is read by the row's
    table reader, which names every fault; the fast path accepts only lines
    the table reader accepts, and gives equal records."""
    lines = text.split("\n")
    if lines[0] != HEADER:
        raise BadHeader(f"first line must be exactly {HEADER!r}")
    table = {kind: (_ROWS[kind], [], set()) for kind in kinds}  # row, records, keys seen
    for line, raw in enumerate(islice(lines, 1, None), start=2):
        if not raw or raw[0] == "#":
            continue
        kind = raw.partition("\t")[0]
        entry = table.get(kind)
        if entry is None:
            if kind not in _ROWS:
                raise UnknownKind(line, kind)
            raise MalformedRecord(line, f"{kind} not allowed in {what}")
        row, found, seen = entry
        if not found and row.fast is None and row.pattern is not None:
            ahead = lines[line - 1 + _BULK:line + _BULK]  # lines[line - 1] is this line
            if ahead and ahead[0].partition("\t")[0] == kind:
                row.fast = (re.compile(row.pattern).fullmatch, _taker(row))
        record = None  # no row builds None
        if row.fast is not None and "\\" not in raw:
            fullmatch, take = row.fast
            match = fullmatch(raw, len(kind) + 1)
            if match is not None:
                try:
                    record = take(match.groups())
                except (KsError, ValueError):
                    pass
        if record is None:  # the table reader
            rest = iter(raw.split("\t")[1:])
            if "\\" in raw:
                rest = iter([unescape_field(field, line) for field in rest])
            try:
                record = row.read(rest, line)
            except MalformedRecord:
                raise
            except (KsError, ValueError) as exc:
                raise MalformedRecord(line, str(exc)) from None
            extra = next(rest, None)
            if extra is not None:
                raise MalformedRecord(line, f"unexpected trailing fields {[extra, *rest]!r}")
        key = row.key(record)
        if key in seen:
            raise DuplicateId(
                f"line {line}: {row.noun} {row.parts(record)[0]!r} defined twice")
        seen.add(key)
        found.append((line, record))
    return {kind: found for kind, (_row, found, _seen) in table.items()}


def _line_fault(line: int, exc: KsError) -> KsError:
    """A build fault on the record at line, named by it and raised as
    import's class: a failed lookup (an UnknownRule too) is a DanglingReference
    of the id it missed; a refused value, a point short of a dimension, a bad
    problem or rule a MalformedRecord; any other fault keeps its class."""
    if isinstance(exc, NotFound):
        return DanglingReference(exc.ref, f"line {line}: {exc}")
    if isinstance(exc, (InvalidRep, MissingCoordinate, InvalidProblem, InvalidRule)):
        return MalformedRecord(line, str(exc))
    exc.args = (f"line {line}: {exc}",)
    return exc


def _store_each(records: List[Tuple[int, object]], store: Callable[[object], object]) -> None:
    """Store each record through store (a store method, or a lookup that
    raises NotFound), in file order; a fault names the record's line."""
    try:
        for line, record in records:
            store(record)
    except KsError as exc:
        raise _line_fault(line, exc) from None


def _store_links(net: Network, links: List[Tuple[int, SemanticLink]]) -> None:
    """Store the decoded links in file order. A link whose ends and type are
    stored, whose triple is not, and whose rule id resolves goes straight to
    Network._store: its codec checked its weight, and each rule id is
    resolved once. Any other link goes through assert_link or add_derived,
    which name its fault. A stored link's ends and type are the objects the
    network already holds, and the links of one rule share one rule id."""
    nodes = {nid: nid for nid in net.nodes}
    types = {tid: tid for tid in net.link_types}
    rules: Dict[Optional[str], tuple] = {None: (None, None)}  # id -> (id kept, closure type)
    find, store = net._find_stored, net._store
    for line, link in links:
        source, target = nodes.get(link.source), nodes.get(link.target)
        type_id, rule = types.get(link.type), rules.get(link.rule_id)
        if rule is None:
            try:
                rule = rules[link.rule_id] = (link.rule_id, net.closure_type(link.rule_id))
            except NotFound:
                pass
        if rule is None or None in (source, type_id, target) or find(source, type_id, target):
            _store_each([(line, link)], partial(_add_link, net))
        else:
            rule_id, closure = rule
            store(source, type_id, target, link.weight, rule_id, link.premises,
                  closure != type_id, link.id)


def _add_link(net: Network, link: SemanticLink) -> str:
    if link.is_explicit:
        return net.assert_link(link.source, link.type, link.target, link.weight, link.id)
    return net.add_derived(link.source, link.type, link.target, link.weight,
                           link.rule_id, link.premises, link.id)


def _build_network(records: Records, net: Network) -> None:
    _store_each(records["LINKTYPE"], lambda lt: net.add_link_type(
        lt.rep, lt.transitive, lt.symmetric, type_id=lt.id))
    _store_each(records["LINKTYPE"], lambda lt: net.set_type_parent(lt.id, lt.parent))
    _store_each(records["NODE"], lambda node: net.add_node(node.rep, node.attributes, node.id))
    for _line, node in records["NODE"]:
        net.nodes[node.id].rank = node.rank
    _store_each(records["RULE"], net.add_rule)
    _store_links(net, records["LINK"])
    links = net.links
    derived = [(line, link) for line, link in records["LINK"] if link.rule_id is not None]

    # Network.link refuses each premise the network lacks, at its link's line.
    missing = [(line, pid) for line, link in derived for pid in link.premises if pid not in links]
    _store_each(missing, net.link)
    # Provenance must be well-founded. An explicit link cites nothing, so
    # when every derived premise was stored before the link citing it, as
    # when ids follow derive order, storing order orders the premise graph.
    # Else one premise walk from every derived link, in file order, meets a
    # cycle first from the first link on or above one, and names that link.
    stamp = net._stamp
    if any(stamp[pid] >= stamp[link.id] and links[pid].rule_id is not None
           for _line, link in derived for pid in link.premises):
        premises = {link.id: link.premises for _line, link in derived}
        try:
            for _lid in premise_walk(premises, premises.get):
                pass
        except PremiseCycle as cycle:
            line, root = next((line, link.id) for line, link in derived
                              if link.id == cycle.args[1])
            raise MalformedRecord(
                line, f"provenance of link {root!r} rests on a premise cycle") from None
    # Each step must hold as `explain` replays it: the rule's body reads the
    # premises and a head atom gives the link's triple.
    _store_each(derived, step_replay(net))


def _tree(cats: List[Tuple[int, tuple]]) -> CategoryTree:
    """The tree of one dimension's (or the network's) CAT records; a fault
    names the line of the category at fault."""
    try:
        return CategoryTree.from_rows((cat[0], *cat[2:]) for _line, cat in cats)
    except KsError as exc:
        raise _line_fault(next(line for line, cat in cats if cat[0] == exc.category), exc) from None


def _build_space(records: Records, space: Space, cats: Records) -> None:
    # Owners are checked before any dimension is built, so the space holds
    # none yet and its lookup refuses each owner no DIM record names.
    dims = {did for _line, (did, _name) in records["DIM"]}
    owners = [(owned[0][0], owner) for owner, owned in sorted(cats.items())]
    _store_each(owners, lambda owner: owner in dims or space.dimension(owner))
    for line, (did, name) in sorted(records["DIM"], key=itemgetter(1)):
        if did not in cats:
            raise MalformedRecord(line, f"dimension {did!r} has no categories")
        _store_each([(line, _tree(cats[did]))], lambda tree: space.add_tree(name, tree, did))
    for line, (resource, coords) in records["PLACE"]:
        # Two coordinates for one dimension would collapse into one entry.
        point: Dict[str, str] = {}
        for dim_id, cat_id in coords:
            if dim_id in point:
                raise MalformedRecord(line, f"dimension {dim_id!r} repeated")
            point[dim_id] = cat_id
        _store_each([(line, point)], lambda point: space.place(resource, point))


def _build_lexicon(state: EngineState, records: Records) -> None:
    """Store concepts with their classes cleared, then link them, then set lexemes."""
    store, concepts = state.concepts, records["CONCEPT"]
    classes: Dict[str, List[str]] = {}  # concept id -> its class ids

    def add(concept: Concept) -> None:
        classes[concept.id], concept.structure.classes = concept.structure.classes, []
        store.add(concept)

    def link(concept: Concept) -> None:
        for parent in classes[concept.id]:
            store.add_class_link(concept.id, parent)
        for _label, target in concept.structure.relations:
            store.get(target)

    _store_each(concepts, add)
    _store_each(concepts, link)
    _store_each(records["LEXEME"], lambda lexeme: state.lexicon.set_candidates(
        lexeme[0], [store.get(cid).id for cid in lexeme[1]]))


def import_state(text: str) -> EngineState:
    records = _read(text, KIND_ORDER, "a state")
    state = new_state()
    _build_network(records, state.network)
    cats: Records = {}  # CAT records by owner dimension, None for the network's
    for cat in records["CAT"]:
        cats.setdefault(cat[1][1], []).append(cat)
    state.network.categories = _tree(cats.pop(None, []))
    _build_space(records, state.space, cats)
    _build_lexicon(state, records)
    _store_each(records["PROBLEM"], state.add_problem)
    _store_each(records["ANOMALYRULE"], state.add_anomaly_rule)
    # Every representation anchor names a category or a concept.
    pool = {cat[0] for _line, cat in records["CAT"]}
    pool.update(concept.id for _line, concept in records["CONCEPT"])

    def resolve(record) -> None:
        for anchor in record.rep.rep_k:
            if anchor not in pool:
                raise NotFound(f"category or concept {anchor!r} not found", anchor)

    for kind in ("NODE", "LINKTYPE", "RULE"):
        _store_each(records[kind], resolve)
    return state


# ===== fragment helpers for the CLI =====
# Increments and candidates are discovery records; the helpers that build
# them import discovery when they run, so loading a state never does.

def fragment_to_increment(text: str) -> IncrementFragment:
    """Parse a network-only document into an additive increment."""
    from .discovery import IncrementFragment
    kinds = ("LINKTYPE", "NODE", "RULE", "LINK")  # IncrementFragment's field order
    records = _read(text, kinds, "a network increment")
    for line, link in records["LINK"]:
        if not link.is_explicit:
            raise MalformedRecord(line, "increments carry explicit links only")
    return IncrementFragment(*([record for _line, record in records[kind]] for kind in kinds))


def parse_candidates(text: str) -> List[Candidate]:
    """LINK and RULE records read as verification candidates, in file order."""
    from .discovery import Candidate, LinkCandidate
    records = _read(text, ("LINK", "RULE"), "a candidate file")
    candidates: List[Candidate] = []
    for line, record in sorted(records["LINK"] + records["RULE"], key=itemgetter(0)):
        if isinstance(record, Rule):
            candidates.append(Candidate("rule", record, source=f"line {line}"))
        elif record.is_explicit:
            payload = LinkCandidate(record.source, record.type, record.target, record.weight)
            candidates.append(Candidate("link", payload, source=f"line {line}"))
        else:
            raise MalformedRecord(line, "candidate links must be explicit")
    return candidates


def parse_anomaly_rules(text: str) -> Dict[str, AnomalyRule]:
    records = _read(text, ("ANOMALYRULE",), "an anomaly rule file")
    rules = EngineState()
    _store_each(records["ANOMALYRULE"], rules.add_anomaly_rule)
    return rules.anomaly_rules


def merge_lexicon_fragment(state: EngineState, text: str) -> Tuple[int, int]:
    """Add CONCEPT and LEXEME records to an existing state.

    New concepts must not collide with existing ids; lexeme entries replace
    any previous candidate list for the same word. Returns (concepts added,
    words set).
    """
    records = _read(text, ("CONCEPT", "LEXEME"), "a lexicon fragment")
    _build_lexicon(state, records)
    return (len(records["CONCEPT"]), len(records["LEXEME"]))
