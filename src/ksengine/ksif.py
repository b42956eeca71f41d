"""Canonical text persistence (KSIF) for engine states.

KSIF is a line-oriented, tab-separated format: one header line "KSIF 1"
followed by records. Export is canonical — records grouped by kind in a fixed
order, each group sorted, floats written with repr() — so equal states produce
byte-identical text. Import accepts records in any order, resolves forward
references in a second phase, and reports the line number of anything
malformed. Fields escape tab, newline, and backslash as \\t, \\n, \\\\; ids
never need escaping. Blank lines and '#' comment lines are skipped on import
and never emitted on export.
"""

from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from .concepts import Concept
from .errors import (
    BadHeader,
    DanglingReference,
    DimensionNameClash,
    DuplicateId,
    InvalidRep,
    InvalidRule,
    KsError,
    MalformedRecord,
    UnknownKind,
)
from .rules import PatternAtom, Rule, get_rule, reconstruct_substitution, validate_rule
from .sln import (
    ClassRef,
    Derived,
    Explicit,
    FileRef,
    ID_PATTERN,
    LinkType,
    Network,
    RepBundle,
    RepValue,
    Scalar,
    SemanticLink,
    SemanticNode,
)
from .space import Space
from .state import (
    PROBLEM_KINDS,
    AnomalyRule,
    EngineState,
    Problem,
    new_state,
    validate_anomaly_rule,
)
from .taxonomy import CategoryTree

if TYPE_CHECKING:
    from .discovery import Candidate, IncrementFragment

HEADER = "KSIF 1"

KIND_ORDER = (
    "LINKTYPE",
    "NODE",
    "LINK",
    "RULE",
    "DIM",
    "CAT",
    "PLACE",
    "CONCEPT",
    "LEXEME",
    "PROBLEM",
    "ANOMALYRULE",
)


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


def _record_line(kind: str, fields: Sequence[str]) -> str:
    return "\t".join([kind] + [escape_field(f) for f in fields]) + "\n"


ParsedRecord = Tuple[int, str, List[str]]  # (line number, kind, fields)


def records_from_text(text: str) -> List[ParsedRecord]:
    """Header check plus line-level parsing; comments and blanks skipped."""
    lines = text.split("\n")
    if not lines or lines[0] != HEADER:
        raise BadHeader(f"first line must be exactly {HEADER!r}")
    records: List[ParsedRecord] = []
    for number, raw in enumerate(lines[1:], start=2):
        if raw == "" or raw.startswith("#"):
            continue
        parts = raw.split("\t")
        kind = parts[0]
        if kind not in KIND_ORDER:
            raise UnknownKind(number, kind)
        fields = [unescape_field(p, number) for p in parts[1:]]
        records.append((number, kind, fields))
    return records


class _Cursor:
    """Sequential field reader with line-anchored error reporting."""

    def __init__(self, line: int, fields: Sequence[str]):
        self.line = line
        self._fields = list(fields)
        self._pos = 0

    def take(self, what: str) -> str:
        if self._pos >= len(self._fields):
            raise MalformedRecord(self.line, f"missing field: {what}")
        value = self._fields[self._pos]
        self._pos += 1
        return value

    def take_nonempty(self, what: str) -> str:
        value = self.take(what)
        if value == "":
            raise MalformedRecord(self.line, f"{what} must be non-empty")
        return value

    def take_opt(self, what: str) -> Optional[str]:
        value = self.take(what)
        return value if value != "" else None

    def take_id(self, what: str) -> str:
        value = self.take(what)
        if not ID_PATTERN.match(value):
            raise MalformedRecord(self.line, f"{what} {value!r} is not a valid id")
        return value

    def take_opt_id(self, what: str) -> Optional[str]:
        value = self.take(what)
        if value == "":
            return None
        if not ID_PATTERN.match(value):
            raise MalformedRecord(self.line, f"{what} {value!r} is not a valid id")
        return value

    def take_int(self, what: str) -> int:
        value = self.take(what)
        try:
            return int(value)
        except ValueError:
            raise MalformedRecord(self.line, f"{what} {value!r} is not an integer") from None

    def take_count(self, what: str) -> int:
        value = self.take_int(what)
        if value < 0:
            raise MalformedRecord(self.line, f"{what} must be >= 0, got {value}")
        return value

    def take_float(self, what: str) -> float:
        value = self.take(what)
        try:
            number = float(value)
        except ValueError:
            raise MalformedRecord(self.line, f"{what} {value!r} is not a number") from None
        if not math.isfinite(number):
            raise MalformedRecord(self.line, f"{what} {value!r} is not a finite number")
        return number

    def take_weight(self, what: str) -> float:
        number = self.take_float(what)
        if number < 0:
            raise MalformedRecord(self.line, f"{what} must be >= 0, got {number!r}")
        return number

    def take_bool(self, what: str) -> bool:
        value = self.take(what)
        if value == "1":
            return True
        if value == "0":
            return False
        raise MalformedRecord(self.line, f"{what} must be 1 or 0, got {value!r}")

    def take_term(self, what: str) -> str:
        """A rule term: either "?var" or a bare id."""
        value = self.take(what)
        body = value[1:] if value.startswith("?") else value
        if body == "" or not ID_PATTERN.match(body):
            raise MalformedRecord(self.line, f"{what} {value!r} is not a term")
        return value

    def finish(self) -> None:
        if self._pos != len(self._fields):
            extra = self._fields[self._pos:]
            raise MalformedRecord(self.line, f"unexpected trailing fields {extra!r}")


# ===== value and bundle codecs =====

def _enc_value(value: RepValue) -> Tuple[str, str]:
    if isinstance(value, FileRef):
        return ("F", value.path)
    if isinstance(value, ClassRef):
        return ("C", value.name)
    if isinstance(value, str):
        return ("S", value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidRep(f"cannot encode machine value {value!r}")
    if isinstance(value, int):
        return ("I", str(value))
    return ("R", repr(float(value)))


def _dec_value(cur: _Cursor, what: str, allow_refs: bool = True) -> RepValue:
    tag = cur.take(f"{what} tag")
    text = cur.take(f"{what} value")
    if tag == "S":
        return text
    if tag == "I":
        try:
            return int(text)
        except ValueError:
            raise MalformedRecord(cur.line, f"{what} {text!r} is not an integer") from None
    if tag == "R":
        try:
            return float(text)
        except ValueError:
            raise MalformedRecord(cur.line, f"{what} {text!r} is not a number") from None
    if allow_refs and tag == "F":
        return FileRef(text)
    if allow_refs and tag == "C":
        return ClassRef(text)
    raise MalformedRecord(cur.line, f"bad {what} tag {tag!r}")


def _enc_rep(rep: RepBundle) -> List[str]:
    tag, value = _enc_value(rep.rep_c)
    fields = [tag, value, rep.word, rep.rep_h, str(len(rep.rep_k))]
    fields.extend(rep.rep_k)
    return fields


def _dec_rep(cur: _Cursor) -> RepBundle:
    rep_c = _dec_value(cur, "machine value")
    word = cur.take("word")
    rep_h = cur.take("sentence")
    count = cur.take_count("anchor count")
    anchors = tuple(cur.take_id(f"anchor {i + 1}") for i in range(count))
    try:
        return RepBundle(word, rep_c, rep_h, anchors)
    except InvalidRep as exc:
        raise MalformedRecord(cur.line, str(exc)) from None


def _enc_attrs(attributes: Dict[str, Scalar]) -> List[str]:
    fields = [str(len(attributes))]
    for label in sorted(attributes):
        tag, value = _enc_value(attributes[label])
        fields.extend([label, tag, value])
    return fields


def _dec_attrs(cur: _Cursor) -> Dict[str, Scalar]:
    count = cur.take_count("attribute count")
    attrs: Dict[str, Scalar] = {}
    for _i in range(count):
        label = cur.take_nonempty("attribute label")
        value = _dec_value(cur, f"attribute {label!r}", allow_refs=False)
        if label in attrs:
            raise MalformedRecord(cur.line, f"attribute {label!r} repeated")
        attrs[label] = value  # type: ignore[assignment]
    return attrs


def _enc_atoms(atoms: Sequence[PatternAtom]) -> List[str]:
    fields = [str(len(atoms))]
    for atom in atoms:
        fields.extend([atom.source, atom.type, atom.target])
    return fields


def _dec_atoms(cur: _Cursor, what: str) -> Tuple[PatternAtom, ...]:
    count = cur.take_count(f"{what} atom count")
    atoms = []
    for i in range(count):
        s = cur.take_term(f"{what} atom {i + 1} source")
        t = cur.take_term(f"{what} atom {i + 1} type")
        o = cur.take_term(f"{what} atom {i + 1} target")
        atoms.append(PatternAtom(s, t, o))
    return tuple(atoms)


def _enc_strings(items: Sequence[str]) -> List[str]:
    return [str(len(items))] + list(items)


def _dec_strings(cur: _Cursor, what: str) -> List[str]:
    count = cur.take_count(f"{what} count")
    return [cur.take(f"{what} {i + 1}") for i in range(count)]


# ===== per-kind decoders (pure: no cross-record checks) =====

def _dec_linktype(line: int, fields: List[str]) -> LinkType:
    cur = _Cursor(line, fields)
    tid = cur.take_id("link-type id")
    transitive = cur.take_bool("transitive flag")
    symmetric = cur.take_bool("symmetric flag")
    parent = cur.take_opt_id("parent")
    rep = _dec_rep(cur)
    cur.finish()
    return LinkType(tid, rep, transitive, symmetric, parent)


def _dec_node(line: int, fields: List[str]) -> SemanticNode:
    cur = _Cursor(line, fields)
    nid = cur.take_id("node id")
    rank = cur.take_float("rank")
    rep = _dec_rep(cur)
    attrs = _dec_attrs(cur)
    cur.finish()
    return SemanticNode(nid, rep, attrs, rank)


def _dec_link(line: int, fields: List[str]) -> SemanticLink:
    cur = _Cursor(line, fields)
    lid = cur.take_id("link id")
    source = cur.take_id("source")
    tid = cur.take_id("link type")
    target = cur.take_id("target")
    weight = cur.take_weight("weight")
    tag = cur.take("provenance tag")
    if tag == "E":
        cur.finish()
        return SemanticLink(lid, source, tid, target, weight, Explicit())
    if tag == "D":
        rule_id = cur.take_id("rule id")
        count = cur.take_count("premise count")
        premises = tuple(cur.take_id(f"premise {i + 1}") for i in range(count))
        cur.finish()
        return SemanticLink(lid, source, tid, target, weight, Derived(rule_id, premises))
    raise MalformedRecord(line, f"provenance tag must be E or D, got {tag!r}")


def _dec_rule(line: int, fields: List[str]) -> Rule:
    cur = _Cursor(line, fields)
    rid = cur.take_id("rule id")
    rep = _dec_rep(cur)
    body = _dec_atoms(cur, "body")
    head = _dec_atoms(cur, "head")
    cur.finish()
    rule = Rule(rid, rep, body, head)
    problems = validate_rule(rule)
    if problems:
        raise MalformedRecord(line, "; ".join(problems))
    return rule


def _dec_cat(line: int, fields: List[str]) -> Tuple[str, Optional[str], Optional[str], str]:
    """Returns (category id, owner dimension or None, parent or None, name)."""
    cur = _Cursor(line, fields)
    cid = cur.take_id("category id")
    owner = cur.take_opt_id("owner dimension")
    parent = cur.take_opt_id("parent")
    name = cur.take("name")
    cur.finish()
    return (cid, owner, parent, name)


def _dec_dim(line: int, fields: List[str]) -> Tuple[str, str]:
    cur = _Cursor(line, fields)
    did = cur.take_id("dimension id")
    name = cur.take_nonempty("dimension name")
    cur.finish()
    return (did, name)


def _dec_place(line: int, fields: List[str]) -> Tuple[str, List[Tuple[str, str]]]:
    cur = _Cursor(line, fields)
    resource = cur.take_id("resource id")
    count = cur.take_count("coordinate count")
    coords = []
    for i in range(count):
        dim = cur.take_id(f"coordinate {i + 1} dimension")
        cat = cur.take_id(f"coordinate {i + 1} category")
        coords.append((dim, cat))
    cur.finish()
    return (resource, coords)


def _dec_concept(line: int, fields: List[str]) -> Concept:
    cur = _Cursor(line, fields)
    cid = cur.take_id("concept id")
    name = cur.take("concept name")
    priori = cur.take_bool("priori flag")
    link_type = cur.take_opt("relation label")
    concept = Concept(cid, name, priori=priori, link_type=link_type)
    concept.structure.attributes = _dec_attrs(cur)
    concept.structure.classes = [
        cur.take_id(f"class {i + 1}")
        for i in range(cur.take_count("class count"))
    ]
    concept.structure.instances = _dec_strings(cur, "instance")
    rel_count = cur.take_count("relation count")
    for _i in range(rel_count):
        label = cur.take_nonempty("relation label")
        target = cur.take_id("relation target")
        weight = cur.take_float("relation weight")
        if (label, target) in concept.structure.relations:
            raise MalformedRecord(line, f"relation ({label!r}, {target!r}) repeated")
        concept.structure.relations[(label, target)] = weight
    concept.services.interfaces = _dec_strings(cur, "interface")
    process_count = cur.take_count("process count")
    for _i in range(process_count):
        steps = tuple(_dec_strings(cur, "process step"))
        concept.services.processes.append(steps)
    concept.experiences.use_cases = _dec_strings(cur, "use case")
    concept.experiences.objects = _dec_strings(cur, "object")
    concept.experiences.events = _dec_strings(cur, "event")
    concept.rules = _dec_strings(cur, "rule entry")
    concept.sense.media = _dec_strings(cur, "media entry")
    concept.sense.language = _dec_strings(cur, "language entry")
    cur.finish()
    return concept


def _dec_lexeme(line: int, fields: List[str]) -> Tuple[str, List[str]]:
    cur = _Cursor(line, fields)
    word = cur.take_nonempty("word")
    count = cur.take_count("candidate count")
    if count < 1:
        raise MalformedRecord(line, "lexeme needs at least one candidate")
    candidates = [cur.take_id(f"candidate {i + 1}") for i in range(count)]
    cur.finish()
    return (word, candidates)


def _dec_problem(line: int, fields: List[str]) -> Problem:
    cur = _Cursor(line, fields)
    pid = cur.take_id("problem id")
    kind = cur.take("problem kind")
    if kind not in PROBLEM_KINDS:
        raise MalformedRecord(line, f"unknown problem kind {kind!r}")
    statement = cur.take("statement")
    category = cur.take_opt_id("category")
    evidence = tuple(_dec_strings(cur, "evidence"))
    concepts = tuple(_dec_strings(cur, "concept"))
    cur.finish()
    if kind in ("anomaly", "limitation") and not evidence:
        raise MalformedRecord(line, f"{kind} problem must carry evidence")
    return Problem(pid, kind, statement, evidence, category, concepts)


def _dec_anomaly(line: int, fields: List[str]) -> AnomalyRule:
    cur = _Cursor(line, fields)
    rid = cur.take_id("anomaly rule id")
    metric = cur.take("metric")
    op = cur.take("comparison op")
    threshold = cur.take_float("threshold")
    template = cur.take("template")
    atoms = _dec_atoms(cur, "condition")
    cur.finish()
    rule = AnomalyRule(rid, atoms, metric, op, threshold, template)
    problems = validate_anomaly_rule(rule)
    if problems:
        raise MalformedRecord(line, "; ".join(problems))
    return rule


# ===== per-kind encoders =====

def _enc_linktype(lt: LinkType) -> List[str]:
    return [
        lt.id,
        "1" if lt.transitive else "0",
        "1" if lt.symmetric else "0",
        lt.parent or "",
    ] + _enc_rep(lt.rep)


def _enc_node(node: SemanticNode) -> List[str]:
    return [node.id, repr(node.rank)] + _enc_rep(node.rep) + _enc_attrs(node.attributes)


def _enc_link(link: SemanticLink) -> List[str]:
    fields = [link.id, link.source, link.type, link.target, repr(link.weight)]
    if link.is_explicit:
        fields.append("E")
    else:
        prov = link.provenance
        fields.extend(["D", prov.rule_id, str(len(prov.premises))])
        fields.extend(prov.premises)
    return fields


def _enc_rule(rule: Rule) -> List[str]:
    return [rule.id] + _enc_rep(rule.rep) + _enc_atoms(rule.body) + _enc_atoms(rule.head)


def _enc_concept(concept: Concept) -> List[str]:
    fields = [
        concept.id,
        concept.name,
        "1" if concept.priori else "0",
        concept.link_type or "",
    ]
    fields += _enc_attrs(concept.structure.attributes)
    fields += _enc_strings(concept.structure.classes)
    fields += _enc_strings(concept.structure.instances)
    relations = concept.structure.relations
    fields.append(str(len(relations)))
    for (label, target) in sorted(relations):
        fields.extend([label, target, repr(relations[(label, target)])])
    fields += _enc_strings(concept.services.interfaces)
    fields.append(str(len(concept.services.processes)))
    for steps in concept.services.processes:
        fields += _enc_strings(list(steps))
    fields += _enc_strings(concept.experiences.use_cases)
    fields += _enc_strings(concept.experiences.objects)
    fields += _enc_strings(concept.experiences.events)
    fields += _enc_strings(concept.rules)
    fields += _enc_strings(concept.sense.media)
    fields += _enc_strings(concept.sense.language)
    return fields


def _enc_problem(problem: Problem) -> List[str]:
    return (
        [problem.id, problem.kind, problem.statement, problem.category or ""]
        + _enc_strings(list(problem.evidence))
        + _enc_strings(list(problem.concepts))
    )


def _enc_anomaly(rule: AnomalyRule) -> List[str]:
    return [
        rule.id,
        rule.metric,
        rule.op,
        repr(float(rule.threshold)),
        rule.template,
    ] + _enc_atoms(rule.atoms)


# ===== export =====

def _space_records(space: Space) -> Dict[str, List[List[str]]]:
    groups: Dict[str, List[List[str]]] = {"DIM": [], "CAT": [], "PLACE": []}
    for did in sorted(d.id for d in space.dimensions()):
        dim = space.dimension(did)
        groups["DIM"].append([dim.id, dim.name])
        for cid, parent, name in dim.tree.to_rows():
            groups["CAT"].append([cid, dim.id, parent or "", name])
    for resource in sorted(space.placements):
        point = space.placements[resource]
        fields = [resource, str(len(point))]
        for dim_id in sorted(point):
            fields.extend([dim_id, point[dim_id]])
        groups["PLACE"].append(fields)
    return groups


def export_state(state: EngineState) -> str:
    groups: Dict[str, List[List[str]]] = {kind: [] for kind in KIND_ORDER}
    net = state.network
    for tid in sorted(net.link_types):
        groups["LINKTYPE"].append(_enc_linktype(net.link_types[tid]))
    for nid in sorted(net.nodes):
        groups["NODE"].append(_enc_node(net.nodes[nid]))
    for lid in sorted(net.links):
        groups["LINK"].append(_enc_link(net.links[lid]))
    for rid in sorted(net.rules):
        groups["RULE"].append(_enc_rule(net.rules[rid]))
    for cid, parent, name in net.categories.to_rows():
        groups["CAT"].append([cid, "", parent or "", name])
    space_groups = _space_records(state.space)
    groups["DIM"] = space_groups["DIM"]
    groups["CAT"].extend(space_groups["CAT"])
    groups["CAT"].sort(key=lambda f: (f[0], f[1]))
    groups["PLACE"] = space_groups["PLACE"]
    for cid in state.concepts.ids():
        groups["CONCEPT"].append(_enc_concept(state.concepts.concepts[cid]))
    for word in state.lexicon.words():
        candidates = state.lexicon.candidates(word)
        groups["LEXEME"].append([word] + _enc_strings(candidates))
    for pid in sorted(state.problems):
        groups["PROBLEM"].append(_enc_problem(state.problems[pid]))
    for rid in sorted(state.anomaly_rules):
        groups["ANOMALYRULE"].append(_enc_anomaly(state.anomaly_rules[rid]))
    lines = [HEADER + "\n"]
    for kind in KIND_ORDER:
        for fields in groups[kind]:
            lines.append(_record_line(kind, fields))
    return "".join(lines)


def export_space_fragment(space: Space) -> str:
    groups = _space_records(space)
    lines = [HEADER + "\n"]
    for kind in ("DIM", "CAT", "PLACE"):
        for fields in groups[kind]:
            lines.append(_record_line(kind, fields))
    return "".join(lines)


# ===== import =====

# kind -> (decoder, key, noun used in messages). A key is (id, *namespace):
# one key seen twice within a kind is a duplicate. Network and space
# categories are separate id namespaces, so a CAT key says if an owner is set.
_KINDS = {
    "LINKTYPE": (_dec_linktype, lambda lt: (lt.id,), "link type"),
    "NODE": (_dec_node, lambda node: (node.id,), "node"),
    "LINK": (_dec_link, lambda link: (link.id,), "link"),
    "RULE": (_dec_rule, lambda rule: (rule.id,), "rule"),
    "DIM": (_dec_dim, lambda dim: (dim[0],), "dimension"),
    "CAT": (_dec_cat, lambda cat: (cat[0], cat[1] is None), "category"),
    "PLACE": (_dec_place, lambda place: (place[0],), "resource"),
    "CONCEPT": (_dec_concept, lambda concept: (concept.id,), "concept"),
    "LEXEME": (_dec_lexeme, lambda lexeme: (lexeme[0],), "word"),
    "PROBLEM": (_dec_problem, lambda problem: (problem.id,), "problem"),
    "ANOMALYRULE": (_dec_anomaly, lambda rule: (rule.id,), "anomaly rule"),
}

Records = Dict[str, List[Tuple[int, object]]]  # kind -> (line, decoded record)


def _read(text: str, kinds: Sequence[str], what: str) -> Records:
    """Decode every record once, in file order, grouped by kind.

    A record of a kind outside kinds is malformed in this document (what
    names it in the message); a key repeated within a kind is a DuplicateId.
    """
    records: Records = {kind: [] for kind in kinds}
    seen: Dict[str, Set[tuple]] = {kind: set() for kind in kinds}
    for line, kind, fields in records_from_text(text):
        if kind not in records:
            raise MalformedRecord(line, f"{kind} not allowed in {what}")
        decode, key_of, noun = _KINDS[kind]
        record = decode(line, fields)
        key = key_of(record)
        if key in seen[kind]:
            raise DuplicateId(f"line {line}: {noun} {key[0]!r} defined twice")
        seen[kind].add(key)
        records[kind].append((line, record))
    return records


def _build_network(records: Records, net: Network) -> None:
    pending_parents: List[Tuple[int, str, str]] = []
    for line, lt in records["LINKTYPE"]:
        net.add_link_type(lt.rep, lt.transitive, lt.symmetric, parent=None, type_id=lt.id)
        if lt.parent is not None:
            pending_parents.append((line, lt.id, lt.parent))
    for line, tid, parent in pending_parents:
        if parent not in net.link_types:
            raise DanglingReference(parent, f"line {line}: parent of link type {tid!r}")
        net.set_type_parent(tid, parent)
    for _line, node in records["NODE"]:
        net.add_node(node.rep, node.attributes, node_id=node.id)
        net.nodes[node.id].rank = node.rank
    for _line, rule in records["RULE"]:
        net.rules[rule.id] = rule
    derived_premises: List[Tuple[int, str, Tuple[str, ...]]] = []
    for line, link in records["LINK"]:
        for endpoint, name in ((link.source, "source"), (link.target, "target")):
            if endpoint not in net.nodes:
                raise DanglingReference(
                    endpoint, f"line {line}: {name} of link {link.id!r}"
                )
        if link.type not in net.link_types:
            raise DanglingReference(link.type, f"line {line}: type of link {link.id!r}")
        if link.is_explicit:
            net.assert_link(link.source, link.type, link.target, link.weight,
                            link_id=link.id)
        else:
            prov = link.provenance
            try:
                get_rule(net, prov.rule_id)
            except Exception:
                raise DanglingReference(
                    prov.rule_id, f"line {line}: rule of link {link.id!r}"
                ) from None
            net.add_derived(link.source, link.type, link.target, link.weight,
                            prov, link_id=link.id)
            derived_premises.append((line, link.id, prov.premises))
    for line, lid, premises in derived_premises:
        for pid in premises:
            if pid not in net.links:
                raise DanglingReference(pid, f"line {line}: premise of link {lid!r}")
    # Provenance must be well-founded: ordering derived links so that each
    # comes after its derived premises leaves out exactly the links on or
    # above a premise cycle.
    waiting: Dict[str, int] = {lid: 0 for _line, lid, _premises in derived_premises}
    dependents: Dict[str, List[str]] = {}
    for _line, lid, premises in derived_premises:
        for pid in premises:
            if pid in waiting:
                waiting[lid] += 1
                dependents.setdefault(pid, []).append(lid)
    ready = [lid for lid, count in waiting.items() if count == 0]
    while ready:
        for lid in dependents.get(ready.pop(), ()):
            waiting[lid] -= 1
            if waiting[lid] == 0:
                ready.append(lid)
    for line, lid, _premises in derived_premises:
        if waiting[lid]:
            raise MalformedRecord(
                line, f"provenance of link {lid!r} rests on a premise cycle"
            )
    # Each step must hold as `explain` replays it: the rule's body matches
    # the premises and a head atom gives the link's triple.
    for line, lid, _premises in derived_premises:
        try:
            reconstruct_substitution(net, net.links[lid])
        except InvalidRule as exc:
            raise MalformedRecord(line, f"link {lid!r}: {exc}") from None


CatRow = Tuple[int, str, Optional[str], str]  # (line, category id, parent, name)


def _tree(rows: List[CatRow]) -> CategoryTree:
    """The tree of one dimension's (or the network's) CAT rows; a fault
    names the line of the category at fault."""
    try:
        return CategoryTree.from_rows(row[1:] for row in rows)
    except KsError as exc:
        line = next(row[0] for row in rows if row[1] == exc.category)
        exc.args = (f"line {line}: {exc}",)
        raise


def _build_space(
    records: Records,
    space: Space,
    space_cat_rows: Dict[str, List[CatRow]],
) -> None:
    dims: Dict[str, Tuple[int, str]] = {}
    named: Dict[str, str] = {}
    for line, (did, name) in records["DIM"]:
        if name in named:
            raise DimensionNameClash(
                f"line {line}: dimensions {named[name]!r} and {did!r} both named {name!r}"
            )
        named[name] = did
        dims[did] = (line, name)
    for owner in sorted(space_cat_rows):
        if owner not in dims:
            first_line = space_cat_rows[owner][0][0]
            raise DanglingReference(
                owner, f"line {first_line}: category owner dimension"
            )
    for did in sorted(dims):
        line, name = dims[did]
        rows = space_cat_rows.get(did, [])
        if not rows:
            raise MalformedRecord(line, f"dimension {did!r} has no categories")
        space.add_tree(name, _tree(rows), did)
    trees = {dim.id: dim.tree for dim in space.dimensions()}
    for line, (resource, coords) in records["PLACE"]:
        point: Dict[str, str] = {}
        for dim_id, cat_id in coords:
            if dim_id not in trees:
                raise DanglingReference(
                    dim_id, f"line {line}: placement dimension for {resource!r}"
                )
            if cat_id not in trees[dim_id]:
                raise DanglingReference(
                    cat_id, f"line {line}: placement category for {resource!r}"
                )
            if dim_id in point:
                raise MalformedRecord(line, f"dimension {dim_id!r} repeated")
            point[dim_id] = cat_id
        uncovered = [d for d in trees if d not in point]
        if uncovered:
            raise MalformedRecord(
                line, f"placement of {resource!r} lacks dimensions {uncovered}"
            )
        space.place(resource, point)


def _build_lexicon(state: EngineState, records: Records) -> None:
    """Add decoded concepts as they are, then class links and lexemes."""
    store = state.concepts
    classes: List[List[str]] = []
    for line, concept in records["CONCEPT"]:
        if concept.id in store:
            raise DuplicateId(f"line {line}: concept {concept.id!r} defined twice")
        classes.append(concept.structure.classes)
        concept.structure.classes = []
        store.concepts[concept.id] = concept
    for (line, concept), parents in zip(records["CONCEPT"], classes):
        for parent in parents:
            if parent not in store:
                raise DanglingReference(
                    parent, f"line {line}: class of concept {concept.id!r}"
                )
            store.add_class_link(concept.id, parent)
        for (_label, target) in concept.structure.relations:
            if target not in store:
                raise DanglingReference(
                    target, f"line {line}: relation target of {concept.id!r}"
                )
    for line, (word, candidates) in records["LEXEME"]:
        for cid in candidates:
            if cid not in store:
                raise DanglingReference(
                    cid, f"line {line}: candidate for word {word!r}"
                )
        state.lexicon.set_candidates(word, candidates)


def import_state(text: str) -> EngineState:
    records = _read(text, KIND_ORDER, "a state")
    state = new_state()
    _build_network(records, state.network)
    cat_rows: Dict[Optional[str], List[CatRow]] = {}  # owner dimension -> rows
    for line, (cid, owner, parent, name) in records["CAT"]:
        cat_rows.setdefault(owner, []).append((line, cid, parent, name))
    state.network.categories = _tree(cat_rows.pop(None, []))
    _build_space(records, state.space, cat_rows)
    _build_lexicon(state, records)
    for _line, problem in records["PROBLEM"]:
        state.problems[problem.id] = problem
    for _line, rule in records["ANOMALYRULE"]:
        state.anomaly_rules[rule.id] = rule
    _check_anchors(records)
    return state


def _check_anchors(records: Records) -> None:
    """Every representation anchor names a category or a concept."""
    pool = {cat[0] for _line, cat in records["CAT"]}
    pool.update(concept.id for _line, concept in records["CONCEPT"])
    for kind in ("NODE", "LINKTYPE", "RULE"):
        for line, record in records[kind]:
            for anchor in record.rep.rep_k:
                if anchor not in pool:
                    raise DanglingReference(
                        anchor, f"line {line}: representation anchor"
                    )


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
    candidates: List[Candidate] = []
    for line, kind, fields in records_from_text(text):
        if kind == "LINK":
            link = _dec_link(line, fields)
            if not link.is_explicit:
                raise MalformedRecord(line, "candidate links must be explicit")
            payload = LinkCandidate(link.source, link.type, link.target, link.weight)
            candidates.append(Candidate("link", payload, source=f"line {line}"))
        elif kind == "RULE":
            rule = _dec_rule(line, fields)
            candidates.append(Candidate("rule", rule, source=f"line {line}"))
        else:
            raise MalformedRecord(line, f"{kind} is not a candidate record")
    return candidates


def parse_anomaly_rules(text: str) -> Dict[str, AnomalyRule]:
    records = _read(text, ("ANOMALYRULE",), "an anomaly rule file")
    return {rule.id: rule for _line, rule in records["ANOMALYRULE"]}


def merge_lexicon_fragment(state: EngineState, text: str) -> Tuple[int, int]:
    """Add CONCEPT and LEXEME records to an existing state.

    New concepts must not collide with existing ids; lexeme entries replace
    any previous candidate list for the same word. Returns (concepts added,
    words set).
    """
    records = _read(text, ("CONCEPT", "LEXEME"), "a lexicon fragment")
    _build_lexicon(state, records)
    return (len(records["CONCEPT"]), len(records["LEXEME"]))
