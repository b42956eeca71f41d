"""Canonical text persistence: export shape, import checks, round trips."""

import collections
import pathlib
import random
import re
import sys

import pytest

from ksengine import ksif
from ksengine.cli import main
from ksengine.errors import (
    BadHeader,
    CyclicHierarchy,
    DanglingReference,
    DimensionNameClash,
    DuplicateExplicitLink,
    DuplicateId,
    KsError,
    MalformedRecord,
    MalformedTree,
    MultipleRoots,
    UnknownKind,
)
from ksengine.fixtures import build_reference_state
from ksengine.ksif import (
    HEADER,
    KIND_ORDER,
    escape_field,
    export_space_fragment,
    export_state,
    fragment_to_increment,
    import_state,
    merge_lexicon_fragment,
    parse_anomaly_rules,
    parse_candidates,
    unescape_field,
    _read,
)
from ksengine.rules import derive_fixpoint
from ksengine.sln import RepBundle
from ksengine.state import new_state

from generators import NASTY_TEXT, random_space, random_state


def minimal_state():
    state = new_state()
    net = state.network
    net.add_node(RepBundle(word="a"), node_id="a")
    net.add_node(RepBundle(word="b"), node_id="b")
    net.add_link_type(RepBundle(word="t"), type_id="t")
    net.assert_link("a", "t", "b", link_id="k1")
    return state


def swap(text: str, old: str, new: str) -> str:
    assert text.count(old) == 1, f"{old!r} is not unique in the document"
    return text.replace(old, new)


# ----- lexical layer -----

def test_header_is_mandatory():
    with pytest.raises(BadHeader):
        import_state("")
    with pytest.raises(BadHeader):
        import_state("KSIF 2\n")
    with pytest.raises(BadHeader):
        import_state("ksif 1\n")
    state = import_state(HEADER + "\n")
    assert state.network.nodes == {}
    assert state.space.dimensions() == []


def test_comments_and_blank_lines_are_ignored():
    doc = export_state(minimal_state())
    lines = doc.split("\n")
    lines.insert(1, "# a remark")
    lines.insert(3, "")
    state = import_state("\n".join(lines))
    assert export_state(state) == doc


def test_export_never_emits_comments_or_blanks():
    doc = export_state(build_reference_state())
    for line in doc.split("\n")[:-1]:
        assert line != ""
        assert not line.startswith("#")


def test_escape_round_trip():
    for text in NASTY_TEXT + ("", "plain", "\t\n\\", "a\tb\nc\\d"):
        assert unescape_field(escape_field(text), 1) == text


def test_escape_is_minimal():
    assert escape_field("a\tb") == "a\\tb"
    assert escape_field("a\nb") == "a\\nb"
    assert escape_field("a\\b") == "a\\\\b"
    assert escape_field("a\rb") == "a\rb"  # raw, not escaped


def test_unescape_rejects_unknown_escape():
    with pytest.raises(MalformedRecord) as err:
        unescape_field("a\\x", 7)
    assert "line 7" in str(err.value)
    with pytest.raises(MalformedRecord):
        unescape_field("trailing\\", 3)


def test_records_carry_line_numbers():
    doc = HEADER + "\n\n# skip me\nNODE\ta\t0.0\tS\t\ta\t\t0\t0\n"
    records = _read(doc, ("NODE", "LINK"), "a test document")
    assert records["LINK"] == []
    [(line, node)] = records["NODE"]
    assert line == 4
    assert node.id == "a"


# ----- canonical export shape -----

def test_record_kinds_appear_in_canonical_order():
    state = random_state(random.Random(42))
    doc = export_state(state)
    kinds = [line.split("\t", 1)[0] for line in doc.split("\n")[1:] if line]
    rank = {kind: i for i, kind in enumerate(KIND_ORDER)}
    assert kinds == sorted(kinds, key=lambda k: rank[k])
    for kind in ("LINKTYPE", "NODE", "LINK", "RULE"):
        ids = [line.split("\t")[1] for line in doc.split("\n") if line.startswith(kind + "\t")]
        assert ids == sorted(ids)


def test_export_is_deterministic():
    state = random_state(random.Random(99))
    assert export_state(state) == export_state(state)


# ----- round trips -----

def test_reference_state_round_trips_exactly():
    state = build_reference_state()
    derive_fixpoint(state.network)
    state.network.recompute_ranks()
    doc = export_state(state)
    again = export_state(import_state(doc))
    assert again == doc


def test_random_states_round_trip_exactly():
    rng = random.Random(2024)
    for i in range(12):
        state = random_state(rng, torture=(i % 2 == 0))
        doc = export_state(state)
        rebuilt = import_state(doc)
        assert export_state(rebuilt) == doc


PIN = pathlib.Path(__file__).parent / "data" / "pin.ksif"


def test_format_pin_reexports_byte_exact():
    """A document written by an earlier export_state, holding every record
    kind, every value tag and the awkward texts of NASTY_TEXT. Round trips
    alone miss a field order changed on both sides at once; this does not."""
    doc = PIN.read_bytes().decode("utf-8")
    kinds = {line.split("\t", 1)[0] for line in doc.split("\n")[1:] if line}
    assert kinds == set(KIND_ORDER)
    assert all(escape_field(text) in doc for text in NASTY_TEXT)
    assert export_state(import_state(doc)) == doc


def test_carriage_return_survives_fields():
    state = new_state()
    state.network.add_node(RepBundle(word="line\rnoise", rep_h="a\rb"), node_id="n1")
    doc = export_state(state)
    rebuilt = import_state(doc)
    node = rebuilt.network.nodes["n1"]
    assert node.rep.word == "line\rnoise"
    assert node.rep.rep_h == "a\rb"


def test_import_accepts_any_record_order():
    state = build_reference_state()
    derive_fixpoint(state.network)
    doc = export_state(state)
    lines = doc.split("\n")
    body = [l for l in lines[1:] if l]
    scrambled = HEADER + "\n" + "\n".join(reversed(body)) + "\n"
    assert export_state(import_state(scrambled)) == doc


def test_transitive_derivations_round_trip():
    state = new_state()
    net = state.network
    for n in ("x", "y", "z"):
        net.add_node(RepBundle(word=n), node_id=n)
    net.add_link_type(RepBundle(word="before"), transitive=True, type_id="before")
    net.assert_link("x", "before", "y")
    net.assert_link("y", "before", "z")
    derive_fixpoint(net)
    doc = export_state(state)
    rebuilt = import_state(doc)
    assert rebuilt.network.has_fact("x", "before", "z")
    derived = [l for l in rebuilt.network.derived_links()]
    assert derived and derived[0].rule_id == "sys.transitive.before"
    assert export_state(rebuilt) == doc


def test_derived_links_built_in_process_round_trip():
    """Links add_derived stores under a user rule and under a closure rule
    export to a document import accepts and re-exports byte for byte."""
    state = flip_state()
    net = state.network
    net.add_link_type(RepBundle(word="pre"), transitive=True, type_id="pre")
    net.add_node(RepBundle(word="c"), node_id="c")
    ab, bc = net.assert_link("a", "pre", "b"), net.assert_link("b", "pre", "c")
    net.add_derived("a", "pre", "c", 1.0, "sys.transitive.pre", (ab, bc))
    net.add_derived("c", "t", "a", 0.5, "flip", (net.assert_link("a", "t", "c"),))
    doc = export_state(state)
    assert "\tD\tsys.transitive.pre\t2\t" in doc and "\tD\tflip\t1\t" in doc
    assert export_state(import_state(doc)) == doc


# ----- import errors -----

def test_duplicate_node_reports_line():
    doc = export_state(minimal_state())
    node_line = next(l for l in doc.split("\n") if l.startswith("NODE\ta\t"))
    broken = doc + node_line + "\n"
    with pytest.raises(DuplicateId) as err:
        import_state(broken)
    assert "line" in str(err.value)
    assert "'a'" in str(err.value)


@pytest.mark.parametrize("kind", KIND_ORDER)
def test_repeated_key_reports_its_line(kind):
    doc = export_state(random_state(random.Random(2)))  # holds every kind
    record = next(l for l in doc.split("\n") if l.startswith(kind + "\t"))
    broken = doc + record + "\n"
    line = broken.count("\n")
    with pytest.raises(DuplicateId) as err:
        import_state(broken)
    assert str(err.value).startswith(f"line {line}: ")
    assert "defined twice" in str(err.value)


def test_network_and_space_categories_may_share_an_id():
    state = minimal_state()
    state.network.categories.add("c1", "knowledge", None)
    state.space.add_dimension("axis", root_id="c1")
    doc = export_state(state)
    assert doc.count("CAT\tc1\t") == 2
    assert export_state(import_state(doc)) == doc


def test_unknown_kind_reports_line():
    doc = export_state(minimal_state()) + "BLOB\tx\n"
    with pytest.raises(UnknownKind) as err:
        import_state(doc)
    assert err.value.kind == "BLOB"


def test_link_with_missing_endpoint():
    doc = export_state(minimal_state())
    broken = swap(doc, "LINK\tk1\ta\tt\tb", "LINK\tk1\ta\tt\tghost")
    with pytest.raises(DanglingReference) as err:
        import_state(broken)
    assert err.value.ref == "ghost"


def test_link_with_missing_type():
    doc = export_state(minimal_state())
    broken = swap(doc, "LINK\tk1\ta\tt\tb", "LINK\tk1\ta\tnosuch\tb")
    with pytest.raises(DanglingReference):
        import_state(broken)


def test_linktype_with_missing_parent():
    doc = export_state(minimal_state())
    broken = swap(doc, "LINKTYPE\tt\t0\t0\t\t", "LINKTYPE\tt\t0\t0\tmissing\t")
    with pytest.raises(DanglingReference) as err:
        import_state(broken)
    assert err.value.ref == "missing"


def test_derived_link_premise_must_exist():
    state = minimal_state()
    net = state.network
    net.add_link_type(RepBundle(word="u"), type_id="u")
    from ksengine.rules import PatternAtom, Rule

    net.rules["r"] = Rule(
        "r", RepBundle(word="r"),
        (PatternAtom("?x", "t", "?y"),),
        (PatternAtom("?x", "u", "?y"),),
    )
    derive_fixpoint(net)
    doc = export_state(state)
    broken = "\n".join(
        l for l in doc.split("\n") if not l.startswith("LINK\tk1\t")
    )
    with pytest.raises(DanglingReference) as err:
        import_state(broken)
    assert err.value.ref == "k1"


def test_derived_link_rule_must_resolve():
    state = minimal_state()
    net = state.network
    net.add_link_type(RepBundle(word="u"), type_id="u")
    from ksengine.rules import PatternAtom, Rule

    net.rules["r"] = Rule(
        "r", RepBundle(word="r"),
        (PatternAtom("?x", "t", "?y"),),
        (PatternAtom("?x", "u", "?y"),),
    )
    derive_fixpoint(net)
    doc = export_state(state)
    broken = swap(doc, "\tD\tr\t", "\tD\tvanished\t")
    with pytest.raises(DanglingReference):
        import_state(broken)


def flip_state():
    """a -t-> b asserted as k1, and its reverse derived by a flip rule."""
    state = minimal_state()
    from ksengine.rules import PatternAtom, Rule

    state.network.rules["flip"] = Rule(
        "flip", RepBundle(word="flip"),
        (PatternAtom("?x", "t", "?y"),),
        (PatternAtom("?y", "t", "?x"),),
    )
    derive_fixpoint(state.network)
    return state


@pytest.mark.parametrize("old, new, line", [
    # k1 and k000001 cite each other.
    ("LINK\tk1\ta\tt\tb\t1.0\tE\n", "LINK\tk1\ta\tt\tb\t1.0\tD\tflip\t1\tk000001\n", 5),
    # k000001 cites itself.
    ("\tD\tflip\t1\tk1\n", "\tD\tflip\t1\tk000001\n", 5),
])
def test_derived_link_provenance_must_be_well_founded(old, new, line):
    doc = export_state(flip_state())
    assert doc.split("\n")[line - 1].startswith("LINK\tk000001\t")
    with pytest.raises(MalformedRecord) as err:
        import_state(swap(doc, old, new))
    assert err.value.line == line
    assert "k000001" in str(err.value)


def test_premise_cycle_names_the_first_link_on_or_above_it():
    """k0 rests on the k1/k2 cycle without being on it, and comes first in
    the file, so import names its line rather than a line on the cycle."""
    doc = (
        f"{HEADER}\n"
        "LINKTYPE\tt\t0\t0\t\tS\t\tt\t\t0\n"
        "LINKTYPE\tu\t0\t0\t\tS\t\tu\t\t0\n"
        "NODE\ta\t0.0\tS\t\ta\t\t0\t0\n"
        "NODE\tb\t0.0\tS\t\tb\t\t0\t0\n"
        "LINK\tk0\ta\tu\tb\t1.0\tD\tcopy\t1\tk1\n"
        "LINK\tk1\ta\tt\tb\t1.0\tD\tflip\t1\tk2\n"
        "LINK\tk2\tb\tt\ta\t1.0\tD\tflip\t1\tk1\n"
        "RULE\tcopy\tS\t\tcopy\t\t0\t1\t?x\tt\t?y\t1\t?x\tu\t?y\n"
        "RULE\tflip\tS\t\tflip\t\t0\t1\t?x\tt\t?y\t1\t?y\tt\t?x\n"
    )
    with pytest.raises(MalformedRecord) as err:
        import_state(doc)
    assert err.value.line == 6
    assert "provenance of link 'k0' rests on a premise cycle" in str(err.value)


@pytest.mark.parametrize("old, new", [
    # (b t b) is not what flip makes of k1 = (a t b).
    ("LINK\tk000001\tb\tt\ta\t", "LINK\tk000001\tb\tt\tb\t"),
    # flip has one body atom, so it cannot cite two premises.
    ("\tD\tflip\t1\tk1\n", "\tD\tflip\t2\tk1\tk1\n"),
], ids=["wrong-triple", "extra-premise"])
def test_derived_step_must_hold(old, new):
    doc = export_state(flip_state())
    assert doc.split("\n")[4].startswith("LINK\tk000001\t")
    with pytest.raises(MalformedRecord) as err:
        import_state(swap(doc, old, new))
    assert err.value.line == 5
    assert "do not satisfy the body of rule 'flip'" in str(err.value)


def numbers_state():
    """flip_state plus a concept relation and an anomaly rule, so that each
    number import checks appears once: a rank, an explicit and a derived link
    weight, a relation weight and a threshold."""
    from ksengine.rules import PatternAtom
    from ksengine.state import AnomalyRule

    state = flip_state()
    state.concepts.add_concept("x", concept_id="x")
    state.concepts.add_concept("y", concept_id="y")
    state.concepts.add_relation("x", "near", "y", 2.5)
    state.anomaly_rules["w1"] = AnomalyRule(
        "w1", (PatternAtom("?x", "t", "?y"),), "count", "ge", 3.0, "{count} hits")
    return state


_NUMBER_FIELDS = {
    # field: (text before the value, text after it, the record's line)
    "rank": ("NODE\ta\t", "\tS", 3),
    "weight": ("LINK\tk1\ta\tt\tb\t", "\tE", 6),
    "derived weight": ("LINK\tk000001\tb\tt\ta\t", "\tD", 5),
    "relation weight": ("\tnear\ty\t", "\t0", 8),
    "threshold": ("\tge\t", "\t{count}", 10),
}


def set_number(doc: str, field: str, value: str) -> str:
    before, after, _line = _NUMBER_FIELDS[field]
    old = re.search(re.escape(before) + r"[^\t]*" + re.escape(after), doc).group(0)
    return swap(doc, old, before + value + after)


@pytest.mark.parametrize("field, value", [
    ("rank", "nan"), ("rank", "inf"), ("rank", "-inf"), ("rank", "1e400"),
    ("weight", "-1.0"), ("weight", "inf"), ("weight", "nan"), ("weight", "1e400"),
    ("derived weight", "-5.0"), ("derived weight", "inf"), ("derived weight", "nan"),
    ("relation weight", "nan"), ("relation weight", "inf"), ("relation weight", "-inf"),
    ("threshold", "nan"), ("threshold", "inf"), ("threshold", "-1e400"),
])
def test_bad_numbers_are_rejected_at_their_line(field, value):
    with pytest.raises(MalformedRecord) as err:
        import_state(set_number(export_state(numbers_state()), field, value))
    assert err.value.line == _NUMBER_FIELDS[field][2]
    assert value in str(err.value)


@pytest.mark.parametrize("record", [
    "NODE\ta\t0.0\tR\tnan\ta\t\t0\t0",
    "NODE\ta\t0.0\tS\t\ta\t\t0\t1\tmass\tR\t-inf",
    "LINKTYPE\tt\t0\t0\t\tR\t1e400\tt\t\t0",
    "CONCEPT\tc\tc\t0\t\t1\tmass\tR\tinf\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0",
], ids=["machine-value", "node-attribute", "overflow", "concept-attribute"])
def test_non_finite_tagged_reals_are_rejected_at_their_line(record):
    value = record.split("\tR\t")[1].split("\t")[0]
    with pytest.raises(MalformedRecord) as err:
        import_state(f"{HEADER}\n# a comment\n{record}\n")
    assert err.value.line == 3
    assert repr(value) in err.value.reason


def test_numbers_at_their_bounds_import():
    doc = export_state(numbers_state())
    for field, value in (("weight", "0.0"), ("derived weight", "0.0"),
                         ("rank", "-0.5"), ("relation weight", "-2.0"),
                         ("threshold", "-3.0"), ("weight", "1.7976931348623157e+308")):
        state = import_state(set_number(doc, field, value))
        assert export_state(import_state(export_state(state))) == export_state(state)


_AB = ("LINKTYPE\tt\t1\t0\t\tS\t\tt\t\t0\nNODE\ta\t0.0\tS\t\ta\t\t0\t0\n"
       "NODE\tb\t0.0\tS\t\tb\t\t0\t0\n")  # a transitive type t and nodes a, b


@pytest.mark.parametrize("records, error, line", [
    ("CAT\tn1\t\tn2\tx\nCAT\tn2\t\tn1\ty\n", MalformedTree, 2),
    ("DIM\td1\taxis\nCAT\tc1\td1\tc2\tx\nCAT\tc2\td1\tc1\ty\n", MalformedTree, 3),
    ("DIM\td1\taxis\nCAT\tc1\td1\t\tr\nCAT\tc2\td1\t\tq\n", MultipleRoots, 4),
    ("DIM\td1\taxis\nCAT\tc1\td1\t\tr\nCAT\tc2\td1\tc9\tx\n", DanglingReference, 4),
    # c2 and c3 are each other's parent, out of the root's reach.
    ("CAT\tc1\t\t\tr\nCAT\tc3\t\tc2\tx\nCAT\tc2\t\tc3\ty\n", MalformedTree, 4),
    ("NODE\ta\t0.0\tS\t\ta\t\t1\tnowhere\t0\n", DanglingReference, 2),
    ("LINKTYPE\tt\t0\t0\t\tS\t\tt\t\t1\tnowhere\n", DanglingReference, 2),
    (_AB + "LINK\tk1\ta\tt\tb\t1.0\tE\nLINK\tk2\ta\tt\tb\t1.0\tE\n",
     DuplicateExplicitLink, 6),
    (_AB + "LINK\tk1\ta\tt\tb\t1.0\tE\nLINK\tk2\ta\tt\tb\t1.0\tD\t"
     "sys.transitive.t\t2\tk1\tk1\n", DuplicateId, 6),
    (_AB + "LINK\tk2\ta\tt\tb\t1.0\tD\tsys.transitive.t\t2\tk1\tk1\n"
     "LINK\tk1\ta\tt\tb\t1.0\tE\n", DuplicateId, 6),
    ("LINKTYPE\ta\t0\t0\tb\tS\t\ta\t\t0\nLINKTYPE\tb\t0\t0\ta\tS\t\tb\t\t0\n",
     CyclicHierarchy, 3),
    ("CONCEPT\tc1\tc1\t0\t\t0\t1\tc2" + "\t0" * 10 + "\n"
     "CONCEPT\tc2\tc2\t0\t\t0\t1\tc1" + "\t0" * 10 + "\n", CyclicHierarchy, 3),
    # Faults the mutators find while import stores each record.
    ("LINKTYPE\tt\t0\t0\tghost\tS\t\tt\t\t0\n", DanglingReference, 2),
    (_AB + "LINK\tk1\tghost\tt\tb\t1.0\tE\n", DanglingReference, 5),
    (_AB + "LINK\tk1\ta\tt\tghost\t1.0\tD\tsys.transitive.t\t0\n", DanglingReference, 5),
    (_AB + "LINK\tk1\ta\tghost\tb\t1.0\tE\n", DanglingReference, 5),
    (_AB + "LINK\tk1\ta\tt\tb\t1.0\tD\tnope\t0\n", DanglingReference, 5),
    ("DIM\td1\taxis\nDIM\td2\taxis\nCAT\tc1\td1\t\tr\nCAT\tc2\td2\t\tq\n",
     DimensionNameClash, 3),
    ("DIM\td1\taxis\nCAT\tc1\td1\t\tr\nPLACE\tr1\t1\td9\tc1\n", DanglingReference, 4),
    ("DIM\td1\taxis\nCAT\tc1\td1\t\tr\nPLACE\tr1\t1\td1\tc9\n", DanglingReference, 4),
    ("DIM\td1\taxis\nCAT\tc1\td1\t\tr\nPLACE\tr1\t0\n", MalformedRecord, 4),
    ("CONCEPT\tc1\tc1\t0\t\t0\t1\tc9" + "\t0" * 10 + "\n", DanglingReference, 2),
    ("LEXEME\tw\t0\n", MalformedRecord, 2),
], ids=["net-rootless", "dim-rootless", "second-root", "absent-parent", "stray-cycle",
        "node-anchor", "linktype-anchor", "explicit-repeat", "derived-repeat",
        "explicit-after-derived", "linktype-cycle", "concept-cycle", "linktype-parent",
        "link-source", "link-target", "link-type", "link-rule", "dimension-name",
        "place-dimension", "place-category", "place-uncovered", "concept-class",
        "empty-lexeme"])
def test_tree_and_anchor_faults_name_their_line(records, error, line):
    with pytest.raises(error) as err:
        import_state(HEADER + "\n" + records)
    assert re.search(rf"\bline {line}: ", str(err.value))


_FLIP = "RULE\tflip\tS\t\tflip\t\t0\t1\t?x\tt\t?y\t1\t?y\tt\t?x\n"
_EMPTY = "\t0" * 10  # a concept's compartments after its classes, all empty


def _dangling(ref, line, what):
    return f"unresolved reference {ref!r} (line {line}: {what})"


@pytest.mark.parametrize("records, error, message, ref", [
    (_AB + "LINK\tk1\tghost\tt\tb\t1.0\tE\n", DanglingReference,
     _dangling("ghost", 5, "node 'ghost' not found"), "ghost"),
    (_AB + "LINK\tk1\ta\tghost\tb\t1.0\tE\n", DanglingReference,
     _dangling("ghost", 5, "link type 'ghost' not found"), "ghost"),
    (_AB + "LINK\tk1\ta\tt\tb\t1.0\tD\tghost\t0\n", DanglingReference,
     _dangling("ghost", 5, "rule 'ghost' not found"), "ghost"),
    (_AB + "LINK\tk1\ta\tt\tb\t1.0\tD\tsys.transitive.t\t1\tghost\n", DanglingReference,
     _dangling("ghost", 5, "link 'ghost' not found"), "ghost"),
    (_AB + _FLIP + "LINK\tk1\ta\tt\tb\t1.0\tD\tflip\t1\tk2\n"
     "LINK\tk2\tb\tt\ta\t1.0\tD\tflip\t1\tk1\n", MalformedRecord,
     "line 6: provenance of link 'k1' rests on a premise cycle", None),
    (_AB + _FLIP + "LINK\tk1\ta\tt\tb\t1.0\tE\nLINK\tk2\tb\tt\tb\t1.0\tD\tflip\t1\tk1\n",
     MalformedRecord,
     "line 7: link 'k2': premises ('k1',) do not satisfy the body of rule 'flip'", None),
    ("LINKTYPE\tt\t0\t0\tghost\tS\t\tt\t\t0\n", DanglingReference,
     _dangling("ghost", 2, "parent link type 'ghost' not found"), "ghost"),
    ("CONCEPT\tc1\tc1\t0\t\t0\t1\tghost" + _EMPTY + "\n", DanglingReference,
     _dangling("ghost", 2, "concept 'ghost' not found"), "ghost"),
    ("CONCEPT\tc1\tc1\t0\t\t0\t0\t0\t1\tnear\tghost\t1.0" + "\t0" * 8 + "\n",
     DanglingReference, _dangling("ghost", 2, "concept 'ghost' not found"), "ghost"),
    ("CONCEPT\tc1\tc1\t0\t\t0\t0" + _EMPTY + "\nLEXEME\tw\t2\tc1\tghost\n",
     DanglingReference, _dangling("ghost", 3, "concept 'ghost' not found"), "ghost"),
    ("DIM\td1\taxis\nCAT\tc1\td1\t\tr\nCAT\tc2\tghost\t\tq\n", DanglingReference,
     _dangling("ghost", 4, "dimension 'ghost' not found"), "ghost"),
    ("DIM\td1\taxis\n", MalformedRecord, "line 2: dimension 'd1' has no categories", None),
    ("DIM\td1\taxis\nCAT\tc1\td1\t\tr\nPLACE\tr1\t2\td1\tc1\td1\tc1\n", MalformedRecord,
     "line 4: dimension 'd1' repeated", None),
    ("NODE\ta\t0.0\tS\t\ta\t\t1\tghost\t0\n", DanglingReference,
     _dangling("ghost", 2, "category or concept 'ghost' not found"), "ghost"),
    ("LINKTYPE\tt\t0\t0\t\tS\t\tt\t\t1\tghost\n", DanglingReference,
     _dangling("ghost", 2, "category or concept 'ghost' not found"), "ghost"),
    ("LINKTYPE\tt\t0\t0\t\tS\t\tt\t\t0\n"
     "RULE\tflip\tS\t\tflip\t\t1\tghost\t1\t?x\tt\t?y\t1\t?y\tt\t?x\n", DanglingReference,
     _dangling("ghost", 3, "category or concept 'ghost' not found"), "ghost"),
], ids=["link-end", "link-type", "link-rule", "premise", "premise-cycle", "step-replay",
        "parent-type", "class-parent", "relation-target", "lexeme-candidate",
        "category-owner", "dimension-without-categories", "repeated-coordinate",
        "node-anchor", "linktype-anchor", "rule-anchor"])
def test_each_build_fault_pins_its_class_message_and_ref(records, error, message, ref):
    """Every fault import's build steps meet: its class, its whole message
    with the record's line, and the id a DanglingReference missed."""
    with pytest.raises(error) as err:
        import_state(HEADER + "\n" + records)
    assert type(err.value) is error
    assert str(err.value) == message
    assert getattr(err.value, "ref", None) == ref


def test_malformed_records():
    base = HEADER + "\n"
    with pytest.raises(MalformedRecord):
        import_state(base + "NODE\tonlyid\n")
    # Each line is checked in full before the next: the earlier fault is named.
    with pytest.raises(MalformedRecord, match="^line 2: missing field: rank$"):
        import_state(base + "NODE\tonlyid\nBOGUS\tx\n")
    with pytest.raises(MalformedRecord):
        import_state(base + "NODE\ta\tnotafloat\tS\t\ta\t\t0\t0\n")
    with pytest.raises(MalformedRecord):
        import_state(base + "LINKTYPE\tt\t2\t0\t\tS\t\tt\t\t0\n")
    with pytest.raises(MalformedRecord):
        import_state(base + "DIM\td1\tname\textra\n")


@pytest.mark.parametrize("parse, records, reason", [
    (import_state, "NODE\ta\t0.0\tS\t\ta\t\t0\t2\tx\tI\t1\tx\tI\t2\n",
     "attribute 'x' repeated"),
    (import_state, "DIM\td1\taxis\nCAT\tc1\td1\t\troot\nPLACE\tr1\t2\td1\tc1\td1\tc1\n",
     "dimension 'd1' repeated"),
    (parse_candidates, "LINK\tk1\ta\tt\tb\t1.0\tE\nLINK\tk2\ta\tt\tb\t1.0\tD\tr\t1\tk1\n",
     "candidate links must be explicit"),
    # An escaped newline unescapes to an id ending in one, which is no id.
    (import_state, "NODE\ta\\n\t0.0\tS\t\ta\t\t0\t0\n", "node id 'a\\n' is not a valid id"),
], ids=["node-attribute-repeat", "place-dimension-repeat", "derived-candidate",
        "id-trailing-newline"])
def test_record_faults_name_their_line(parse, records, reason):
    with pytest.raises(MalformedRecord) as err:
        parse(HEADER + "\n" + records)
    assert err.value.reason == reason
    assert str(err.value).startswith(f"line {records.count(chr(10)) + 1}: ")


def test_category_owner_must_exist():
    doc = HEADER + "\nCAT\tc1\td9\t\tname\n"
    with pytest.raises(DanglingReference):
        import_state(doc)


def test_dimension_needs_categories():
    doc = HEADER + "\nDIM\td1\taxis\n"
    with pytest.raises(MalformedRecord) as err:
        import_state(doc)
    assert "no categories" in err.value.reason


def test_place_checks_references():
    good = (
        HEADER + "\n"
        "DIM\td1\taxis\n"
        "CAT\tc1\td1\t\troot\n"
    )
    with pytest.raises(DanglingReference):
        import_state(good + "PLACE\tr1\t1\td9\tc1\n")
    with pytest.raises(DanglingReference):
        import_state(good + "PLACE\tr1\t1\td1\tc9\n")
    with pytest.raises(DuplicateId):
        import_state(good + "PLACE\tr1\t1\td1\tc1\nPLACE\tr1\t1\td1\tc1\n")
    with pytest.raises(MalformedRecord):
        import_state(good + "PLACE\tr1\t0\n")  # missing the d1 coordinate


def test_lexeme_candidates_must_exist():
    doc = HEADER + "\nLEXEME\tword\t1\tc999\n"
    with pytest.raises(DanglingReference):
        import_state(doc)


def test_problem_kind_and_evidence_rules():
    base = HEADER + "\n"
    with pytest.raises(MalformedRecord):
        import_state(base + "PROBLEM\tp1\tmystery\ts\t\t0\t0\n")
    with pytest.raises(MalformedRecord) as err:
        import_state(base + "PROBLEM\tp1\tanomaly\ts\t\t0\t0\n")
    assert "evidence" in err.value.reason
    state = import_state(base + "PROBLEM\tp1\tanomaly\ts\t\t1\te1\t0\n")
    assert state.problems["p1"].evidence == ("e1",)


def test_anchor_must_resolve_to_category_or_concept():
    doc = export_state(minimal_state())
    broken = swap(doc, "NODE\ta\t0.0\tS\t\ta\t\t0\t0",
                  "NODE\ta\t0.0\tS\t\ta\t\t1\tnowhere\t0")
    with pytest.raises(DanglingReference) as err:
        import_state(broken)
    assert err.value.ref == "nowhere"


def test_anchor_may_point_at_concept():
    state = minimal_state()
    state.concepts.add_concept("idea", concept_id="idea")
    node = state.network.nodes["a"]
    node.rep = RepBundle(word="a", rep_k=("idea",))
    doc = export_state(state)
    rebuilt = import_state(doc)
    assert rebuilt.network.nodes["a"].rep.rep_k == ("idea",)


# A valid line of each record kind, field by field, as (text, name, a bad
# value, what the field must be). A text field takes any value, so it has no
# bad one; a tag's bad value is named as a bad tag.
_TAG = "tag"


def _id_field(text, name):
    return (text, name, "not an id", "a valid id")


def _text_field(text, name):
    return (text, name, None, None)


def _count_field(name, count=1):
    return (str(count), f"{name} count", "-1", "a count (an integer >= 0)")


def _tag_field(text, name):
    return (text, f"{name} tag", "X", _TAG)


def _texts_field(name):
    return [_count_field(name), _text_field("x", name)]


_REP_FIELDS = [_tag_field("S", "machine value"), _text_field("x", "machine value"),
               _text_field("w", "word"), _text_field("", "sentence"),
               _count_field("anchor"), _id_field("g1", "anchor")]
_ATTRIBUTE_FIELDS = [_count_field("attribute"), _text_field("size", "attribute label"),
                     _tag_field("I", "attribute"), ("3", "attribute", "x", "an integer")]
_ATOM_FIELDS = [_text_field("?a", "source"), _text_field("t", "type"),
                _text_field("?b", "target")]
_LINK_FIELDS = [_id_field("k1", "link id"), _id_field("a", "source"),
                _id_field("t", "link type"), _id_field("b", "target"),
                ("1.0", "weight", "-1", "a finite number >= 0")]
CODEC_LINES = {
    "LINKTYPE": [_id_field("t", "link-type id"), ("0", "transitive flag", "2", "1 or 0"),
                 ("0", "symmetric flag", "2", "1 or 0"),
                 ("", "parent", "not an id", "a valid id or empty"), *_REP_FIELDS],
    "NODE": [_id_field("a", "node id"), ("0.5", "rank", "x", "a finite number"),
             *_REP_FIELDS, *_ATTRIBUTE_FIELDS],
    "LINK": [*_LINK_FIELDS, _tag_field("E", "provenance")],
    "LINK derived": [*_LINK_FIELDS, _tag_field("D", "provenance"), _id_field("r", "rule id"),
                     _count_field("premise"), _id_field("k0", "premise")],
    "RULE": [_id_field("r", "rule id"), *_REP_FIELDS, _count_field("body atom"),
             *_ATOM_FIELDS, _count_field("head atom"), *_ATOM_FIELDS],
    "DIM": [_id_field("d", "dimension id"), ("axis", "dimension name", "", "non-empty text")],
    "CAT": [_id_field("g1", "category id"),
            ("", "owner dimension", "not an id", "a valid id or empty"),
            ("", "parent", "not an id", "a valid id or empty"), _text_field("top", "name")],
    "PLACE": [_id_field("res", "resource id"), _count_field("coordinate"),
              _id_field("d", "dimension"), _id_field("g1", "category")],
    "CONCEPT": [_id_field("c", "concept id"), _text_field("idea", "concept name"),
                ("0", "priori flag", "2", "1 or 0"), _text_field("", "relation label"),
                *_ATTRIBUTE_FIELDS, _count_field("class"), _id_field("c2", "class"),
                *_texts_field("instance"), _count_field("relation"),
                ("near", "relation label", "", "non-empty text"),
                _id_field("c2", "relation target"),
                ("0.5", "relation weight", "x", "a finite number"),
                *_texts_field("interface"), _count_field("process"),
                *_texts_field("process step"), *_texts_field("use case"),
                *_texts_field("object"), *_texts_field("event"), *_texts_field("rule entry"),
                *_texts_field("media entry"), *_texts_field("language entry")],
    "LEXEME": [("bank", "word", "", "non-empty text"), _count_field("candidate"),
               _id_field("c", "candidate")],
    "PROBLEM": [_id_field("p", "problem id"), _text_field("anomaly", "problem kind"),
                _text_field("odd", "statement"),
                ("", "category", "not an id", "a valid id or empty"),
                *_texts_field("evidence"), *_texts_field("concept")],
    "ANOMALYRULE": [_id_field("w", "anomaly rule id"), _text_field("freq", "metric"),
                    _text_field("lt", "comparison op"),
                    ("0.5", "threshold", "x", "a finite number"),
                    _text_field("{count}", "template"), _count_field("condition atom"),
                    *_ATOM_FIELDS],
}


@pytest.mark.parametrize("line_name, position", [
    (line_name, position) for line_name, fields in CODEC_LINES.items()
    for position in range(len(fields))
])
def test_each_codec_fault_names_its_field(line_name, position):
    fields = CODEC_LINES[line_name]
    kind = line_name.split()[0]
    texts = [text for text, _name, _bad, _expected in fields]
    _read(f"{HEADER}\n{kind}\t" + "\t".join(texts), KIND_ORDER, "a state")
    _text, name, bad, expected = fields[position]
    with pytest.raises(MalformedRecord) as err:
        _read(f"{HEADER}\n" + "\t".join([kind, *texts[:position]]), KIND_ORDER, "a state")
    assert str(err.value) == f"line 2: missing field: {name}"
    if bad is None:
        return
    texts[position] = bad
    with pytest.raises(MalformedRecord) as err:
        _read(f"{HEADER}\n" + "\t".join([kind, *texts]), KIND_ORDER, "a state")
    reason = f"bad {name} {bad!r}" if expected is _TAG else f"{name} {bad!r} is not {expected}"
    assert str(err.value) == f"line 2: {reason}"


def test_codec_lines_cover_every_record_kind():
    assert {name.split()[0] for name in CODEC_LINES} == set(KIND_ORDER)


# ----- fragment parsers -----

def test_fragment_to_increment_parses_network_records():
    doc = (
        HEADER + "\n"
        "LINKTYPE\tt\t0\t0\t\tS\t\tt\t\t0\n"
        "NODE\ta\t0.0\tS\t\ta\t\t0\t0\n"
        "NODE\tb\t0.0\tS\t\tb\t\t0\t0\n"
        "LINK\tk1\ta\tt\tb\t1.0\tE\n"
        "RULE\tr1\tS\t\tr1\t\t0\t1\t?x\tt\t?y\t1\t?y\tt\t?x\n"
    )
    fragment = fragment_to_increment(doc)
    assert [lt.id for lt in fragment.link_types] == ["t"]
    assert [n.id for n in fragment.nodes] == ["a", "b"]
    assert [l.id for l in fragment.links] == ["k1"]
    assert [r.id for r in fragment.rules] == ["r1"]


def test_fragment_to_increment_rejects_foreign_kinds():
    doc = HEADER + "\nDIM\td1\taxis\n"
    with pytest.raises(MalformedRecord):
        fragment_to_increment(doc)


def test_fragment_to_increment_rejects_derived_links():
    doc = HEADER + "\nLINK\tk1\ta\tt\tb\t1.0\tD\tr\t0\n"
    with pytest.raises(MalformedRecord) as err:
        fragment_to_increment(doc)
    assert "explicit" in err.value.reason


def test_parse_candidates_in_file_order():
    doc = (
        HEADER + "\n"
        "LINK\tk1\ta\tt\tb\t1.0\tE\n"
        "RULE\tr1\tS\t\tr1\t\t0\t1\t?x\tt\t?y\t1\t?y\tt\t?x\n"
        "LINK\tk2\tb\tt\ta\t0.5\tE\n"
    )
    candidates = parse_candidates(doc)
    assert [c.kind for c in candidates] == ["link", "rule", "link"]
    assert candidates[0].payload.source == "a"
    assert candidates[2].payload.weight == 0.5
    with pytest.raises(MalformedRecord, match="^line 2: NODE not allowed in a candidate file$"):
        parse_candidates(HEADER + "\nNODE\ta\t0.0\tS\t\ta\t\t0\t0\n")
    with pytest.raises(DuplicateId, match="^line 5: link 'k1' defined twice$"):
        parse_candidates(doc + "LINK\tk1\tb\tt\ta\t1.0\tE\n")


def test_parse_anomaly_rules_round_trip():
    state = new_state()
    net = state.network
    net.add_node(RepBundle(word="a"), node_id="a")
    net.add_link_type(RepBundle(word="t"), type_id="t")
    from ksengine.discovery import AnomalyRule
    from ksengine.rules import PatternAtom

    rule = AnomalyRule("w1", (PatternAtom("?x", "t", "?y"),),
                       "count", "ge", 2.0, "{count} hits")
    state.anomaly_rules[rule.id] = rule
    doc = export_state(state)
    rule_lines = [l for l in doc.split("\n") if l.startswith("ANOMALYRULE\t")]
    fragment = HEADER + "\n" + "\n".join(rule_lines) + "\n"
    parsed = parse_anomaly_rules(fragment)
    assert parsed["w1"] == rule
    with pytest.raises(MalformedRecord):
        parse_anomaly_rules(HEADER + "\nDIM\td\tx\n")
    with pytest.raises(DuplicateId):
        parse_anomaly_rules(fragment + rule_lines[0] + "\n")


def concept_record(concept_id: str, name: str) -> str:
    scratch = new_state()
    scratch.concepts.add_concept(name, concept_id=concept_id)
    doc = export_state(scratch)
    return next(l for l in doc.split("\n") if l.startswith("CONCEPT\t"))


def test_merge_lexicon_fragment_adds_and_validates():
    state = new_state()
    state.concepts.add_concept("old", concept_id="old")
    fragment = (
        HEADER + "\n"
        + concept_record("fresh", "new idea") + "\n"
        + "LEXEME\tidea\t2\tfresh\told\n"
    )
    added = merge_lexicon_fragment(state, fragment)
    assert added == (1, 1)
    assert "fresh" in state.concepts
    assert state.lexicon.candidates("idea") == ["fresh", "old"]
    with pytest.raises(MalformedRecord):
        merge_lexicon_fragment(state, HEADER + "\nDIM\td\tx\n")
    with pytest.raises(DanglingReference):
        merge_lexicon_fragment(state, HEADER + "\nLEXEME\tword\t1\tghost\n")
    with pytest.raises(DuplicateId):
        merge_lexicon_fragment(
            state, HEADER + "\n" + concept_record("old", "again") + "\n"
        )


def test_space_fragment_round_trip():
    rng = random.Random(7)
    for _ in range(8):
        space = random_space(rng, max_resources=10, torture=True)
        doc = export_space_fragment(space)
        rebuilt = import_state(doc)
        assert export_space_fragment(rebuilt.space) == doc


# ----- mutation fuzzing -----

AWKWARD = ("", "x", "0", "1", "-1", "nan", "inf", "E", "D", "S", "\\q", "\\", "?a")


def mutate(rng: random.Random, doc: str) -> str:
    """One seeded edit: a record line dropped, duplicated or swapped with
    another, or one field replaced, dropped or inserted."""
    lines = doc.split("\n")
    i, j = rng.randrange(1, len(lines) - 1), rng.randrange(1, len(lines) - 1)
    edit = rng.choice(("drop", "copy", "swap", "replace", "cut", "insert"))
    if edit == "drop":
        del lines[i]
    elif edit == "copy":
        lines.insert(j, lines[i])
    elif edit == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    else:
        fields = lines[i].split("\t")
        k = rng.randrange(1, len(fields)) if len(fields) > 1 else 0
        value = rng.choice(AWKWARD + tuple(lines[j].split("\t")))
        if edit == "replace":
            fields[k] = value
        elif edit == "cut":
            del fields[k]
        else:
            fields.insert(k, value)
        lines[i] = "\t".join(fields)
    return "\n".join(lines)


def import_census(seed: int) -> collections.Counter:
    """Outcomes of import_state on 1,000 seeded mutants: 20 of each of 50
    random states. Every refusal but a BadHeader names a line, and every
    mutant that imports re-exports byte for byte."""
    rng = random.Random(seed)
    census = collections.Counter()
    for index in range(50):
        doc = export_state(random_state(rng, torture=index % 2 == 1))
        for _ in range(20):
            try:
                state = import_state(mutate(rng, doc))
            except BadHeader:
                census["BadHeader"] += 1
                continue
            except KsError as exc:
                assert re.search(r"\bline \d+", str(exc)), exc
                census[type(exc).__name__] += 1
                continue
            census["imported"] += 1
            canonical = export_state(state)
            assert export_state(import_state(canonical)) == canonical
    return census


# Outcomes of the 1,000 mutants on seed 4242. A check moved between layers,
# or reordered, that changes how a mutant ends moves a count here.
FUZZ_CENSUS = {"imported": 282, "MalformedRecord": 409, "DuplicateId": 157,
               "DanglingReference": 138, "MalformedTree": 14}


def test_mutated_documents_import_or_raise_an_engine_error():
    assert import_census(4242) == FUZZ_CENSUS


# Each fragment reader, with the kinds it allows, and its outcomes on the
# 1,000 mutants of seed 4242, each cut to those kinds (the header and every
# line of an allowed kind kept). A lexicon fragment merges into a new state.
FRAGMENT_READERS = {
    "fragment_to_increment": (fragment_to_increment, ("LINKTYPE", "NODE", "RULE", "LINK")),
    "parse_candidates": (parse_candidates, ("LINK", "RULE")),
    "parse_anomaly_rules": (parse_anomaly_rules, ("ANOMALYRULE",)),
    "merge_lexicon_fragment": (lambda text: merge_lexicon_fragment(new_state(), text),
                               ("CONCEPT", "LEXEME")),
}
FRAGMENT_CENSUS = {
    "fragment_to_increment": {"ok": 380, "MalformedRecord": 570, "DuplicateId": 50},
    "parse_candidates": {"ok": 413, "MalformedRecord": 559, "DuplicateId": 28},
    "parse_anomaly_rules": {"ok": 989, "MalformedRecord": 9, "DuplicateId": 2},
    "merge_lexicon_fragment": {"ok": 870, "MalformedRecord": 80, "DuplicateId": 26,
                               "DanglingReference": 24},
}


def fragment_census(seed: int) -> dict:
    """Each fragment reader's outcomes on the mutants import_census(seed)
    reads; every refusal names a line."""
    rng = random.Random(seed)
    census = {name: collections.Counter() for name in FRAGMENT_READERS}
    for index in range(50):
        doc = export_state(random_state(rng, torture=index % 2 == 1))
        for _ in range(20):
            header, *lines = mutate(rng, doc).split("\n")
            for name, (read, kinds) in FRAGMENT_READERS.items():
                kept = [line for line in lines if line.split("\t")[0] in kinds]
                try:
                    read("\n".join([header, *kept]))
                except KsError as exc:
                    assert re.search(r"\bline \d+", str(exc)), (name, exc)
                    census[name][type(exc).__name__] += 1
                    continue
                census[name]["ok"] += 1
    return census


def test_mutated_fragments_read_or_raise_an_engine_error_at_a_line():
    assert fragment_census(4242) == FRAGMENT_CENSUS


def _import_outcome(text: str) -> tuple:
    """("ok", the re-export), or the refusal's class and message."""
    try:
        state = import_state(text)
    except KsError as exc:
        return type(exc).__name__, str(exc)
    return "ok", export_state(state)


def test_fast_path_reads_as_the_table_reader_does(monkeypatch):
    """Import with every row's fast path compiled and with none gives the
    same outcome, class, message (and so line) and re-export on seeded
    states and the mutants import_census(4242) reads, and every line export
    writes without a backslash goes by the fast path of its row."""
    rng = random.Random(4242)
    states, docs = [], []
    for index in range(50):
        doc = export_state(random_state(rng, torture=index % 2 == 1))
        states.append(doc)
        docs += [doc] + [mutate(rng, doc) for _ in range(20)]

    def outcomes(bulk: int) -> list:
        monkeypatch.setattr(ksif, "_BULK", bulk)
        for row in ksif._ROWS.values():
            monkeypatch.setattr(row, "fast", None)
        return [_import_outcome(doc) for doc in docs]

    table = outcomes(sys.maxsize)  # no row compiles
    assert not any(row.fast for row in ksif._ROWS.values())
    fast = outcomes(0)  # a row compiles at the first line of its kind
    assert fast == table
    compiled = {kind: row for kind, row in ksif._ROWS.items() if row.fast}
    assert set(compiled) == {kind for kind, row in ksif._ROWS.items() if row.pattern}
    assert {"LINK", "LINKTYPE", "CAT", "LEXEME"} <= set(compiled)
    taken = collections.Counter()
    for doc in states:
        for raw in doc.split("\n")[1:]:
            kind = raw.partition("\t")[0]
            if kind in compiled and "\\" not in raw:
                fullmatch, take = compiled[kind].fast
                take(fullmatch(raw, len(kind) + 1).groups())
                taken[kind] += 1
    assert taken["LINK"] > 100, taken


def test_store_method_faults_keep_their_line_and_class():
    """A fault a store method finds while import stores a record names the
    record's line, as a read fault would, and keeps import's class for it."""
    rule = "ANOMALYRULE\tw1\tmean\tge\t1.0\thits\t1\t?x\tt\t?y"
    for read in (import_state, parse_anomaly_rules):
        with pytest.raises(MalformedRecord, match="^line 3: metric must be count or freq"):
            read(f"{HEADER}\n# a comment\n{rule}\n")
    with pytest.raises(MalformedRecord, match="^line 2: unknown problem kind 'mystery'$"):
        import_state(HEADER + "\nPROBLEM\tp1\tmystery\ts\t\t0\t0\n")
    state = new_state()
    state.concepts.add_concept("old", concept_id="old")
    with pytest.raises(DuplicateId, match="^line 2: concept 'old' already exists$"):
        merge_lexicon_fragment(state, HEADER + "\n" + concept_record("old", "again") + "\n")


def test_cli_import_of_mutated_documents_exits_cleanly(capsys, tmp_path):
    rng = random.Random(17)
    codes = set()
    for index in range(12):
        source = tmp_path / f"mutant{index}.ksif"
        source.write_text(mutate(rng, export_state(random_state(rng))), encoding="utf-8")
        code = main(["import", str(source), "--state", str(tmp_path / "kb.ksif")])
        err = capsys.readouterr().err
        assert code in (0, 2)
        assert "Traceback" not in err
        codes.add(code)
    assert codes == {0, 2}


if __name__ == "__main__":
    # Both mutation loops on more seeds, checking their properties only; the
    # counts are pinned for seed 4242 alone. Run as
    #     PYTHONPATH=src python tests/test_ksif.py 1 2 3
    print("| seed | imported | refused | fragments read | fragments refused |")
    print("|---|---|---|---|---|")
    for arg in sys.argv[1:]:
        outcomes = import_census(int(arg))
        reads = collections.Counter()
        for counts in fragment_census(int(arg)).values():
            reads["read"] += counts.pop("ok", 0)
            reads["refused"] += sum(counts.values())
        imported = outcomes.pop("imported", 0)
        print(f"| {arg} | {imported} | {sum(outcomes.values())} | {reads['read']} "
              f"| {reads['refused']} |")
