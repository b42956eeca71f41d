"""Node, link-type, link, and query behaviour of the semantic network."""

import random

import pytest

from ksengine.concepts import (
    Concept, ConceptServices, ConceptStore, ConceptStructure, enrich_concept,
)
from ksengine.errors import (
    CannotRetractDerived,
    DuplicateExplicitLink,
    DuplicateId,
    InvalidId,
    InvalidProblem,
    InvalidRep,
    InvalidRule,
    MalformedPattern,
    NegativeWeight,
    NonFiniteWeight,
    UnknownCategory,
    UnknownLinkType,
    UnknownNode,
    UnknownRule,
)
from ksengine.ksif import export_state
from ksengine.rules import PatternAtom, Rule, derive_fixpoint
from ksengine.sln import (
    ClassRef,
    FileRef,
    Network,
    QueryPattern,
    RepBundle,
    check_id,
    is_base,
    parse_pattern,
)
from ksengine.space import Space
from ksengine.state import AnomalyRule, EngineState, Problem

import oracles
from generators import engine_fact_set, random_network


def test_rep_bundle_requires_word():
    with pytest.raises(InvalidRep):
        RepBundle(word="")


def test_rep_bundle_rejects_bool_scalar():
    with pytest.raises(InvalidRep):
        RepBundle(word="x", rep_c=True)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
def test_non_finite_reals_are_no_values(value):
    """Machine values and attributes share one scalar check."""
    with pytest.raises(InvalidRep):
        RepBundle(word="x", rep_c=value)
    with pytest.raises(InvalidRep):
        Network().add_node(RepBundle(word="a"), attributes={"mass": value})
    store = ConceptStore()
    concept = store.add_concept("a")
    with pytest.raises(InvalidRep):
        enrich_concept(store, concept.id, [("attribute", ("mass", value))])
    assert concept.structure.attributes == {}


def test_rep_bundle_anchor_order_and_dedup():
    rep = RepBundle(word="x", rep_k=("b", "a", "b", "c", "a"))
    assert rep.rep_k == ("b", "a", "c")


def test_rep_bundle_rejects_bad_anchor():
    with pytest.raises(InvalidId):
        RepBundle(word="x", rep_k=("has space",))


def test_check_id_refuses_a_trailing_newline():
    """`$` would also match before a final newline."""
    with pytest.raises(InvalidId):
        check_id("b\n")


def test_rep_bundle_accepts_refs():
    rep = RepBundle(word="x", rep_c=FileRef("a.txt"))
    assert rep.rep_c == FileRef("a.txt")
    rep = RepBundle(word="x", rep_c=ClassRef("Thing"))
    assert rep.rep_c == ClassRef("Thing")


def test_add_node_duplicate_id():
    net = Network()
    net.add_node(RepBundle(word="a"), node_id="n1")
    with pytest.raises(DuplicateId):
        net.add_node(RepBundle(word="b"), node_id="n1")


def test_add_node_rejects_bad_attribute():
    net = Network()
    with pytest.raises(InvalidRep):
        net.add_node(RepBundle(word="a"), attributes={"flag": True})
    with pytest.raises(InvalidRep):
        net.add_node(RepBundle(word="a"), attributes={"": "x"})


def _stores():
    """A state whose network names its nodes, transitive type and link by
    hand and whose concept store and space each hold one freshly numbered
    entry."""
    net = Network()
    for name in ("a", "b"):
        net.add_node(RepBundle(word=name), node_id=name)
    net.add_link_type(RepBundle(word="t"), transitive=True, type_id="t")
    net.assert_link("a", "t", "b", link_id="ab")
    concepts = ConceptStore()
    concepts.add_concept("one")
    space = Space()
    space.add_dimension("topic")
    return EngineState(network=net, space=space, concepts=concepts)


# Per claim site: its id prefix and noun, and a call claiming a given id
# (a fresh one when None) in a _stores() state. Derive's link ids step over
# taken ones in test_derived_link_ids_follow_fresh_id_around_taken_ids, and
# the link message is checked in test_link_mutators_check_ends_type_and_id.
CLAIMS = [
    ("n", "node", lambda st, i: st.network.add_node(RepBundle(word="x"), None, i)),
    ("t", "link type", lambda st, i: st.network.add_link_type(RepBundle(word="x"), type_id=i)),
    ("c", "concept", lambda st, i: st.concepts.add_concept("x", i).id),
    ("d", "dimension",
     lambda st, i: st.space.add_dimension(f"x{len(st.space.dimensions())}", i).id),
    ("g", "category", lambda st, i: st.space.add_category("d000001", "x", "g000001", i)),
]


def test_fresh_ids_skip_taken():
    """Each store's fresh ids step over one taken by hand, and a taken id is
    refused in the store's own noun."""
    for prefix, noun, claim in CLAIMS:
        state = _stores()
        squatter = claim(_stores(), None)  # the id a fresh claim would take
        assert claim(state, squatter) == squatter
        assert claim(state, None) == f"{prefix}{int(squatter[1:]) + 1:06d}"
        with pytest.raises(DuplicateId, match=f"^{noun} '{squatter}' already exists$"):
            claim(state, squatter)


def _next_ids(state):
    """The ids one fresh claim at each store would take, claiming them."""
    net, space = state.network, state.space
    dim = space.add_dimension("next")
    return [net.add_node(RepBundle(word="next")), net.add_link_type(RepBundle(word="next")),
            net.assert_link("b", "t", "a"), state.concepts.add_concept("next").id,
            dim.id, dim.root, space.add_category(dim.id, "next", dim.root)]


@pytest.mark.parametrize("call, error", [
    (lambda st: st.network.add_node(RepBundle(word="x"), {"flag": True}), InvalidRep),
    (lambda st: st.network.add_node(RepBundle(word="x"), node_id="a"), DuplicateId),
    (lambda st: st.network.add_node(RepBundle(word="x"), node_id="no spaces"), InvalidId),
    (lambda st: st.network.add_node(RepBundle(word="x"), node_id="b\n"), InvalidId),
    (lambda st: st.network.add_link_type(RepBundle(word="x"), parent="ghost"), UnknownLinkType),
    (lambda st: st.network.add_link_type(RepBundle(word="x"), type_id="t"), DuplicateId),
    (lambda st: st.network.add_link_type(RepBundle(word="x"), type_id="no spaces"), InvalidId),
    (lambda st: st.network.assert_link("b", "t", "a", link_id="ab"), DuplicateId),
    (lambda st: st.network.assert_link("b", "t", "a", link_id="no spaces"), InvalidId),
    (lambda st: st.network.add_derived("b", "t", "a", 1.0, "sys.transitive.t", ("ab",), "ab"),
     DuplicateId),
    (lambda st: st.network.add_derived("b", "t", "a", 1.0, "nope", ("ab",)), UnknownRule),
    (lambda st: st.concepts.add_concept("x", "c000001"), DuplicateId),
    (lambda st: st.concepts.add_concept("x", "no spaces"), InvalidId),
    (lambda st: st.space.add_dimension("x", "d000001"), DuplicateId),
    (lambda st: st.space.add_dimension("x", "no spaces"), InvalidId),
    (lambda st: st.space.add_dimension("x", position="x"), TypeError),
    (lambda st: st.space.add_category("d000001", "x", "ghost"), UnknownCategory),
    (lambda st: st.space.add_category("d000001", "x", "g000001", "g000001"), DuplicateId),
    (lambda st: st.space.add_category("d000001", "x", "g000001", "no spaces"), InvalidId),
    (lambda st: st.network.categories.add("no spaces", "x", None), InvalidId),
], ids=["node-attribute", "node-taken", "node-invalid", "node-newline", "type-parent", "type-taken",
        "type-invalid", "link-taken", "link-invalid", "derived-taken", "derived-rule",
        "concept-taken",
        "concept-invalid", "dimension-taken", "dimension-invalid", "dimension-position",
        "category-parent", "category-taken", "category-invalid", "network-category-invalid"])
def test_refused_claims_leave_no_trace(call, error):
    """A mutator that raises changes nothing: the state exports as an
    untouched twin does, and the next fresh ids are the twin's."""
    state, twin = _stores(), _stores()
    with pytest.raises(error):
        call(state)
    assert export_state(state) == export_state(twin)
    assert _next_ids(state) == _next_ids(twin)


_RULE = Rule("r", RepBundle(word="r"), (PatternAtom("?x", "t", "?y"),),
             (PatternAtom("?y", "t", "?x"),))
_HITS = (PatternAtom("?x", "t", "?y"),)


@pytest.mark.parametrize("call, error", [
    (lambda st: st.network.add_link_type(RepBundle(word="x"), transitive="yes"), InvalidRep),
    (lambda st: st.network.add_link_type(RepBundle(word="x"), symmetric=2), InvalidRep),
    (lambda st: st.network.categories.add("g1", 5, None), InvalidRep),
    (lambda st: st.space.add_dimension("x", root_name=5), InvalidRep),
    (lambda st: st.space.add_category("d000001", 5, "g000001"), InvalidRep),
    (lambda st: st.concepts.add_concept(5), InvalidRep),
    (lambda st: st.concepts.add_concept("x", link_type=5), InvalidRep),
    (lambda st: st.concepts.add_concept("x", link_type=""), InvalidRep),
    (lambda st: st.concepts.add_concept("x", priori=2), InvalidRep),
    # A compartment value import would refuse, though ConceptStore.add
    # used to store it.
    (lambda st: st.concepts.add(Concept(None, "x", structure=ConceptStructure(
        attributes={"mass": float("nan")}))), InvalidRep),
    (lambda st: st.concepts.add(Concept(None, "x", rules=["ok", 5])), InvalidRep),
    (lambda st: st.concepts.add(Concept(None, "x", services=ConceptServices(
        processes=[("step", None)]))), InvalidRep),
    (lambda st: st.concepts.add(Concept(None, "x", structure=ConceptStructure(
        relations={("", "x"): 1.0}))), InvalidRep),
    (lambda st: st.concepts.add(Concept(None, "x", structure=ConceptStructure(
        relations={("near", "x"): float("inf")}))), NonFiniteWeight),
    (lambda st: st.concepts.add(Concept(None, "x", structure=ConceptStructure(
        relations={("near", "x"): "1"}))), NonFiniteWeight),
    (lambda st: st.lexicon.add("", "c1"), InvalidRep),
    (lambda st: st.lexicon.set_candidates("w", []), InvalidRep),
    (lambda st: st.network.add_rule(st.network.rules["r"]), InvalidRule),
    (lambda st: st.add_problem(Problem("p1", "relationship", 5)), InvalidRep),
    (lambda st: st.add_problem(Problem("p1", "mystery", "s")), InvalidProblem),
    (lambda st: st.add_problem(Problem("p1", "anomaly", "s")), InvalidProblem),
    (lambda st: st.add_problem(Problem("no spaces", "relationship", "s")), InvalidId),
    (lambda st: st.add_problem(Problem("p1", "relationship", "s", category="")), InvalidId),
    (lambda st: st.add_problem(Problem("p1", "relationship", "s", (5,))), InvalidRep),
    (lambda st: st.add_problem(Problem("p1", "relationship", "s", concepts=(5,))), InvalidRep),
    (lambda st: st.add_anomaly_rule(AnomalyRule("w1", _HITS, "count", "ge", 1.0, 5)),
     InvalidRule),
    (lambda st: st.add_anomaly_rule(AnomalyRule(5, _HITS, "count", "ge", 1.0, "s")),
     InvalidRule),
    (lambda st: st.add_anomaly_rule(AnomalyRule("w1", _HITS, "mean", "ge", 1.0, "s")),
     InvalidRule),
], ids=["type-transitive", "type-symmetric", "network-category-name", "dimension-root-name",
        "category-name", "concept-name", "concept-link-type", "concept-empty-link-type",
        "concept-priori", "concept-attribute-nan", "concept-entry", "concept-process-step",
        "concept-relation-label", "concept-relation-weight", "concept-relation-weight-text",
        "lexicon-empty-word", "lexicon-no-candidates", "rule-taken", "problem-statement",
        "problem-kind", "problem-evidence", "problem-id", "problem-category", "problem-evidence-entry",
        "problem-concept", "anomaly-template", "anomaly-id", "anomaly-metric"])
def test_refused_values_leave_no_trace(call, error):
    """A value export could not write, or a taken rule id, is refused before
    anything is stored, by the mutator or the store method that takes it."""
    state, twin = _stores(), _stores()
    for each in (state, twin):
        each.network.add_rule(_RULE)
    with pytest.raises(error):
        call(state)
    assert export_state(state) == export_state(twin)
    assert _next_ids(state) == _next_ids(twin)


def test_rep_bundle_sentence_must_be_text():
    with pytest.raises(InvalidRep, match="^sentence 3 must be text$"):
        RepBundle("w", rep_h=3)
    assert RepBundle("w", rep_h="").rep_h == ""


def test_store_methods_store_what_they_accept():
    state = EngineState()
    state.network.add_rule(_RULE)
    assert state.network.rules == {"r": _RULE}
    concept = state.concepts.add(Concept(None, "idea"))  # None: a fresh id
    assert concept.id == "c000001" and state.concepts.get("c000001") is concept
    problem = Problem("p1", "anomaly", "odd", ("e1",))
    state.add_problem(problem)
    state.add_problem(problem._replace(statement="odder"))  # replaces p1
    assert state.problems == {"p1": problem._replace(statement="odder")}
    rule = AnomalyRule("w1", _HITS, "count", "ge", 1.0, "{count} hits")
    state.add_anomaly_rule(rule)
    assert state.anomaly_rules == {"w1": rule}


def test_link_type_unknown_parent():
    net = Network()
    with pytest.raises(UnknownLinkType):
        net.add_link_type(RepBundle(word="t"), parent="missing")


def test_assert_link_validates_everything():
    net = Network()
    a = net.add_node(RepBundle(word="a"))
    b = net.add_node(RepBundle(word="b"))
    t = net.add_link_type(RepBundle(word="t"))
    with pytest.raises(UnknownNode):
        net.assert_link("ghost", t, b)
    with pytest.raises(UnknownNode):
        net.assert_link(a, t, "ghost")
    with pytest.raises(UnknownLinkType):
        net.assert_link(a, "ghost", b)
    with pytest.raises(NegativeWeight):
        net.assert_link(a, t, b, weight=-0.5)
    net.assert_link(a, t, b)
    with pytest.raises(DuplicateExplicitLink):
        net.assert_link(a, t, b)


def _network_with_rule_r():
    """An empty network holding a rule r, for add_derived to cite."""
    net = Network()
    net.rules["r"] = Rule("r", RepBundle(word="r"), (PatternAtom("?x", "t", "?y"),),
                          (PatternAtom("?y", "t", "?x"),))
    return net


@pytest.mark.parametrize("mutator", ["assert_link", "add_derived"])
def test_link_mutators_check_ends_type_and_id(mutator):
    """Both insertion mutators make the same checks, and a refused link
    leaves the network as it was."""
    net = _network_with_rule_r()
    a = net.add_node(RepBundle(word="a"))
    b = net.add_node(RepBundle(word="b"))
    t = net.add_link_type(RepBundle(word="t"))
    taken = net.assert_link(b, t, a)

    def insert(source, type_id, target, link_id=None):
        if mutator == "assert_link":
            return net.assert_link(source, type_id, target, 1.0, link_id)
        return net.add_derived(source, type_id, target, 1.0, "r", (taken,), link_id)

    for source, target in (("ghost", b), (a, "ghost")):
        with pytest.raises(UnknownNode, match="'ghost' not found"):
            insert(source, t, target)
    with pytest.raises(UnknownLinkType, match="'ghost' not found"):
        insert(a, "ghost", b)
    with pytest.raises(DuplicateId, match=f"link '{taken}' already exists"):
        insert(a, t, b, link_id=taken)
    with pytest.raises(InvalidId):
        insert(a, t, b, link_id="no spaces")
    assert list(net.links) == [taken]
    assert insert(a, t, b, link_id="k9") == "k9"


def test_add_derived_checks_its_rule_as_get_rule_resolves_it():
    """A derived link must name a stored rule or the closure rule of a
    transitive type; the rule is checked after the ends and the type and
    before the triple, and a refused link leaves nothing behind."""
    net = _network_with_rule_r()
    a, b, c = (net.add_node(RepBundle(word=w), node_id=w) for w in "abc")
    net.add_link_type(RepBundle(word="t"), type_id="t")
    net.add_link_type(RepBundle(word="pre"), transitive=True, type_id="pre")
    ab = net.assert_link(a, "t", b)
    for rule_id in ("nope", "sys.transitive.t", "sys.transitive.ghost", None):
        with pytest.raises(UnknownRule) as err:
            net.add_derived(a, "t", c, 1.0, rule_id, (ab,))
        assert err.value.ref == rule_id
    with pytest.raises(UnknownNode):
        net.add_derived("ghost", "t", c, 1.0, "nope", ())
    with pytest.raises(UnknownRule):  # (a t b) is stored, but the rule is looked at first
        net.add_derived(a, "t", b, 1.0, "nope", ())
    assert list(net.links) == [ab]
    assert net.add_derived(a, "t", c, 1.0, "r", (ab,)) == "k000002"
    bc = net.assert_link(b, "pre", c)
    closure = net.add_derived(a, "pre", c, 1.0, "sys.transitive.pre", (bc,))
    assert net.link(closure).rule_id == "sys.transitive.pre"


@pytest.mark.parametrize("weight", [
    -1.0, float("inf"), float("-inf"), float("nan"), 10 ** 400, True, "1.0",
], ids=["negative", "inf", "-inf", "nan", "huge-int", "bool", "text"])
def test_link_mutators_reject_bad_weights(weight):
    net = _network_with_rule_r()
    a = net.add_node(RepBundle(word="a"))
    b = net.add_node(RepBundle(word="b"))
    t = net.add_link_type(RepBundle(word="t"))
    with pytest.raises(NegativeWeight):
        net.assert_link(a, t, b, weight=weight)
    with pytest.raises(NegativeWeight):
        net.add_derived(a, t, b, weight, "r", ())
    assert net.links == {}
    assert net.links[net.assert_link(a, t, b, weight=0)].weight == 0.0


def test_assert_link_duplicate_through_symmetry():
    net = Network()
    a = net.add_node(RepBundle(word="a"))
    b = net.add_node(RepBundle(word="b"))
    s = net.add_link_type(RepBundle(word="s"), symmetric=True)
    net.assert_link(a, s, b)
    with pytest.raises(DuplicateExplicitLink):
        net.assert_link(b, s, a)


def test_explicit_upgrade_keeps_id():
    net = _network_with_rule_r()
    a = net.add_node(RepBundle(word="a"))
    b = net.add_node(RepBundle(word="b"))
    t = net.add_link_type(RepBundle(word="t"))
    lid = net.add_derived(a, t, b, 0.7, "r", ("x",))
    same = net.assert_link(a, t, b, weight=1.5)
    assert same == lid
    assert net.link(lid).is_explicit
    assert net.link(lid).weight == 1.5


def test_retract_refuses_derived():
    net = _network_with_rule_r()
    a = net.add_node(RepBundle(word="a"))
    b = net.add_node(RepBundle(word="b"))
    t = net.add_link_type(RepBundle(word="t"))
    lid = net.add_derived(a, t, b, 1.0, "r", ())
    with pytest.raises(CannotRetractDerived):
        net.retract_link(lid)


def test_retract_removes_dependents_transitively():
    net = _network_with_rule_r()
    a = net.add_node(RepBundle(word="a"))
    b = net.add_node(RepBundle(word="b"))
    c = net.add_node(RepBundle(word="c"))
    t = net.add_link_type(RepBundle(word="t"))
    base = net.assert_link(a, t, b)
    d1 = net.add_derived(b, t, c, 1.0, "r", (base,))
    d2 = net.add_derived(a, t, c, 1.0, "r", (d1,))
    keeper = net.assert_link(c, t, a)
    net.derive_mark = ("signature", len(net.links))
    removed = net.retract_link(base)
    assert [link.id for link in removed] == [base, d1, d2]
    assert [link.triple() for link in removed] == [(a, t, b), (b, t, c), (a, t, c)]
    assert keeper in net.links
    assert base not in net.links and d1 not in net.links and d2 not in net.links
    assert net.derive_mark is None


def test_links_between_includes_symmetric_reverse():
    net = Network()
    a = net.add_node(RepBundle(word="a"))
    b = net.add_node(RepBundle(word="b"))
    s = net.add_link_type(RepBundle(word="s"), symmetric=True)
    t = net.add_link_type(RepBundle(word="t"))
    sid = net.assert_link(a, s, b)
    tid = net.assert_link(b, t, a)
    forward = {l.id for l in net.links_between(a, b)}
    backward = {l.id for l in net.links_between(b, a)}
    assert sid in forward and sid in backward
    assert tid in backward and tid not in forward
    # Flipped to symmetric, a type may hold both orientations of a pair.
    u = net.add_link_type(RepBundle(word="u"))
    there, back = net.assert_link(a, u, b), net.assert_link(b, u, a)
    net.link_types[u].symmetric = True
    assert [l.id for l in net.links_between(a, b)] == [sid, there, back]


def test_type_facts_symmetric_view():
    net = Network()
    a = net.add_node(RepBundle(word="a"))
    b = net.add_node(RepBundle(word="b"))
    s = net.add_link_type(RepBundle(word="s"), symmetric=True)
    lid = net.assert_link(a, s, b)
    loop = net.assert_link(b, s, b)
    rows = net.type_facts(s)
    assert (a, b, lid) in rows
    assert (b, a, lid) in rows
    assert rows.count((b, b, loop)) == 1
    assert rows == sorted(rows)


def test_has_fact_unknown_type_is_false():
    net = Network()
    assert net.has_fact("x", "nope", "y") is False


def test_query_rejects_unknown_constants():
    net = Network()
    a = net.add_node(RepBundle(word="a"))
    t = net.add_link_type(RepBundle(word="t"))
    with pytest.raises(UnknownNode):
        net.answer_query(QueryPattern("ghost", t, None))
    with pytest.raises(UnknownLinkType):
        net.answer_query(QueryPattern(a, "ghost", None))
    with pytest.raises(UnknownNode):
        net.answer_query(QueryPattern(a, None, "ghost"))


def test_pattern_must_have_one_hole():
    with pytest.raises(MalformedPattern):
        QueryPattern("a", "t", "b")
    with pytest.raises(MalformedPattern):
        QueryPattern(None, None, "b")


def test_parse_pattern_round_trip():
    pat = parse_pattern("( a , t , ? )")
    assert pat == QueryPattern("a", "t", None)
    pat = parse_pattern("(?,t,b)")
    assert pat == QueryPattern(None, "t", "b")
    for bad in ("a, t, ?", "(a, t)", "(a, t, ?, ?)", "(a b, t, ?)", "(a, t*, ?)"):
        with pytest.raises(MalformedPattern):
            parse_pattern(bad)


def test_answer_query_matches_brute_filter():
    rng = random.Random(411)
    for _ in range(40):
        net = random_network(rng, max_rules=0)
        facts = engine_fact_set(net)
        nodes = sorted(net.nodes)
        types = sorted(net.link_types)
        for _ in range(6):
            source = rng.choice(nodes)
            target = rng.choice(nodes)
            tid = rng.choice(types)
            got = net.answer_query(QueryPattern(source, tid, None))
            want = sorted({t for (s, ty, t) in facts if s == source and ty == tid})
            assert got == want
            got = net.answer_query(QueryPattern(None, tid, target))
            want = sorted({s for (s, ty, t) in facts if t == target and ty == tid})
            assert got == want
            got = net.answer_query(QueryPattern(source, None, target))
            want = sorted({ty for (s, ty, t) in facts if s == source and t == target})
            assert got == want


def test_ranks_match_brute_shares():
    rng = random.Random(902)
    for _ in range(30):
        net = random_network(rng, unit_weights=False, max_rules=0)
        ranks = net.recompute_ranks()
        edges = [(l.source, l.target, l.weight) for l in net.links.values()]
        want = oracles.brute_rank(net.nodes, edges)
        assert set(ranks) == set(want)
        for nid in ranks:
            assert ranks[nid] == pytest.approx(want[nid], rel=1e-12)
        assert sum(ranks.values()) == pytest.approx(1.0)
        assert net.nodes[nid].rank == ranks[nid]


def test_ranks_uniform_when_weightless():
    net = Network()
    for i in range(4):
        net.add_node(RepBundle(word=f"n{i}"))
    ranks = net.recompute_ranks()
    assert all(v == pytest.approx(0.25) for v in ranks.values())


def test_index_agrees_with_brute_grouping():
    rng = random.Random(77)
    for _ in range(20):
        net = random_network(rng)
        nodes = sorted(net.nodes)
        types = sorted(net.link_types)
        for _step in range(6):
            action = rng.choice(("assert", "derive", "retract", "upgrade"))
            if action == "assert":
                try:
                    net.assert_link(rng.choice(nodes), rng.choice(types), rng.choice(nodes))
                except DuplicateExplicitLink:
                    pass
            elif action == "derive":
                derive_fixpoint(net)
            elif action == "retract" and net.explicit_links():
                net.retract_link(rng.choice(net.explicit_links()).id)
            elif action == "upgrade" and net.derived_links():
                link = rng.choice(net.derived_links())
                net.assert_link(link.source, link.type, link.target)
            rows = [(l.id, l.source, l.type, l.target) for l in net.links.values()]
            by_source, by_target = oracles.brute_index(rows)
            assert net._by_source == by_source
            assert net._by_target == by_target
            assert set(net._stamp) == set(net.links)


def test_base_rows_are_rows_of_base_links():
    """rows(..., base=True) equals rows(...) filtered to base links after
    every kind of change: in the same order when an end is bound, and as
    the same rows in some order on a full scan. The views are read at each
    step, so later steps test their upkeep. A retraction keeps every view
    already built; an upgrade drops its own type's view and no other."""
    rng = random.Random(4242)
    upgrades = {"dropped": 0, "kept": 0}
    for _ in range(20):
        net = random_network(rng, max_nodes=10, flag_bias=0.5)
        nodes = sorted(net.nodes)
        types = sorted(net.link_types)
        for _step in range(8):
            action = rng.choice(("assert", "derive", "retract", "upgrade"))
            built = dict(net._base)
            if action == "assert":
                for _ in range(3):
                    try:
                        net.assert_link(rng.choice(nodes), rng.choice(types),
                                        rng.choice(nodes))
                    except DuplicateExplicitLink:
                        pass
            elif action == "derive":
                derive_fixpoint(net)
            elif action == "retract" and net.explicit_links():
                net.retract_link(rng.choice(net.explicit_links()).id)
                assert net._base.keys() == built.keys()
                assert all(net._base[tid] is view for tid, view in built.items())
            elif action == "upgrade" and net.derived_links():
                link = rng.choice(net.derived_links())
                net.assert_link(link.source, link.type, link.target)
                assert link.type not in net._base
                assert all(net._base[tid] is view for tid, view in built.items()
                           if tid != link.type)
                upgrades["dropped"] += link.type in built
                upgrades["kept"] += len(built) - (link.type in built)
            top = max(net._stamp.values(), default=0) + 1
            for tid in types:
                for source, target in ((None, None), (rng.choice(nodes), None),
                                       (None, rng.choice(nodes)),
                                       (rng.choice(nodes), rng.choice(nodes))):
                    for before in (None, rng.randrange(top + 1)):
                        want = [row for row in net.rows(tid, source, target, before)
                                if is_base(net.links[row[2]])]
                        got = net.rows(tid, source, target, before, base=True)
                        if source is None and target is None:
                            assert sorted(got) == sorted(want)
                        else:
                            assert got == want
    assert upgrades["dropped"] and upgrades["kept"]


def _indexed_network(rng, size):
    """A seeded network of `size` nodes: a symmetric, a plain and a
    transitive type, self-loops, derived links, and gaps left by retraction."""
    net = Network()
    nodes = [net.add_node(RepBundle(word=f"node {i}"), node_id=f"n{i:03d}")
             for i in range(size)]
    net.add_link_type(RepBundle(word="sym"), symmetric=True, type_id="sym")
    net.add_link_type(RepBundle(word="rel"), type_id="rel")
    net.add_link_type(RepBundle(word="pre"), transitive=True, type_id="pre")
    for _ in range(2 * size):
        source = rng.choice(nodes)
        tid = rng.choice(("sym", "rel", "pre"))
        target = source if rng.random() < 0.1 else rng.choice(nodes)
        if tid == "pre":
            i = nodes.index(source)
            target = nodes[min(i + rng.randint(0, 2), size - 1)]
        try:
            net.assert_link(source, tid, target)
        except DuplicateExplicitLink:
            pass
    derive_fixpoint(net)
    for link in rng.sample(net.explicit_links(), 5):
        net.retract_link(link.id)
    derive_fixpoint(net)
    return net


def _check_rows(net, rng):
    stamped = [(l.id, l.source, l.type, l.target, net._stamp[l.id])
               for l in net.links.values()]
    symmetric = {tid for tid, lt in net.link_types.items() if lt.symmetric}
    top = max(stamp for *_rest, stamp in stamped) + 1
    for tid in sorted(net.link_types):
        ends = sorted({end for l in net.links.values() if l.type == tid
                       for end in (l.source, l.target)})
        picks = [None] + rng.sample(ends, min(6, len(ends))) + rng.sample(sorted(net.nodes), 2)
        for source in picks:
            for target in picks:
                for before in (None, rng.randrange(top + 1), top):
                    got = net.rows(tid, source, target, before)
                    assert sorted(got) == oracles.brute_rows(
                        stamped, symmetric, tid, source, target, before
                    ), (tid, source, target, before)
    for tid in sorted(net.link_types):
        assert net.type_facts(tid) == oracles.brute_rows(
            stamped, symmetric, tid, None, None, None)


def test_rows_match_brute_filter():
    rng = random.Random(5150)
    for size in (55, 70):
        net = _indexed_network(rng, size)
        _check_rows(net, rng)
        # Flipped to symmetric, a type holds both orientations of a pair.
        net.add_link_type(RepBundle(word="flip"), type_id="flip")
        a, b, c = sorted(net.nodes)[:3]
        for source, target in ((a, b), (b, a), (c, c), (b, c)):
            net.assert_link(source, "flip", target)
        net.link_types["flip"].symmetric = True
        assert len(net.rows("flip", a, b)) == 2
        _check_rows(net, rng)


def test_rows_of_unlinked_type_are_empty():
    net = Network()
    a = net.add_node(RepBundle(word="a"))
    t = net.add_link_type(RepBundle(word="t"), symmetric=True)
    assert net.rows(t) == [] and net.rows(t, a, a) == []


def test_readings_follow_symmetry():
    net = Network()
    a = net.add_node(RepBundle(word="a"))
    b = net.add_node(RepBundle(word="b"))
    s = net.add_link_type(RepBundle(word="s"), symmetric=True)
    t = net.add_link_type(RepBundle(word="t"))
    links = net.links
    assert net.readings(links[net.assert_link(a, s, b)]) == [(a, b), (b, a)]
    assert net.readings(links[net.assert_link(b, s, b)]) == [(b, b)]
    assert net.readings(links[net.assert_link(b, t, a)]) == [(b, a)]
    assert net.readings(links[net.assert_link(a, t, a)]) == [(a, a)]
