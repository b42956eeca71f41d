"""Rule validation, fixpoint derivation, explanations, and maintenance."""

import collections
import functools
import hashlib
import math
import random
import sys

import pytest

from ksengine import rules
from ksengine.errors import CannotRetractDerived, DuplicateExplicitLink, InvalidRule, UnknownLink
from ksengine.ksif import export_state, import_state
from ksengine.rules import (
    Explanation,
    PatternAtom,
    PremiseCycle,
    Rule,
    derive_fixpoint,
    explain,
    get_rule,
    premise_walk,
    reconstruct_substitution,
    retract_with_maintenance,
    validate_rule,
    verify_explanation,
)
from ksengine.sln import Network, RepBundle, SemanticLink, fresh_id
from ksengine.state import EngineState

import oracles
from generators import (
    deep_proof_network, engine_fact_set, network_as_tuples, random_network, rule_network,
)


def chain_net():
    """a -t-> b -t-> c plus a rule composing t with itself into u."""
    net = Network()
    a = net.add_node(RepBundle(word="a"), node_id="a")
    b = net.add_node(RepBundle(word="b"), node_id="b")
    c = net.add_node(RepBundle(word="c"), node_id="c")
    t = net.add_link_type(RepBundle(word="t"), type_id="t")
    u = net.add_link_type(RepBundle(word="u"), type_id="u")
    net.assert_link(a, t, b, 0.9)
    net.assert_link(b, t, c, 0.3)
    net.rules["compose"] = Rule(
        "compose",
        RepBundle(word="compose"),
        (PatternAtom("?x", t, "?y"), PatternAtom("?y", t, "?z")),
        (PatternAtom("?x", u, "?z"),),
    )
    return net


def test_validate_rule_bounds():
    rep = RepBundle(word="r")
    atom = PatternAtom("?x", "t", "?y")
    assert validate_rule(Rule("r", rep, (), (atom,)))
    assert validate_rule(Rule("r", rep, (atom,) * 5, (atom,)))
    assert validate_rule(Rule("r", rep, (atom,), ()))
    assert validate_rule(Rule("r", rep, (atom,), (atom,) * 3))
    assert not validate_rule(Rule("r", rep, (atom,), (atom,)))


def test_validate_rule_safety():
    rep = RepBundle(word="r")
    unsafe = Rule(
        "r", rep,
        (PatternAtom("?x", "t", "?y"),),
        (PatternAtom("?x", "t", "?z"),),
    )
    assert any("unsafe" in p for p in validate_rule(unsafe))


def test_validate_rule_head_variables_keep_their_kind():
    rep = RepBundle(word="r")
    swapped = Rule("r", rep, (PatternAtom("?x", "?t", "?y"),), (PatternAtom("?x", "?y", "?t"),))
    assert validate_rule(swapped) == [
        "head variable ?y is at a link-type position, but the body binds it only at other "
        "positions",
        "head variable ?t is at a node position, but the body binds it only at other positions",
    ]
    # Bound at a position of each kind somewhere in the body is enough.
    both = Rule("r", rep, (PatternAtom("?x", "?t", "?y"), PatternAtom("?t", "t", "?y")),
                (PatternAtom("?t", "?t", "?x"),))
    assert validate_rule(both) == []


def test_derive_refuses_a_head_type_bound_at_a_node_before_adding_links():
    """Body (?x ?t ?y), head (?x ?y ?t): the head's link type would be a
    node. derive refuses the rule up front, so the valid rule that sorts
    before it adds nothing and no derive mark is set."""
    net = chain_net()
    net.rules["flipped"] = Rule(
        "flipped", RepBundle(word="flipped"),
        (PatternAtom("?x", "?t", "?y"),),
        (PatternAtom("?x", "?y", "?t"),),
    )
    before = dict(net.links)
    with pytest.raises(InvalidRule, match="'flipped': head variable"):
        derive_fixpoint(net)
    assert net.links == before and net.derive_mark is None


def test_validate_rule_head_constants_must_exist():
    net = Network()
    net.add_node(RepBundle(word="a"), node_id="a")
    net.add_link_type(RepBundle(word="t"), type_id="t")
    rep = RepBundle(word="r")
    ghost_node = Rule(
        "r", rep,
        (PatternAtom("?x", "t", "?y"),),
        (PatternAtom("?x", "t", "ghost"),),
    )
    assert any("unknown node" in p for p in validate_rule(ghost_node, net))
    ghost_type = Rule(
        "r", rep,
        (PatternAtom("?x", "t", "?y"),),
        (PatternAtom("?x", "missing", "?y"),),
    )
    assert any("unknown link type" in p for p in validate_rule(ghost_type, net))
    fine = Rule(
        "r", rep,
        (PatternAtom("?x", "t", "?y"),),
        (PatternAtom("?x", "t", "a"),),
    )
    assert validate_rule(fine, net) == []


def test_derive_rejects_invalid_rule():
    net = Network()
    net.add_link_type(RepBundle(word="t"), type_id="t")
    net.rules["bad"] = Rule(
        "bad", RepBundle(word="bad"),
        (PatternAtom("?x", "t", "?y"),),
        (PatternAtom("?x", "t", "?q"),),
    )
    with pytest.raises(InvalidRule):
        derive_fixpoint(net)


def test_chain_rule_derives_with_min_weight():
    net = chain_net()
    new_links, derivations = derive_fixpoint(net)
    assert len(new_links) == 1
    link = new_links[0]
    assert link.triple() == ("a", "u", "c")
    assert link.weight == pytest.approx(0.3)
    assert not link.is_explicit
    assert len(derivations) == 1
    assert derivations[0].rule_id == "compose"


def test_derive_twice_adds_nothing():
    net = chain_net()
    derive_fixpoint(net)
    before = export_state(EngineState(network=net))
    assert derive_fixpoint(net) == ([], [])
    assert export_state(EngineState(network=net)) == before


def test_rule_matching_sees_symmetric_reverse():
    net = Network()
    a = net.add_node(RepBundle(word="a"), node_id="a")
    b = net.add_node(RepBundle(word="b"), node_id="b")
    s = net.add_link_type(RepBundle(word="s"), symmetric=True, type_id="s")
    u = net.add_link_type(RepBundle(word="u"), type_id="u")
    net.assert_link(a, s, b)
    net.rules["lift"] = Rule(
        "lift", RepBundle(word="lift"),
        (PatternAtom("?x", s, "?y"),),
        (PatternAtom("?x", u, "?y"),),
    )
    derive_fixpoint(net)
    assert net.has_fact(b, u, a)
    assert net.has_fact(a, u, b)


def test_transitive_flag_closes_type():
    net = Network()
    for w in "abcd":
        net.add_node(RepBundle(word=w), node_id=w)
    t = net.add_link_type(RepBundle(word="t"), transitive=True, type_id="t")
    net.assert_link("a", t, "b")
    net.assert_link("b", t, "c")
    net.assert_link("c", t, "d")
    derive_fixpoint(net)
    for s, o in (("a", "c"), ("a", "d"), ("b", "d")):
        assert net.has_fact(s, t, o)
    rule = get_rule(net, "sys.transitive.t")
    assert rule.id == "sys.transitive.t"
    derived = [l for l in net.derived_links() if l.triple() == ("a", "t", "d")]
    assert derived
    tree = explain(net, derived[0].id)
    assert verify_explanation(net, tree)


def test_explanation_tree_replays():
    net = chain_net()
    new_links, _ = derive_fixpoint(net)
    tree = explain(net, new_links[0].id)
    assert tree.kind == "derived"
    assert tree.rule_id == "compose"
    assert tree.substitution == {"?x": "a", "?y": "b", "?z": "c"}
    assert [child.kind for child in tree.children] == ["explicit", "explicit"]
    assert verify_explanation(net, tree)


def test_tampered_explanation_fails():
    net = chain_net()
    new_links, _ = derive_fixpoint(net)
    tree = explain(net, new_links[0].id)
    tree.substitution["?y"] = "c"
    assert not verify_explanation(net, tree)


def _copy(node, **changes):
    """The explanation node with the given fields changed."""
    fields = dict(link_id=node.link_id, triple=node.triple, kind=node.kind,
                  rule_id=node.rule_id, substitution=node.substitution,
                  premises=node.premises, children=node.children)
    fields.update(changes)
    return Explanation(**fields)


def _forge_no_children(net, tree):
    return _copy(tree, children=[])


def _forge_children_from_k3(net, tree):
    k3_proof = explain(net, "k3")
    return _copy(tree, children=[k3_proof, k3_proof])


def _forge_link_id(net, tree):
    return _copy(tree, link_id="nope")


def _forge_explicit_leaf_children(net, tree):
    leaf = _copy(tree.children[0], children=[explain(net, "k3")])
    return _copy(tree, children=[leaf, tree.children[1]])


@pytest.mark.parametrize(
    "forge",
    [_forge_no_children, _forge_children_from_k3, _forge_link_id, _forge_explicit_leaf_children],
    ids=["no-children", "children-from-k3", "unknown-link-id", "explicit-leaf-children"],
)
def test_forged_explanation_fails(forge):
    net = Network()
    for w in "abcd":
        net.add_node(RepBundle(word=w), node_id=w)
    t = net.add_link_type(RepBundle(word="t"), transitive=True, type_id="t")
    net.assert_link("a", t, "b", link_id="k1")
    net.assert_link("b", t, "c", link_id="k2")
    net.assert_link("c", t, "d", link_id="k3")
    derive_fixpoint(net)
    (ac,) = [l for l in net.derived_links() if l.triple() == ("a", "t", "c")]
    tree = explain(net, ac.id)
    assert verify_explanation(net, tree)
    assert not verify_explanation(net, forge(net, tree))


def test_symmetric_premise_reads_its_own_way_first():
    """Both readings of k1 satisfy the body; explain prints the substitution
    that reads it as stored, and verify accepts either."""
    net = Network()
    for w in "abc":
        net.add_node(RepBundle(word=w), node_id=w)
    net.add_link_type(RepBundle(word="s"), symmetric=True, type_id="s")
    net.add_link_type(RepBundle(word="t"), type_id="t")
    net.assert_link("a", "s", "b", link_id="k1")
    _add_rule(net, "both", (("?x", "s", "?y"), ("?y", "s", "?x")), (("c", "t", "c"),))
    (link,) = derive_fixpoint(net)[0]
    assert link.premises == ("k1", "k1")
    tree = explain(net, link.id)
    assert tree.substitution == {"?x": "a", "?y": "b"}
    assert verify_explanation(net, tree)
    tree.substitution = {"?x": "b", "?y": "a"}
    assert verify_explanation(net, tree)


def test_explicit_assert_upgrades_derived():
    net = chain_net()
    new_links, _ = derive_fixpoint(net)
    lid = new_links[0].id
    same = net.assert_link("a", "u", "c", weight=2.0)
    assert same == lid
    assert net.link(lid).is_explicit
    with pytest.raises(DuplicateExplicitLink):
        net.assert_link("a", "u", "c")


def test_retract_with_maintenance_restores_alternate_support():
    net = Network()
    for w in "abc":
        net.add_node(RepBundle(word=w), node_id=w)
    t = net.add_link_type(RepBundle(word="t"), type_id="t")
    u = net.add_link_type(RepBundle(word="u"), type_id="u")
    g = net.add_link_type(RepBundle(word="g"), type_id="g")
    base1 = net.assert_link("a", t, "b")
    base2 = net.assert_link("a", u, "b")
    net.rules["via_t"] = Rule(
        "via_t", RepBundle(word="via t"),
        (PatternAtom("?x", t, "?y"),), (PatternAtom("?x", g, "?y"),),
    )
    net.rules["via_u"] = Rule(
        "via_u", RepBundle(word="via u"),
        (PatternAtom("?x", u, "?y"),), (PatternAtom("?x", g, "?y"),),
    )
    h = net.add_link_type(RepBundle(word="h"), type_id="h")
    _add_rule(net, "lift", (("?x", g, "?y"),), (("?x", h, "?y"),))
    derive_fixpoint(net)
    assert net.has_fact("a", g, "b") and net.has_fact("a", h, "b")
    retract_with_maintenance(net, base1)
    assert not net.has_fact("a", t, "b")
    assert net.has_fact("a", g, "b")
    survivors = [l for l in net.derived_links() if l.triple() == ("a", "g", "b")]
    assert len(survivors) == 1
    assert survivors[0].rule_id == "via_u"
    assert survivors[0].premises == (base2,)
    # a h b cites the over-deleted a g b, so it comes back only by deriving
    # onward from the restored link.
    lifted = [l for l in net.derived_links() if l.triple() == ("a", "h", "b")]
    assert len(lifted) == 1
    assert (lifted[0].rule_id, lifted[0].premises) == ("lift", (survivors[0].id,))


def test_retract_before_any_derive_reaches_the_fixpoint():
    net = _chain(8)
    before = set(net.links)
    middle = next(l.id for l in net.links.values() if l.source == "v03")
    assert retract_with_maintenance(net, middle) == [middle]
    assert set(net.links) - before == {l.id for l in net.derived_links()}
    _check_closure(net)


@pytest.mark.parametrize("derived, error, message", [
    (False, UnknownLink, "not found"), (True, CannotRetractDerived, "is derived"),
], ids=["unknown", "derived"])
def test_refused_retraction_changes_nothing(derived, error, message):
    """An unknown or derived link id is refused before the derive: the links
    added since the last fixpoint stay underived, and the mark is kept."""
    net = _chain(3)
    derive_fixpoint(net)
    link_id = next(l.id for l in net.derived_links()) if derived else "nope"
    net.add_node(RepBundle(word="v3"), node_id="v03")
    net.assert_link("v02", "pre", "v03")
    before, mark = export_state(EngineState(network=net)), net.derive_mark
    with pytest.raises(error, match=f"^link '{link_id}' {message}$"):
        retract_with_maintenance(net, link_id)
    assert export_state(EngineState(network=net)) == before
    assert net.derive_mark == mark


def test_fixpoint_matches_naive_oracle():
    rng = random.Random(1207)
    for _ in range(40):
        net = random_network(rng)
        explicit, rules, symmetric, transitive = network_as_tuples(net)
        derive_fixpoint(net)
        want = oracles.naive_fixpoint(explicit, rules, symmetric, transitive)
        assert engine_fact_set(net) == want


def test_maintenance_matches_from_scratch():
    rng = random.Random(5150)
    for _ in range(25):
        net = random_network(rng)
        derive_fixpoint(net)
        for _ in range(3):
            explicit_ids = [l.id for l in net.explicit_links()]
            if not explicit_ids:
                break
            _retract_and_check(net, rng.choice(explicit_ids))


def test_every_derived_link_explains_and_verifies():
    rng = random.Random(88)
    for _ in range(15):
        net = random_network(rng)
        derive_fixpoint(net)
        for link in net.derived_links():
            assert verify_explanation(net, explain(net, link.id))


# ===== differential tests on larger networks =====

def large_network(rng, size=50):
    """A seeded network of `size` nodes exercising every kind of rule atom.

    Types: a transitive "pre" with short forward hops (so its closure stays
    small), a symmetric "sym", a plain "rel" and a head-only "out". Rules mix
    a type-variable body, constant terms, a self-loop atom, a three-atom join
    and a two-head rule; explicit links include self-loops.
    """
    net = Network()
    nodes = [net.add_node(RepBundle(word=f"node {i}"), node_id=f"n{i:03d}")
             for i in range(size)]
    net.add_link_type(RepBundle(word="pre"), transitive=True, type_id="pre")
    net.add_link_type(RepBundle(word="sym"), symmetric=True, type_id="sym")
    net.add_link_type(RepBundle(word="rel"), type_id="rel")
    net.add_link_type(RepBundle(word="out"), type_id="out")
    for _ in range(size):
        i = rng.randrange(size - 3)
        _try_assert(net, nodes[i], "pre", nodes[i + rng.randint(1, 3)])
    for tid, count in (("sym", size // 3), ("rel", size // 3)):
        for _ in range(count):
            a = rng.choice(nodes)
            _try_assert(net, a, tid, a if rng.random() < 0.1 else rng.choice(nodes))
    c1, c2 = rng.sample(nodes, 2)
    templates = [
        ((("?a", "?t", "?b"), ("?b", "?t", "?a")), (("?a", "out", "?b"),)),
        (((c1, "pre", "?x"), ("?x", "sym", "?y")), ((c1, "out", "?y"),)),
        ((("?x", "rel", "?x"), ("?x", "sym", "?y")), (("?y", "out", "?y"),)),
        ((("?a", "sym", "?b"), ("?b", "sym", "?c"), ("?c", "rel", "?a")),
         (("?a", "out", "?c"),)),
        ((("?a", "rel", "?b"),), (("?a", "out", "?b"), ("?b", "out", "?a"))),
        ((("?a", "rel", "?c"), ("?b", "rel", "?c")), (("?a", "sym", "?b"),)),
        ((("?a", "out", c2), ("?a", "pre", "?b")), (("?b", "rel", c2),)),
    ]
    for i, (body, head) in enumerate(templates):
        _add_rule(net, f"r{i}", body, head)
    return net


def _try_assert(net, source, tid, target):
    try:
        return net.assert_link(source, tid, target)
    except DuplicateExplicitLink:
        return None


def _add_rule(net, rid, body, head):
    rule = Rule(rid, RepBundle(word=rid), tuple(PatternAtom(*a) for a in body),
                tuple(PatternAtom(*a) for a in head))
    assert not validate_rule(rule, net)
    net.rules[rid] = rule


def _scratch_copy(net):
    """The same explicit links, types and rules, never derived."""
    fresh = Network()
    for nid in net.nodes:
        fresh.add_node(RepBundle(word=nid), node_id=nid)
    for tid, lt in net.link_types.items():
        fresh.add_link_type(lt.rep, lt.transitive, lt.symmetric, type_id=tid)
    for link in net.explicit_links():
        fresh.assert_link(link.source, link.type, link.target, link.weight, link_id=link.id)
    fresh.rules.update(net.rules)
    return fresh


def _check_against_oracles(net):
    explicit, rules, symmetric, transitive = network_as_tuples(net)
    assert engine_fact_set(net) == oracles.naive_fixpoint(
        explicit, rules, symmetric, transitive)
    for link in net.derived_links():
        assert verify_explanation(net, explain(net, link.id))
    scratch = _scratch_copy(net)
    derive_fixpoint(scratch)
    assert engine_fact_set(net) == engine_fact_set(scratch)


@pytest.mark.parametrize("seed", [11, 23])
def test_fixpoint_matches_oracle_through_mutations(seed):
    rng = random.Random(seed)
    net = large_network(rng)
    derive_fixpoint(net)
    _check_against_oracles(net)

    nodes = sorted(net.nodes)
    for _ in range(4):
        _try_assert(net, rng.choice(nodes), rng.choice(("sym", "rel")), rng.choice(nodes))
    derive_fixpoint(net)
    _check_against_oracles(net)

    for _ in range(3):
        _retract_and_check(net, rng.choice(net.explicit_links()).id)

    _add_rule(net, "late", (("?a", "pre", "?b"), ("?b", "rel", "?c")), (("?c", "out", "?a"),))
    derive_fixpoint(net)
    _check_against_oracles(net)

    net.link_types["out"].symmetric = True
    derive_fixpoint(net)
    _check_against_oracles(net)


def test_identical_builds_export_identically():
    exports = []
    for _ in range(2):
        rng = random.Random(404)
        net = large_network(rng)
        derive_fixpoint(net)
        _try_assert(net, "n001", "rel", "n002")
        derive_fixpoint(net)
        retract_with_maintenance(net, rng.choice(net.explicit_links()).id)
        exports.append(export_state(EngineState(network=net)))
    assert exports[0] == exports[1]


def _count_matches(monkeypatch):
    """Patch match_atoms to record each call; returns the list of results."""
    calls = []
    real_match = rules.match_atoms

    def counting_match(*args, **kwargs):
        found = real_match(*args, **kwargs)
        calls.append(found)
        return found

    monkeypatch.setattr(rules, "match_atoms", counting_match)
    return calls


def test_noop_rederive_joins_nothing(monkeypatch):
    net = large_network(random.Random(5))
    derive_fixpoint(net)
    calls = _count_matches(monkeypatch)
    assert derive_fixpoint(net) == ([], [])
    assert calls == []


def test_retraction_joins_only_the_over_deleted_links(monkeypatch):
    net = _chain(30)
    derive_fixpoint(net)
    middle = next(l.id for l in net.links.values() if l.source == "v14")
    calls = _count_matches(monkeypatch)
    gone = retract_with_maintenance(net, middle)
    # 15 * 15 closure links cross the cut; no firing restores any, and the
    # one join per rule head is all that runs.
    assert len(gone) == 15 * 15
    assert calls == [[]]


def _chain(n):
    """v00 -pre-> v01 -> ... -> v(n-1), pre transitive."""
    net = Network()
    for i in range(n):
        net.add_node(RepBundle(word=f"v{i}"), node_id=f"v{i:02d}")
    net.add_link_type(RepBundle(word="pre"), transitive=True, type_id="pre")
    for i in range(n - 1):
        net.assert_link(f"v{i:02d}", "pre", f"v{i + 1:02d}")
    return net


def test_each_firing_is_enumerated_once(monkeypatch):
    calls = _count_matches(monkeypatch)
    net = _chain(30)
    # A twin of the transitive rule: links one rule adds in a round must stay
    # invisible to the other until the next round.
    _add_rule(net, "twin", (("?x", "pre", "?y"), ("?y", "pre", "?z")), (("?x", "pre", "?z"),))
    new_links, _ = derive_fixpoint(net)
    # The twin runs first in each round and stores every new link, so every
    # pre link is a base link and the linear transitive rule, like the twin,
    # fires once per path i < j < k.
    assert {link.rule_id for link in new_links} == {"twin"}
    assert sum(map(len, calls)) == 2 * math.comb(30, 3)


@pytest.mark.parametrize("n", [2, 3, 30])
def test_chain_closure_fires_once_per_new_link(monkeypatch, n):
    calls = _count_matches(monkeypatch)
    net = _chain(n)
    new_links, _ = derive_fixpoint(net)
    # One base step then one closure step: (i, k) for k > i + 1 fires only
    # as (i, i + 1), (i + 1, k).
    assert len(new_links) == math.comb(n - 1, 2)
    assert sum(map(len, calls)) == math.comb(n - 1, 2)


def _fresh_ids(net, count):
    """The next count ids that repeated fresh_id(counters, "k", links) gives."""
    counters, taken, ids = dict(net._counters), set(net.links), []
    for _ in range(count):
        ids.append(fresh_id(counters, "k", taken))
        taken.add(ids[-1])
    return ids


def test_derived_link_ids_follow_fresh_id_around_taken_ids():
    """Derive numbers its new links as fresh_id would, stepping over ids that
    links took by hand and over the gaps of an imported state."""
    net = Network()
    for i in range(8):
        net.add_node(RepBundle(word=f"v{i}"), node_id=f"v{i:02d}")
    net.add_link_type(RepBundle(word="pre"), transitive=True, type_id="pre")
    chosen = ["k000002", "k000005", None, "k000011", None, "k000004", None]
    for i, link_id in enumerate(chosen):
        net.assert_link(f"v{i:02d}", "pre", f"v{i + 1:02d}", link_id=link_id)
    assert sorted(net.links) == ["k000001", "k000002", "k000003", "k000004", "k000005",
                                 "k000006", "k000011"]
    gapped = export_state(EngineState(network=net))
    expected = _fresh_ids(net, math.comb(7, 2))
    assert expected[:6] == ["k000007", "k000008", "k000009", "k000010", "k000012", "k000013"]
    assert [link.id for link in derive_fixpoint(net)[0]] == expected
    loaded = import_state(gapped).network
    expected = _fresh_ids(loaded, math.comb(7, 2))
    assert [link.id for link in derive_fixpoint(loaded)[0]] == expected


def test_deep_proof_explains_and_verifies_within_recursion_limit():
    """2,998 derived links stacked into one proof 2,999 nodes deep, far past
    the default recursion limit."""
    n = 3000
    net, root = deep_proof_network(n)
    assert len(net.derived_links()) == n - 2

    tree = explain(net, root)
    depth, node = 1, tree
    while node.children:
        node = node.children[-1]
        depth += 1
    assert depth == n - 1 > 2 * sys.getrecursionlimit()
    assert verify_explanation(net, tree)
    node.triple = ("v0000", "pre", "v0001")  # forge the deepest leaf
    assert not verify_explanation(net, tree)


def test_explanation_repr_names_premises_not_children():
    """repr shows one node, its premises by id, however deep the proof."""
    net, root = deep_proof_network(3000)
    tree = explain(net, root)
    text = repr(tree)
    assert text == (f"Explanation({root!r}, ('v0000', 'pre', 'v2999'), 'derived', "
                    f"rule_id='sys.transitive.pre', premises={tree.premises!r})")
    leaf = tree.children[0]
    assert repr(leaf) == (f"Explanation({leaf.link_id!r}, ('v0000', 'pre', 'v0001'), "
                          f"'explicit', rule_id=None, premises=())")


def test_provenance_cycle_is_an_error_not_a_loop():
    net = Network()
    for name in "abc":
        net.add_node(RepBundle(word=name), node_id=name)
    net.add_link_type(RepBundle(word="t"), transitive=True, type_id="t")
    net.assert_link("a", "t", "b", link_id="k1")
    net.assert_link("b", "t", "a", link_id="k0")
    # Each step is sound on its own, but k2 cites k3, which cites k2.
    net.add_derived("a", "t", "c", 1.0, "sys.transitive.t", ("k1", "k3"),
                    link_id="k2")
    net.add_derived("b", "t", "c", 1.0, "sys.transitive.t", ("k0", "k2"),
                    link_id="k3")
    with pytest.raises(InvalidRule, match="among its own premises"):
        explain(net, "k2")
    # The same loop as a hand-made tree: every step holds, the tree does not.
    k2 = Explanation("k2", ("a", "t", "c"), "derived", "sys.transitive.t",
                     {"?x": "a", "?y": "b", "?z": "c"}, ("k1", "k3"))
    k3 = Explanation("k3", ("b", "t", "c"), "derived", "sys.transitive.t",
                     {"?x": "b", "?y": "a", "?z": "c"}, ("k0", "k2"))
    k2.children = [Explanation("k1", ("a", "t", "b"), "explicit"), k3]
    k3.children = [Explanation("k0", ("b", "t", "a"), "explicit"), k2]
    assert not verify_explanation(net, k2)


def _first_root_above_a_cycle(graph, roots):
    """The first root from which a premise cycle is reachable, or None."""
    def reaches_cycle(item, path):
        if item in path:
            return True
        return any(reaches_cycle(p, path | {item}) for p in graph.get(item, ()))
    return next((root for root in roots if reaches_cycle(root, frozenset())), None)


def test_premise_walk_matches_a_reference_on_random_graphs():
    """Post-order, each reachable item once; on a cycle, the root named is
    the first root on or above one."""
    for seed in range(300):
        rng = random.Random(seed)
        items = [f"x{i}" for i in range(rng.randint(1, 9))]
        graph = {item: tuple(rng.choice(items + ["leaf"]) for _ in range(rng.randint(1, 3)))
                 for item in items if rng.random() < 0.7}
        roots = rng.sample(list(graph), len(graph))
        want = _first_root_above_a_cycle(graph, roots)
        try:
            order = list(premise_walk(roots, graph.get))
        except PremiseCycle as cycle:
            assert cycle.args[1] == want, seed
            continue
        assert want is None, seed
        position = {item: i for i, item in enumerate(order)}
        assert len(position) == len(order)
        assert all(position[p] < position[item] for item in order for p in graph.get(item, ()))
        reached, stack = set(), list(roots)
        while stack:
            item = stack.pop()
            if item not in reached:
                reached.add(item)
                stack.extend(graph.get(item, ()))
        assert set(order) == reached, seed


def test_user_rule_cannot_take_a_transitive_rule_id():
    # Links a rule derives are base links unless its id is the transitive
    # rule's, so a user rule under that id would leave the closure short.
    atom = PatternAtom("?x", "t", "?y")
    problems = validate_rule(Rule("sys.transitive.t", RepBundle(word="r"), (atom,), (atom,)))
    assert problems == ["rule id 'sys.transitive.t' is reserved for transitive flags"]


def test_derive_refuses_a_rule_id_that_is_not_an_id():
    """KSIF import refuses such an id, so a derive that stored links under it
    would leave a state that exports but does not load."""
    net = chain_net()
    net.rules["bad id"] = Rule("bad id", RepBundle(word="r"), *net.rules["compose"][2:])
    before = dict(net.links)
    with pytest.raises(InvalidRule, match="rule 'bad id': rule id 'bad id' is not a valid id"):
        derive_fixpoint(net)
    assert net.links == before and net.derive_mark is None


def closure_network(rng):
    """50 to 80 nodes with a transitive type pre, a symmetric and transitive
    type eq, a plain type rel, and user rules whose heads are pre or eq, so
    pre has base links of every kind: explicit, user-derived and upgraded."""
    net = Network()
    nodes = [net.add_node(RepBundle(word=f"v{i}"), node_id=f"v{i:02d}")
             for i in range(rng.randint(50, 80))]
    net.add_link_type(RepBundle(word="pre"), transitive=True, type_id="pre")
    net.add_link_type(RepBundle(word="eq"), transitive=True, symmetric=True, type_id="eq")
    net.add_link_type(RepBundle(word="rel"), type_id="rel")
    for _ in range(len(nodes) // 2):
        i = rng.randrange(len(nodes) - 4)
        _try_assert(net, nodes[i], "pre", nodes[i + rng.randint(1, 4)])
    for tid, count in (("eq", len(nodes) // 8), ("rel", len(nodes) // 6)):
        for _ in range(count):
            _try_assert(net, rng.choice(nodes), tid, rng.choice(nodes))
    _add_rule(net, "lift", (("?a", "rel", "?b"),), (("?a", "pre", "?b"),))
    _add_rule(net, "via", (("?a", "pre", "?b"), ("?b", "eq", "?c")), (("?a", "pre", "?c"),))
    _add_rule(net, "back", (("?a", "rel", "?b"), ("?b", "pre", "?a")), (("?a", "eq", "?b"),))
    return net


def _check_closure(net):
    _check_against_oracles(net)
    text = export_state(EngineState(network=net))
    assert export_state(import_state(text)) == text


def _retract_and_check(net, link_id):
    """Retract link_id from a derived network with maintenance: the result
    matches a derive from scratch, and every link outside the retracted
    link's provenance closure keeps its id, weight and provenance."""
    closure = net.provenance_closure([link_id])
    kept = {lid: (link.triple(), link.weight, link.rule_id, link.premises)
            for lid, link in net.links.items() if lid not in closure}
    gone = retract_with_maintenance(net, link_id)
    assert gone[0] == link_id and set(gone) <= closure
    assert {lid: (net.links[lid].triple(), net.links[lid].weight,
                  net.links[lid].rule_id, net.links[lid].premises)
            for lid in kept} == kept
    _check_closure(net)


@pytest.mark.parametrize("seed", [3, 71])
def test_linear_closure_matches_naive_through_mutations(seed):
    rng = random.Random(seed)
    net = closure_network(rng)
    nodes = sorted(net.nodes)
    derive_fixpoint(net)
    _check_closure(net)
    for _ in range(2):
        # Upgrade derived links in place: closure links become base links.
        for link in rng.sample(net.derived_links(), 4):
            assert net.assert_link(link.source, link.type, link.target) == link.id
        _check_closure(net)
        # A two-step pre path and a few random links, twice, with no removal
        # or upgrade in between.
        for _ in range(2):
            a, b, c = rng.sample(nodes, 3)
            _try_assert(net, a, "pre", b)
            _try_assert(net, b, "pre", c)
            for _ in range(2):
                _try_assert(net, rng.choice(nodes), rng.choice(("pre", "eq", "rel")),
                            rng.choice(nodes))
            derive_fixpoint(net)
            _check_closure(net)
        pre = [link for link in net.explicit_links() if link.type == "pre"]
        _retract_and_check(net, rng.choice(pre).id)
        _retract_and_check(net, rng.choice(net.explicit_links()).id)


def test_closure_step_over_two_closure_links_still_replays():
    """A saved step whose first premise is itself a closure link (what the
    chain rule evaluated non-linearly could record) imports, explains and
    verifies, and derive adds just the pairs no saved step covers."""
    net = _chain(5)
    k = {(link.source, link.target): link.id for link in net.links.values()}
    step = "sys.transitive.pre"
    k["v00", "v02"] = net.add_derived("v00", "pre", "v02", 1.0,
                                      step, (k["v00", "v01"], k["v01", "v02"]))
    k["v02", "v04"] = net.add_derived("v02", "pre", "v04", 1.0,
                                      step, (k["v02", "v03"], k["v03", "v04"]))
    top = net.add_derived("v00", "pre", "v04", 1.0,
                          step, (k["v00", "v02"], k["v02", "v04"]))
    text = export_state(EngineState(network=net))
    loaded = import_state(text).network
    assert verify_explanation(loaded, explain(loaded, top))
    new_links, _ = derive_fixpoint(loaded)
    assert {link.triple() for link in new_links} == {
        ("v00", "pre", "v03"), ("v01", "pre", "v03"), ("v01", "pre", "v04")}
    _check_closure(loaded)


# ===== derive output pinned byte for byte =====

def _pinned_chain(rng):
    """A 40-node transitive chain whose links are asserted in seeded order."""
    net = Network()
    for i in range(40):
        net.add_node(RepBundle(word=f"v{i}"), node_id=f"v{i:02d}")
    net.add_link_type(RepBundle(word="pre"), transitive=True, type_id="pre")
    for i in rng.sample(range(39), 39):
        net.assert_link(f"v{i:02d}", "pre", f"v{i + 1:02d}", round(rng.uniform(0.5, 2.0), 3))
    return net


def _pinned_cocitation(rng):
    """60 papers citing two of 30 references each; co-cited papers share a
    topic, a symmetric type."""
    net = Network()
    papers = [net.add_node(RepBundle(word=f"paper {i}"), node_id=f"p{i:02d}") for i in range(60)]
    refs = [net.add_node(RepBundle(word=f"ref {i}"), node_id=f"r{i:02d}") for i in range(30)]
    net.add_link_type(RepBundle(word="cites"), type_id="cites")
    net.add_link_type(RepBundle(word="same topic"), symmetric=True, type_id="same")
    for paper in papers:
        for ref in sorted(rng.sample(refs, 2)):
            net.assert_link(paper, "cites", ref)
    _add_rule(net, "co-cite", (("?a", "cites", "?c"), ("?b", "cites", "?c")),
              (("?a", "same", "?b"),))
    return net


def _digest(net):
    return hashlib.sha256(export_state(EngineState(network=net)).encode()).hexdigest()


def _explain_digest(net):
    """sha256 over (link id, rule id, substitution, premises) of the explain
    root of every derived link, in id order."""
    roots = [explain(net, lid) for lid in sorted(link.id for link in net.derived_links())]
    rows = [repr((node.link_id, node.rule_id, sorted(node.substitution.items()), node.premises))
            for node in roots]
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


# (builder, seed, sha256 of the export after derive_fixpoint, of the explain
# roots after it, and of the export after retract_with_maintenance of a seeded
# explicit link)
PINNED_DERIVES = [
    (_pinned_chain, 40,
     "748c5607ac8b0c0de0fc7fb4b61e23d8d6b20256183b37ffb5b85d07f0ee26d0",
     "ba134e81c3ec49af6f73b279d693e36031c262f38ad48f75f821aa2798c373cd",
     "5a5e4e5783325ed3048d1c78ad7299e6aa50b4aaa40546ce184c76d0f2c4d55b"),
    (_pinned_cocitation, 60,
     "80cc4c96e5f4fecdc78f817f1d12abb0375411a1cd87ff2594d93be9ce637966",
     "4c068392ec70f27602139348ca7ec69e46d387ede56278e078c013ed75e39223",
     "663d48d41c2bec1c31b8ecd304b80945e445f2ad9603ce6a544b2335e175269d"),
    (rule_network, 24,
     "12cb1ed8cc0faa380586d5c3487a1d224842b027e98caacc68936e7b787d94a7",
     "b825ec24d123fa4cad174e17112e3257764a88d4447b38ec4c23984c1b34a4f7",
     "aacf1346bd6557651e0eeed6f1b55d1a47d1fbd340e0154e55fe53653d91a709"),
]


@pytest.mark.parametrize("build, seed, derived, explained, retracted", PINNED_DERIVES,
                         ids=["chain", "cocitation", "rule-network"])
def test_derive_and_retract_output_is_pinned(build, seed, derived, explained, retracted):
    """Link ids, weights, provenance and their order are part of the saved
    state, and the proofs explain prints are part of the output; a faster
    engine must write the same bytes."""
    rng = random.Random(seed)
    net = build(rng)
    if build is rule_network:  # bodies of three or four atoms, two-atom heads
        assert {len(rule.body) for rule in net.rules.values()} == {3, 4}
        assert {len(rule.head) for rule in net.rules.values()} == {2}
    derive_fixpoint(net)
    assert _digest(net) == derived
    assert _explain_digest(net) == explained
    explicit = net.explicit_links()
    retract_with_maintenance(net, explicit[rng.randrange(len(explicit))].id)
    assert _digest(net) == retracted


def _cocitation_batches(rng):
    """40 papers and 20 references gaining cites links in four batches of
    mixed weights; co-cite (shared reference) and co-ref (shared paper) each
    derive a symmetric type. Yields the network after each batch."""
    net = Network()
    papers = [net.add_node(RepBundle(word=f"paper {i}"), node_id=f"p{i:02d}") for i in range(40)]
    refs = [net.add_node(RepBundle(word=f"ref {i}"), node_id=f"r{i:02d}") for i in range(20)]
    net.add_link_type(RepBundle(word="cites"), type_id="cites")
    net.add_link_type(RepBundle(word="same topic"), symmetric=True, type_id="same")
    net.add_link_type(RepBundle(word="coupled"), symmetric=True, type_id="coupled")
    _add_rule(net, "co-cite", (("?a", "cites", "?c"), ("?b", "cites", "?c")),
              (("?a", "same", "?b"),))
    _add_rule(net, "co-ref", (("?c", "cites", "?a"), ("?c", "cites", "?b")),
              (("?a", "coupled", "?b"),))
    pairs = rng.sample([(p, r) for p in papers for r in refs], 120)
    for batch in (pairs[:45], pairs[45:75], pairs[75:100], pairs[100:]):
        for paper, ref in batch:
            net.assert_link(paper, "cites", ref, rng.choice((0.25, 0.5, 1.0, 1.5, 2.0)))
        yield net


def _chain_batches(rng):
    """A 40-node transitive chain grown from its middle: eleven links first,
    then links at both ends in three more batches, in seeded order and of
    mixed weights. Yields the network after each batch."""
    net = Network()
    for i in range(40):
        net.add_node(RepBundle(word=f"v{i}"), node_id=f"v{i:02d}")
    net.add_link_type(RepBundle(word="pre"), transitive=True, type_id="pre")
    for lo, hi, new in ((14, 25, range(14, 25)), (9, 30, [*range(9, 14), *range(25, 30)]),
                        (4, 35, [*range(4, 9), *range(30, 35)]),
                        (0, 39, [*range(0, 4), *range(35, 39)])):
        for i in rng.sample(list(new), len(new)):
            net.assert_link(f"v{i:02d}", "pre", f"v{i + 1:02d}", round(rng.uniform(0.5, 2.0), 3))
        yield net


# (batch builder, seed, sha256 of the exports after each batch's
# derive_fixpoint, of the explain roots after the last, and of the export
# after retract_with_maintenance of a seeded explicit link)
PINNED_INCREMENTAL_DERIVES = [
    (_cocitation_batches, 61,
     "379034a70d66c8a3d46ca9f229791241e59e2720cdd90c58038ab72a54574fe4",
     "a37880c50b59cd09f55a0519c8a67dee4282fee946c88f5c6872e877b82dd97b",
     "ab49dece13ff538c6bbb94d8ae58265d42b13d0d0e6f1cda4684303822241a38"),
    (_chain_batches, 41,
     "d74ade9260d246415507df30d35b7801e777131772fc5e1849b3f01f8d4b1c7a",
     "431856ef5da852143461e1dd69c556454cd0e95ad8aefb8fdd999f372688ea91",
     "5ae950452db8f9b3b44e716b79b802768a4b0dc51eb3b825f98b46622a491a43"),
]


@pytest.mark.parametrize("batches, seed, derived, explained, retracted",
                         PINNED_INCREMENTAL_DERIVES, ids=["cocitation", "chain"])
def test_incremental_derive_output_is_pinned(batches, seed, derived, explained, retracted):
    """Derives after each batch start from the links added since the last
    fixpoint, so they run the joins with the delta at every body position;
    their ids, weights and provenance are pinned as a cold derive's are."""
    rng = random.Random(seed)
    exports = hashlib.sha256()
    for net in batches(rng):
        derive_fixpoint(net)
        exports.update(export_state(EngineState(network=net)).encode())
    assert exports.hexdigest() == derived
    assert _explain_digest(net) == explained
    explicit = net.explicit_links()
    retract_with_maintenance(net, explicit[rng.randrange(len(explicit))].id)
    assert _digest(net) == retracted


def test_join_takes_one_row_of_a_step_nothing_reads(monkeypatch):
    """Rule r3 of this network binds ?c and ?e at steps whose variables no
    later atom and no head reads: every row of such a step leads to the same
    head triples, so the join walks its first row only. Walking them all
    gave 184,637 join results for the same 255 new links and these bytes."""
    calls = _count_matches(monkeypatch)
    rng = random.Random(63)
    net = rule_network(rng)
    new_links, _ = derive_fixpoint(net)
    assert len(new_links) == 255
    assert sum(map(len, calls)) < 60_000
    assert _digest(net) == "56cbb82452b011d215412439d4b6dc7fa6bb98d091d2616ff6b487f4c1223a67"
    explicit = net.explicit_links()
    retract_with_maintenance(net, explicit[rng.randrange(len(explicit))].id)
    assert _digest(net) == "2febcf5586ea2f3416e46181905af8a452c98ddb99376399e0df29fa146f131b"


def _first_firings(pairs):
    seen, out = set(), []
    for triple, premises in pairs:
        if triple not in seen:
            seen.add(triple)
            out.append((triple, premises))
    return out


def test_first_row_cut_keeps_each_triples_first_firing():
    """With heads, match_atoms gives every head triple the premises of its
    first firing in the full walk (heads=None), in the same order, at every
    delta position; derive and the DRed restore keep only those."""
    for seed in range(12):
        net = rule_network(random.Random(seed))
        if seed % 2:
            derive_fixpoint(net)
        links = list(net.links.values())
        symmetric = [tid for tid, lt in net.link_types.items() if lt.symmetric]
        for rule in rules.effective_rules(net):
            for cut in (0, len(links) // 3):
                delta = links[cut:]
                rows = rules.rows_from_links(delta, symmetric)
                split = (net._stamp[delta[0].id], net._next_stamp)
                for pos in range(len(rule.body) if cut else 1):
                    cut_walk = rules.match_atoms(net, rule.body, rows, pos, split, rule.head)
                    full = rules.match_atoms(net, rule.body, rows, pos, split)
                    assert _first_firings(
                        (found[i:i + 3], premises)
                        for found, premises in cut_walk for i in range(0, len(found), 3)
                    ) == _first_firings(
                        (head.substituted(env), premises)
                        for env, premises in full for head in rule.head
                    ), (seed, rule.id, cut, pos)


def _benchmark_sized_network(rng, variable_type_rule):
    """A 60-node transitive chain and a 150-paper co-citation graph, the
    largest sizes the saturate benchmark builds, under four rules: co-cite
    derives the symmetric same, near reads it, tag derives a type no rule
    reads, and via (when asked) has a variable-type atom, which reads every
    type, tagged and near among them."""
    net = Network()
    chain = [net.add_node(RepBundle(word=f"c{i}"), node_id=f"c{i:02d}") for i in range(60)]
    papers = [net.add_node(RepBundle(word=f"p{i}"), node_id=f"p{i:03d}") for i in range(150)]
    refs = [net.add_node(RepBundle(word=f"r{i}"), node_id=f"r{i:02d}") for i in range(75)]
    for tid, transitive, symmetric in (("pre", True, False), ("cites", False, False),
                                       ("same", False, True), ("near", False, False),
                                       ("tagged", False, False), ("via", False, False)):
        net.add_link_type(RepBundle(word=tid), transitive, symmetric, type_id=tid)
    for i in rng.sample(range(59), 59):
        net.assert_link(chain[i], "pre", chain[i + 1], round(rng.uniform(0.5, 2.0), 3))
    for paper in papers:
        for ref in sorted(rng.sample(refs, 2)):
            net.assert_link(paper, "cites", ref)
    _add_rule(net, "co-cite", (("?a", "cites", "?c"), ("?b", "cites", "?c")),
              (("?a", "same", "?b"),))
    _add_rule(net, "near", (("?a", "same", "?b"), ("?b", "cites", "?c")), (("?a", "near", "?c"),))
    _add_rule(net, "tag", (("?x", "pre", "?y"),), (("?y", "tagged", "?x"),))
    if variable_type_rule:
        _add_rule(net, "via", (("?x", "?t", "?y"), ("?x", "cites", "?r")), (("?x", "via", "?y"),))
    return net


def _closed_form(net, variable_type_rule):
    """The fact set the rules of _benchmark_sized_network close the explicit
    links to, in closed form: the naive oracle re-joins every fact each
    round, too slow at this size."""
    explicit = {link.triple() for link in net.explicit_links()}
    pre = oracles.transitive_closure((s, o) for s, t, o in explicit if t == "pre")
    cites = {(s, o) for s, t, o in explicit if t == "cites"}
    citing = {}
    for paper, ref in cites:
        citing.setdefault(ref, set()).add(paper)
    same = {(a, b) for group in citing.values() for a in group for b in group}
    facts = explicit | {(x, "pre", y) for x, y in pre} | {(y, "tagged", x) for x, y in pre}
    facts |= {(a, "same", b) for a, b in same}
    facts |= {(a, "near", c) for a, b in same for b2, c in cites if b2 == b}
    if variable_type_rule:  # every fact out of a paper that cites something
        papers = {paper for paper, _ref in cites}
        facts |= {(x, "via", y) for x, _t, y in facts if x in papers}
    return facts


@pytest.mark.parametrize("variable_type_rule", [False, True],
                         ids=["typed-atoms", "variable-type-atom"])
def test_derive_and_retract_match_closed_forms_at_benchmark_sizes(monkeypatch,
                                                                   variable_type_rule):
    """Derive builds delta rows only for the types some body reads: with
    typed atoms it skips tagged and near, which nothing reads, and with a
    variable-type atom it keeps every type. Either way the derive, and each
    retraction maintained in place, equal the closed form and a derive from
    scratch."""
    rng = random.Random(150)
    net = _benchmark_sized_network(rng, variable_type_rule)
    delta_types = set()
    real_rows = rules.rows_from_links

    def recording_rows(links, symmetric=()):
        found = real_rows(links, symmetric)
        delta_types.update(found)
        return found

    monkeypatch.setattr(rules, "rows_from_links", recording_rows)
    derive_fixpoint(net)
    monkeypatch.undo()
    read = {"pre", "cites", "same"}
    assert delta_types == (read | {"tagged", "near", "via"} if variable_type_rule else read)
    assert engine_fact_set(net) == _closed_form(net, variable_type_rule)
    middle = next(l.id for l in net.explicit_links() if l.triple() == ("c29", "pre", "c30"))
    for link_id in (middle, rng.choice([l.id for l in net.explicit_links() if l.type == "cites"])):
        retract_with_maintenance(net, link_id)
        assert engine_fact_set(net) == _closed_form(net, variable_type_rule)
        scratch = _scratch_copy(net)
        derive_fixpoint(scratch)
        assert engine_fact_set(scratch) == engine_fact_set(net)


def test_join_matches_naive_on_rich_rules():
    """The join against the naive oracle on rule_network: variable link
    types, constant nodes, self-loop atoms, three- and four-atom bodies and
    two-atom heads; each retraction maintained in place equals a derive from
    scratch. Seeds whose fixpoints stay small enough for the naive oracle."""
    for seed in range(12):
        rng = random.Random(seed)
        net = rule_network(rng)
        derive_fixpoint(net)
        _check_against_oracles(net)
        for _ in range(2):
            _retract_and_check(net, rng.choice(net.explicit_links()).id)


# ===== plans, base-aware deltas and mirror firings =====

def _rule(body, head):
    return Rule("r", RepBundle(word="r"),
                tuple(a if isinstance(a, PatternAtom) else PatternAtom(*a) for a in body),
                tuple(PatternAtom(*a) for a in head))


@pytest.mark.parametrize("body, head, found", [
    ((("?a", "cites", "?c"), ("?b", "cites", "?c")), (("?a", "same", "?b"),), ("?a", "?b")),
    ((("?c", "cites", "?a"), ("?c", "cites", "?b")), (("?a", "same", "?b"),), ("?a", "?b")),
    ((("?b", "sym", "?c"), ("?a", "sym", "?c")), (("?a", "same", "?b"),), ("?b", "?a")),
    ((("?a", "?t", "r1"), ("?b", "?t", "r1")), (("?a", "same", "?b"),), ("?a", "?b")),
    ((("?a", "cites", "?b"), ("?b", "cites", "?a")), (("?b", "same", "?a"),), ("?a", "?b")),
    # A plain head type, a three-atom body, a base atom, a head that does not
    # swap, a constant in a swapped position, two heads, a head variable at a
    # type.
    ((("?a", "cites", "?c"), ("?b", "cites", "?c")), (("?a", "rel", "?b"),), None),
    ((("?a", "cites", "?c"), ("?b", "cites", "?c"), ("?c", "rel", "?d")),
     (("?a", "same", "?b"),), None),
    ((rules.BaseAtom("?a", "cites", "?c"), ("?b", "cites", "?c")), (("?a", "same", "?b"),), None),
    ((("?a", "cites", "?c"), ("?b", "cites", "?c")), (("?a", "same", "?c"),), None),
    ((("?a", "cites", "?c"), ("?b", "cites", "r1")), (("?a", "same", "?b"),), None),
    ((("?a", "cites", "?c"), ("?b", "cites", "?c")), (("?a", "same", "?b"), ("?b", "same", "?a")),
     None),
    ((("?a", "?a", "?c"), ("?b", "?b", "?c")), (("?a", "same", "?b"),), None),
], ids=["co-cite", "shared-source", "symmetric-body", "variable-type", "cycle", "plain-head",
        "three-atoms", "base-atom", "no-swap", "swapped-constant", "two-heads", "type-position"])
def test_mirror_rules_are_detected_by_swapping_the_head_variables(body, head, found):
    assert rules._mirror(_rule(body, head), ("same", "sym")) == found


def _cocitation_shaped(rng, size):
    """size nodes under co-citation-shaped rules drawn at random: shared
    target or shared source, over a plain or a symmetric type, into a plain
    or a symmetric head type, and one whose atoms each hold both head
    variables; a transitive pre, which a bridge rule also
    derives, so later rounds gain base pre links. Returns the network and
    its explicit links in a seeded order, not yet asserted."""
    net = Network()
    nodes = [net.add_node(RepBundle(word=f"n{i}"), node_id=f"n{i:02d}") for i in range(size)]
    for tid, transitive, symmetric in (("cites", False, False), ("sym", False, True),
                                       ("rel", False, False), ("same", False, True),
                                       ("pre", True, False)):
        net.add_link_type(RepBundle(word=tid), transitive, symmetric, type_id=tid)
    for i, head_type in enumerate(("same", "same", rng.choice(("rel", "same")), "rel")):
        body_type = rng.choice(("cites", "sym"))
        shape = ((("?a", body_type, "?c"), ("?b", body_type, "?c")) if i % 2 else
                 (("?c", body_type, "?a"), ("?c", body_type, "?b")))
        _add_rule(net, f"r{i}", shape, (("?a", head_type, "?b"),))
    mutual = rng.choice(("cites", "sym"))  # both head variables in each atom
    _add_rule(net, "r4", (("?a", mutual, "?b"), ("?b", mutual, "?a")), (("?b", "same", "?a"),))
    _add_rule(net, "bridge", (("?a", "rel", "?b"), ("?b", "cites", "?c")), (("?a", "pre", "?c"),))
    links = set()
    while len(links) < size:
        a, b = rng.sample(nodes, 2)
        links.add((a, rng.choice(("cites", "cites", "sym")), b))
    for _ in range(size // 3):
        i = rng.randrange(size - 2)
        links.add((nodes[i], "pre", nodes[i + rng.randint(1, 2)]))
    return net, rng.sample(sorted(links), len(links))


@pytest.mark.parametrize("seed", range(8))
def test_mirror_skip_matches_naive_and_the_unskipped_join_in_batches(monkeypatch, seed):
    """30 to 60 nodes derived in four batches: each derive equals the naive
    fixpoint, and the exports equal those of the same derives with mirror
    detection off, ids and provenance included."""
    exports = []
    for mirrors in (True, False):
        if not mirrors:
            monkeypatch.setattr(rules, "_mirror", lambda rule, symmetric: None)
        rng = random.Random(seed)
        net, links = _cocitation_shaped(rng, rng.randint(30, 60))
        for batch in range(4):
            for source, tid, target in links[batch::4]:
                _try_assert(net, source, tid, target)
            derive_fixpoint(net)
            if mirrors:
                explicit, rule_tuples, symmetric, transitive = network_as_tuples(net)
                assert engine_fact_set(net) == oracles.naive_fixpoint(
                    explicit, rule_tuples, symmetric, transitive), (seed, batch)
            exports.append(export_state(EngineState(network=net)))
    assert exports[:4] == exports[4:]


def _store_path_network(rng, size):
    """size nodes under rules that reach every branch of the store step: a
    variable-type head, two head atoms, head-only types (out, same) whose
    indexes the first firing creates, a three-atom body over mixed weights,
    and a bridge rule storing base links of the transitive pre. Two papers
    cite the same two references, so the co-cite link between them has two
    firings. Returns the network and its explicit links, weighted, in a
    seeded order, not yet asserted."""
    net = Network()
    nodes = [net.add_node(RepBundle(word=f"n{i}"), node_id=f"n{i:02d}") for i in range(size)]
    for tid, transitive, symmetric in (("cites", False, False), ("sym", False, True),
                                       ("rel", False, False), ("flag", False, False),
                                       ("pre", True, False), ("out", False, False),
                                       ("same", False, True)):
        net.add_link_type(RepBundle(word=tid), transitive, symmetric, type_id=tid)
    _add_rule(net, "both", (("?a", "rel", "?b"),), (("?a", "out", "?b"), ("?b", "out", "?a")))
    _add_rule(net, "bridge", (("?a", "rel", "?b"), ("?b", "cites", "?c")), (("?a", "pre", "?c"),))
    _add_rule(net, "co", (("?a", "cites", "?c"), ("?b", "cites", "?c")), (("?a", "same", "?b"),))
    _add_rule(net, "flip", (("?a", "?t", "?b"), ("?b", "flag", "?b")), (("?b", "?t", "?a"),))
    _add_rule(net, "w3", (("?a", "cites", "?b"), ("?b", "rel", "?c"), ("?c", "sym", "?d")),
              (("?a", "out", "?d"),))
    weights = (0.25, 0.5, 1.0, 1.5, 2.0)
    links = {(nodes[0], "cites", nodes[2]): 1.0, (nodes[0], "cites", nodes[3]): 1.0,
             (nodes[1], "cites", nodes[2]): 1.0, (nodes[1], "cites", nodes[3]): 1.0}
    while len(links) < size:
        a, b = rng.sample(nodes, 2)
        links[a, rng.choice(("cites", "cites", "sym", "rel")), b] = rng.choice(weights)
    for node in rng.sample(nodes, 4):
        links[node, "flag", node] = rng.choice(weights)
    for _ in range(size // 4):
        i = rng.randrange(size - 2)
        links[nodes[i], "pre", nodes[i + rng.randint(1, 2)]] = rng.choice(weights)
    return net, [(*triple, links[triple]) for triple in rng.sample(sorted(links), len(links))]


def _check_store_path(net):
    """The fixpoint equals the naive one, every derived link weighs its
    weakest premise, and no symmetric triple is stored in both readings."""
    explicit, rule_tuples, symmetric, transitive = network_as_tuples(net)
    assert engine_fact_set(net) == oracles.naive_fixpoint(
        explicit, rule_tuples, symmetric, transitive)
    for link in net.derived_links():
        assert link.weight == min(net.links[p].weight for p in link.premises)
    same = [link for link in net.links.values() if link.type == "same"]
    assert len({frozenset((link.source, link.target)) for link in same}) == len(same)


# sha256 of the exports after each batch's derive and after each retraction,
# per seed of test_store_path_matches_naive_through_batches_and_restores
PINNED_STORE_PATH = {
    5: "cca7fc10d269b1454bb5d1b5a3a4d20959b7991ebfccc47836cc05c1605e189e",
    17: "9068f5d54bd9c6a799d114180d40a2e3d1a14e8653ac279223aecec0b617848f",
    29: "f1c1cdd36fea7d2eae9f33ba9978e97de58089697d874c7352924c5bd4b3649c",
    43: "775083e1e09945977a138b66722b970aaa9cadccbff09c0168818ab3b4020bc1",
}


@pytest.mark.parametrize("seed", sorted(PINNED_STORE_PATH))
def test_store_path_matches_naive_through_batches_and_restores(monkeypatch, seed):
    """40 to 60 nodes derived in three batches, then two retractions with
    maintenance. Each fixpoint equals the naive one and each weight the
    least of its premises'; the variable-type head switches head type
    within one join, and a restore finds a co-cite triple in both readings
    and stores it once. Exports are pinned byte for byte."""
    calls = []  # (rule id, the head triples a _store_firings call was given)
    real_store_firings = rules._store_firings

    def recording_store_firings(network, rule_id, matches, stored):
        triples = [found[i:i + 3] for found, _premises in matches for i in range(0, len(found), 3)]
        calls.append((rule_id, triples))
        return real_store_firings(network, rule_id, matches, stored)

    monkeypatch.setattr(rules, "_store_firings", recording_store_firings)
    rng = random.Random(seed)
    net, links = _store_path_network(rng, rng.randint(40, 60))
    exports = hashlib.sha256()
    for batch in range(3):
        for source, tid, target, weight in links[batch::3]:
            if not net.has_fact(source, tid, target):  # an upgrade would reweigh dependents
                net.assert_link(source, tid, target, weight)
        if batch == 0:
            assert not net.rows("out") and not net.rows("same")
        derive_fixpoint(net)
        _check_store_path(net)
        exports.update(export_state(EngineState(network=net)).encode())
    assert any(rid == "flip" and len({t[1] for t in triples}) > 1 for rid, triples in calls)
    assert any(rid == "both" and triples for rid, triples in calls)
    # Retract the first premise of the co-cite link between n00 and n01, which
    # the other shared reference still supports, then a seeded explicit link.
    twin = next(link for link in net.links.values()
                if {link.source, link.target} == {"n00", "n01"} and link.type == "same")
    for link_id in (twin.premises[0], rng.choice(net.explicit_links()).id):
        del calls[:]
        retract_with_maintenance(net, link_id)
        _check_store_path(net)
        exports.update(export_state(EngineState(network=net)).encode())
        if link_id == twin.premises[0]:
            restored = [t for rid, triples in calls if rid == "co" for t in triples
                        if {t[0], t[2]} == {"n00", "n01"}]
            assert len(restored) == 2 and restored[0] != restored[1]
            assert net.has_fact("n00", "same", "n01")
    assert exports.hexdigest() == PINNED_STORE_PATH[seed]


def test_derive_compiles_each_join_once_and_runs_each_through_match_atoms(monkeypatch):
    """A 30-chain derives in 29 rounds. Its one rule's join with the delta
    first runs in round one; after that the delta holds closure links only,
    so only the join with the delta second runs. Each is compiled once, and
    every join that runs enters rules.match_atoms with its plan."""
    compiled, joined = [], []
    real_compile, real_match = rules._compile, rules.match_atoms

    def counting_compile(facts, atoms, delta_pos=None, heads=None, mirror=None):
        compiled.append((atoms, delta_pos))
        return real_compile(facts, atoms, delta_pos, heads, mirror)

    def counting_match(facts, atoms, delta_rows=None, delta_pos=None, split=None, heads=None,
                       plan=None):
        joined.append((delta_pos, plan))
        return real_match(facts, atoms, delta_rows, delta_pos, split, heads, plan)

    monkeypatch.setattr(rules, "_compile", counting_compile)
    monkeypatch.setattr(rules, "match_atoms", counting_match)
    net = _chain(30)
    new_links, _ = derive_fixpoint(net)
    assert len(new_links) == math.comb(29, 2)
    body = rules._transitive_rule("pre").body
    assert compiled == [(body, 0), (body, 1)]
    assert [pos for pos, _plan in joined] == [0] + [1] * 28
    assert len({id(plan) for _pos, plan in joined}) == 2 and all(plan for _pos, plan in joined)


def _verdict(replay, link) -> object:
    """None when the link's step holds, else the InvalidRule message."""
    try:
        replay(link)
    except InvalidRule as exc:
        return str(exc)
    return None


def _step(link, premises, rule_id=None, triple=None):
    """The link with its step's premises (and rule id, triple) replaced."""
    source, type_id, target = triple or link.triple()
    return SemanticLink(link.id, source, type_id, target, link.weight,
                        rule_id or link.rule_id, tuple(premises))


def test_import_step_replay_agrees_with_the_full_replay():
    """rules.step_replay, which KSIF import runs, gives the verdict and
    message reconstruct_substitution gives: on every derived link of seeded
    rule networks, as stored, with its premises reversed and with a premise
    swapped for another stored link, and on hand-made closure steps."""
    rng = random.Random(31)
    verdicts = collections.Counter()
    for _ in range(12):
        net = rule_network(rng)
        derive_fixpoint(net)
        replay, full = rules.step_replay(net), functools.partial(reconstruct_substitution, net)
        stored = sorted(net.links)
        for link in [link for link in net.links.values() if not link.is_explicit]:
            swapped = list(link.premises)
            swapped[rng.randrange(len(swapped))] = rng.choice(stored)
            for premises in (link.premises, link.premises[::-1], swapped):
                probe = _step(link, premises)
                verdict = _verdict(replay, probe)
                assert verdict == _verdict(full, probe), probe
                verdicts[verdict is None] += 1
    assert verdicts[True] > 200 and verdicts[False] > 200, verdicts

    net = Network()
    for node in "abcd":
        net.add_node(RepBundle(node), node_id=node)
    net.add_link_type(RepBundle("t"), transitive=True, type_id="t")
    net.add_link_type(RepBundle("s"), transitive=True, symmetric=True, type_id="s")
    net.add_link_type(RepBundle("u"), type_id="u")
    for lid, source, type_id, target in (
            ("ab", "a", "t", "b"), ("bc", "b", "t", "c"), ("cd", "c", "t", "d"),
            ("aa", "a", "t", "a"), ("ub", "a", "u", "b"), ("sb", "a", "s", "b"),
            ("cs", "c", "s", "b")):
        net.assert_link(source, type_id, target, link_id=lid)
    replay, full = rules.step_replay(net), functools.partial(reconstruct_substitution, net)
    link = SemanticLink("k", "a", "t", "c", 1.0, "sys.transitive.t", ("ab", "bc"))
    cases = [
        (("ab", "bc"), None, True),                        # a chain
        (("bc", "ab"), None, False),                       # premises swapped
        (("ub", "bc"), None, False),                       # a premise of another type
        (("aa", "ab"), ("a", "t", "b"), True),             # through a self-loop
        (("aa", "aa"), ("a", "t", "a"), True),             # a self-loop twice
        (("ab", "cd"), ("a", "t", "d"), False),            # the middle nodes differ
        (("ab", "bc", "cd"), ("a", "t", "d"), False),      # three premises
        (("sb", "cs"), ("a", "s", "c"), True),             # symmetric: cs read c <- b
        (("cs", "sb"), ("c", "s", "a"), True),
        (("sb", "sb"), ("a", "s", "a"), True),
        (("sb", "cs"), ("a", "s", "d"), False),
    ]
    for premises, triple, holds in cases:
        rule_id = "sys.transitive." + (triple or "ata")[1]
        probe = _step(link, premises, rule_id, triple)
        verdict = _verdict(replay, probe)
        assert verdict == _verdict(full, probe)
        assert (verdict is None) == holds, (premises, triple, verdict)
