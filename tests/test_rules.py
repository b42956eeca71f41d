"""Rule validation, fixpoint derivation, explanations, and maintenance."""

import dataclasses
import math
import random

import pytest

from ksengine import rules
from ksengine.errors import DuplicateExplicitLink, InvalidRule
from ksengine.ksif import export_state
from ksengine.rules import (
    PatternAtom,
    Rule,
    derive_fixpoint,
    explain,
    get_rule,
    retract_with_maintenance,
    validate_rule,
    verify_explanation,
)
from ksengine.sln import Network, RepBundle
from ksengine.state import EngineState

import oracles
from generators import engine_fact_set, network_as_tuples, random_network


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


def _forge_no_children(net, tree):
    return dataclasses.replace(tree, children=[])


def _forge_children_from_k3(net, tree):
    k3_proof = explain(net, "k3")
    return dataclasses.replace(tree, children=[k3_proof, k3_proof])


def _forge_link_id(net, tree):
    return dataclasses.replace(tree, link_id="nope")


@pytest.mark.parametrize(
    "forge", [_forge_no_children, _forge_children_from_k3, _forge_link_id],
    ids=["no-children", "children-from-k3", "unknown-link-id"],
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
    derive_fixpoint(net)
    assert net.has_fact("a", g, "b")
    retract_with_maintenance(net, base1)
    assert not net.has_fact("a", t, "b")
    assert net.has_fact("a", g, "b")
    survivors = [l for l in net.derived_links() if l.triple() == ("a", "g", "b")]
    assert len(survivors) == 1
    assert survivors[0].provenance.rule_id == "via_u"
    assert survivors[0].provenance.premises == (base2,)


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
            retract_with_maintenance(net, rng.choice(explicit_ids))
            explicit, rules, symmetric, transitive = network_as_tuples(net)
            want = oracles.naive_fixpoint(explicit, rules, symmetric, transitive)
            assert engine_fact_set(net) == want


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
        retract_with_maintenance(net, rng.choice(net.explicit_links()).id)
        _check_against_oracles(net)

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


def test_each_firing_is_enumerated_once(monkeypatch):
    calls = _count_matches(monkeypatch)
    net = Network()
    for i in range(30):
        net.add_node(RepBundle(word=f"v{i}"), node_id=f"v{i:02d}")
    net.add_link_type(RepBundle(word="pre"), transitive=True, type_id="pre")
    for i in range(29):
        net.assert_link(f"v{i:02d}", "pre", f"v{i + 1:02d}")
    # A twin of the transitive rule: links one rule adds in a round must stay
    # invisible to the other until the next round.
    _add_rule(net, "twin", (("?x", "pre", "?y"), ("?y", "pre", "?z")), (("?x", "pre", "?z"),))
    derive_fixpoint(net)
    # A path i < j < k is one firing of each rule.
    assert sum(map(len, calls)) == 2 * math.comb(30, 3)
