"""Verification, problem discovery, analogy, and ability reporting."""

import collections
import copy
import gc
import hashlib
import random
import time

import pytest

from ksengine import discovery
from ksengine.concepts import ConceptStore
from ksengine.discovery import (
    AnomalyRule,
    Candidate,
    IncrementFragment,
    LinkCandidate,
    Problem,
    Verdict,
    ability_report,
    analogize,
    detect_co_occurrence,
    detect_limitation,
    find_problem,
    find_solution,
    generalize_problem,
    ingest_fragment,
    recommend,
    specialize_problem,
    trace_cause_effect,
    verify_knowledge,
)
from ksengine.errors import (
    AlreadyAtRoot,
    EmptySource,
    EmptyTypeSet,
    InvalidCandidate,
    InvalidId,
    InvalidRule,
    KsError,
    MalformedRecord,
    NonPositiveInput,
    TooLarge,
    UncategorizedProblem,
    UnknownCategory,
    UnknownConcept,
    UnknownLink,
)
from ksengine.ksif import export_state, import_state
from ksengine.rules import PatternAtom, Rule, derive_fixpoint
from ksengine.sln import (
    Explicit, LinkType, Network, QueryPattern, RepBundle, SemanticLink, SemanticNode,
)
from ksengine.state import new_state, validate_anomaly_rule
from ksengine.taxonomy import CategoryTree

import oracles
from generators import network_as_tuples, random_network


def net_from_triples(triples, type_flags=None, type_parents=None):
    """Assemble a network from plain (source, type, target) rows."""
    net = Network()
    flags = type_flags or {}
    for s, tid, t in triples:
        for n in (s, t):
            if n not in net.nodes:
                net.add_node(RepBundle(word=n), node_id=n)
        if tid not in net.link_types:
            transitive, symmetric = flags.get(tid, (False, False))
            net.add_link_type(RepBundle(word=tid), transitive, symmetric, type_id=tid)
        net.assert_link(s, tid, t)
    for tid, parent in (type_parents or {}).items():
        if parent not in net.link_types:
            net.add_link_type(RepBundle(word=parent), type_id=parent)
        net.set_type_parent(tid, parent)
    return net


def chain_rule_net():
    net = net_from_triples([("a", "t", "b"), ("b", "t", "c")])
    net.add_link_type(RepBundle(word="u"), type_id="u")
    net.rules["compose"] = Rule(
        "compose", RepBundle(word="compose"),
        (PatternAtom("?x", "t", "?y"), PatternAtom("?y", "t", "?z")),
        (PatternAtom("?x", "u", "?z"),),
    )
    return net


# ----- candidate verification -----

def test_verify_link_literal_accepts_derivable():
    net = chain_rule_net()
    candidate = Candidate("link", LinkCandidate("a", "u", "c"))
    verdict = verify_knowledge(net, candidate, mode="literal")
    assert verdict.accepted
    assert verdict.mode == "literal"
    # the check ran on a scratch copy
    assert not net.has_fact("a", "u", "c")


def test_verify_link_literal_rejects_underivable():
    net = chain_rule_net()
    verdict = verify_knowledge(net, Candidate("link", LinkCandidate("c", "u", "a")))
    assert not verdict.accepted
    assert "not derivable" in verdict.reason


def test_verify_link_structural_unknowns_are_rejections():
    net = chain_rule_net()
    for payload in (
        LinkCandidate("ghost", "t", "a"),
        LinkCandidate("a", "ghost", "b"),
        LinkCandidate("a", "t", "ghost"),
    ):
        for mode in ("literal", "consistency"):
            verdict = verify_knowledge(net, Candidate("link", payload), mode=mode)
            assert not verdict.accepted
            assert "unknown" in verdict.reason


@pytest.mark.parametrize("weight", [float("inf"), float("nan"), 10 ** 400],
                         ids=["inf", "nan", "huge-int"])
def test_verify_link_rejects_non_finite_weight(weight):
    net = chain_rule_net()
    for mode in ("literal", "consistency"):
        with pytest.raises(InvalidCandidate):
            verify_knowledge(net, Candidate("link", LinkCandidate("a", "t", "b", weight)),
                             mode=mode)


def test_verify_link_weight_takes_the_link_weight_check():
    """A bool is no weight; consistency mode must refuse it up front, not
    fail later inside assert_link."""
    net = chain_rule_net()
    for weight in (True, "1.0"):
        for mode in ("literal", "consistency"):
            with pytest.raises(InvalidCandidate):
                verify_knowledge(net, Candidate("link", LinkCandidate("a", "t", "c", weight)),
                                 mode=mode)


def test_verify_link_bad_payload_raises():
    net = chain_rule_net()
    with pytest.raises(InvalidCandidate):
        verify_knowledge(net, Candidate("link", "not a link"))
    with pytest.raises(InvalidCandidate):
        verify_knowledge(net, Candidate("link", LinkCandidate("a", "t", "b", -1.0)))
    with pytest.raises(ValueError):
        verify_knowledge(net, Candidate("link", LinkCandidate("a", "t", "b")),
                         mode="vibes")
    with pytest.raises(InvalidCandidate):
        verify_knowledge(net, Candidate("spell", "abracadabra"))


def test_verify_link_consistency_checks_exclusive_pairs():
    net = net_from_triples([("a", "hot", "b")])
    net.add_link_type(RepBundle(word="cold"), type_id="cold")
    clash = Candidate("link", LinkCandidate("a", "cold", "b"))
    verdict = verify_knowledge(net, clash, mode="consistency",
                               exclusive_pairs=[("hot", "cold")])
    assert not verdict.accepted
    assert "conflicts" in verdict.reason
    elsewhere = Candidate("link", LinkCandidate("b", "cold", "a"))
    verdict = verify_knowledge(net, elsewhere, mode="consistency",
                               exclusive_pairs=[("hot", "cold")])
    assert verdict.accepted
    assert verdict.mode == "consistency"


def test_verify_rule_literal_requires_all_heads():
    net = chain_rule_net()
    derive_fixpoint(net)
    held = Rule(
        "held", RepBundle(word="held"),
        (PatternAtom("?x", "t", "?y"), PatternAtom("?y", "t", "?z")),
        (PatternAtom("?x", "u", "?z"),),
    )
    assert verify_knowledge(net, Candidate("rule", held)).accepted
    novel = Rule(
        "novel", RepBundle(word="novel"),
        (PatternAtom("?x", "t", "?y"),),
        (PatternAtom("?y", "u", "?x"),),
    )
    verdict = verify_knowledge(net, Candidate("rule", novel))
    assert not verdict.accepted
    assert "not derivable" in verdict.reason
    # consistency mode tolerates the new conclusions absent contradictions
    assert verify_knowledge(net, Candidate("rule", novel), mode="consistency").accepted


def test_verify_rule_structural_problems_raise():
    net = chain_rule_net()
    broken = Rule("broken", RepBundle(word="broken"), (),
                  (PatternAtom("?x", "u", "?x"),))
    with pytest.raises(InvalidCandidate):
        verify_knowledge(net, Candidate("rule", broken))
    ghost_type = Rule(
        "ghost", RepBundle(word="ghost"),
        (PatternAtom("?x", "t", "?y"),),
        (PatternAtom("?x", "seven", "?y"),),
    )
    verdict = verify_knowledge(net, Candidate("rule", ghost_type))
    assert not verdict.accepted
    assert "unknown link type" in verdict.reason


def test_verify_concept_candidate():
    net = chain_rule_net()
    store = ConceptStore()
    base = store.add_concept("base")
    orphan = store.add_concept("orphan")
    orphan.structure.classes.append("missing")
    child = store.add_concept("child")
    child.structure.classes.append(base.id)
    assert verify_knowledge(net, Candidate("concept", child), concepts=store).accepted
    verdict = verify_knowledge(net, Candidate("concept", orphan), concepts=store)
    assert not verdict.accepted
    assert "unknown class" in verdict.reason
    verdict = verify_knowledge(net, Candidate("concept", child))
    assert not verdict.accepted


def test_verify_rule_reusing_a_stored_id_keeps_its_consequences():
    # The stored rule r gives u(a,b); the candidate r gives v(a,b), which
    # clashes with it, whether or not the caller derived first.
    net = net_from_triples([("a", "t", "b")])
    for tid in ("u", "v"):
        net.add_link_type(RepBundle(word=tid), type_id=tid)
    net.rules["r"] = Rule("r", RepBundle(word="r"), (PatternAtom("?x", "t", "?y"),),
                          (PatternAtom("?x", "u", "?y"),))
    candidate = Candidate("rule", Rule(
        "r", RepBundle(word="r"), (PatternAtom("?x", "t", "?y"),),
        (PatternAtom("?x", "v", "?y"),),
    ))
    saturated = copy.deepcopy(net)
    derive_fixpoint(saturated)
    for network in (net, saturated):
        verdict = verify_knowledge(network, candidate, mode="consistency",
                                   exclusive_pairs=[("u", "v")])
        assert verdict == Verdict(False, "u(a,b) conflicts with v(a,b)", "consistency")


def test_verify_link_consistency_matches_naive_fixpoint():
    rng = random.Random(5150)
    for _ in range(60):
        net = random_network(rng, max_nodes=6)
        explicit, rules, symmetric, transitive = network_as_tuples(net)
        facts = oracles.naive_fixpoint(explicit, rules, symmetric, transitive)
        types = sorted(net.link_types)
        pairs = [(rng.choice(types), rng.choice(types)) for _ in range(2)]
        for _ in range(4):
            triple = (rng.choice(sorted(net.nodes)), rng.choice(types),
                      rng.choice(sorted(net.nodes)))
            verdict = verify_knowledge(net, Candidate("link", LinkCandidate(*triple)),
                                       mode="consistency", exclusive_pairs=pairs)
            if triple in facts:
                assert verdict == Verdict(True, None, "literal")
                continue
            grown = oracles.naive_fixpoint(explicit + [triple], rules, symmetric, transitive)
            clash = any((s, t2, t) in grown
                        for t1, t2 in pairs for s, tid, t in grown if tid == t1)
            assert verdict.accepted == (not clash), (triple, pairs, verdict)
            assert verdict.mode == "consistency"


def _count_deepcopies(monkeypatch):
    """Count top-level copy.deepcopy calls (copy recurses with a memo)."""
    calls = []
    real = copy.deepcopy

    def counting(obj, memo=None, *rest):
        if memo is None:
            calls.append(type(obj).__name__)
        return real(obj, memo, *rest)

    monkeypatch.setattr(copy, "deepcopy", counting)
    return calls


def test_verify_consistency_copies_the_network_once(monkeypatch):
    net = chain_rule_net()
    calls = _count_deepcopies(monkeypatch)
    verdict = verify_knowledge(net, Candidate("link", LinkCandidate("c", "u", "a")),
                               mode="consistency")
    assert verdict == Verdict(True, None, "consistency")
    assert calls == ["Network"]


# ----- cause-effect tracing -----

def cause_store():
    store = ConceptStore()
    for name in ("rain", "wet", "slip", "mop"):
        store.add_concept(name, concept_id=name)
    store.add_relation("rain", "causes", "wet", 1.0)
    store.add_relation("wet", "causes", "slip", 0.5)
    store.add_relation("mop", "prevents", "wet", 1.0)
    return store


def test_trace_follows_both_directions():
    store = cause_store()
    trace = trace_cause_effect(store, ["wet"], ["causes"])
    assert trace.nodes == ["rain", "slip", "wet"]
    by_triple = {(e.source, e.label, e.target): e for e in trace.edges}
    assert by_triple[("rain", "causes", "wet")].directions == ("backward",)
    assert by_triple[("wet", "causes", "slip")].directions == ("forward",)
    assert ("mop", "prevents", "wet") not in by_triple


def test_trace_requires_types_and_known_goals():
    store = cause_store()
    with pytest.raises(EmptyTypeSet):
        trace_cause_effect(store, ["wet"], [])
    with pytest.raises(UnknownConcept):
        trace_cause_effect(store, ["storm"], ["causes"])


def test_trace_edge_weights_and_multi_types():
    store = cause_store()
    trace = trace_cause_effect(store, ["wet"], ["causes", "prevents"])
    weights = {(e.source, e.target): e.weight for e in trace.edges}
    assert weights[("wet", "slip")] == 0.5
    assert ("mop", "wet") in weights


# ----- co-occurrence problems -----

def test_detect_co_occurrence_thresholds():
    events = [
        ("r1", ["x", "y", "x"]),
        ("r2", ["y", "x"]),
        ("r3", ["x", "z"]),
    ]
    problems = detect_co_occurrence(events, min_support=2)
    assert [p.id for p in problems] == ["co.x.y"]
    problem = problems[0]
    assert problem.kind == "relationship"
    assert problem.evidence == ("r1", "r2")
    assert problem.concepts == ("x", "y")
    assert "2 of 3" in problem.statement
    assert detect_co_occurrence(events, min_support=3) == []
    with pytest.raises(NonPositiveInput):
        detect_co_occurrence(events, min_support=0)


def test_detect_co_occurrence_refuses_ids_no_state_could_load():
    with pytest.raises(InvalidId):
        detect_co_occurrence([("r1", ["café", "tea"])], min_support=1)


# ----- generalize / specialize -----

def category_tree():
    tree = CategoryTree()
    tree.add("root", "everything", None)
    tree.add("mid", "middle", "root")
    tree.add("leaf1", "one", "mid")
    tree.add("leaf2", "two", "mid")
    return tree


def test_generalize_problem_moves_up():
    tree = category_tree()
    problem = Problem("p1", "anomaly", "odd", evidence=("e",), category="leaf1")
    up = generalize_problem(problem, tree)
    assert up.id == "p1.up"
    assert up.kind == "generalized"
    assert up.category == "mid"
    assert up.statement == problem.statement
    with pytest.raises(AlreadyAtRoot):
        generalize_problem(Problem("p", "anomaly", "s", ("e",), category="root"), tree)
    with pytest.raises(UncategorizedProblem):
        generalize_problem(Problem("p", "anomaly", "s", ("e",)), tree)
    with pytest.raises(UnknownCategory):
        generalize_problem(Problem("p", "anomaly", "s", ("e",), category="zzz"), tree)


def test_specialize_problem_fans_out():
    tree = category_tree()
    problem = Problem("p1", "anomaly", "odd", evidence=("e",), category="mid")
    downs = specialize_problem(problem, tree)
    assert [p.id for p in downs] == ["p1.down.leaf1", "p1.down.leaf2"]
    assert all(p.kind == "specialized" for p in downs)
    assert [p.category for p in downs] == ["leaf1", "leaf2"]
    assert specialize_problem(
        Problem("p", "anomaly", "s", ("e",), category="leaf1"), tree) == []


# ----- limitations -----

def test_detect_limitation_lists_unmet_heads():
    net = chain_rule_net()
    rule = net.rules["compose"]
    observations = [net.links[lid] for lid in sorted(net.links)]
    problems = detect_limitation(rule, observations)
    assert len(problems) == 1
    problem = problems[0]
    assert problem.id == "lim.compose.0000"
    assert problem.kind == "limitation"
    assert "u(a,c)" in problem.statement
    assert problem.evidence == tuple(sorted(l.id for l in observations))
    assert problem.concepts == ("a", "b", "c")
    derive_fixpoint(net)
    observations = [net.links[lid] for lid in sorted(net.links)]
    assert detect_limitation(rule, observations) == []


def test_detect_limitation_rejects_bad_rule():
    with pytest.raises(InvalidRule):
        detect_limitation(
            Rule("r", RepBundle(word="r"), (), (PatternAtom("?x", "t", "?x"),)), []
        )


# ----- anomaly rules -----

@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf"), 10 ** 400],
                         ids=["nan", "inf", "-inf", "huge-int"])
def test_anomaly_threshold_must_be_finite(threshold):
    rule = AnomalyRule("w", (PatternAtom("?x", "t", "?y"),), "count", "ge", threshold, "x")
    assert validate_anomaly_rule(rule) == [f"threshold must be a finite number, got {threshold!r}"]
    rule.threshold = -2
    assert validate_anomaly_rule(rule) == []


def test_anomaly_terms_are_checked_as_rule_terms():
    """The check import applies: a stored rule that validates also loads."""
    rule = AnomalyRule("w", (PatternAtom("?x", "bad term", "?y"),), "count", "ge", 1.0, "x")
    assert validate_anomaly_rule(rule) == ["condition: bad identifier 'bad term'"]
    state = new_state()
    state.anomaly_rules["w"] = rule
    with pytest.raises(MalformedRecord) as err:
        import_state(export_state(state))
    assert err.value.line == 2 and "bad term" in err.value.reason
    with pytest.raises(InvalidRule):
        find_problem([], [rule])


def observations_net():
    return net_from_triples([
        ("a", "cites", "b"),
        ("b", "cites", "c"),
        ("c", "cites", "a"),
        ("a", "likes", "b"),
    ])


def test_find_problem_count_metric():
    net = observations_net()
    links = [net.links[lid] for lid in sorted(net.links)]
    rule = AnomalyRule(
        id="many.cites",
        atoms=(PatternAtom("?x", "cites", "?y"),),
        metric="count",
        op="ge",
        threshold=3,
        template="{count} citation pairs among {total} links",
    )
    problems = find_problem(links, [rule])
    assert len(problems) == 1
    problem = problems[0]
    assert problem.id == "anom.many.cites"
    assert problem.kind == "anomaly"
    assert problem.statement == "3 citation pairs among 4 links"
    assert len(problem.evidence) == 3
    assert problem.concepts == ("a", "b", "c")


def test_find_problem_freq_metric_and_unknown_placeholder():
    net = observations_net()
    links = [net.links[lid] for lid in sorted(net.links)]
    rule = AnomalyRule(
        id="like.rate",
        atoms=(PatternAtom("?x", "likes", "?y"),),
        metric="freq",
        op="le",
        threshold=0.5,
        template="share {share} with {mystery}",
    )
    problems = find_problem(links, [rule])
    assert len(problems) == 1
    assert problems[0].statement == "share 0.25 with {mystery}"


def test_find_problem_suppresses_evidence_free_hits():
    net = observations_net()
    links = [net.links[lid] for lid in sorted(net.links)]
    net.add_link_type(RepBundle(word="hates"), type_id="hates")
    vacuous = AnomalyRule(
        id="no.hate",
        atoms=(PatternAtom("?x", "hates", "?y"),),
        metric="count",
        op="le",
        threshold=5,
        template="{count} hate links",
    )
    assert find_problem(links, [vacuous]) == []


def test_find_problem_sorts_by_rule_id_and_validates():
    net = observations_net()
    links = [net.links[lid] for lid in sorted(net.links)]
    r1 = AnomalyRule("b.rule", (PatternAtom("?x", "cites", "?y"),),
                     "count", "ge", 1, "cites {count}")
    r2 = AnomalyRule("a.rule", (PatternAtom("?x", "likes", "?y"),),
                     "count", "ge", 1, "likes {count}")
    problems = find_problem(links, [r1, r2])
    assert [p.id for p in problems] == ["anom.a.rule", "anom.b.rule"]
    bad = AnomalyRule("bad", (), "count", "ge", 1, "x")
    with pytest.raises(InvalidRule):
        find_problem(links, [bad])
    worse = AnomalyRule("worse", (PatternAtom("?x", "cites", "?y"),),
                        "median", "ge", 1, "x")
    with pytest.raises(InvalidRule):
        find_problem(links, [worse])


# ----- solutions and recommendations -----

def test_find_solution_walks_solution_relations():
    store = cause_store()
    problem = Problem("p", "anomaly", "wet floor", ("e",), concepts=("wet",))
    solutions = find_solution(store, problem, ["prevents"])
    assert solutions == ["mop"]
    assert find_solution(store, problem, []) == []
    stranger = Problem("q", "anomaly", "unknown entity", ("e",), concepts=("alien",))
    assert find_solution(store, stranger, ["prevents"]) == []


def test_recommend_orders_by_evidence_then_id():
    p1 = Problem("p1", "anomaly", "s", evidence=("a",))
    p2 = Problem("p2", "anomaly", "s", evidence=("a", "b"))
    p3 = Problem("a0", "anomaly", "s", evidence=("a",))
    recs = recommend([(p1, ["x"]), (p2, []), (p3, ["y", "x", "y"])])
    assert [r.problem_id for r in recs] == ["p2", "a0", "p1"]
    assert recs[0].unsolved
    assert not recs[1].unsolved
    assert recs[1].solutions == ("x", "y")


# ----- analogy -----

def test_analogize_exact_on_relabeled_target():
    source = net_from_triples([
        ("p1", "cites", "p2"),
        ("p2", "cites", "p3"),
        ("p1", "solves", "p3"),
    ])
    target = net_from_triples([
        ("q1", "cites", "q2"),
        ("q2", "cites", "q3"),
        ("q1", "solves", "q3"),
        ("q3", "cites", "q1"),
    ])
    solution = [lid for lid, l in source.links.items() if l.type == "solves"]
    result = analogize(source, solution, target)
    assert result.outcome == "exact"
    assert oracles.replay_map(
        result.node_map,
        [l.triple() for l in source.links.values()],
        [l.triple() for l in target.links.values()],
    )
    assert result.mapped_solution == [
        (result.node_map["p1"], "solves", result.node_map["p3"])
    ]


def test_analogize_generalizes_types_one_level():
    source = net_from_triples(
        [("p1", "tweaks", "p2")],
        type_parents={"tweaks": "changes"},
    )
    target = net_from_triples([("q1", "changes", "q2")])
    solution = sorted(source.links)
    result = analogize(source, solution, target)
    assert result.outcome == "generalized"
    assert result.generalization == {"tweaks": "changes"}
    assert result.mapped_solution == [("q1", "changes", "q2")]


def test_analogize_lifts_two_links_onto_one():
    """Lifting a and b to their parent p maps both source links onto the
    target's one p link: a map keeps every lifted triple, though s1 has
    two outgoing links and t1 one."""
    source = Network()
    for tid in ("p", "a", "b"):
        source.add_link_type(RepBundle(word=tid), type_id=tid)
    source.set_type_parent("a", "p")
    source.set_type_parent("b", "p")
    for node in ("s1", "s2"):
        source.add_node(RepBundle(word=node), node_id=node)
    source.assert_link("s1", "a", "s2", link_id="k1")
    source.assert_link("s1", "b", "s2", link_id="k2")
    target = net_from_triples([("t1", "p", "t2")])
    result = analogize(source, ["k1"], target)
    assert result.outcome == "generalized"
    assert result.node_map == {"s1": "t1", "s2": "t2"}
    assert result.generalization == {"a": "p", "b": "p"}
    assert result.mapped_solution == [("t1", "p", "t2")]


def test_analogize_conjectures_and_measures_impact():
    source = net_from_triples([
        ("p1", "cites", "p2"),
        ("p2", "cites", "p3"),
        ("p1", "solves", "p3"),
    ])
    target = net_from_triples([
        ("q1", "cites", "q2"),
        ("q2", "cites", "q3"),
    ])
    target.add_link_type(RepBundle(word="solves"), type_id="solves")
    target.add_link_type(RepBundle(word="closed"), type_id="closed")
    target.rules["closure"] = Rule(
        "closure", RepBundle(word="closure"),
        (PatternAtom("?x", "solves", "?y"),),
        (PatternAtom("?x", "closed", "?y"),),
    )
    solution = [lid for lid, l in source.links.items() if l.type == "solves"]
    result = analogize(source, solution, target)
    assert result.outcome == "conjecture"
    statuses = {rs.triple: rs.status for rs in result.problem_relations}
    assert statuses[(result.node_map["p1"], "cites", result.node_map["p2"])] == "present"
    conjectured = [rs for rs in result.solution_relations if rs.status == "conjectured"]
    assert len(conjectured) == 1
    q_solve = conjectured[0].triple
    assert q_solve[1] == "solves"
    assert (q_solve[0], "closed", q_solve[2]) in result.impact


def test_analogize_error_paths():
    source = net_from_triples([("p1", "t", "p2")])
    target = net_from_triples([("q1", "t", "q2")])
    with pytest.raises(EmptySource):
        analogize(Network(), [], target)
    with pytest.raises(TooLarge):
        analogize(source, [], target, max_nodes=1)
    with pytest.raises(UnknownLink):
        analogize(source, ["k999999"], target)


def test_analogize_none_when_target_too_small():
    source = net_from_triples([("p1", "t", "p2"), ("p2", "t", "p3")])
    target = net_from_triples([("q1", "t", "q1")])
    result = analogize(source, [], target)
    assert result.outcome == "none"
    assert result.node_map is None


def test_stage_one_matches_permutation_search():
    rng = random.Random(808)
    for _ in range(30):
        source = random_network(rng, max_nodes=4, max_types=2, max_rules=0)
        target = random_network(rng, max_nodes=5, max_types=2, max_rules=0)
        # share the type vocabulary so embeddings are possible at all
        for tid in source.link_types:
            if tid not in target.link_types:
                target.add_link_type(RepBundle(word=tid), type_id=tid)
        s_triples = [l.triple() for l in source.links.values()]
        t_triples = [l.triple() for l in target.links.values()]
        want = oracles.iso_search(
            sorted(source.nodes), s_triples, sorted(target.nodes), t_triples
        )
        result = analogize(source, [], target)
        if want is None:
            assert result.outcome != "exact"
        else:
            assert result.outcome == "exact"
            assert oracles.replay_map(result.node_map, s_triples, t_triples)


def test_best_partial_map_matches_the_exhaustive_walk():
    """The cut conjecture search returns the map the whole walk returns:
    the first, in permutation order, preserving the most source triples.
    Asked for a map keeping every triple (a repeated one twice, as when two
    triples are lifted onto one), it returns the permutation search's first
    such map, or None."""
    rng = random.Random(4141)
    for _ in range(300):
        s_nodes = [f"s{i}" for i in range(rng.randint(1, 4))]
        t_nodes = [f"t{i}" for i in range(rng.randint(len(s_nodes), 5))]
        s_triples = sorted({(rng.choice(s_nodes), rng.choice("ab"), rng.choice(s_nodes))
                            for _ in range(rng.randint(0, 6))})
        t_triples = {(rng.choice(t_nodes), rng.choice("ab"), rng.choice(t_nodes))
                     for _ in range(rng.randint(0, 8))}
        want = oracles.best_partial_map(s_nodes, s_triples, t_nodes, t_triples)
        assert discovery._best_partial_map(s_nodes, s_triples, t_nodes, t_triples) == want
        repeated = s_triples + s_triples[:len(s_triples) // 2]
        assert discovery._best_partial_map(
            s_nodes, repeated, t_nodes, t_triples, floor=len(repeated) - 1
        ) == oracles.iso_search(s_nodes, repeated, t_nodes, t_triples)


def test_conjecture_search_cuts_a_cycle_into_a_chain():
    """A directed 8-cycle into a 10-chain keeps at most 7 of its 8 links, so
    the uncut walk visited all 1.8 million injections (seconds); the cut
    one returns the same first best map at once."""
    source = net_from_triples([(f"c{i}", "r", f"c{(i + 1) % 8}") for i in range(8)])
    target = net_from_triples([(f"n{i}", "r", f"n{i + 1}") for i in range(9)])
    started = time.perf_counter()
    result = analogize(source, [], target)
    assert time.perf_counter() - started < 1.0
    assert result.outcome == "conjecture"
    assert result.node_map == {f"c{i}": f"n{i}" for i in range(8)}
    assert [rs.status for rs in result.problem_relations].count("conjectured") == 1


def test_conjecture_search_stops_when_no_triple_can_be_kept():
    """The source's one triple has a type the 10-node target lacks, on the
    two nodes last in sorted order, so every map keeps nothing and the
    first map is the best. The walk that waited for both ends to be mapped
    before counting the triple as missed visited nearly all 3.6 million
    injections of the 9 nodes (seconds); the bounded one stops at once."""
    source = net_from_triples([("s7", "x", "s8")])
    for i in range(7):
        source.add_node(RepBundle(word=f"s{i}"), node_id=f"s{i}")
    target = net_from_triples([(f"t{i}", "r", f"t{i + 1}") for i in range(9)])
    started = time.perf_counter()
    result = analogize(source, [], target)
    assert time.perf_counter() - started < 1.0
    assert result.outcome == "conjecture"
    assert result.node_map == {f"s{i}": f"t{i}" for i in range(9)}
    assert [rs.status for rs in result.problem_relations] == ["conjectured"]


def cocite_analogy():
    """A source whose best map into the target conjectures two citations
    that only re-derive what the target's co-citation rule already gives."""
    source = net_from_triples([
        ("s1", "cites", "s3"), ("s2", "cites", "s3"),
        ("s1", "cites", "s4"), ("s2", "cites", "s4"),
    ])
    target = net_from_triples([("a", "cites", "rb"), ("b", "cites", "rb")])
    target.add_node(RepBundle(word="ra"), node_id="ra")
    target.add_link_type(RepBundle(word="same"), type_id="same")
    target.rules["cocite"] = Rule(
        "cocite", RepBundle(word="cocite"),
        (PatternAtom("?x", "cites", "?z"), PatternAtom("?y", "cites", "?z")),
        (PatternAtom("?x", "same", "?y"),),
    )
    return source, target


def test_analogize_impact_leaves_out_what_already_holds():
    source, target = cocite_analogy()
    saturated = copy.deepcopy(target)
    derive_fixpoint(saturated)
    results = [analogize(source, [], network) for network in (target, saturated)]
    assert results[0] == results[1]
    conjectured = [rs.triple for rs in results[0].problem_relations
                   if rs.status == "conjectured"]
    assert conjectured == [("a", "cites", "ra"), ("b", "cites", "ra")]
    assert results[0].impact == []


def test_analogize_conjecture_copies_the_target_once(monkeypatch):
    source, target = cocite_analogy()
    calls = _count_deepcopies(monkeypatch)
    assert analogize(source, [], target).outcome == "conjecture"
    assert calls == ["Network"]


def test_analogize_leaves_no_reference_cycles():
    """Both map searches read one module-level enumeration; a nested
    recursive search closure would be a reference cycle per call, left
    for the cyclic collector."""
    exact = (net_from_triples([("p1", "cites", "p2"), ("p2", "cites", "p3")]),
             net_from_triples([("q1", "cites", "q2"), ("q2", "cites", "q3")]))
    conjecture = cocite_analogy()
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert analogize(exact[0], [], exact[1]).outcome == "exact"
        assert analogize(conjecture[0], [], conjecture[1]).outcome == "conjecture"
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def _symmetric_closure(triples, symmetric):
    return set(triples) | {(t, tid, s) for s, tid, t in triples if tid in symmetric}


def test_analogize_impact_is_what_the_conjectures_add():
    rng = random.Random(777)
    conjecture_cases = 0
    for _ in range(200):
        source = random_network(rng, max_nodes=4, max_types=3, max_rules=0)
        target = random_network(rng, max_nodes=5, max_types=2, max_rules=3)
        solution = [lid for lid in sorted(source.links) if rng.random() < 0.5]
        result = analogize(source, solution, target)
        if result.outcome != "conjecture":
            continue
        conjectures = sorted({rs.triple for rs in result.problem_relations
                              + result.solution_relations if rs.status == "conjectured"})
        if not conjectures:
            continue
        conjecture_cases += 1
        explicit, rules, symmetric, transitive = network_as_tuples(target)
        # A conjectured type the target lacks comes with the source's flags.
        for tid in {tid for _s, tid, _t in conjectures} - set(target.link_types):
            if source.link_types[tid].symmetric:
                symmetric.add(tid)
            if source.link_types[tid].transitive:
                transitive.add(tid)
        before = oracles.naive_fixpoint(explicit, rules, symmetric, transitive)
        after = oracles.naive_fixpoint(explicit + conjectures, rules, symmetric, transitive)
        assert len(result.impact) == len(set(result.impact))
        assert _symmetric_closure(result.impact, symmetric) == (
            after - before - _symmetric_closure(conjectures, symmetric)
        )
    assert conjecture_cases >= 50


def test_analogize_answers_do_not_depend_on_saturation():
    def saturated(net):
        out = copy.deepcopy(net)
        derive_fixpoint(out)
        return out

    rng = random.Random(777)
    with_derived = 0
    outcomes = set()
    for _ in range(300):
        source = random_network(rng, max_nodes=4, max_types=3, max_rules=2)
        target = random_network(rng, max_nodes=6, max_types=3, max_rules=3)
        solution = [lid for lid in sorted(source.links) if rng.random() < 0.5]
        full_source, full_target = saturated(source), saturated(target)
        with_derived += (len(full_source.links) > len(source.links)
                         or len(full_target.links) > len(target.links))
        raw = analogize(source, solution, target)
        outcomes.add(raw.outcome)
        assert analogize(full_source, solution, target) == raw
        assert analogize(source, solution, full_target) == raw
        assert analogize(full_source, solution, full_target) == raw
    assert with_derived >= 100
    assert {"exact", "conjecture"} <= outcomes


def _random_type_parents(rng, net):
    """Give most of the network's types a random ancestor among the types
    before it, so lifting can succeed."""
    types = sorted(net.link_types)
    for k, tid in enumerate(types[1:], start=1):
        if rng.random() < 0.8:
            net.set_type_parent(tid, rng.choice(types[:k]))


def _analogy_case(rng):
    """A seeded analogize call: source types get random ancestors, some
    solutions name an unknown link, and some node limits are too small."""
    source = random_network(rng, max_nodes=4, max_types=3, max_rules=0)
    target = random_network(rng, max_nodes=6, max_types=3, max_rules=2)
    _random_type_parents(rng, source)
    solution = [lid for lid in sorted(source.links) if rng.random() < 0.4]
    if rng.random() < 0.05:
        solution.append("k999999")
    return source, solution, target, rng.choice((5, 6, 10))


def _analogy_text(source, solution, target, max_nodes):
    try:
        r = analogize(source, solution, target, max_nodes=max_nodes)
    except KsError as exc:
        return type(exc).__name__, f"{type(exc).__name__}: {exc}"
    return r.outcome, repr((
        r.outcome, sorted((r.node_map or {}).items()), r.mapped_solution,
        sorted(r.generalization.items()),
        [(rs.triple, rs.status) for rs in r.problem_relations],
        [(rs.triple, rs.status) for rs in r.solution_relations], r.impact,
    ))


def test_analogize_output_is_pinned():
    """Which map each search picks (first found, first best), the statuses
    and impact it leads to, and the errors are all output; a different
    search must give the same."""
    rng = random.Random(16)
    digest = hashlib.sha256()
    outcomes = collections.Counter()
    for _ in range(300):
        outcome, text = _analogy_text(*_analogy_case(rng))
        outcomes[outcome] += 1
        digest.update(text.encode() + b"\n")
    assert outcomes == {"conjecture": 158, "none": 60, "exact": 28, "generalized": 14,
                        "TooLarge": 23, "UnknownLink": 17}
    assert digest.hexdigest() == (
        "708ed58df9f699c31aefac544b233590191a1d85bf785ce6e9fd45fe0757738a")


def test_analogize_stops_at_the_first_level_a_map_keeps_every_triple():
    """Lift the source types one level at a time, as analogize does, and
    ask the permutation search for a map keeping every lifted triple at
    each level: analogize answers at the first level that has one (exact
    at level 0, generalized with that level's lifts after), and with no
    such level conjectures or finds no map."""
    rng = random.Random(2424)
    outcomes = collections.Counter()
    for _ in range(400):
        source = random_network(rng, max_nodes=4, max_types=3, max_rules=0)
        target = random_network(rng, max_nodes=5, max_types=3, max_rules=0)
        _random_type_parents(rng, source)
        s_triples = [link.triple() for link in source.links.values()]
        t_triples = [link.triple() for link in target.links.values()]
        type_map = {tid: tid for _s, tid, _t in s_triples}
        while True:
            lifted_triples = [(s, type_map[tid], t) for s, tid, t in s_triples]
            want = oracles.iso_search(
                sorted(source.nodes), lifted_triples, sorted(target.nodes), t_triples)
            up = {tid: source.link_types[cur].parent or cur for tid, cur in type_map.items()}
            if want is not None or up == type_map:
                break
            type_map = up
        result = analogize(source, [], target)
        outcomes[result.outcome] += 1
        if want is None:
            assert result.outcome in ("conjecture", "none")
            continue
        lifts = {tid: new for tid, new in type_map.items() if tid != new}
        assert result.outcome == ("generalized" if lifts else "exact")
        assert result.generalization == lifts
        assert oracles.replay_map(result.node_map, lifted_triples, t_triples)
    assert min(outcomes[o] for o in ("exact", "generalized", "conjecture", "none")) >= 10


def test_analogize_reads_a_derived_target_relation_as_derivable():
    source = net_from_triples([("p1", "cites", "p2"), ("p2", "cites", "p3"),
                               ("p1", "cites", "p3")])
    target = net_from_triples([("q1", "cites", "q2"), ("q2", "cites", "q3")])
    target.link_types["cites"].transitive = True
    derive_fixpoint(target)
    assert target.has_fact("q1", "cites", "q3")
    result = analogize(source, [], target)
    assert result.outcome == "conjecture"
    statuses = {rs.triple: rs.status for rs in result.problem_relations}
    assert statuses[("q1", "cites", "q3")] == "derivable"


# ----- ability over increments -----

def test_ability_report_counts_growth():
    net = net_from_triples([("a", "t", "b")])
    net.add_node(RepBundle(word="c"), node_id="c")
    questions = [
        QueryPattern("a", "t", None),
        QueryPattern("a", None, "c"),
        QueryPattern("ghost", "t", None),
    ]
    fragment = IncrementFragment(
        links=[SemanticLink("kx00001", "a", "t", "c", 1.0, Explicit())]
    )
    report = ability_report(copy.deepcopy(net), questions, [fragment])
    assert [e.increment for e in report.entries] == [0, 1]
    assert report.entries[0].answered == 1
    assert report.entries[1].answered == 2
    assert all(e.questions == 3 for e in report.entries)


def test_ability_report_counts_problems():
    net = net_from_triples([("a", "t", "b")])
    rule = AnomalyRule("watch", (PatternAtom("?x", "t", "?y"),),
                       "count", "ge", 2, "{count} hits")
    fragment = IncrementFragment(
        links=[SemanticLink("kx00001", "b", "t", "a", 1.0, Explicit())]
    )
    report = ability_report(copy.deepcopy(net), [], [fragment], anomaly_rules=[rule])
    assert report.entries[0].problems == 0
    assert report.entries[1].problems == 1


def test_ability_report_upgrades_a_derived_triple_an_increment_asserts():
    """The increment asserts a triple the network has derived: the stored
    link turns explicit in place, keeping its id, and the fragment's id
    goes unused."""
    net = net_from_triples([("a", "t", "b"), ("b", "t", "c")], type_flags={"t": (True, False)})
    fragment = IncrementFragment(
        links=[SemanticLink("kx1", "a", "t", "c", 2.0, Explicit())]
    )
    derive_fixpoint(net)
    (derived,) = [l for l in net.links.values() if l.triple() == ("a", "t", "c")]
    assert not derived.is_explicit
    report = ability_report(net, [QueryPattern("a", "t", None)], [fragment])
    assert [(e.answered, e.questions) for e in report.entries] == [(1, 1), (1, 1)]
    assert net.links[derived.id].is_explicit and net.links[derived.id].weight == 2.0
    assert "kx1" not in net.links


def test_ability_report_ingests_types_nodes_and_rules():
    """An increment's link types (one under a parent), nodes and rules enter
    the network before its links, so its links may use them and its rules
    derive over them; the new type's parent answers nothing by itself."""
    net = net_from_triples([("a", "t", "b")])
    fragment = IncrementFragment(
        link_types=[LinkType("sub", RepBundle(word="sub"), parent="t"),
                    LinkType("lift", RepBundle(word="lift"))],
        nodes=[SemanticNode("c", RepBundle(word="c"), {"size": 3})],
        rules=[Rule("up", RepBundle(word="up"), (PatternAtom("?x", "sub", "?y"),),
                    (PatternAtom("?x", "lift", "?y"),))],
        links=[SemanticLink("kx1", "b", "sub", "c", 1.0, Explicit())],
    )
    questions = [QueryPattern("b", "lift", None), QueryPattern("b", "sub", None)]
    report = ability_report(net, questions, [fragment])
    assert [(e.answered, e.questions) for e in report.entries] == [(0, 2), (2, 2)]
    assert net.link_types["sub"].parent == "t" and net.link_types["lift"].parent is None
    assert net.nodes["c"].attributes == {"size": 3}
    assert net.has_fact("b", "lift", "c") and net.links["kx1"].is_explicit
    assert net.answer_query(QueryPattern("b", "t", None)) == []


def test_ability_report_rejects_a_rule_id_an_increment_repeats():
    rule = Rule("up", RepBundle(word="up"), (PatternAtom("?x", "t", "?y"),),
                (PatternAtom("?y", "t", "?x"),))
    net = net_from_triples([("a", "t", "b")])
    with pytest.raises(InvalidRule, match="'up' already present") as err:
        ability_report(net, [], [IncrementFragment(rules=[rule]),
                                 IncrementFragment(rules=[rule])])
    assert str(err.value).startswith("increment 2: ")


def test_ingest_fragment_rejects_duplicate_rule():
    net = chain_rule_net()
    fragment = IncrementFragment(rules=[net.rules["compose"]])
    with pytest.raises(InvalidRule):
        ingest_fragment(net, fragment)
