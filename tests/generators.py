"""Seeded random builders shared by the property-style tests.

Every generator takes an explicit random.Random so failures replay exactly.
The builders lean small on purpose: the cross-check oracles in oracles.py
use exhaustive search and stay honest only on tiny instances.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ksengine.concepts import ConceptStore, Lexicon
from ksengine.discovery import AnomalyRule, Problem
from ksengine.errors import DuplicateExplicitLink
from ksengine.rules import PatternAtom, Rule, derive_fixpoint, validate_rule
from ksengine.sln import ClassRef, FileRef, Network, RepBundle
from ksengine.space import Space
from ksengine.state import EngineState, new_state

Triple = Tuple[str, str, str]
RuleTuple = Tuple[Tuple[Triple, ...], Tuple[Triple, ...]]

NASTY_TEXT = (
    "tab\there",
    "line\nbreak",
    "back\\slash",
    "carriage\rreturn",
    "# looks like a comment",
    "trailing tab\t",
    "\npreceding break",
    "naïve Ω text",
    "quote \" and ' mix",
    "\\t literal backslash t",
)


def text_field(rng: random.Random, base: str, torture: bool) -> str:
    """A free-text field value, optionally salted with awkward characters."""
    if not torture:
        return base
    return f"{base} {rng.choice(NASTY_TEXT)}"


def random_network(
    rng: random.Random,
    max_nodes: int = 8,
    max_types: int = 3,
    max_rules: int = 4,
    unit_weights: bool = True,
    flag_bias: float = 0.3,
) -> Network:
    """A small network with random flags, explicit links, and safe rules."""
    net = Network()
    nodes = [
        net.add_node(RepBundle(word=f"item {i}"))
        for i in range(rng.randint(2, max_nodes))
    ]
    types = [
        net.add_link_type(
            RepBundle(word=f"relation {i}"),
            transitive=rng.random() < flag_bias,
            symmetric=rng.random() < flag_bias,
        )
        for i in range(rng.randint(1, max_types))
    ]
    for _ in range(rng.randint(1, 2 * len(nodes))):
        weight = 1.0 if unit_weights else round(rng.uniform(0.25, 2.0), 3)
        try:
            net.assert_link(rng.choice(nodes), rng.choice(types), rng.choice(nodes), weight)
        except DuplicateExplicitLink:
            pass
    var_pool = ("?a", "?b", "?c")
    for i in range(rng.randint(0, max_rules)):
        body = tuple(
            PatternAtom(rng.choice(var_pool), rng.choice(types), rng.choice(var_pool))
            for _ in range(rng.choice((1, 2, 2, 3)))
        )
        bound = tuple(v for atom in body for v in atom.variables())
        head = (PatternAtom(rng.choice(bound), rng.choice(types), rng.choice(bound)),)
        rule = Rule(f"r{i:02d}", RepBundle(word=f"hunch {i}"), body, head)
        assert not validate_rule(rule, net)
        net.add_rule(rule)
    return net


def _assert_new(net: Network, source: str, type_id: str, target: str) -> None:
    try:
        net.assert_link(source, type_id, target)
    except DuplicateExplicitLink:
        pass


def _random_rule(rng: random.Random, rule_id: str, nodes: Sequence[str],
                 types: Sequence[str]) -> Rule:
    """A valid rule of one to four body atoms (mostly three or four) and one
    or two head atoms. Every atom after the first shares a node variable
    with the atoms before it; terms may be a variable link type (?t), a
    constant node or a self-loop (?a t ?a). Heads never write the
    transitive "pre": its closure would soon outgrow the naive oracle."""
    node_vars: List[str] = []
    type_vars: List[str] = []
    fresh = iter("abcdefgh")
    body = []
    for _ in range(rng.choice((1, 2, 3, 3, 4, 4))):
        near = rng.choice(node_vars) if node_vars else f"?{next(fresh)}"
        roll = rng.random()
        if roll < 0.15:
            far = near
        elif roll < 0.25:
            far = rng.choice(nodes)
        elif roll < 0.6 and node_vars:
            far = rng.choice(node_vars)
        else:
            far = f"?{next(fresh)}"
        if rng.random() < 0.2:
            tid = rng.choice(type_vars) if type_vars and rng.random() < 0.5 else "?t"
            type_vars.append(tid)
        else:
            tid = rng.choice(types)
        source, target = (near, far) if rng.random() < 0.5 else (far, near)
        body.append(PatternAtom(source, tid, target))
        node_vars += [term for term in (source, target)
                      if term.startswith("?") and term not in node_vars]
    head = []
    for _ in range(rng.choice((1, 2, 2))):
        ends = [rng.choice(nodes) if rng.random() < 0.1 else rng.choice(node_vars)
                for _ in range(2)]
        head.append(PatternAtom(ends[0], rng.choice(("out", "rel", "sym")), ends[1]))
    return Rule(rule_id, RepBundle(word=f"rule {rule_id}"), tuple(body), tuple(head))


def rule_network(rng: random.Random, max_rules: int = 5) -> Network:
    """30 to 40 nodes under random rules that use every kind of atom the
    join handles: variable link types, constant nodes, self-loops, bodies of
    three or four atoms and two-atom heads (see _random_rule).

    Types: a transitive "pre" with short forward hops, a symmetric "sym", a
    plain "rel" and an "out" that only rules write. Explicit links include
    self-loops, so self-loop atoms match.
    """
    net = Network()
    nodes = [net.add_node(RepBundle(word=f"node {i}"), node_id=f"n{i:02d}")
             for i in range(rng.randint(30, 40))]
    for tid, transitive, symmetric in (
        ("pre", True, False), ("sym", False, True), ("rel", False, False), ("out", False, False),
    ):
        net.add_link_type(RepBundle(word=tid), transitive, symmetric, type_id=tid)
    for _ in range(len(nodes) // 2):
        i = rng.randrange(len(nodes) - 3)
        _assert_new(net, nodes[i], "pre", nodes[i + rng.randint(1, 3)])
    for tid in ("sym", "rel"):
        for _ in range(len(nodes) // 3):
            a = rng.choice(nodes)
            _assert_new(net, a, tid, a if rng.random() < 0.15 else rng.choice(nodes))
    types = sorted(net.link_types)
    for i in range(rng.randint(2, max_rules)):
        rule = _random_rule(rng, f"r{i}", nodes, types)
        assert not validate_rule(rule, net)
        net.add_rule(rule)
    return net


def deep_proof_network(n: int) -> Tuple[Network, str]:
    """An n-node pre chain plus n - 2 derived links (v_i, pre, v_last), each
    the step of sys.transitive.pre from the base link out of v_i and the
    derived link one node on; returns the network and the id of the link
    from v_0, whose proof is n - 1 nodes deep. Built with add_derived, not
    derive, so it holds no other closure links."""
    net = Network()
    for i in range(n):
        net.add_node(RepBundle(word=f"v{i}"), node_id=f"v{i:04d}")
    net.add_link_type(RepBundle(word="pre"), transitive=True, type_id="pre")
    steps = [net.assert_link(f"v{i:04d}", "pre", f"v{i + 1:04d}") for i in range(n - 1)]
    last = f"v{n - 1:04d}"
    rest = steps[-1]
    for i in range(n - 3, -1, -1):
        rest = net.add_derived(f"v{i:04d}", "pre", last, 1.0,
                               "sys.transitive.pre", (steps[i], rest))
    return net, rest


def network_as_tuples(net: Network) -> Tuple[List[Triple], List[RuleTuple], Set[str], Set[str]]:
    """Plain-data view of a network for the brute-force oracles."""
    explicit = [link.triple() for link in net.explicit_links()]
    rules: List[RuleTuple] = []
    for rid in sorted(net.rules):
        rule = net.rules[rid]
        rules.append((
            tuple((a.source, a.type, a.target) for a in rule.body),
            tuple((a.source, a.type, a.target) for a in rule.head),
        ))
    symmetric = {tid for tid, lt in net.link_types.items() if lt.symmetric}
    transitive = {tid for tid, lt in net.link_types.items() if lt.transitive}
    return explicit, rules, symmetric, transitive


def engine_fact_set(net: Network) -> FrozenSet[Triple]:
    """Every stored or symmetric-completed triple the network will report."""
    facts: Set[Triple] = set()
    for tid in net.link_types:
        for source, target, _lid in net.type_facts(tid):
            facts.add((source, tid, target))
    return frozenset(facts)


def random_space(
    rng: random.Random,
    max_dims: int = 4,
    max_depth: int = 3,
    max_resources: int = 50,
    min_dims: int = 1,
    torture: bool = False,
) -> Space:
    space = Space(name="probe")
    for d in range(rng.randint(min_dims, max_dims)):
        dim = space.add_dimension(text_field(rng, f"axis{d}", torture))
        grown: List[Tuple[str, int]] = [(dim.root, 1)]
        for c in range(rng.randint(0, 7)):
            parent, depth = rng.choice(grown)
            if depth >= max_depth:
                continue
            name = text_field(rng, f"a{d}n{c}", torture)
            cat = space.add_category(dim.id, name, parent)
            grown.append((cat, depth + 1))
    for r in range(rng.randint(0, max_resources)):
        point = {
            dim.id: rng.choice(dim.tree.ids())
            for dim in space.dimensions()
        }
        space.place(f"res{r:03d}", point)
    return space


def space_as_tables(space: Space) -> Tuple[List[str], Dict[str, Dict[str, str]], Dict[str, Dict[str, Optional[str]]]]:
    """Dimension order, placements, and per-dimension parent maps."""
    order = [dim.id for dim in space.dimensions()]
    placements = {res: dict(point) for res, point in space.placements.items()}
    parent_of: Dict[str, Dict[str, Optional[str]]] = {}
    for dim in space.dimensions():
        parent_of[dim.id] = {cid: dim.tree.parent(cid) for cid in dim.tree.ids()}
    return order, placements, parent_of


def random_concepts(
    rng: random.Random,
    state: EngineState,
    torture: bool = False,
) -> None:
    """Populate state.concepts and state.lexicon with linked random content."""
    store = state.concepts
    made: List[str] = []
    type_ids = sorted(state.network.link_types)
    for i in range(rng.randint(3, 7)):
        link_type = None
        if type_ids and rng.random() < 0.25:
            link_type = rng.choice(type_ids)
        concept = store.add_concept(
            text_field(rng, f"notion {i}", torture),
            priori=rng.random() < 0.3,
            link_type=link_type,
        )
        made.append(concept.id)
        if rng.random() < 0.6:
            concept.structure.attributes["size"] = rng.randint(0, 9)
        if rng.random() < 0.4:
            concept.structure.attributes[text_field(rng, "note", torture)] = (
                text_field(rng, "free value", torture)
            )
        if rng.random() < 0.3:
            concept.structure.attributes["mass"] = round(rng.uniform(0.0, 2.0), 4)
        for bucket, stem in (
            (concept.structure.instances, "inst"),
            (concept.services.interfaces, "api"),
            (concept.experiences.use_cases, "use"),
            (concept.experiences.objects, "obj"),
            (concept.experiences.events, "evt"),
            (concept.rules, "rule"),
            (concept.sense.media, "img"),
            (concept.sense.language, "word"),
        ):
            for k in range(rng.randint(0, 2)):
                bucket.append(text_field(rng, f"{stem} {k}", torture))
        if rng.random() < 0.4:
            steps = tuple(
                text_field(rng, f"step {s}", torture) for s in range(rng.randint(1, 3))
            )
            concept.services.processes.append(steps)
    for cid in made[1:]:
        if rng.random() < 0.5:
            store.add_class_link(cid, rng.choice(made[: made.index(cid)]))
    for _ in range(rng.randint(0, 6)):
        a, b = rng.choice(made), rng.choice(made)
        store.add_relation(a, rng.choice(("uses", "cites", "near")), b,
                           round(rng.uniform(0.5, 2.0), 3))
    for i, cid in enumerate(made):
        word = text_field(rng, f"word{i}", torture)
        state.lexicon.add(word, cid)
        if rng.random() < 0.4:
            state.lexicon.add(word, rng.choice(made))


def random_problems(rng: random.Random, state: EngineState, torture: bool = False) -> None:
    cats = [cid for dim in state.space.dimensions() for cid in dim.tree.ids()]
    concept_ids = state.concepts.ids()
    for i in range(rng.randint(0, 3)):
        kind = rng.choice(("anomaly", "relationship", "generalized",
                           "specialized", "limitation"))
        evidence: Tuple[str, ...] = ()
        if kind in ("anomaly", "limitation") or rng.random() < 0.5:
            evidence = tuple(
                text_field(rng, f"sighting {k}", torture)
                for k in range(rng.randint(1, 3))
            )
        category = rng.choice(cats) if cats and rng.random() < 0.5 else None
        concepts = tuple(rng.sample(concept_ids, k=min(2, len(concept_ids)))) \
            if concept_ids and rng.random() < 0.5 else ()
        problem = Problem(
            id=f"p{i:03d}",
            kind=kind,
            statement=text_field(rng, f"something odd {i}", torture),
            evidence=evidence,
            category=category,
            concepts=concepts,
        )
        state.add_problem(problem)


def random_anomaly_rules(rng: random.Random, state: EngineState, torture: bool = False) -> None:
    type_ids = sorted(state.network.link_types)
    if not type_ids:
        return
    for i in range(rng.randint(0, 2)):
        atoms = tuple(
            PatternAtom("?x", rng.choice(type_ids), "?y")
            for _ in range(rng.randint(1, 2))
        )
        rule = AnomalyRule(
            id=f"watch{i:02d}",
            atoms=atoms,
            metric=rng.choice(("count", "freq")),
            op=rng.choice(("ge", "gt", "le", "lt", "eq")),
            threshold=rng.choice((0.0, 1.0, 2.0, 0.5)),
            template=text_field(rng, "saw {count} of {total} hits", torture),
        )
        state.add_anomaly_rule(rule)


def random_state(rng: random.Random, torture: bool = False) -> EngineState:
    """A full engine state with derivations, ranks, and every record kind."""
    state = new_state()
    state.network = random_network(rng, max_nodes=6, unit_weights=False)
    net = state.network
    net.categories.add("k.root", text_field(rng, "knowledge", torture), None)
    anchor_cats = ["k.root"]
    for i in range(rng.randint(1, 3)):
        cid = f"k.c{i}"
        net.categories.add(cid, text_field(rng, f"area {i}", torture), "k.root")
        anchor_cats.append(cid)
    for nid in rng.sample(sorted(net.nodes), k=min(3, len(net.nodes))):
        node = net.nodes[nid]
        picks = rng.sample(anchor_cats, k=rng.randint(1, min(2, len(anchor_cats))))
        rep_c: object = node.rep.rep_c
        roll = rng.random()
        if roll < 0.2:
            rep_c = FileRef(f"doc{nid}.txt")
        elif roll < 0.4:
            rep_c = ClassRef(f"Kind{len(nid)}")
        elif roll < 0.6:
            rep_c = rng.randint(-5, 99)
        elif roll < 0.8:
            rep_c = round(rng.uniform(-2.0, 2.0), 6)
        node.rep = RepBundle(
            word=text_field(rng, node.rep.word, torture),
            rep_c=rep_c,
            rep_h=text_field(rng, "aside", torture) if rng.random() < 0.6 else "",
            rep_k=tuple(picks),
        )
    derive_fixpoint(net)
    net.recompute_ranks()
    state.space = random_space(rng, max_resources=12, torture=torture)
    random_concepts(rng, state, torture)
    random_problems(rng, state, torture)
    random_anomaly_rules(rng, state, torture)
    return state


def random_text(
    rng: random.Random,
    store: ConceptStore,
    lexicon: Lexicon,
    max_tokens: int = 200,
) -> List[str]:
    """A token stream mixing known words, unknown words, and repeats."""
    known = lexicon.words()
    filler = ["the", "a", "of", "and", "then", "very"]
    tokens: List[str] = []
    for _ in range(rng.randint(1, max_tokens)):
        if known and rng.random() < 0.6:
            tokens.append(rng.choice(known))
        else:
            tokens.append(rng.choice(filler))
    return tokens


def reading_fixture(rng: random.Random, n_entities: int = 6, n_relwords: int = 2):
    """A store and lexicon tailored for reading tests: entities plus relation words."""
    store = ConceptStore()
    lexicon = Lexicon()
    entity_ids = []
    for i in range(n_entities):
        concept = store.add_concept(f"thing {i}", concept_id=f"e{i:02d}")
        entity_ids.append(concept.id)
        lexicon.add(f"thing{i}", concept.id)
    for i in range(n_relwords):
        concept = store.add_concept(
            f"verb {i}", concept_id=f"v{i:02d}", link_type=f"acts{i}"
        )
        lexicon.add(f"verb{i}", concept.id)
    # one ambiguous word with two candidates to exercise tie-breaks
    if len(entity_ids) >= 2:
        lexicon.set_candidates("riddle", [entity_ids[0], entity_ids[1]])
    for a, b in zip(entity_ids, entity_ids[1:]):
        if rng.random() < 0.5:
            store.add_relation(a, "near", b, 1.0)
    return store, lexicon, entity_ids
