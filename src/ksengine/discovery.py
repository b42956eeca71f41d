"""Discovery loop: verification, problem finding, analogy, and ability reports.

Everything here is deterministic: verification and analogy each derive one
scratch copy of the caller's network once and reuse that saturated copy,
problems come out in sorted order, the analogy searches visit nodes in
a fixed order, and ability reports replay the same measurements per increment.
One analogy search, the best-map search over a backtracking enumeration
of injective node maps after Ullmann (JACM 1976), serves every stage: the
exact and lifted stages ask it for a map keeping every triple.

The problem records a state keeps, `Problem` and `AnomalyRule`, are defined
in `state`; this module raises and evaluates them, and `from
ksengine.discovery import AnomalyRule, Problem` still works. Only the CLI
commands that run a discovery tool load this module.
"""

from __future__ import annotations

import copy
import itertools
from typing import (
    Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple,
)

from .concepts import ConceptStore
from .errors import (
    AlreadyAtRoot,
    EmptySource,
    EmptyTypeSet,
    InvalidCandidate,
    InvalidRule,
    KsError,
    NegativeWeight,
    TooLarge,
    UncategorizedProblem,
    UnknownCategory,
    UnknownLink,
    UnknownLinkType,
    UnknownNode,
    NonPositiveInput,
)
from .record import Record
from .rules import (
    Rule,
    derive_fixpoint,
    match_atoms,
    rows_from_links,
    rows_from_network,
    validate_rule,
)
from .sln import (
    LinkType, Network, QueryPattern, SemanticLink, SemanticNode, check_id, check_weight,
)
from .state import AnomalyRule, Problem, validate_anomaly_rule
from .taxonomy import CategoryTree


# ===== verification =====

class LinkCandidate(NamedTuple):
    source: str
    type: str
    target: str
    weight: float = 1.0


class Candidate(NamedTuple):
    kind: str  # link | rule | concept
    payload: object
    source: str = ""  # free-text provenance note


class Verdict(NamedTuple):
    accepted: bool
    reason: Optional[str]
    mode: str  # which mode produced the decision


def _contradiction(network: Network, pairs: Iterable[Tuple[str, str]]) -> Optional[str]:
    for t1, t2 in pairs:
        if t1 not in network.link_types or t2 not in network.link_types:
            continue
        for s, t, _lid in network.type_facts(t1):
            if network.has_fact(s, t2, t):
                return f"{t1}({s},{t}) conflicts with {t2}({s},{t})"
    return None


def verify_knowledge(
    network: Network,
    candidate: Candidate,
    mode: str = "literal",
    concepts: Optional[ConceptStore] = None,
    exclusive_pairs: Iterable[Tuple[str, str]] = (),
) -> Verdict:
    """Accept a candidate only when existing knowledge supports it.

    literal: a link must be in the derived fixpoint, a rule's every head
    instantiation must already be derivable, a concept's classes must exist.
    consistency: additionally accept when adding the candidate and re-deriving
    produces no contradiction against the configured exclusivity pairs.

    A link or rule candidate is checked on one scratch copy of the network,
    derived once; consistency mode adds the candidate to that saturated copy
    and derives again. The caller's network is never changed.
    """
    if mode not in ("literal", "consistency"):
        raise ValueError(f"mode must be 'literal' or 'consistency', got {mode!r}")
    payload = candidate.payload
    if candidate.kind == "link":
        if not isinstance(payload, LinkCandidate):
            raise InvalidCandidate(f"link candidate payload is {type(payload).__name__}")
        try:
            check_weight(payload.weight)
        except NegativeWeight as exc:
            raise InvalidCandidate(f"candidate {exc}") from None
        for endpoint in (payload.source, payload.target):
            if endpoint not in network.nodes:
                return Verdict(False, f"unknown endpoint {endpoint!r}", mode)
        if payload.type not in network.link_types:
            return Verdict(False, f"unknown link type {payload.type!r}", mode)
    elif candidate.kind == "rule":
        if not isinstance(payload, Rule):
            raise InvalidCandidate(f"rule candidate payload is {type(payload).__name__}")
        structural = validate_rule(payload)
        if structural:
            raise InvalidCandidate("; ".join(structural))
        semantic = validate_rule(payload, network)
        if semantic:
            return Verdict(False, "; ".join(semantic), mode)
    elif candidate.kind == "concept":
        if not hasattr(payload, "structure"):
            raise InvalidCandidate(
                f"concept candidate payload is {type(payload).__name__}"
            )
        if concepts is None:
            return Verdict(False, "no concept store to verify against", mode)
        for class_id in payload.structure.classes:
            if class_id not in concepts:
                return Verdict(False, f"unknown class {class_id!r}", mode)
        return Verdict(True, None, "literal")
    else:
        raise InvalidCandidate(f"unknown candidate kind {candidate.kind!r}")
    work = copy.deepcopy(network)
    derive_fixpoint(work)
    if candidate.kind == "link":
        triple = (payload.source, payload.type, payload.target)
        unsupported = None if work.has_fact(*triple) else "not derivable from current knowledge"
    else:
        unsupported = _first_missing_head(work, payload)
    if unsupported is None:
        return Verdict(True, None, "literal")
    if mode == "literal":
        return Verdict(False, unsupported, "literal")
    if candidate.kind == "link":
        work.assert_link(*triple, payload.weight)
    else:
        # Not add_rule, which refuses a stored id: a candidate may reuse one.
        # It then replaces that rule in the scratch copy, and the links the
        # stored rule derived stay, so a clash between the two shows.
        work.rules[payload.id] = payload
    derive_fixpoint(work)
    conflict = _contradiction(work, exclusive_pairs)
    return Verdict(conflict is None, conflict, "consistency")


def _first_missing_head(network: Network, rule: Rule) -> Optional[str]:
    """Why the rule is not yet derivable on a saturated network: its first
    head instance (in match order) that is not a fact, or None."""
    for env, _premises in match_atoms(rows_from_network(network), rule.body):
        for head in rule.head:
            s, tid, t = head.substituted(env)
            if not network.has_fact(s, tid, t):
                return f"head {tid}({s},{t}) is not derivable"
    return None


# ===== cause-effect tracing =====

class CauseEffectEdge(NamedTuple):
    source: str
    label: str
    target: str
    weight: float
    directions: Tuple[str, ...]  # subset of ("backward", "forward")


class CauseEffectTrace(NamedTuple):
    nodes: List[str]
    edges: List[CauseEffectEdge]


def trace_cause_effect(
    store: ConceptStore, goals: Iterable[str], cause_effect_types: Iterable[str]
) -> CauseEffectTrace:
    """Bidirectional reachability over typed concept relations.

    Follows the selected relation labels forward (causes to effects) and
    backward (effects to causes) from the goals; edges carry the directions
    they were traversed in.
    """
    goal_list = sorted(set(goals))
    types = set(cause_effect_types)
    if not types:
        raise EmptyTypeSet("cause_effect_types must be non-empty")
    for goal in goal_list:
        store.get(goal)
    edges: List[Tuple[str, str, str, float]] = []
    for cid in store.ids():
        relations = store.concepts[cid].structure.relations
        for (label, target) in sorted(relations):
            if label in types:
                edges.append((cid, label, target, relations[(label, target)]))
    forward: Dict[str, List[int]] = {}
    backward: Dict[str, List[int]] = {}
    for idx, (src, _label, tgt, _w) in enumerate(edges):
        forward.setdefault(src, []).append(idx)
        backward.setdefault(tgt, []).append(idx)

    def reach(index: Dict[str, List[int]], end: int) -> Set[str]:
        reached = set(goal_list)
        frontier = list(goal_list)
        while frontier:
            for idx in index.get(frontier.pop(), ()):
                nxt = edges[idx][end]
                if nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
        return reached

    reached_f = reach(forward, 2)
    reached_b = reach(backward, 0)
    out_edges: List[CauseEffectEdge] = []
    for src, label, tgt, weight in edges:
        directions = []
        if tgt in reached_b:
            directions.append("backward")
        if src in reached_f:
            directions.append("forward")
        if directions:
            out_edges.append(CauseEffectEdge(src, label, tgt, weight, tuple(directions)))
    nodes = sorted(reached_f | reached_b)
    out_edges.sort(key=lambda e: (e.source, e.label, e.target))
    return CauseEffectTrace(nodes, out_edges)


# ===== problems =====

def detect_co_occurrence(
    events: Sequence[Tuple[str, Iterable[str]]], min_support: int
) -> List[Problem]:
    """Pair entities that appear together in at least min_support records.

    Each pair's problem id is "co.<a>.<b>"; an entity that would make it an
    invalid id raises InvalidId, since no state could hold the problem.
    """
    if not isinstance(min_support, int) or min_support < 1:
        raise NonPositiveInput(f"min_support must be an integer >= 1, got {min_support!r}")
    witnesses: Dict[Tuple[str, str], List[str]] = {}
    for record_id, entities in events:
        unique = sorted(set(entities))
        for a, b in itertools.combinations(unique, 2):
            witnesses.setdefault((a, b), []).append(record_id)
    problems = []
    for (a, b) in sorted(witnesses):
        records = witnesses[(a, b)]
        if len(records) < min_support:
            continue
        problems.append(
            Problem(
                id=check_id(f"co.{a}.{b}", "problem id"),
                kind="relationship",
                statement=f"{a} and {b} co-occur in {len(records)} of {len(events)} records",
                evidence=tuple(sorted(set(records))),
                concepts=(a, b),
            )
        )
    return problems


def generalize_problem(problem: Problem, hierarchy: CategoryTree) -> Problem:
    if problem.category is None:
        raise UncategorizedProblem(f"problem {problem.id!r} has no category")
    if problem.category not in hierarchy:
        raise UnknownCategory(f"category {problem.category!r} not in hierarchy")
    parent = hierarchy.parent(problem.category)
    if parent is None:
        raise AlreadyAtRoot(f"category {problem.category!r} is the root")
    return problem._replace(id=f"{problem.id}.up", kind="generalized", category=parent)


def specialize_problem(problem: Problem, hierarchy: CategoryTree) -> List[Problem]:
    if problem.category is None:
        raise UncategorizedProblem(f"problem {problem.id!r} has no category")
    if problem.category not in hierarchy:
        raise UnknownCategory(f"category {problem.category!r} not in hierarchy")
    return [
        problem._replace(id=f"{problem.id}.down.{child}", kind="specialized", category=child)
        for child in hierarchy.children(problem.category)
    ]


def detect_limitation(rule: Rule, observations: Sequence[SemanticLink]) -> List[Problem]:
    """One limitation problem per body match whose head instance is missing."""
    structural = validate_rule(rule)
    if structural:
        raise InvalidRule(f"rule {rule.id!r}: " + "; ".join(structural))
    rows = rows_from_links(observations)
    present = {link.triple() for link in observations}
    by_id = {link.id: link for link in observations}
    matches = match_atoms(rows, rule.body)
    matches.sort(key=lambda m: tuple(sorted(m[0].items())))
    problems = []
    seen_envs = set()
    for env, premises in matches:
        key = tuple(sorted(env.items()))
        if key in seen_envs:
            continue
        seen_envs.add(key)
        missing = [h.substituted(env) for h in rule.head if h.substituted(env) not in present]
        if not missing:
            continue
        entities = sorted(
            {by_id[p].source for p in premises} | {by_id[p].target for p in premises}
        )
        missing_text = "; ".join(f"{tid}({s},{t})" for s, tid, t in missing)
        problems.append(
            Problem(
                id=f"lim.{rule.id}.{len(problems):04d}",
                kind="limitation",
                statement=f"premises hold but {missing_text} is absent",
                evidence=tuple(sorted(set(premises))),
                concepts=tuple(entities),
            )
        )
    return problems


class _Defaulting(dict):
    def __missing__(self, key: str) -> str:
        return "{" + key + "}"


def find_problem(
    observations: Sequence[SemanticLink], anomaly_rules: Iterable[AnomalyRule]
) -> List[Problem]:
    """Evaluate each anomaly rule over the observations; one Problem per hit.

    Rules whose predicate holds vacuously with zero matching links emit
    nothing (anomaly problems must carry evidence).
    """
    rows = rows_from_links(observations)
    by_id = {link.id: link for link in observations}
    total = len(observations)
    out: List[Problem] = []
    for rule in sorted(anomaly_rules, key=lambda r: r.id):
        bad = validate_anomaly_rule(rule)
        if bad:
            raise InvalidRule(f"anomaly rule {rule.id!r}: " + "; ".join(bad))
        matches = match_atoms(rows, rule.atoms)
        envs = {tuple(sorted(env.items())) for env, _p in matches}
        count = len(envs)
        evidence = sorted({pid for _env, premises in matches for pid in premises})
        share = count / total if total else 0.0
        value = count if rule.metric == "count" else share
        if not rule.fires(value) or not evidence:
            continue
        statement = rule.template.format_map(
            _Defaulting(count=count, share=share, total=total)
        )
        entities = sorted(
            {by_id[p].source for p in evidence} | {by_id[p].target for p in evidence}
        )
        out.append(
            Problem(
                id=f"anom.{rule.id}",
                kind="anomaly",
                statement=statement,
                evidence=tuple(evidence),
                concepts=tuple(entities),
            )
        )
    return out


def find_solution(
    store: ConceptStore, problem: Problem, solution_types: Iterable[str]
) -> List[str]:
    """Concepts reached from the problem's concepts along solution relations."""
    types = set(solution_types)
    goals = [c for c in problem.concepts if c in store]
    if not goals or not types:
        return []
    trace = trace_cause_effect(store, goals, types)
    return sorted(set(trace.nodes) - set(goals))


class Recommendation(NamedTuple):
    problem_id: str
    solutions: Tuple[str, ...]
    unsolved: bool


def recommend(pairs: Sequence[Tuple[Problem, Iterable[str]]]) -> List[Recommendation]:
    """Order ⟨problem, solution⟩ pairs by evidence count (desc), then id."""
    ranked = sorted(pairs, key=lambda p: (-len(p[0].evidence), p[0].id))
    return [
        Recommendation(prob.id, tuple(sorted(set(sols))), not set(sols))
        for prob, sols in ranked
    ]


# ===== analogy =====

class RelationStatus(NamedTuple):
    triple: Tuple[str, str, str]
    status: str  # present | derivable | conjectured


class AnalogyResult(Record):
    __slots__ = ("outcome", "node_map", "mapped_solution", "generalization",
                 "problem_relations", "solution_relations", "impact")

    def __init__(self, outcome: str, node_map: Optional[Dict[str, str]] = None,
                 mapped_solution: Optional[List[Tuple[str, str, str]]] = None,
                 generalization: Optional[Dict[str, str]] = None,
                 problem_relations: Optional[List[RelationStatus]] = None,
                 solution_relations: Optional[List[RelationStatus]] = None,
                 impact: Optional[List[Tuple[str, str, str]]] = None) -> None:
        self.outcome = outcome  # exact | generalized | conjecture | none
        self.node_map = node_map
        self.mapped_solution = [] if mapped_solution is None else mapped_solution
        self.generalization = {} if generalization is None else generalization
        self.problem_relations = [] if problem_relations is None else problem_relations
        self.solution_relations = [] if solution_relations is None else solution_relations
        self.impact = [] if impact is None else impact


def _injections(order: List[str], k: int, t_nodes: List[str],
                fits: Callable[[Dict[str, str], str, str], bool],
                assignment: Dict[str, str], used: Set[str]) -> Iterator[Dict[str, str]]:
    """Yield assignment once per injective map of order[k:] (not empty) into
    the unused t_nodes that fits(assignment, sn, tn) accepts at every step:
    source nodes in the given order, each tried against the target nodes in
    theirs. The one dict is yielded each time and changed in place after; a
    map the caller stops at stays as yielded. Module-level, as a nested
    recursive function would be a reference cycle."""
    sn = order[k]
    last = k + 1 == len(order)
    for tn in t_nodes:
        if tn in used or not fits(assignment, sn, tn):
            continue
        assignment[sn] = tn
        if last:
            yield assignment
        else:
            used.add(tn)
            yield from _injections(order, k + 1, t_nodes, fits, assignment, used)
            used.discard(tn)
        del assignment[sn]


def _best_partial_map(
    s_nodes: List[str],
    s_triples: List[Tuple[str, str, str]],
    t_nodes: List[str],
    t_triple_set: Set[Tuple[str, str, str]],
    floor: int = -1,
) -> Optional[Dict[str, str]]:
    """The first injective map, source nodes visited in the order given,
    keeping the most source triples and more than floor of them; None if
    no map keeps more than floor. floor=len(s_triples) - 1 asks for a map
    keeping every triple. A triple is missed once no target triple matches
    it with its unmapped ends left open, so one whose type the target lacks
    is missed from the start. A partial map is cut at the first miss that
    leaves it unable to beat the best so far, so the walk yields only
    improving maps, and it stops at a map keeping every triple not missed
    from the start."""
    # Each target triple with neither, either or both ends left open (None).
    open_ends = {(s_, tid, t_) for s, tid, t in t_triple_set
                 for s_ in (s, None) for t_ in (t, None)}
    keepable = sum((None, tid, None) in open_ends for _s, tid, _t in s_triples)
    best: Optional[Dict[str, str]] = None
    best_count = floor

    def promising(assignment: Dict[str, str], sn: str, tn: str) -> bool:
        misses_left = len(s_triples) - best_count - 1
        for s, tid, t in s_triples:
            if (tn if s == sn else assignment.get(s), tid,
                    tn if t == sn else assignment.get(t)) not in open_ends:
                misses_left -= 1
                if misses_left < 0:
                    return False
        return True

    for node_map in _injections(s_nodes, 0, t_nodes, promising, {}, set()):
        best = dict(node_map)
        best_count = sum((node_map[s], tid, node_map[t]) in t_triple_set
                         for s, tid, t in s_triples)
        if best_count == keepable:
            break  # cannot improve on keeping every keepable triple
    return best


def analogize(
    source: Network,
    solution_links: Iterable[str],
    target: Network,
    max_nodes: int = 10,
) -> AnalogyResult:
    """Map the source's solution into the target by isomorphism, generalized
    types, or conjecture–verification (in that order).

    The exact stage and each lifted stage after it ask the best-map search
    for the first map keeping every (lifted) source triple; two triples
    lifted onto one are kept together. Failing every level, the conjecture
    stage takes the first best map in sorted node order.

    Maps are searched, and types lifted, over explicit links only (on the
    source, also over the named solution links), so the answer does not
    depend on whether either network was derived first: a mapped relation
    stored only as a derived link reads "derivable", not "present".
    Conjectures are checked against one copy of the target, derived once:
    a mapped relation is present, derivable, or conjectured; then the
    conjectures are asserted into that copy and it is derived again, so
    impact is exactly what the conjectures add, fixpoint(target +
    conjectures) - fixpoint(target) - conjectures.
    """
    s_nodes = sorted(source.nodes)
    t_nodes = sorted(target.nodes)
    if not s_nodes:
        raise EmptySource("source network has no nodes")
    if len(s_nodes) > max_nodes or len(t_nodes) > max_nodes:
        raise TooLarge(
            f"node counts {len(s_nodes)}/{len(t_nodes)} exceed max_nodes={max_nodes}"
        )
    solution_ids = sorted(set(solution_links))
    for lid in solution_ids:
        if lid not in source.links:
            raise UnknownLink(f"solution link {lid!r} not in source")
    if len(s_nodes) > len(t_nodes):
        return AnalogyResult("none")  # no injective map exists
    solution_set = set(solution_ids)
    s_links = [link for lid, link in sorted(source.links.items())
               if link.is_explicit or lid in solution_set]
    s_triples = [l.triple() for l in s_links]
    t_triple_set = {link.triple() for link in target.explicit_links()}
    # The exact and lifted stages visit the most-linked source nodes first.
    by_degree = sorted(s_nodes, key=lambda n: (
        -sum((s == n) + (t == n) for s, _tid, t in s_triples), n))

    # Exact search first, then lift source link types one hierarchy level
    # per round until a map keeps every lifted triple or nothing lifts.
    type_map = {tid: tid for tid in sorted({t for _s, t, _t in s_triples})}
    while True:
        lifted_triples = [(s, type_map[tid], t) for s, tid, t in s_triples]
        node_map = _best_partial_map(by_degree, lifted_triples, t_nodes, t_triple_set,
                                     floor=len(lifted_triples) - 1)
        if node_map is not None:
            generalization = {
                tid: new for tid, new in sorted(type_map.items()) if tid != new
            }
            mapped = [
                (node_map[source.links[lid].source],
                 type_map[source.links[lid].type],
                 node_map[source.links[lid].target])
                for lid in solution_ids
            ]
            return AnalogyResult("generalized" if generalization else "exact",
                                 node_map, mapped, generalization=generalization)
        lifted = {
            tid: (source.link_types[cur].parent or cur)
            if cur in source.link_types else cur
            for tid, cur in type_map.items()
        }
        if lifted == type_map:
            break
        type_map = lifted

    # Conjecture and verify, on one saturated copy of the target.
    node_map = _best_partial_map(s_nodes, s_triples, t_nodes, t_triple_set)
    work = copy.deepcopy(target)
    derive_fixpoint(work)

    def status_of(triple: Tuple[str, str, str]) -> str:
        if triple in t_triple_set:
            return "present"
        if work.has_fact(*triple):
            return "derivable"
        return "conjectured"

    problem_relations: List[RelationStatus] = []
    solution_relations: List[RelationStatus] = []
    for link in s_links:
        mapped_triple = (node_map[link.source], link.type, node_map[link.target])
        entry = RelationStatus(mapped_triple, status_of(mapped_triple))
        if link.id in solution_set:
            solution_relations.append(entry)
        else:
            problem_relations.append(entry)
    conjectured = sorted(
        {
            rs.triple
            for rs in problem_relations + solution_relations
            if rs.status == "conjectured"
        }
    )
    for s, tid, t in conjectured:
        if tid not in work.link_types:
            src_type = source.link_types[tid]
            work.add_link_type(
                src_type.rep, src_type.transitive, src_type.symmetric,
                parent=None, type_id=tid,
            )
        if not work.has_fact(s, tid, t):
            work.assert_link(s, tid, t)
    # work held the target's fixpoint, so the links this derive adds are
    # exactly what the conjectures add.
    new_links, _derivations = derive_fixpoint(work)
    impact = sorted(link.triple() for link in new_links)
    mapped = [rs.triple for rs in solution_relations]
    return AnalogyResult(
        "conjecture",
        node_map,
        mapped,
        problem_relations=problem_relations,
        solution_relations=solution_relations,
        impact=impact,
    )


# ===== ability reports =====

class IncrementFragment(Record):
    """Network additions: new types, nodes, rules, and explicit links."""

    __slots__ = ("link_types", "nodes", "rules", "links")

    def __init__(self, link_types: Optional[List[LinkType]] = None,
                 nodes: Optional[List[SemanticNode]] = None, rules: Optional[List[Rule]] = None,
                 links: Optional[List[SemanticLink]] = None) -> None:
        self.link_types = [] if link_types is None else link_types
        self.nodes = [] if nodes is None else nodes
        self.rules = [] if rules is None else rules
        self.links = [] if links is None else links


def ingest_fragment(network: Network, fragment: IncrementFragment) -> None:
    for lt in sorted(fragment.link_types, key=lambda x: x.id):
        network.add_link_type(lt.rep, lt.transitive, lt.symmetric,
                              parent=None, type_id=lt.id)
    for lt in sorted(fragment.link_types, key=lambda x: x.id):
        if lt.parent is not None:
            network.set_type_parent(lt.id, lt.parent)
    for node in sorted(fragment.nodes, key=lambda x: x.id):
        network.add_node(node.rep, dict(node.attributes), node_id=node.id)
    for rule in sorted(fragment.rules, key=lambda x: x.id):
        network.add_rule(rule)
    for link in sorted(fragment.links, key=lambda x: x.id):
        # A triple the network derived is upgraded in place under its stored
        # id, so provenance citing it stays valid; the fragment's id goes unused.
        stored = network.has_fact(link.source, link.type, link.target)
        network.assert_link(link.source, link.type, link.target, link.weight,
                            link_id=None if stored else link.id)


class AbilityEntry(NamedTuple):
    increment: int  # 0 is the state before any increment
    answered: int
    questions: int
    problems: int


class AbilityReport(NamedTuple):
    entries: List[AbilityEntry]


def ability_report(
    network: Network,
    questions: Sequence[QueryPattern],
    increments: Sequence[IncrementFragment],
    anomaly_rules: Iterable[AnomalyRule] = (),
) -> AbilityReport:
    """Measure answerable questions (and raised problems) per data increment.

    Mutates the given network; pass a copy to keep the original. Counts are
    non-decreasing when the increments only add data. A fault while adding
    increment k (counting from 1) has "increment k: " put in front.
    """
    rules = list(anomaly_rules)
    entries: List[AbilityEntry] = []

    def measure(index: int) -> None:
        derive_fixpoint(network)
        answered = 0
        for question in questions:
            try:
                if network.answer_query(question):
                    answered += 1
            except (UnknownNode, UnknownLinkType):
                pass
        problem_count = 0
        if rules:
            links = [network.links[lid] for lid in sorted(network.links)]
            problem_count = len(find_problem(links, rules))
        entries.append(AbilityEntry(index, answered, len(questions), problem_count))

    measure(0)
    for index, fragment in enumerate(increments, start=1):
        try:
            ingest_fragment(network, fragment)
        except KsError as exc:
            exc.args = (f"increment {index}: {exc}",)
            raise
        measure(index)
    return AbilityReport(entries)
