"""Workload `discover`: the discovery toolkit over saturated bases, in process.

Set-up builds and saturates two seeded bases: a transitive `before` chain
with an inverse rule into `after`, plus free nodes. Each cycle works on a
fresh copy of one base: literal and consistency verify_knowledge batches
(six of the seventeen candidates derivable), an assert-and-derive write for
each of the four candidates accepted by consistency, find_problem with anomaly rules, one
ability_report over three increments, and four analogize calls that end
exact, generalized, conjecture and none.
"""

from __future__ import annotations

import copy
from typing import Dict, Iterator, List, Sequence, Tuple

import oracles
from common import Op, build_network, link_ids_by_triple, make_ids, rng_for, store_matches

from ksengine import discovery as ks_disc
from ksengine import rules as ks_rules
from ksengine import sln as ks_sln
from ksengine.state import EngineState

BASES = 2
CHAIN = 22
FREE = 8
LITERAL = 8
BEFORE, AFTER = "before", "after"
TYPES = [(BEFORE, True, False, None), (AFTER, False, False, None)]
RULES = {"inverse": ((("?x", BEFORE, "?y"),), (("?y", AFTER, "?x"),))}
EXCLUSIVE = [(BEFORE, AFTER)]
ANOMALY = (
    ("a1-two-step", (("?a", BEFORE, "?b"), ("?b", BEFORE, "?c")), "count", "ge", 1.0,
     "{count} two-step precedences"),
    ("a2-inverse-share", (("?a", AFTER, "?b"),), "freq", "ge", 0.4,
     "{share} of {total} links are inverses"),
    ("a3-self-loop", (("?a", BEFORE, "?a"),), "count", "ge", 1.0, "{count} self loops"),
)
# Analogize calls take microseconds to milliseconds; four per cycle keep the
# median op inside the verify calls rather than at the edge of that group.
ANALOGY_MIX = ("exact", "generalized", "conjecture", "none")


def base_spec(seed: int, index: int) -> dict:
    rng = rng_for("discover", seed, "base", index)
    chain = make_ids(rng, "v", CHAIN)
    return {"chain": chain, "free": make_ids(rng, "w", FREE),
            "edges": list(zip(chain, chain[1:]))}


def facts_of(edges: Sequence[Tuple[str, str]]) -> set:
    reach = oracles.reachability(edges)
    return {(a, BEFORE, b) for a, b in reach} | {(b, AFTER, a) for a, b in reach}


def has_cycle(edges: Sequence[Tuple[str, str]]) -> bool:
    return any(a == b for a, b in oracles.reachability(edges))


def _triples(rng, nodes: List[str], types: Sequence[str], count: int) -> List[Tuple[str, str, str]]:
    """count distinct triples without self-loops; the first uses types[0]."""
    out: List[Tuple[str, str, str]] = []
    while len(out) < count:
        s, o = rng.sample(nodes, 2)
        triple = (s, rng.choice(types) if out else types[0], o)
        if triple not in out:
            out.append(triple)
    return out


def analogy_spec(rng, kind: str) -> dict:
    """Source and target triples for one analogize call of the given kind."""
    if kind == "none":
        src_nodes, tgt_nodes = make_ids(rng, "s", 6), make_ids(rng, "t", 5)
        return {"kind": kind, "src_nodes": src_nodes, "src_types": [("a", False, False, None)],
                "src": _triples(rng, src_nodes, ["a"], 6), "tgt_nodes": tgt_nodes,
                "tgt": _triples(rng, tgt_nodes, ["a"], 6), "solution": 0}
    size = 4 if kind == "conjecture" else 5
    src_nodes = make_ids(rng, "s", size)
    tgt_nodes = make_ids(rng, "t", 8 if kind == "conjecture" else 9)
    if kind == "conjecture":
        src = _triples(rng, src_nodes, ["c", "a"], 4)
        src_types = [("a", False, False, None), ("c", False, False, None)]
        tgt = _triples(rng, tgt_nodes, ["a", "b"], 10)
    else:
        src = _triples(rng, src_nodes, ["a", "b"], 5)
        image = dict(zip(src_nodes, rng.sample(tgt_nodes, size)))
        tgt = [(image[s], t, image[o]) for s, t, o in src]
        tgt += [t for t in _triples(rng, tgt_nodes, ["a", "b"], 6) if t not in tgt]
        src_types = [("a", False, False, None), ("b", False, False, None)]
        if kind == "generalized":
            src = [(s, "a-sub" if t == "a" else t, o) for s, t, o in src]
            src_types.append(("a-sub", False, False, "a"))
    return {"kind": kind, "src_nodes": src_nodes, "src_types": src_types, "src": src,
            "tgt_nodes": tgt_nodes, "tgt": tgt, "solution": rng.randrange(len(src))}


def cycle_spec(seed: int, index: int, base: dict) -> dict:
    rng = rng_for("discover", seed, "cycle", index)
    chain, free = base["chain"], base["free"]

    def forward():
        i, j = sorted(rng.sample(range(len(chain)), 2))
        return chain[i], chain[j]

    literal = []
    for _ in range(LITERAL // 4):
        a, b = forward()
        literal.append((a, BEFORE, b))
        a, b = forward()
        literal.append((b, AFTER, a))
        a, b = forward()
        literal.append((b, BEFORE, a))
        literal.append((rng.choice(chain), BEFORE, rng.choice(free)))
    rng.shuffle(literal)
    w1, w2, w3, w4 = rng.sample(free, 4)
    # Extensions off the chain's ends are consistent and are asserted; each
    # grows the base by about the same number of links whatever the seed.
    # Back edges over fixed spans close a cycle and are rejected; they are
    # the slowest verify calls, and three per cycle put the 90th percentile
    # op in the middle of their group. The order is fixed for the same
    # reason; the seed picks the nodes.
    back = [(chain[b], BEFORE, chain[a]) for a, b in ((1, 7), (8, 14), (15, 21))]
    pairs = [forward(), (chain[-1], w1), (w1, w3), forward(), (w2, chain[0]), (w4, w2)]
    consistency = [(a, BEFORE, b) for a, b in pairs]
    for at, edge in zip((2, 5, 8), back):
        consistency.insert(at, edge)
    last = chain[-1]
    xs = make_ids(rng, "x", 3)
    increments = [[(last, BEFORE, xs[0])], [(xs[0], BEFORE, xs[1])], [(xs[2], BEFORE, chain[0])]]
    questions = [(n, BEFORE, None) for n in rng.sample(chain, 3)] + [
        (last, BEFORE, None), (None, BEFORE, xs[0]), (xs[1], AFTER, None),
        (xs[2], None, chain[0]), (None, AFTER, rng.choice(chain)),
    ]
    return {"literal": literal, "consistency": consistency, "xs": xs,
            "increments": increments, "questions": questions,
            "analogies": [analogy_spec(rng, kind) for kind in ANALOGY_MIX]}


def _anomaly_rules() -> List[ks_disc.AnomalyRule]:
    return [
        ks_disc.AnomalyRule(rid, tuple(ks_rules.PatternAtom(*a) for a in atoms),
                            metric, op, threshold, template)
        for rid, atoms, metric, op, threshold, template in ANOMALY
    ]


def _expected_problems(facts: Sequence[Tuple[str, str, str]]) -> Dict[str, tuple]:
    out = {}
    for rid, atoms, metric, op, threshold, template in ANOMALY:
        hit = oracles.anomaly_hit(facts, atoms, metric, op, threshold, template)
        if hit is not None:
            out[f"anom.{rid}"] = hit
    return out


class Discover:
    def __init__(self, seed: int):
        self.seed = seed
        self.specs = [base_spec(seed, b) for b in range(BASES)]
        self.bases: List[ks_sln.Network] = []
        self.last: List[ks_sln.Network] = []

    def _build(self, spec: dict) -> ks_sln.Network:
        return build_network(spec["chain"] + spec["free"], TYPES,
                             [(a, BEFORE, b) for a, b in spec["edges"]], RULES)

    def setup(self) -> None:
        """Build and saturate every base."""
        self.bases = []
        for spec in self.specs:
            net = self._build(spec)
            ks_rules.derive_fixpoint(net)
            self.bases.append(net)

    def reset(self) -> None:
        pass  # every cycle copies its base afresh

    def fingerprint(self) -> str:
        from ksengine.ksif import export_state

        parts = [repr(self.specs)]
        for b, spec in enumerate(self.specs):
            parts.append(repr(cycle_spec(self.seed, b, spec)))
            parts.append(export_state(EngineState(network=self._build(spec))))
        return "".join(parts)

    def cycle(self, index: int) -> Iterator[Op]:
        base = self.specs[index % BASES]
        spec = cycle_spec(self.seed, index, base)
        net = copy.deepcopy(self.bases[index % BASES])
        self.last = [net]
        edges = list(base["edges"])

        for triple in spec["literal"]:
            want = triple in facts_of(edges)
            yield self._verify(net, triple, "literal", want)
        for triple in spec["consistency"]:
            facts = facts_of(edges)
            grown = edges + [(triple[0], triple[2])]
            consistent = triple not in facts and not has_cycle(grown)
            yield self._verify(net, triple, "consistency", triple in facts or consistent)
            if consistent:
                edges = grown
                after = facts_of(edges)
                yield Op(
                    "assert+derive", True,
                    lambda t=triple: (net.assert_link(*t), ks_rules.derive_fixpoint(net)),
                    lambda out, after=after: store_matches(net, after, ()),
                )

        links = [net.links[lid] for lid in sorted(net.links)]
        facts = [link.triple() for link in links]
        expected = _expected_problems(facts)
        triple_of = {link.id: link.triple() for link in links}
        yield Op(
            "find_problem", False, lambda: ks_disc.find_problem(links, _anomaly_rules()),
            lambda out: {p.id: (p.statement, {triple_of[e] for e in p.evidence})
                         for p in out} == expected,
        )

        yield self._ability(copy.deepcopy(net), edges, base, spec)
        for case in spec["analogies"]:
            yield self._analogy(case)

    def _verify(self, net, triple, mode: str, want: bool) -> Op:
        candidate = ks_disc.Candidate("link", ks_disc.LinkCandidate(*triple))
        return Op(
            f"verify.{mode}", False,
            lambda: ks_disc.verify_knowledge(net, candidate, mode=mode,
                                             exclusive_pairs=EXCLUSIVE),
            lambda out: out.accepted == want,
        )

    def _ability(self, work, edges, base, spec) -> Op:
        questions = [ks_sln.QueryPattern(*q) for q in spec["questions"]]
        fragments = []
        for step, (x, inc) in enumerate(zip(spec["xs"], spec["increments"])):
            fragments.append(ks_disc.IncrementFragment(
                nodes=[ks_sln.SemanticNode(x, ks_sln.RepBundle(word=x))],
                links=[ks_sln.SemanticLink(f"kx{step:05d}", s, t, o, 1.0, ks_sln.Explicit())
                       for s, t, o in inc],
            ))
        want = []
        known = set(base["chain"]) | set(base["free"])
        grown = list(edges)
        for step in range(len(fragments) + 1):
            if step:
                known.add(spec["xs"][step - 1])
                grown += [(s, o) for s, _t, o in spec["increments"][step - 1]]
            facts = facts_of(grown)
            answered = sum(
                1 for q in spec["questions"]
                if all(c in known for c in (q[0], q[2]) if c is not None)
                and oracles.bindings(facts, *q)
            )
            want.append((step, answered, len(questions), len(_expected_problems(sorted(facts)))))
        return Op(
            "ability", False,
            lambda: ks_disc.ability_report(work, questions, fragments, _anomaly_rules()),
            lambda out: [(e.increment, e.answered, e.questions, e.problems)
                         for e in out.entries] == want,
        )

    def _analogy(self, case: dict) -> Op:
        src_types = case["src_types"]
        src = build_network(case["src_nodes"], src_types, case["src"], {})
        tgt_types = sorted({t for _s, t, _o in case["tgt"]})
        tgt = build_network(case["tgt_nodes"], [(t, False, False, None) for t in tgt_types],
                            case["tgt"], {})
        solution = [link_ids_by_triple(src)[case["src"][case["solution"]]]]
        kind = case["kind"]
        lift = {t: p for t, _tr, _sy, p in src_types if p is not None}
        lifted = [(s, lift.get(t, t), o) for s, t, o in case["src"]]
        tgt_set = set(case["tgt"])

        def check(out) -> bool:
            if out.outcome != kind:
                return False
            if kind in ("exact", "generalized"):
                return (oracles.preserves(out.node_map, lifted, case["tgt"])
                        and out.generalization == (lift if kind == "generalized" else {}))
            if kind == "conjecture":
                m = out.node_map
                mapped = [(m[s], t, m[o]) for s, t, o in case["src"]]
                statuses = [(r.triple, r.status) for r in
                            out.problem_relations + out.solution_relations]
                return (len(set(m.values())) == len(m) == len(case["src_nodes"])
                        and sorted(statuses) == sorted(
                            (t, "present" if t in tgt_set else "conjectured") for t in mapped)
                        and out.impact == [])
            return out.node_map is None

        return Op(f"analogize.{kind}", False,
                  lambda: ks_disc.analogize(src, solution, tgt, max_nodes=10), check)

    def final_states(self) -> List[EngineState]:
        return [EngineState(network=net) for net in self.last]
