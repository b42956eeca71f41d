"""Shared pieces of the workloads: the op record, seeded ids, and adapters
that build engine inputs from tuples and turn engine results back into tuples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Sequence, Set, Tuple

from oracles import ProofTree, RuleTuple, Triple

from ksengine import rules as ks_rules
from ksengine import sln as ks_sln

TypeSpec = Tuple[str, bool, bool, Any]  # (id, transitive, symmetric, parent or None)


@dataclass
class Op:
    """One timed call into the engine plus the check of its result.

    run is timed; check runs afterwards, untimed, and returns whether the
    result matches the expectation fixed before the call.
    """

    name: str
    write: bool
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def rng_for(*parts: object) -> random.Random:
    """A generator seeded from a string key, stable across processes."""
    return random.Random(":".join(str(p) for p in parts))


def make_ids(rng: random.Random, prefix: str, count: int, width: int = 5) -> List[str]:
    """count distinct fixed-width ids, in generation order."""
    seen: Set[str] = set()
    out: List[str] = []
    while len(out) < count:
        token = f"{prefix}{rng.randrange(16 ** width):0{width}x}"
        if token not in seen:
            seen.add(token)
            out.append(token)
    return out


def transitive_rule(type_id: str) -> Tuple[str, RuleTuple]:
    """The engine's synthesized chain rule for a transitive type, as tuples."""
    return (
        f"{ks_rules.TRANSITIVE_PREFIX}{type_id}",
        ((("?x", type_id, "?y"), ("?y", type_id, "?z")), (("?x", type_id, "?z"),)),
    )


def build_network(nodes: Iterable[str], types: Sequence[TypeSpec],
                  facts: Iterable[Triple], rules: Dict[str, RuleTuple]) -> ks_sln.Network:
    net = ks_sln.Network()
    for node in nodes:
        net.add_node(ks_sln.RepBundle(word=node), node_id=node)
    for tid, transitive, symmetric, _parent in types:
        net.add_link_type(ks_sln.RepBundle(word=tid), transitive, symmetric, type_id=tid)
    for tid, _transitive, _symmetric, parent in types:
        if parent is not None:
            net.set_type_parent(tid, parent)
    for s, t, o in facts:
        net.assert_link(s, t, o)
    for rid, (body, head) in rules.items():
        net.rules[rid] = rule_object(rid, body, head)
    return net


def rule_object(rid: str, body: Sequence[Triple], head: Sequence[Triple]) -> ks_rules.Rule:
    return ks_rules.Rule(
        rid, ks_sln.RepBundle(word=rid),
        tuple(ks_rules.PatternAtom(*a) for a in body),
        tuple(ks_rules.PatternAtom(*a) for a in head),
    )


def canonical(triples: Iterable[Triple], symmetric: Iterable[str]) -> List[Triple]:
    """Triples with symmetric ones written in one orientation (duplicates kept)."""
    sym = set(symmetric)
    return [
        (min(s, o), t, max(s, o)) if t in sym else (s, t, o) for s, t, o in triples
    ]


def stored_triples(net: ks_sln.Network) -> List[Triple]:
    return [link.triple() for link in net.links.values()]


def store_matches(net: ks_sln.Network, expected: Iterable[Triple],
                  symmetric: Iterable[str]) -> bool:
    """The network stores each expected fact exactly once and nothing else."""
    got = canonical(stored_triples(net), symmetric)
    want = set(canonical(expected, symmetric))
    return len(got) == len(set(got)) and set(got) == want


def proof_tuple(node: Any) -> ProofTree:
    """An engine Explanation as nested (triple, kind, rule, children) tuples."""
    return (
        tuple(node.triple), node.kind, node.rule_id,
        tuple(proof_tuple(child) for child in node.children),
    )


def link_ids_by_triple(net: ks_sln.Network) -> Dict[Triple, str]:
    return {link.triple(): link.id for link in net.links.values()}
