"""Workload `saturate`: forward chaining to a fixpoint, in process.

Each cycle walks a fixed list of strata, alternating transitive chains and
co-citation graphs of fixed sizes; the seed picks ids, citations, the
retracted citation and the reads. Sizes stay fixed so that seeds change the
inputs but not the amount of work. Per network: a cold
derive_fixpoint, a no-op re-derive and retract_with_maintenance of a middle
explicit link (writes), then answer_query and explain calls (reads).
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import oracles
from common import (
    Op, build_network, link_ids_by_triple, make_ids, proof_tuple, rng_for,
    store_matches, transitive_rule,
)

from ksengine import rules as ks_rules
from ksengine import sln as ks_sln
from ksengine.state import EngineState

# (kind, size): chains count nodes, co-citation graphs count papers. Chain
# writes spread from milliseconds to a second, below and above the
# co-citation writes. The co-citation graphs share one size so that their
# writes, half of all writes, cost about the same: the median write (and the
# 90th percentile op, which sits at the same rank) then falls inside that
# group instead of in a gap between two sizes.
STRATA = (
    ("chain", 20), ("cocite", 150), ("chain", 50), ("cocite", 150),
    ("chain", 30), ("cocite", 150), ("chain", 40), ("cocite", 150),
)
# Reads are fractions of a millisecond against writes of tenths of a second;
# enough of them keeps their mean steady against a garbage collection pause
# landing in one of them.
QUERIES = 16
EXPLAINS = 8
PREC, CITES, SAME = "prec", "cites", "same-topic"
COCITE_BODY = (("?a", CITES, "?c"), ("?b", CITES, "?c"))
COCITE_RULE = ("co-cite", (COCITE_BODY, (("?a", SAME, "?b"),)))


def network_spec(seed: int, cycle: int, slot: int) -> dict:
    """Plain-data description of one network and the reads run against it."""
    kind, size = STRATA[slot]
    rng = rng_for("saturate", seed, cycle, slot)
    if kind == "chain":
        nodes = make_ids(rng, "v", size)
        explicit = [(a, PREC, b) for a, b in zip(nodes, nodes[1:])]
        cut = len(explicit) // 2
        types = [(PREC, True, False, None)]
        rid, rule = transitive_rule(PREC)
        rules = {}
        proof_rules = {rid: rule}
        symmetric: Tuple[str, ...] = ()
        query_nodes = [(n, PREC, None) for n in rng.sample(nodes, QUERIES // 2)]
        query_nodes += [(None, PREC, n) for n in rng.sample(nodes, QUERIES // 2)]
    else:
        papers = make_ids(rng, "p", size)
        refs = make_ids(rng, "r", len(papers) // 2)
        nodes = papers + refs
        explicit = [(p, CITES, r) for p in papers for r in sorted(rng.sample(refs, 2))]
        cut = rng.randrange(len(explicit))
        types = [(CITES, False, False, None), (SAME, False, True, None)]
        rules = proof_rules = dict([COCITE_RULE])
        symmetric = (SAME,)
        query_nodes = [(p, SAME, None) for p in rng.sample(papers, QUERIES // 2)]
        query_nodes += [(None, CITES, r) for r in rng.sample(refs, QUERIES // 2)]
    return {
        "kind": kind, "nodes": nodes, "types": types, "explicit": explicit,
        "rules": rules, "proof_rules": proof_rules, "symmetric": symmetric,
        "retract": explicit[cut], "queries": query_nodes,
        # One pick in each equal slice of the derived links, so that the
        # seed moves which links are explained but not how deep they go.
        "explains": [(k + rng.random()) / EXPLAINS for k in range(EXPLAINS)],
    }


def closure(spec: dict, explicit: List[Tuple[str, str, str]]) -> set:
    """Expected stored facts for the given explicit links (closed forms)."""
    if spec["kind"] == "chain":
        # After a retraction the chain falls into two pieces; close each.
        facts = set()
        piece = [explicit[0][0]] if explicit else []
        for a, _t, b in explicit:
            if piece and piece[-1] != a:
                facts |= oracles.chain_closure(piece, PREC)
                piece = [a]
            piece.append(b)
        return facts | oracles.chain_closure(piece, PREC)
    cites = [(p, r) for p, _t, r in explicit]
    pairs = oracles.unordered(oracles.cocite_pairs(cites))
    return set(explicit) | {(a, SAME, b) for a, b in pairs}


class Saturate:
    def __init__(self, seed: int):
        self.seed = seed
        self.last_networks: List[ks_sln.Network] = []
        self.first_cycle: List[Tuple[dict, ks_sln.Network]] = []

    def setup(self) -> None:
        """Generate and build the first cycle's networks; warm the fixpoint."""
        self.first_cycle = []
        for slot in range(len(STRATA)):
            spec = network_spec(self.seed, 0, slot)
            net = build_network(spec["nodes"], spec["types"], spec["explicit"], spec["rules"])
            self.first_cycle.append((spec, net))
        spec = network_spec(self.seed, -1, 0)
        warm = build_network(spec["nodes"], spec["types"], spec["explicit"], spec["rules"])
        ks_rules.derive_fixpoint(warm)

    def fingerprint(self) -> str:
        from ksengine.ksif import export_state

        parts = []
        for slot in range(len(STRATA)):
            spec = network_spec(self.seed, 0, slot)
            net = build_network(spec["nodes"], spec["types"], spec["explicit"], spec["rules"])
            parts.append(repr(spec) + export_state(EngineState(network=net)))
        return "".join(parts)

    def reset(self) -> None:
        self.setup()

    def cycle(self, index: int) -> Iterator[Op]:
        self.last_networks = []
        for slot in range(len(STRATA)):
            if index == 0 and self.first_cycle:
                spec, net = self.first_cycle[slot]
            else:
                spec = network_spec(self.seed, index, slot)
                net = build_network(spec["nodes"], spec["types"], spec["explicit"], spec["rules"])
            self.last_networks.append(net)
            yield from self._network_ops(spec, net)
        self.first_cycle = []

    def _network_ops(self, spec: dict, net: ks_sln.Network) -> Iterator[Op]:
        sym = spec["symmetric"]
        full = closure(spec, spec["explicit"])
        derived = len(full) - len(spec["explicit"])
        yield Op(
            "derive.cold", True, lambda: ks_rules.derive_fixpoint(net),
            lambda out: len(out[0]) == derived and store_matches(net, full, sym),
        )
        yield Op(
            "derive.noop", True, lambda: ks_rules.derive_fixpoint(net),
            lambda out: out[0] == [] and store_matches(net, full, sym),
        )
        target = link_ids_by_triple(net)[spec["retract"]]
        remaining = [f for f in spec["explicit"] if f != spec["retract"]]
        after = closure(spec, remaining)
        yield Op(
            "retract", True, lambda: ks_rules.retract_with_maintenance(net, target),
            lambda out: target in out and store_matches(net, after, sym),
        )
        for source, type_id, target_node in spec["queries"]:
            pattern = ks_sln.QueryPattern(source, type_id, target_node)
            want = oracles.bindings(after, source, type_id, target_node, sym)
            yield Op(
                "query", False, lambda p=pattern: net.answer_query(p),
                lambda out, w=want: out == w,
            )
        derived_ids = sorted(
            lid for lid, link in net.links.items() if not link.is_explicit
        )
        explicit_now = set(remaining)
        for pick in spec["explains"]:
            lid = derived_ids[int(pick * len(derived_ids))]
            yield Op(
                "explain", False, lambda lid=lid: ks_rules.explain(net, lid),
                lambda out, lid=lid: out.link_id == lid and oracles.check_proof(
                    proof_tuple(out), explicit_now, spec["proof_rules"], sym),
            )

    def final_states(self) -> List[EngineState]:
        return [EngineState(network=net) for net in self.last_networks]
