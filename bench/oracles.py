"""Tuple-level expectations for the benchmark's correctness checks.

Everything here works on plain tuples, sets and dicts, never on the engine's
own classes, so a bug in the engine cannot hide inside its check. Callers turn
engine results into tuples first (see the workload modules).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

Triple = Tuple[str, str, str]
RuleTuple = Tuple[Tuple[Triple, ...], Tuple[Triple, ...]]
ProofTree = Tuple[Triple, str, Optional[str], tuple]  # (triple, kind, rule, children)


# ===== closures in closed form =====

def chain_closure(nodes: Sequence[str], type_id: str) -> Set[Triple]:
    """A transitive chain v0 -> v1 -> ... closes to every i < j pair."""
    return {
        (nodes[i], type_id, nodes[j])
        for i in range(len(nodes))
        for j in range(i + 1, len(nodes))
    }


def reachability(edges: Iterable[Tuple[str, str]]) -> Set[Tuple[str, str]]:
    """Pairs (a, b) joined by a path of one or more edges."""
    succ: Dict[str, Set[str]] = {}
    for a, b in edges:
        succ.setdefault(a, set()).add(b)
    out: Set[Tuple[str, str]] = set()
    for start in succ:
        seen: Set[str] = set()
        stack = list(succ[start])
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(succ.get(cur, ()))
        out.update((start, b) for b in seen)
    return out


def cocite_pairs(cites: Iterable[Tuple[str, str]]) -> Set[Tuple[str, str]]:
    """Ordered (a, b) pairs citing a common reference, self-pairs included."""
    by_ref: Dict[str, Set[str]] = {}
    for paper, ref in cites:
        by_ref.setdefault(ref, set()).add(paper)
    out: Set[Tuple[str, str]] = set()
    for papers in by_ref.values():
        out.update(itertools.product(papers, repeat=2))
    return out


def unordered(pairs: Iterable[Tuple[str, str]]) -> Set[Tuple[str, str]]:
    return {(a, b) if a <= b else (b, a) for a, b in pairs}


def bindings(facts: Iterable[Triple], source: Optional[str], type_id: Optional[str],
             target: Optional[str], symmetric: Iterable[str] = ()) -> List[str]:
    """What a one-hole query binds, with symmetric facts read both ways."""
    sym = set(symmetric)
    out: Set[str] = set()
    for s, t, o in facts:
        views = [(s, o)] + ([(o, s)] if t in sym else [])
        for a, b in views:
            if type_id is None and (a, b) == (source, target):
                out.add(t)
            elif t == type_id and source is None and b == target:
                out.add(a)
            elif t == type_id and target is None and a == source:
                out.add(b)
    return sorted(out)


# ===== rule bodies on tuples =====

def _bind(term: str, value: str, env: Dict[str, str]) -> Optional[Dict[str, str]]:
    if term.startswith("?"):
        bound = env.get(term)
        if bound is None:
            out = dict(env)
            out[term] = value
            return out
        return env if bound == value else None
    return env if term == value else None


def _unify(atom: Triple, fact: Triple, env: Dict[str, str]) -> Optional[Dict[str, str]]:
    e: Optional[Dict[str, str]] = env
    for term, value in zip(atom, fact):
        e = _bind(term, value, e)
        if e is None:
            return None
    return e


def join(facts: Iterable[Triple], atoms: Sequence[Triple]) -> List[Tuple[Dict[str, str], Tuple[Triple, ...]]]:
    """Every (environment, matched facts) for a conjunction, by plain joining."""
    by_type: Dict[str, List[Triple]] = {}
    for fact in facts:
        by_type.setdefault(fact[1], []).append(fact)
    partial: List[Tuple[Dict[str, str], Tuple[Triple, ...]]] = [({}, ())]
    for atom in atoms:
        nxt = []
        for env, used in partial:
            for fact in by_type.get(atom[1], ()):
                e = _unify(atom, fact, env)
                if e is not None:
                    nxt.append((e, used + (fact,)))
        partial = nxt
    return partial


def anomaly_hit(facts: Sequence[Triple], atoms: Sequence[Triple], metric: str, op: str,
                threshold: float, template: str) -> Optional[Tuple[str, Set[Triple]]]:
    """(statement, evidence triples) when an anomaly rule fires, else None."""
    matches = join(facts, atoms)
    count = len({tuple(sorted(env.items())) for env, _used in matches})
    evidence = {fact for _env, used in matches for fact in used}
    total = len(facts)
    share = count / total if total else 0.0
    value = count if metric == "count" else share
    holds = {
        "ge": value >= threshold, "gt": value > threshold, "le": value <= threshold,
        "lt": value < threshold, "eq": value == threshold,
    }[op]
    if not holds or not evidence:
        return None
    return template.format(count=count, share=share, total=total), evidence


def check_proof(tree: ProofTree, explicit: Set[Triple], rules: Mapping[str, RuleTuple],
                symmetric: Iterable[str] = ()) -> bool:
    """Every leaf is an explicit fact and every step instantiates its rule."""
    sym = set(symmetric)

    def views(triple: Triple) -> List[Triple]:
        s, t, o = triple
        return [triple, (o, t, s)] if t in sym and s != o else [triple]

    def ok(node: ProofTree) -> bool:
        triple, kind, rule_id, children = node
        if kind == "explicit":
            return any(v in explicit for v in views(triple))
        if rule_id not in rules or not children:
            return False
        body, head = rules[rule_id]
        if len(body) != len(children):
            return False
        for oriented in itertools.product(*(views(c[0]) for c in children)):
            env: Optional[Dict[str, str]] = {}
            for atom, fact in zip(body, oriented):
                env = _unify(atom, fact, env)
                if env is None:
                    break
            if env is None:
                continue
            made = {tuple(env.get(x, x) for x in h) for h in head}
            if any(v in made for v in views(triple)):
                return all(ok(c) for c in children)
        return False

    return ok(tree)


# ===== space, reading, problems, analogy =====

def is_within(parent_of: Mapping[str, Optional[str]], cat: str, ancestor: str) -> bool:
    cur: Optional[str] = cat
    while cur is not None:
        if cur == ancestor:
            return True
        cur = parent_of.get(cur)
    return False


def locate(placements: Mapping[str, Mapping[str, str]],
           parent_of: Mapping[str, Mapping[str, Optional[str]]],
           spec: Mapping[str, str], mode: str) -> List[str]:
    hits = []
    for resource in sorted(placements):
        point = placements[resource]
        if all(
            point[d] == c if mode == "exact" else is_within(parent_of[d], point[d], c)
            for d, c in spec.items()
        ):
            hits.append(resource)
    return hits


def dependent_pairs(dim_order: Sequence[str],
                    placements: Mapping[str, Mapping[str, str]]) -> List[Tuple[str, str]]:
    """Ordered dimension pairs where the first's category fixes the second's."""
    out = []
    for di in dim_order:
        for dj in dim_order:
            if di == dj:
                continue
            groups: Dict[str, Set[str]] = {}
            for point in placements.values():
                groups.setdefault(point[di], set()).add(point[dj])
            if len(groups) >= 2 and all(len(v) == 1 for v in groups.values()):
                out.append((di, dj))
    return out


def cooccurrences(events: Sequence[Tuple[str, Sequence[str]]],
                  min_support: int) -> List[Tuple[str, str, int]]:
    """(a, b, records) for entity pairs seen together often enough, sorted."""
    seen: Dict[Tuple[str, str], Set[str]] = {}
    for record, entities in events:
        for a, b in itertools.combinations(sorted(set(entities)), 2):
            seen.setdefault((a, b), set()).add(record)
    return [(a, b, len(r)) for (a, b), r in sorted(seen.items()) if len(r) >= min_support]


def reached_both_ways(edges: Iterable[Tuple[str, str]], goals: Iterable[str]) -> Set[str]:
    """Nodes reachable from the goals forwards or backwards, goals excluded."""
    fwd: Dict[str, Set[str]] = {}
    bwd: Dict[str, Set[str]] = {}
    for a, b in edges:
        fwd.setdefault(a, set()).add(b)
        bwd.setdefault(b, set()).add(a)
    goal_set = set(goals)
    found: Set[str] = set()
    for graph in (fwd, bwd):
        seen = set(goal_set)
        stack = list(goal_set)
        while stack:
            for nxt in graph.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        found |= seen
    return found - goal_set


def preserves(mapping: Mapping[str, str], source: Iterable[Triple],
              target: Iterable[Triple]) -> bool:
    """An injective node map carrying every source triple onto a target triple."""
    if len(set(mapping.values())) != len(mapping):
        return False
    have = set(target)
    return all(
        s in mapping and o in mapping and (mapping[s], t, mapping[o]) in have
        for s, t, o in source
    )
