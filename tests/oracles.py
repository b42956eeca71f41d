"""Brute-force reference implementations used to cross-check the engine.

Everything in this module works on plain tuples and dicts, never on the
package's own classes, so a bug in the engine cannot hide inside its oracle.
The implementations favour obviousness over speed: full recomputation each
round, exhaustive permutation search, exact rational arithmetic.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

Triple = Tuple[str, str, str]
RuleTuple = Tuple[Tuple[Triple, ...], Tuple[Triple, ...]]


def _is_var(term: str) -> bool:
    return term.startswith("?")


def _bind(term: str, value: str, env: Dict[str, str]) -> Optional[Dict[str, str]]:
    """Unify one term against one constant under env, or return None."""
    if _is_var(term):
        bound = env.get(term)
        if bound is None:
            out = dict(env)
            out[term] = value
            return out
        return env if bound == value else None
    return env if term == value else None


def _match_body(facts_by_type: Mapping[str, Sequence[Triple]],
                body: Sequence[Triple]) -> List[Dict[str, str]]:
    """All satisfying environments for a conjunctive body, by plain joining."""
    envs: List[Dict[str, str]] = [{}]
    all_facts: List[Triple] = [f for fs in facts_by_type.values() for f in fs]
    for atom in body:
        nxt: List[Dict[str, str]] = []
        for env in envs:
            type_term = env.get(atom[1], atom[1])
            if _is_var(type_term):
                pool: Sequence[Triple] = all_facts
            else:
                pool = facts_by_type.get(type_term, ())
            for fact in pool:
                e: Optional[Dict[str, str]] = env
                for term, value in zip(atom, fact):
                    e = _bind(term, value, e)
                    if e is None:
                        break
                if e is not None:
                    nxt.append(e)
        envs = nxt
        if not envs:
            break
    return envs


def _instantiate(atom: Triple, env: Mapping[str, str]) -> Triple:
    return tuple(env.get(term, term) for term in atom)  # type: ignore[return-value]


def naive_fixpoint(explicit: Iterable[Triple],
                   rules: Iterable[RuleTuple],
                   symmetric_types: Iterable[str] = (),
                   transitive_types: Iterable[str] = ()) -> FrozenSet[Triple]:
    """Close a fact set under rules, symmetry and transitivity.

    Symmetric types are completed by materialising the reverse triple as a
    fact of its own.  Transitive types are desugared into an ordinary chain
    rule.  Each round recomputes every rule against the full fact set; no
    delta bookkeeping of any kind.
    """
    todo: List[RuleTuple] = list(rules)
    for tid in sorted(set(transitive_types)):
        chain = (("?u", tid, "?v"), ("?v", tid, "?w"))
        todo.append((chain, (("?u", tid, "?w"),)))
    symmetric = set(symmetric_types)

    facts: Set[Triple] = set(explicit)
    while True:
        fresh: Set[Triple] = set()
        for (s, tid, t) in facts:
            if tid in symmetric:
                rev = (t, tid, s)
                if rev not in facts:
                    fresh.add(rev)
        by_type: Dict[str, List[Triple]] = {}
        for fact in facts:
            by_type.setdefault(fact[1], []).append(fact)
        for body, head in todo:
            for env in _match_body(by_type, body):
                for atom in head:
                    derived = _instantiate(atom, env)
                    if derived not in facts:
                        fresh.add(derived)
        if not fresh:
            return frozenset(facts)
        facts |= fresh


def transitive_closure(pairs: Iterable[Tuple[str, str]]) -> Set[Tuple[str, str]]:
    """Pairs (a, b) joined by a path of one or more of the given pairs."""
    succ: Dict[str, Set[str]] = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    out: Set[Tuple[str, str]] = set()
    for start in succ:
        stack = list(succ[start])
        while stack:
            node = stack.pop()
            if (start, node) not in out:
                out.add((start, node))
                stack.extend(succ.get(node, ()))
    return out


def brute_index(links: Iterable[Tuple[str, str, str, str]]) -> Tuple[
        Dict[str, Dict[str, Dict[str, str]]],
        Dict[str, Dict[str, Dict[str, str]]]]:
    """Link ids grouped two ways from (id, source, type, target) rows.

    Returns the groupings type -> source -> target -> id and
    type -> target -> source -> id.
    """
    by_source: Dict[str, Dict[str, Dict[str, str]]] = {}
    by_target: Dict[str, Dict[str, Dict[str, str]]] = {}
    for lid, source, tid, target in links:
        by_source.setdefault(tid, {}).setdefault(source, {})[target] = lid
        by_target.setdefault(tid, {}).setdefault(target, {})[source] = lid
    return by_source, by_target


def brute_rows(links: Iterable[Tuple[str, str, str, str, int]], symmetric: Set[str],
               tid: str, source: Optional[str], target: Optional[str],
               before: Optional[int]) -> List[Tuple[str, str, str]]:
    """(source, target, id) readings of one type from (id, source, type,
    target, stamp) rows, sorted: a symmetric type's link also reads reversed
    (a self-loop once), None binds nothing, and only stamps below before
    count when it is given."""
    out = []
    for lid, s, ty, t, stamp in links:
        if ty != tid or (before is not None and stamp >= before):
            continue
        readings = [(s, t)] + ([(t, s)] if ty in symmetric and s != t else [])
        for a, b in readings:
            if source in (None, a) and target in (None, b):
                out.append((a, b, lid))
    return sorted(out)


def brute_answer(facts: Iterable[Triple], pattern: Triple) -> List[Triple]:
    """All facts matching a pattern whose holes are written as "?"."""
    hits = []
    for fact in facts:
        if all(p == "?" or p == v for p, v in zip(pattern, fact)):
            hits.append(fact)
    return sorted(hits)


def brute_rank(node_ids: Iterable[str],
               weighted_edges: Iterable[Tuple[str, str, float]]) -> Dict[str, float]:
    """Incoming-weight share per node; uniform when there is no weight at all."""
    ids = sorted(set(node_ids))
    incoming = {n: 0.0 for n in ids}
    for _, target, weight in weighted_edges:
        if target in incoming:
            incoming[target] += weight
    total = sum(incoming.values())
    if total == 0.0:
        share = 1.0 / len(ids) if ids else 0.0
        return {n: share for n in ids}
    return {n: incoming[n] / total for n in ids}


def is_within(parent_of: Mapping[str, Optional[str]], cat: str, ancestor: str) -> bool:
    """Walk parent pointers from cat looking for ancestor (inclusive)."""
    cur: Optional[str] = cat
    while cur is not None:
        if cur == ancestor:
            return True
        cur = parent_of.get(cur)
    return False


def brute_locate(placements: Mapping[str, Mapping[str, str]],
                 parent_of: Mapping[str, Mapping[str, Optional[str]]],
                 spec: Mapping[str, str],
                 mode: str) -> List[str]:
    """Filter placed resources by a partial coordinate spec.

    placements maps resource -> {dimension -> category}; parent_of maps
    dimension -> {category -> parent or None}.  mode is "exact" or "subtree".
    """
    hits = []
    for resource in sorted(placements):
        point = placements[resource]
        ok = True
        for dim, want in spec.items():
            got = point[dim]
            if mode == "exact":
                ok = got == want
            else:
                ok = is_within(parent_of[dim], got, want)
            if not ok:
                break
        if ok:
            hits.append(resource)
    return hits


def brute_dependent_pairs(dim_order: Sequence[str],
                          placements: Mapping[str, Mapping[str, str]]) -> List[Tuple[str, str]]:
    """Ordered dimension pairs (i, j) where i's category fixes j's category.

    A pair counts only when the observed mapping is single valued and at
    least two distinct keys were actually seen.
    """
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


def iso_search(source_nodes: Sequence[str],
               source_triples: Iterable[Triple],
               target_nodes: Sequence[str],
               target_triples: Iterable[Triple]) -> Optional[Dict[str, str]]:
    """Exhaustive injective search for a label-preserving edge embedding.

    Tries every injection of source nodes into target nodes via permutations.
    Only usable for tiny graphs; that is the point.
    """
    src = sorted(set(source_nodes))
    tgt = sorted(set(target_nodes))
    if len(src) > len(tgt):
        return None
    edges = list(source_triples)
    have = set(target_triples)
    for image in itertools.permutations(tgt, len(src)):
        mapping = dict(zip(src, image))
        if all((mapping[s], tid, mapping[t]) in have for (s, tid, t) in edges):
            return mapping
    return None


def best_partial_map(source_nodes: Sequence[str],
                     source_triples: Sequence[Triple],
                     target_nodes: Sequence[str],
                     target_triples: Iterable[Triple]) -> Dict[str, str]:
    """The first injection, in permutation order, preserving the most source
    triples; every injection is counted."""
    have = set(target_triples)
    best: Dict[str, str] = {}
    best_count = -1
    for image in itertools.permutations(target_nodes, len(source_nodes)):
        mapping = dict(zip(sorted(source_nodes), image))
        count = sum((mapping[s], tid, mapping[t]) in have for s, tid, t in source_triples)
        if count > best_count:
            best, best_count = mapping, count
    return best


def replay_map(mapping: Mapping[str, str],
               source_triples: Iterable[Triple],
               target_triples: Iterable[Triple]) -> bool:
    """Check a claimed mapping edge by edge against the target triples."""
    values = list(mapping.values())
    if len(set(values)) != len(values):
        return False
    have = set(target_triples)
    for (s, tid, t) in source_triples:
        if s not in mapping or t not in mapping:
            return False
        if (mapping[s], tid, mapping[t]) not in have:
            return False
    return True


def window_pair_weights(entity_positions: Sequence[Tuple[int, str]],
                        radius: int) -> Dict[Tuple[str, str], float]:
    """Recount co-occurrence weights from resolved entity positions.

    entity_positions lists (token index, concept id) for every resolved
    entity occurrence in reading order.  Each occurrence contributes one
    unit to each distinct earlier concept within the trailing window.
    """
    weights: Dict[Tuple[str, str], float] = {}
    for i, (pos, cid) in enumerate(entity_positions):
        partners: Set[str] = set()
        for j in range(i):
            prev_pos, prev_cid = entity_positions[j]
            if pos - prev_pos <= radius and prev_cid != cid:
                partners.add(prev_cid)
        for other in partners:
            key = (cid, other) if cid < other else (other, cid)
            weights[key] = weights.get(key, 0.0) + 1.0
    return weights


def capacity_exact(x: float, n: int) -> bool:
    """Decide n**n >= x**n in exact rational arithmetic."""
    if n <= 0:
        raise ValueError("n must be positive")
    fx = Fraction(x)
    return Fraction(n) ** n >= fx ** n


def capacity_float(x: float, n: int, rel_tol: float = 1e-12) -> Optional[bool]:
    """Floating comparison of n**n against x**n; None when too close to call."""
    lhs = float(n) ** n
    rhs = x ** n
    if rhs != 0.0 and abs(lhs - rhs) / abs(rhs) <= rel_tol:
        return None
    return lhs >= rhs
