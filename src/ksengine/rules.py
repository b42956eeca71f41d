"""Forward-chaining inference over semantic link networks.

Rules are safe conjunctive patterns: one to four body atoms, one or two head
atoms, every head variable bound in the body, and heads never introduce new
nodes or link types.

Evaluation is semi-naive over indexed relations and runs to the least
fixpoint. Every link carries an insertion stamp, which splits each round's
links into old facts, the delta (links the previous round added) and new
links (added in this round, invisible until the next). A rule is matched once
per body position: the atom at that position goes first and sees only the
delta, atoms before it see only old facts, and atoms after it see old and
delta facts, so a firing is found in one round at one position at most.
Delta rows are built only for the link types some rule body reads (every
type once an atom has a variable link type); a round that added no link of
a read type ends the fixpoint.

match_atoms is the one join. _compile turns its atoms into a plan, a walk
over fixed slots: every term gets a slot in one list (constants filled in)
and the walk binds a variable by writing its slot. Derive compiles each
(rule, delta position) once per call; each call makes only the probes, from
Network.prober, which looks a type's indexes up once; an atom whose source
or target is bound probes the (type, source) or (type, target) index
instead of scanning. Derive reads a firing's head triples from the slots
with one itemgetter. Given heads, a step that binds only variables no later
atom and no head reads stops after its first row: every further row leads
to the same head triples, and only the first firing of a triple is kept.

Derive knows which rule stored each link: after round one it skips a join
whose delta-first BaseAtom's type gained no base link, and tells _store
base-ness. A rule whose two body atoms trade places when its symmetric
head's variables swap (co-cite) fires in mirror pairs. Derive skips its
join with the delta second, and with the delta first drops a firing whose
second premise is a delta row and whose swapped variable sorts below the
other: delta rows go sorted by (source, target, id), so its mirror came
earlier in the walk and stored the fact. Ids and provenance do not change.

Derive and the DRed restore store firings through _store_firings, which
binds the one lookup (Network._find_stored) and the one insertion step
(Network._store) once per join, so a firing costs one lookup and, if its
triple is new, one insertion: weighted by its weakest premise, carrying
the rule id and the premise tuple the join made, under the next fresh "k"
id, which _store claims through fresh_id like every other id. The
insertion checks nothing else: the firing has proved what add_derived
would check.

At the fixpoint the network keeps a mark: the rule/type signature and its
link count. The next derive starts from the links inserted since the mark,
or from all links if a rule or a symmetric flag changed or a link was
removed (a removal voids the mark; retraction below sets it again), so a
re-derive with nothing new joins nothing. Iteration is deterministic, so
identical inputs give identical ids and provenance.

A transitive type t is evaluated as linear recursion, not as the chain rule
?x t ?y, ?y t ?z -> ?x t ?z. The synthesized rule's first atom is a BaseAtom:
it reads only base t links (sln.is_base: those the rule did not derive), from
the delta or from the network's base view of t, while the second reads every
stored t link. Each closure link then has exactly one firing, so an n-chain
costs O(n^2) join results rather than O(n^3), and a closure link's proof is
one base step plus one closure step, about n levels deep on an n-chain,
which premise_walk takes without recursion. Any stored premise pair that
satisfies the chain rule still replays, so KSIF is unchanged.

A derived link keeps one provenance, in its own rule_id and premises
fields: the rule id and premise link ids (in body order) of the firing that
first produced it, which is what KSIF saves, so a network and its reload
hold the same information. A firing whose head triple is already stored
is skipped; nothing is kept per firing. explain, verify_explanation and
KSIF import read proofs through premise_walk, the one walk over premises,
and step_substitutions, the one check of a step; import compares terms
first (step_replay) and replays only a step the comparison refuses.

Retraction is DRed (delete and rederive). From a network at its fixpoint it
over-deletes the provenance closure of the retracted link, then marks what
survives as closed: a firing over surviving links was a firing before the
removal, so its head is stored or was over-deleted. Each rule head atom is
then matched first against the over-deleted triples and the body after it
against the network, which restores every over-deleted triple that one
firing over surviving links still supports; a re-derive from the mark then
propagates from the restored links alone. Links that survive keep their ids
and provenance; restored links get fresh ids, and their weights and premises
come from the firing that restored them, which need not be the firing a
derive from scratch would pick.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import (
    Callable, Collection, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
    TypeVar, Union,
)

from .errors import InvalidRule
from .record import FrozenRecord, _set
from .sln import (
    ID_PATTERN,
    Network,
    RepBundle,
    Row,
    SemanticLink,
    TRANSITIVE_PREFIX,
    is_base,
    no_rows,
)


def is_variable(term: str) -> bool:
    return isinstance(term, str) and term.startswith("?")


def _check_term(term: str) -> Optional[str]:
    if not isinstance(term, str) or term == "":
        return f"empty term {term!r}"
    if term.startswith("?"):
        if not ID_PATTERN.match(term[1:] or " "):
            return f"bad variable {term!r}"
    elif not ID_PATTERN.match(term):
        return f"bad identifier {term!r}"
    return None


def term_problems(where: str, atoms: Sequence["PatternAtom"]) -> List[str]:
    """A message for each term of atoms that is neither "?var" nor an id."""
    problems = []
    for atom in atoms:
        for term in (atom.source, atom.type, atom.target):
            bad = _check_term(term)
            if bad:
                problems.append(f"{where}: {bad}")
    return problems


class PatternAtom(FrozenRecord):
    """One triple pattern; each field is a variable ("?x") or an id."""

    __slots__ = ("source", "type", "target")

    def __init__(self, source: str, type: str, target: str) -> None:
        _set(self, "source", source)
        _set(self, "type", type)
        _set(self, "target", target)

    def variables(self) -> Tuple[str, ...]:
        return tuple(t for t in (self.source, self.type, self.target) if is_variable(t))

    def substituted(self, env: Dict[str, str]) -> Tuple[str, str, str]:
        return (
            env.get(self.source, self.source),
            env.get(self.type, self.type),
            env.get(self.target, self.target),
        )


class BaseAtom(PatternAtom):
    """A body atom that reads only base links of its constant type
    (sln.is_base); it makes the synthesized transitive rule linear."""

    __slots__ = ()


class Rule(NamedTuple):
    id: str
    rep: RepBundle
    body: Tuple[PatternAtom, ...]
    head: Tuple[PatternAtom, ...]


class Explanation:
    """Why a link holds: an explicit leaf, or a rule step over premises.
    Nodes compare and hash by identity, as premise_walk keys them."""

    __slots__ = ("link_id", "triple", "kind", "rule_id", "substitution", "premises", "children")

    def __init__(self, link_id: str, triple: Tuple[str, str, str], kind: str,
                 rule_id: Optional[str] = None, substitution: Optional[Dict[str, str]] = None,
                 premises: Tuple[str, ...] = (),
                 children: Optional[List["Explanation"]] = None) -> None:
        self.link_id = link_id
        self.triple = triple
        self.kind = kind  # "explicit" | "derived"
        self.rule_id = rule_id
        self.substitution = substitution
        self.premises = premises
        self.children = [] if children is None else children

    def __repr__(self) -> str:
        # One node: children are named by their link ids, the premises, so a
        # deep proof or a shared premise prints in constant size.
        return (f"Explanation({self.link_id!r}, {self.triple!r}, {self.kind!r}, "
                f"rule_id={self.rule_id!r}, premises={self.premises!r})")


def validate_rule(rule: Rule, network: Optional[Network] = None) -> List[str]:
    """Collect contract violations; an empty list means the rule is valid."""
    problems: List[str] = []
    if not isinstance(rule.id, str) or not ID_PATTERN.match(rule.id):
        problems.append(f"rule id {rule.id!r} is not a valid id")
    elif rule.id.startswith(TRANSITIVE_PREFIX):
        problems.append(f"rule id {rule.id!r} is reserved for transitive flags")
    if not 1 <= len(rule.body) <= 4:
        problems.append(f"body must have 1..4 atoms, found {len(rule.body)}")
    if not 1 <= len(rule.head) <= 2:
        problems.append(f"head must have 1..2 atoms, found {len(rule.head)}")
    problems += term_problems("body", rule.body) + term_problems("head", rule.head)
    # A head variable takes its value from a body position of its own kind,
    # so a head link type is a link type and a head end is a node.
    kinds = {"link-type": {atom.type for atom in rule.body},
             "node": {term for atom in rule.body for term in (atom.source, atom.target)}}
    for atom in rule.head:
        for term, kind in ((atom.source, "node"), (atom.type, "link-type"), (atom.target, "node")):
            if not is_variable(term) or term in kinds[kind]:
                continue
            if any(term in bound for bound in kinds.values()):
                problems.append(f"head variable {term} is at a {kind} position, but the body "
                                f"binds it only at other positions")
            else:
                problems.append(f"unsafe variable {term} in head")
    if network is not None:
        for atom in rule.head:
            for term in (atom.source, atom.target):
                if not is_variable(term) and term not in network.nodes:
                    problems.append(f"unknown node {term!r} in head")
            if not is_variable(atom.type) and atom.type not in network.link_types:
                problems.append(f"unknown link type {atom.type!r} in head")
    return problems


# ===== pattern matching =====

FactRows = Dict[str, List[Row]]  # type id -> (source, target, link id)
# (bound source or None, bound target or None) -> rows of one type;
# Network.prober makes one.
Probe = Callable[[Optional[str], Optional[str]], Sequence[Row]]
Match = Tuple[Dict[str, str], Tuple[str, ...]]


def rows_from_network(network: Network) -> FactRows:
    """Per-type fact rows with the symmetric completion applied."""
    return {tid: network.type_facts(tid) for tid in sorted(network.link_types)}


def rows_from_links(links: Iterable[SemanticLink], symmetric: Collection[str] = ()) -> FactRows:
    """Per-type rows over a loose link collection, sorted; links of a type in
    symmetric also appear reversed (self-loops once), as Network.readings
    reads them."""
    rows: FactRows = {}
    for link in links:
        bucket = rows.setdefault(link.type, [])
        bucket.append((link.source, link.target, link.id))
        if link.type in symmetric and link.source != link.target:
            bucket.append((link.target, link.source, link.id))
    for bucket in rows.values():
        bucket.sort()
    return rows


def _rows_prober(rows: FactRows) -> Callable[..., Probe]:
    """Network.prober over plain rows, ignoring the stamp limit and the base
    flag; a probe groups its type's rows by source or by target on first
    use, keeping their order."""
    def prober(tid: str, _before: Optional[int] = None, _base: bool = False) -> Probe:
        bucket, groups = rows.get(tid, []), ({}, {})

        def probe(s: Optional[str], t: Optional[str]) -> Sequence[Row]:
            if s is None and t is None:
                return bucket
            side = 0 if s is not None else 1
            if not groups[side]:
                for row in bucket:
                    groups[side].setdefault(row[side], []).append(row)
            found = groups[side].get(t if side else s, [])
            return [row for row in found if row[1] == t] if side == 0 and t is not None else found

        return probe

    return prober


# How a step treats a source or target term: read its value from its slot
# (a constant or an earlier binding), bind it, or (target only) require it to
# equal the source.
_READ, _BIND, _SAME = 0, 1, 2


def match_atoms(facts: Union[Network, FactRows], atoms: Sequence[PatternAtom],
                delta_rows: Optional[FactRows] = None, delta_pos: Optional[int] = None,
                split: Optional[Tuple[int, int]] = None,
                heads: Optional[Sequence[PatternAtom]] = None,
                plan: Optional[tuple] = None) -> List[Match]:
    """All substitutions satisfying the atom conjunction, in deterministic order.

    facts is a Network, read through Network.prober (an index lookup
    wherever an atom's source or target is bound), or plain per-type rows;
    on a Network a BaseAtom reads only base links (sln.is_base), from the
    delta rows and from the network alike. When delta_rows and delta_pos
    are given, the atom at delta_pos is matched first and only against
    delta_rows (the semi-naive restriction); the other atoms follow in body
    order. With split = (delta_from, new_from), a Network's atoms
    before delta_pos see only links stamped below delta_from (old facts) and
    atoms after it only links stamped below new_from (old and delta facts),
    so no firing of a round is found at two delta positions.

    A match is (env, premises): env maps each variable to its value, and
    premises are link ids in atom order. Given heads, env is replaced by
    the heads' triples run together (source, type, target of each in turn),
    and a step binding only variables that no later atom and no head reads
    contributes its first row alone; every head triple still appears, first
    with the premises a full walk would give it first.

    plan is _compile's plan of these arguments (a mirror rule's drops
    mirrored firings); by default the call compiles its own.
    """
    network = isinstance(facts, Network)
    if delta_rows is not None:
        first = atoms[delta_pos]
        if network and isinstance(first, BaseAtom):
            delta_rows = {first.type: [row for row in delta_rows.get(first.type, ())
                                       if is_base(facts.links[row[2]])]}
        if not (any(delta_rows.values()) if first.type[:1] == "?" else
                delta_rows.get(first.type)):
            return []  # no delta row for the atom read first
    steps, initial, emit, mirror = plan or _compile(
        facts, atoms, None if delta_rows is None else delta_pos, heads)
    prober = facts.prober if network else _rows_prober(facts)
    bounds = (None, None, None) if split is None else (*split, None)
    check = mirror and (*mirror, facts._stamp, split[0])
    walk = []
    for k, (*step, first_only, tids, side, base) in enumerate(steps):
        step_prober = _rows_prober(delta_rows) if side == 2 else prober
        walk.append((*step, {tid: step_prober(tid, bounds[side], base)
                             for tid in (sorted(delta_rows) if tids is None else tids)},
                     first_only, check if k else None))
    results: List[Match] = []
    _walk(walk, 0, list(initial), [""] * len(atoms), emit, results)
    return results


def _compile(facts: Union[Network, FactRows], atoms: Sequence[PatternAtom],
             delta_pos: Optional[int] = None, heads: Optional[Sequence[PatternAtom]] = None,
             mirror: Optional[Tuple[str, str]] = None) -> tuple:
    """match_atoms' plan: (steps, initial slots, emit, mirror). A step is an
    atom's slots and modes, its first-row flag, the types it probes (None:
    the delta's), its stamp bound (0, 1 of the split; 2 the delta rows) and
    its base flag; mirror, _mirror's pair of head variables, becomes theirs."""
    network = isinstance(facts, Network)
    order: Sequence[int] = range(len(atoms))
    if delta_pos is not None:
        order = [delta_pos, *range(delta_pos), *range(delta_pos + 1, len(atoms))]
    slot: Dict[str, int] = {}  # term -> slot, in binding order
    bound_at: List[int] = []  # slot -> the step that filled it
    live = set()  # steps binding a variable that a later step or a head reads
    steps = []
    for k, pos in enumerate(order):
        atom = atoms[pos]
        ty, src, tgt = atom.type, atom.source, atom.target
        fresh = []  # per term: a variable this step binds
        for term in (ty, src, tgt):
            i = slot.get(term)
            if i is None:
                slot[term] = len(bound_at)
                bound_at.append(k)
                fresh.append(term[:1] == "?")
            else:
                fresh.append(False)
                if term[:1] == "?" and bound_at[i] != k:
                    live.add(bound_at[i])
        src_mode = _BIND if fresh[1] else _READ
        tgt_mode = _BIND if fresh[2] else _SAME if tgt == src and fresh[1] else _READ
        side = 2 if k == 0 and delta_pos is not None else int(delta_pos is None or pos > delta_pos)
        if ty[:1] != "?":
            tids: Optional[List[str]] = [ty]
        else:
            tids = None if side == 2 else sorted(facts.link_types if network else facts)
        steps.append([pos, slot[ty], fresh[0], slot[src], src_mode, slot[tgt], tgt_mode, False,
                      tids, side, network and isinstance(atom, BaseAtom)])
    if heads is None:
        names = [(term, i) for term, i in slot.items() if term[:1] == "?"]
        emit = lambda filled: {term: filled[i] for term, i in names}  # noqa: E731
    else:
        picks = []
        for term in (term for head in heads for term in (head.source, head.type, head.target)):
            i = slot.get(term)
            if i is None:  # a head constant
                i = slot[term] = len(bound_at)
                bound_at.append(-1)
            elif term[:1] == "?":
                live.add(bound_at[i])
            picks.append(i)
        # A step binding only variables that nothing after it reads leads
        # every row to the same head triples: its first row stands for all.
        for k, step in enumerate(steps):
            step[7] = k not in live
        emit = operator.itemgetter(*picks)
    return steps, list(slot), emit, mirror and (slot[mirror[0]], slot[mirror[1]])


def _walk(steps: list, k: int, slots: List[str], premises: List[str],
          emit: Callable, results: List[Match]) -> None:
    """Extend the slots through steps k.., appending each full match to
    results; a step marked first-only stops after its first row, and one
    with a mirror check drops mirrored firings. Slots bound at a step are
    overwritten, never unbound: no later step reads them before binding them
    again on the current path. Module-level, as a nested recursive function
    would be a reference cycle holding the network until the cyclic
    collector runs."""
    pos, ty, bind_type, src, src_mode, tgt, tgt_mode, probes, first_only, mirror = steps[k]
    last = k + 1 == len(steps)
    if mirror is not None:
        held, swapped, stamp, delta_from = mirror
    for tid in probes if bind_type else (slots[ty],):
        slots[ty] = tid
        s = None if src_mode == _BIND else slots[src]
        t = None if tgt_mode != _READ else slots[tgt]
        for row_s, row_t, lid in probes.get(tid, no_rows)(s, t):
            if src_mode == _BIND:
                slots[src] = row_s
            if tgt_mode == _BIND:
                slots[tgt] = row_t
            elif tgt_mode == _SAME and row_t != row_s:
                continue
            premises[pos] = lid
            if last:
                if mirror is None or slots[swapped] >= slots[held] or stamp[lid] < delta_from:
                    results.append((emit(slots), tuple(premises)))
            else:
                _walk(steps, k + 1, slots, premises, emit, results)
            if first_only:
                return


# ===== synthesized flag rules =====

@functools.lru_cache(maxsize=None)  # shared by every caller: never mutate the result
def _transitive_rule(type_id: str) -> Rule:
    """?x t ?y, ?y t ?z -> ?x t ?z as linear recursion: the first atom reads
    only base t links (explicit ones and those of user rules), the second
    every stored t link, so each closure link has one firing."""
    rule_id = f"{TRANSITIVE_PREFIX}{type_id}"
    return Rule(
        id=rule_id,
        rep=RepBundle(word=f"transitive closure of {type_id}"),
        body=(BaseAtom("?x", type_id, "?y"), PatternAtom("?y", type_id, "?z")),
        head=(PatternAtom("?x", type_id, "?z"),),
    )


def get_rule(network: Network, rule_id: str) -> Rule:
    """Resolve a user rule or a synthesized transitive-flag rule."""
    tid = network.closure_type(rule_id)
    return network.rules[rule_id] if tid is None else _transitive_rule(tid)


def effective_rules(network: Network) -> List[Rule]:
    rules = [network.rules[rid] for rid in sorted(network.rules)]
    rules.extend(
        _transitive_rule(tid)
        for tid in sorted(network.link_types)
        if network.link_types[tid].transitive
    )
    return rules


# ===== fixpoint =====

def _signature(network: Network, rules: Sequence[Rule]) -> tuple:
    """What a fixpoint depends on besides the links: rules and symmetric flags."""
    return (
        tuple((rule.id, rule.body, rule.head) for rule in rules),
        tuple(sorted(tid for tid, lt in network.link_types.items() if lt.symmetric)),
    )


def _mirror(rule: Rule, symmetric: Collection[str]) -> Optional[Tuple[str, str]]:
    """(the head variable met first in the first atom, the other) for a rule
    whose two plain body atoms trade places when its one head atom's
    variables swap, under a symmetric type (co-cite); None for any other."""
    first, second, head = rule.body[0], rule.body[-1], rule.head[0]
    swap = {head.source: head.target, head.target: head.source}
    if (len(rule.body) != 2 or len(rule.head) != 1 or head.type not in symmetric
            or len(swap) != 2 or not all(map(is_variable, swap)) or first.type in swap
            or not type(first) is type(second) is PatternAtom
            or PatternAtom(*first.substituted(swap)) != second):
        return None
    return next((term, swap[term]) for term in (first.source, first.target) if term in swap)


def _store_firings(network: Network, rule_id: str, matches: List[Match],
                   stored: List[SemanticLink]) -> None:
    """Store, in order, each head triple of matches (match_atoms given the
    heads) that no stored link answers yet, as derived by rule_id and
    weighted by its firing's weakest premise, and append the new links to
    stored. The one lookup and the one insertion step are bound once per
    call, never across calls (a later join's prober can build a base view
    that the next stores must update); a firing has made add_derived's
    checks, so it goes straight to Network._store, told that a user rule's
    links are base."""
    if matches and len(matches[0][0]) > 3:  # two head atoms: a firing per triple
        matches = [(found[i:i + 3], premises) for found, premises in matches for i in (0, 3)]
    find, store, links = network._find_stored, network._store, network.links
    base = not rule_id.startswith(TRANSITIVE_PREFIX)
    for (source, type_id, target), premises in matches:
        if find(source, type_id, target) is None:
            weight = links[premises[0]].weight
            for premise in premises:
                if links[premise].weight < weight:
                    weight = links[premise].weight
            stored.append(store(source, type_id, target, weight, rule_id, premises, base))


def derive_fixpoint(network: Network) -> Tuple[List[SemanticLink], List[SemanticLink]]:
    """Run every rule to the least fixpoint; returns (new links, new
    derivations). Each new link carries its own derivation (rule_id and
    premises), so the second item is the same list as the first.

    The result set is independent of rule order and link insertion order; the
    ids and provenance assigned to new links follow the engine's own
    deterministic iteration, so identical inputs give identical outputs.
    """
    for rid in sorted(network.rules):
        problems = validate_rule(network.rules[rid], network)
        if problems:
            raise InvalidRule(f"rule {rid!r}: " + "; ".join(problems))
    rules = effective_rules(network)
    new_links: List[SemanticLink] = []
    if not rules:
        return new_links, new_links
    signature = _signature(network, rules)
    mark = network.derive_mark
    if mark is not None and mark[0] == signature:
        # The links up to the mark are closed under these rules already.
        delta = list(itertools.islice(network.links.values(), mark[1], None))
    else:
        delta = list(network.links.values())
    if not delta:  # nothing inserted since the fixpoint, or no links at all
        network.derive_mark = (signature, len(network.links))
        return new_links, new_links
    symmetric = signature[1]
    # The link types some body reads; an atom with a variable type reads all.
    read = {atom.type for rule in rules for atom in rule.body}
    everything = any(is_variable(tid) for tid in read)
    # Each rule's join per delta position, compiled once; a rule with mirror
    # firings has position 0 alone, as each at position 1 mirrors one at 0.
    plans = {rule.id: [_compile(network, rule.body, pos, rule.head, mirror)
                       for pos in range(1 if mirror else len(rule.body))]
             for rule in rules for mirror in [_mirror(rule, symmetric)]}
    gained = read  # types that may have a base link in the delta: all in round one
    while delta:
        split = (network._stamp[delta[0].id], network._next_stamp)
        # A link of a type no body reads joins nothing: no rows, and a round
        # with none of the read types left ends the fixpoint.
        delta_rows = rows_from_links(
            delta if everything else [link for link in delta if link.type in read], symmetric)
        if not delta_rows:
            break
        # Atoms before the delta position see only old facts; when the delta
        # is every link, only delta position 0 can match.
        old_facts = len(delta) < len(network.links)
        done = len(new_links)
        next_gained = set()
        for rule in rules:
            stored = len(new_links)
            for pos, plan in enumerate(plans[rule.id] if old_facts else plans[rule.id][:1]):
                if isinstance(rule.body[pos], BaseAtom) and rule.body[pos].type not in gained:
                    continue  # no base row in the delta
                _store_firings(network, rule.id, match_atoms(network, rule.body, delta_rows, pos,
                                                             split, rule.head, plan), new_links)
            if not rule.id.startswith(TRANSITIVE_PREFIX):  # its links are base links
                next_gained.update(link.type for link in new_links[stored:])
        delta, gained = new_links[done:], next_gained
    network.derive_mark = (signature, len(network.links))
    return new_links, new_links


# ===== explanation =====

T = TypeVar("T")  # an item of a premise walk: a link id or an Explanation node


class PremiseCycle(Exception):
    """premise_walk met an item again below itself; args are (item, root)."""


def premise_walk(roots: Iterable[T], premises: Callable[[T], Optional[Sequence[T]]]
                 ) -> Iterator[T]:
    """Each item reachable from roots through premises (empty or None for a
    leaf) once, after all it reaches, without recursion. Raises PremiseCycle
    when an item reaches itself, from the first root on or above a cycle."""
    done: Dict[T, bool] = {}  # item -> finished, or False while on the path
    path = [(None, iter(roots))]  # (item, its premises not yet walked)
    while path:
        item, rest = path[-1]
        for premise in rest:
            state = done.get(premise)
            if state:
                continue
            if state is not None:
                raise PremiseCycle(premise, path[1][0])
            below = premises(premise) or ()
            for each in below:
                if not done.get(each):
                    break
            else:  # a leaf, or its premises are all finished: finish it at once
                done[premise] = True
                yield premise
                continue
            done[premise] = False
            path.append((premise, iter(below)))
            break
        else:
            path.pop()
            if path:  # the bottom entry holds the roots, not an item
                done[item] = True
                yield item


def step_substitutions(network: Network, rule: Rule, premises: Sequence[str],
                       triple: Tuple[str, str, str]) -> List[Dict[str, str]]:
    """Each substitution under which rule's body reads the premise links in
    order and a head atom gives triple, in search order: premise by premise,
    a symmetric premise read its own way first."""
    if len(premises) != len(rule.body):
        return []
    envs: List[Dict[str, str]] = [{}]
    for atom, pid in zip(rule.body, premises):
        link = network.links.get(pid)
        if link is None:
            return []
        grown = []
        for env in envs:
            for s, t in network.readings(link):
                bound = dict(env)
                for term, value in ((atom.type, link.type), (atom.source, s), (atom.target, t)):
                    # A variable binds or agrees; a constant equals the value.
                    if (bound.setdefault(term, value) if term[:1] == "?" else term) != value:
                        break
                else:
                    grown.append(bound)
        envs = grown
    return [env for env in envs for head in rule.head if head.substituted(env) == triple]


def reconstruct_substitution(network: Network, link: SemanticLink) -> Dict[str, str]:
    """Replay a derived link's step: its first step_substitutions; raises
    InvalidRule when it has none."""
    rule = get_rule(network, link.rule_id)
    premises = link.premises
    found = step_substitutions(network, rule, premises, link.triple())
    if not found:
        raise InvalidRule(
            f"link {link.id!r}: premises {premises} do not satisfy the body of rule {rule.id!r}"
        )
    return found[0]


def step_replay(network: Network) -> Callable[[SemanticLink], object]:
    """KSIF import's replay of derived links over the network holding their
    premises, each rule id resolved once: the callable returns when a
    link's step holds and raises
    reconstruct_substitution's InvalidRule when it does not.

    A step holds at the cost of comparing terms when the rule's body reads
    each premise in its own direction and a head atom then gives the link's
    triple (see _own_reading_tests): for a closure step, when its premises,
    both of the type, chain from the link's source to its target. Any other
    step is replayed by reconstruct_substitution, which also reads a
    symmetric premise reversed, so the verdict is the same and a fault keeps
    its message. explain keeps the full replay."""
    links = network.links
    own, ends = operator.attrgetter("type", "source", "target"), operator.attrgetter(*_TRIPLE)
    steps: Dict[str, tuple] = {}  # rule id -> (body length, constants, tests)

    def check(link: SemanticLink) -> object:
        step = steps.get(link.rule_id)
        if step is None:
            rule = get_rule(network, link.rule_id)
            step = steps[link.rule_id] = (len(rule.body), *_own_reading_tests(rule))
        body, constants, tests = step
        if len(link.premises) == body:
            try:
                values = sum(map(own, map(links.__getitem__, link.premises)), constants)
            except KeyError:  # a premise not stored
                return reconstruct_substitution(network, link)
            values += ends(link)
            for left, right in tests:
                if left(values) == right(values):
                    return None
        return reconstruct_substitution(network, link)

    return check


_TRIPLE = ("source", "type", "target")


def _own_reading_tests(rule: Rule) -> Tuple[tuple, list]:
    """Whether the rule's body reads premises each in its own direction and
    a head atom then gives a triple, as equalities over one tuple: the
    rule's constants, then (type, source, target) of each premise, then
    the triple. Returns those constants and, per head atom, two itemgetters
    whose values are equal when it holds: each later position of a term (a
    constant's first is among the constants) against its first, and the
    head's terms against the triple. A head variable the body does not
    bind gives no test."""
    body = [getattr(atom, name) for atom in rule.body for name in ("type", "source", "target")]
    heads = [[getattr(atom, name) for name in _TRIPLE] for atom in rule.head]
    constants = tuple(dict.fromkeys(
        term for term in body + sum(heads, []) if not is_variable(term)))
    first = {term: at for at, term in enumerate(constants)}  # term -> its first position
    later, earlier = [], []
    for at, term in enumerate(body, start=len(constants)):
        if term in first:
            later.append(at)
            earlier.append(first[term])
        else:
            first[term] = at
    end = len(constants) + len(body)
    triple = range(end, end + 3)
    return constants, [(operator.itemgetter(*later, *map(first.get, head)),
                        operator.itemgetter(*earlier, *triple))
                       for head in heads if all(term in first for term in head)]


def explain(network: Network, link_id: str) -> Explanation:
    """Explanation tree for a link; leaves are explicit links.

    Nodes are built along premise_walk, so a premise cited more than once
    gets one node, shared by each citation. Raises InvalidRule when a step
    does not replay or a link's provenance leads back to the link itself,
    whichever the walk meets first.
    """
    built: Dict[str, Explanation] = {}
    try:
        for lid in premise_walk((link_id,), lambda lid: network.link(lid).premises):
            link = network.links[lid]
            if link.is_explicit:
                built[lid] = Explanation(lid, link.triple(), "explicit")
            else:  # rule id, substitution, premises, children
                built[lid] = Explanation(lid, link.triple(), "derived", link.rule_id,
                                         reconstruct_substitution(network, link), link.premises,
                                         list(map(built.__getitem__, link.premises)))
    except PremiseCycle as cycle:
        raise InvalidRule(f"link {cycle.args[0]!r} is among its own premises") from None
    return built[link_id]


def _step_holds(network: Network, node: Explanation) -> bool:
    """One explanation node, its children aside: it names a stored link
    carrying its triple; an explicit node names an explicit link and has no
    children, and a derived node's children name its premises and its
    substitution contains one that step_substitutions finds."""
    stored = network.links.get(node.link_id)
    if stored is None or stored.triple() != node.triple:
        return False
    if node.kind == "explicit":
        return stored.is_explicit and not node.children
    rule = get_rule(network, node.rule_id)
    if [child.link_id for child in node.children] != list(node.premises):
        return False
    bound = (node.substitution or {}).items()
    return any(env.items() <= bound
               for env in step_substitutions(network, rule, node.premises, node.triple))


def verify_explanation(network: Network, node: Explanation) -> bool:
    """Replay an explanation: every step must reproduce its link exactly.

    Nodes are checked along premise_walk, each node object once however
    often it is cited; a node among its own descendants fails.
    """
    try:
        return all(_step_holds(network, each)
                   for each in premise_walk((node,), operator.attrgetter("children")))
    except PremiseCycle:
        return False


# ===== truth maintenance =====

def retract_with_maintenance(network: Network, link_id: str) -> List[str]:
    """Retract an explicit link and keep the network at its fixpoint (DRed).

    Refuses an unknown or derived link id before it changes anything. Then
    derives to the fixpoint, over-deletes the link's provenance closure
    (Network.retract_link), restores each over-deleted triple that a firing
    over the surviving links still supports, and derives onward from the
    restored links. Only rules whose head can meet an over-deleted triple
    re-fire, and only against those triples. Links outside the closure keep
    their ids and provenance; a restored link gets a fresh id.

    Returns the ids, among links present before the call, that are gone
    after it.
    """
    network.explicit_link(link_id)
    fresh = {link.id for link in derive_fixpoint(network)[0]}
    rules = effective_rules(network)
    removed = network.retract_link(link_id)
    signature = _signature(network, rules)
    # A firing over the survivors fired before the removal, so its head is
    # stored unless it was over-deleted: the survivors are closed except for
    # over-deleted heads, which the joins below look for.
    network.derive_mark = (signature, len(network.links))
    delta_rows = rows_from_links(removed, signature[1])
    firings = []  # (rule id, its matches less the head atom's premise)
    for rule in rules:
        for head in rule.head:
            found = match_atoms(network, (head, *rule.body), delta_rows, 0, heads=(head,))
            firings.append((rule.id, [(triple, premises[1:]) for triple, premises in found]))
    # Insert only after the joins, so each join reads the survivors alone; a
    # triple found twice (a symmetric one in both readings) is stored once.
    for rule_id, found in firings:
        _store_firings(network, rule_id, found, [])
    derive_fixpoint(network)
    return [link.id for link in removed if link.id not in network.links and link.id not in fresh]
