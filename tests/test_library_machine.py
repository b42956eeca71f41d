"""A seeded state machine over the library's mutators: each call either
stores only what KSIF writes and reads back, or is refused and changes
nothing.

Each step calls one mutator of a state's parts (the network and its category
tree, the space, the concept store, the lexicon, the problems and the anomaly
rules) or one of the four store methods (Network.add_rule,
ConceptStore.add, EngineState.add_problem and add_anomaly_rule). Its values
come from pools that mix valid ones with near-misses: an int where text
goes, 2 for a flag, an unknown id, a bad weight. After each call:
- a call refused with a KsError leaves export_state's text as it was;
- after any other call, that text imports and re-exports byte for byte.
Any other exception fails the run.

Lexicon candidates are drawn from stored concepts only, and representations
carry no anchors: import refuses a candidate or an anchor that names
nothing, and no mutator checks either yet. Rules handed to add_rule have the
structure rules.validate_rule accepts; it is that function's to check.

More seeds, with counts of calls, refusals and round trips, as a table:
    PYTHONPATH=src python tests/test_library_machine.py 2 3 4
"""

from __future__ import annotations

import random
import sys
from typing import Callable, List, Tuple

from ksengine.concepts import Concept, enrich_concept, generalize_concepts
from ksengine.errors import KsError
from ksengine.ksif import export_state, import_state
from ksengine.rules import PatternAtom, Rule, derive_fixpoint, retract_with_maintenance
from ksengine.sln import FileRef, RepBundle
from ksengine.state import AnomalyRule, EngineState, Problem, new_state

NEAR_MISS = 0.08  # the share of values drawn from a pool's near-misses
GHOST = "ghost"  # a valid id that names nothing
# Value pools, each as (valid values, near-misses). An id of None asks for a
# fresh one.
IDS = ((None, None, "a", "b", "c.1"), (5, "no spaces"))
TEXT = (("x", "", "tab\there", "line\nbreak", "back\\slash"), (5,))
WORDS = (("w", "naïve Ω"), ("", 5))
SCALARS = (("", "s", 3, 1.5, FileRef("f.txt")), (float("nan"), True))
FLAGS = ((True, False, False), (2, "yes"))
WEIGHTS = ((1.0, 0.5, 2, 0), (-1.0, float("nan"), "1"))
LABELS = ((None, None, "uses"), ("", 5))  # a concept's relation label
RECORD_IDS = (("p1", "p2"), (5,))  # a problem's or an anomaly rule's
KINDS = (("anomaly", "relationship", "limitation", "generalized"), ("mystery", 5))
CATEGORIES = ((None, "g1"), ("no spaces", ""))
METRICS = (("count", "freq"), ("mean",))
OPS = (("ge", "lt"), ("near",))
THRESHOLDS = ((1, 2.5), (float("inf"), "1", True))
TEMPLATES = (("{count} hits", ""), (5,))
COMPARTMENTS = (("attribute", "process", "relation", "instance", "rule", "media"), ("nope",))

Call = Tuple[str, Callable[[], object]]
# How often a call is made, against 1 for each call not named here: links
# need nodes, and are retracted, so nodes and links are added more often.
OFTEN = {"add_node": 2, "assert_link": 5, "derive_fixpoint": 2}


def _pick(rng: random.Random, pool) -> object:
    valid, near_misses = pool
    return rng.choice(near_misses if rng.random() < NEAR_MISS else valid)


def _stored(rng: random.Random, ids, optional: bool = False) -> object:
    """A stored id; sometimes GHOST, and when optional sometimes None."""
    if rng.random() < NEAR_MISS:
        return GHOST
    if optional and (not ids or rng.random() < 0.3):
        return None
    return rng.choice(sorted(ids)) if ids else GHOST


def _rep(rng: random.Random) -> RepBundle:
    return RepBundle(_pick(rng, WORDS), _pick(rng, SCALARS), _pick(rng, TEXT))


def _rule(rng: random.Random, types) -> Rule:
    """A rule validate_rule accepts, under one of five ids, so an id is
    sometimes taken: its body is a chain of one or two atoms, and its head
    joins the chain's ends under a stored type: every later derive would
    refuse a stored rule whose head names no type."""
    body = tuple(PatternAtom(f"?v{i}", _stored(rng, types), f"?v{i + 1}")
                 for i in range(rng.randint(1, 2)))
    head = (PatternAtom("?v0", rng.choice(sorted(types)), f"?v{len(body)}"),)
    return Rule(rng.choice(("r1", "r2", "r3", "r4", "r5")), RepBundle("rule"), body, head)


def _condition(rng: random.Random, types) -> Tuple[PatternAtom, ...]:
    """An anomaly rule's chain of one or two atoms; seldom none, or a type
    that is no id."""
    count = 0 if rng.random() < NEAR_MISS else rng.randint(1, 2)
    bad = rng.random() < NEAR_MISS
    return tuple(PatternAtom(f"?v{i}", "no id" if bad else _stored(rng, types), f"?v{i + 1}")
                 for i in range(count))


def _point(rng: random.Random, space) -> dict:
    """A category per dimension; seldom one short, or with an unknown one."""
    point = {dim.id: rng.choice(dim.tree.ids()) for dim in space.dimensions()}
    if point and rng.random() < NEAR_MISS:
        del point[rng.choice(sorted(point))]
    if rng.random() < NEAR_MISS:
        point[GHOST] = GHOST
    return point


def _texts(rng: random.Random) -> Tuple[object, ...]:
    return tuple(_pick(rng, TEXT) for _ in range(rng.randint(0, 2)))


def _calls(rng: random.Random, state: EngineState) -> List[Call]:
    """One call per mutator, each drawing its values when it runs."""
    net, space, store, lexicon = state.network, state.space, state.concepts, state.lexicon
    nodes, types, links, concepts = net.nodes, net.link_types, net.links, store.concepts
    dims = [dim.id for dim in space.dimensions()]
    cats = [cid for dim in space.dimensions() for cid in dim.tree.ids()]

    def pick(pool):
        return _pick(rng, pool)

    def stored(ids, optional=False):
        return _stored(rng, ids, optional)

    return [
        ("add_node", lambda: net.add_node(
            _rep(rng), {pick(TEXT): pick(SCALARS)} if rng.random() < 0.3 else None, pick(IDS))),
        ("add_link_type", lambda: net.add_link_type(
            _rep(rng), pick(FLAGS), pick(FLAGS), stored(types, True), pick(IDS))),
        ("set_type_parent", lambda: net.set_type_parent(stored(types), stored(types, True))),
        ("assert_link", lambda: net.assert_link(
            stored(nodes), stored(types), stored(nodes), pick(WEIGHTS), pick(IDS))),
        ("retract_link", lambda: net.retract_link(stored(links))),
        ("retract_with_maintenance", lambda: retract_with_maintenance(net, stored(links))),
        ("add_rule", lambda: net.add_rule(_rule(rng, types)) if types else None),
        ("derive_fixpoint", lambda: derive_fixpoint(net)),
        ("recompute_ranks", lambda: net.recompute_ranks() if nodes else None),
        ("categories.add", lambda: net.categories.add(
            pick((IDS[0][2:], IDS[1])), pick(TEXT), stored(net.categories.ids(), True))),
        ("add_dimension", lambda: space.add_dimension(
            f"axis{len(dims)}" if rng.random() < 0.8 else pick(WORDS), pick(IDS), pick(IDS),
            rng.choice((None, pick(TEXT))), rng.choice((None, 0, -1, 3)))),
        ("add_category", lambda: space.add_category(
            stored(dims), pick(TEXT), stored(cats, True), pick(IDS))),
        ("place", lambda: space.place(
            rng.choice(("res", "r.2", 5)), _point(rng, space), rng.random() < 0.5)),
        ("add_concept", lambda: store.add_concept(
            pick(TEXT), pick(IDS), pick(FLAGS), pick(LABELS))),
        ("add", lambda: store.add(Concept(pick(IDS), pick(TEXT), pick(FLAGS), pick(LABELS)))),
        ("add_class_link", lambda: store.add_class_link(stored(concepts), stored(concepts))),
        ("add_relation", lambda: store.add_relation(
            stored(concepts), pick((("near",), ("", 5))), stored(concepts),
            pick(((1.0, 0.5), (float("inf"), -2))))),
        ("enrich_concept", lambda: enrich_concept(store, stored(concepts), [(
            pick(COMPARTMENTS),
            rng.choice(((pick(TEXT), pick(SCALARS)), (pick(TEXT), stored(concepts)))))])),
        ("generalize_concepts", lambda: generalize_concepts(
            store, [stored(concepts) for _ in range(rng.randint(1, 3))])),
        ("lexicon.add", lambda: lexicon.add(pick(WORDS), rng.choice(sorted(concepts)))
         if concepts else None),
        ("set_candidates", lambda: lexicon.set_candidates(
            pick(WORDS), rng.sample(sorted(concepts), min(2, len(concepts))))
         if concepts else None),
        ("add_problem", lambda: state.add_problem(Problem(
            pick(RECORD_IDS), pick(KINDS), pick(TEXT),
            _texts(rng) if rng.random() < 0.8 else (), pick(CATEGORIES), _texts(rng)))),
        ("add_anomaly_rule", lambda: state.add_anomaly_rule(AnomalyRule(
            pick(RECORD_IDS), _condition(rng, types), pick(METRICS), pick(OPS),
            pick(THRESHOLDS), pick(TEMPLATES)))),
    ]


def run(seed: int, steps: int) -> dict:
    """Make steps seeded calls on a new state, checking each as the module
    docstring says; returns the counts of calls, refusals and round trips."""
    rng = random.Random(seed)
    state = new_state()
    counts = {"calls": 0, "refused": 0, "round trips": 0}
    done: List[str] = []
    text = export_state(state)
    for step in range(steps):
        calls = _calls(rng, state)
        name, call = rng.choices(calls, [OFTEN.get(name, 1) for name, _call in calls])[0]
        done.append(name)
        where = f"seed {seed}, step {step}: {name} (calls so far: {', '.join(done[-8:])})"
        counts["calls"] += 1
        try:
            call()
        except KsError:
            counts["refused"] += 1
            assert export_state(state) == text, f"{where} was refused but changed the state"
            continue
        try:
            text = export_state(state)
            again = export_state(import_state(text))
        except Exception as exc:
            raise AssertionError(f"{where} stored a state that does not export and "
                                 f"import: {exc!r}") from exc
        assert again == text, f"{where} exported a state that re-exports differently"
        counts["round trips"] += 1
    return counts


def test_library_calls_round_trip_or_change_nothing():
    counts = run(seed=1, steps=400)
    assert counts["refused"] > 50 and counts["round trips"] > 150, counts


if __name__ == "__main__":
    print("| seed | calls | refused | round trips |")
    print("|---|---|---|---|")
    for arg in sys.argv[1:]:
        counts = run(int(arg), steps=400)
        print(f"| {arg} | {counts['calls']} | {counts['refused']} | {counts['round trips']} |")
