"""One bundle holding every store the engine works on, and the records it holds.

The CLI loads a state from disk, applies one operation, and writes the state
back; library users can keep a state in memory across many operations.

`Problem` and `AnomalyRule` are defined here, beside the store that keeps
them, rather than in `discovery`, which produces and evaluates them: loading
or saving a state then never loads the discovery toolkit.
"""

from __future__ import annotations

import copy
import sys
from typing import Dict, List, NamedTuple, Optional, Tuple

from .concepts import ConceptStore, Lexicon
from .errors import InvalidProblem, InvalidRule
from .record import Record
from .rules import PatternAtom, term_problems
from .sln import ID_PATTERN, Network, check_id, check_str
from .space import Space

PROBLEM_KINDS = ("anomaly", "relationship", "generalized", "specialized", "limitation")


class Problem(NamedTuple):
    id: str
    kind: str
    statement: str
    evidence: Tuple[str, ...] = ()
    category: Optional[str] = None
    concepts: Tuple[str, ...] = ()  # the entities the problem is about


class AnomalyRule(Record):
    """Human-assigned pattern + threshold that turns observations into a Problem."""

    __slots__ = ("id", "atoms", "metric", "op", "threshold", "template")

    def __init__(self, id: str, atoms: Tuple[PatternAtom, ...], metric: str, op: str,
                 threshold: float, template: str) -> None:
        self.id = id
        self.atoms = atoms
        self.metric = metric  # count | freq
        self.op = op  # ge | gt | le | lt | eq
        self.threshold = threshold
        self.template = template

    def fires(self, value: float) -> bool:
        """Whether a measured value passes the rule's comparison."""
        return _OPS[self.op](value, self.threshold)


_OPS = {
    "ge": lambda v, t: v >= t,
    "gt": lambda v, t: v > t,
    "le": lambda v, t: v <= t,
    "lt": lambda v, t: v < t,
    "eq": lambda v, t: v == t,
}


def validate_anomaly_rule(rule: AnomalyRule) -> List[str]:
    problems = []
    if not isinstance(rule.id, str) or not ID_PATTERN.match(rule.id):
        problems.append(f"anomaly rule id {rule.id!r} is not a valid id")
    if not 1 <= len(rule.atoms) <= 4:
        problems.append(f"condition must have 1..4 atoms, found {len(rule.atoms)}")
    problems += term_problems("condition", rule.atoms)
    if rule.metric not in ("count", "freq"):
        problems.append(f"metric must be count or freq, got {rule.metric!r}")
    if rule.op not in _OPS:
        problems.append(f"op must be one of {sorted(_OPS)}, got {rule.op!r}")
    if (not isinstance(rule.threshold, (int, float)) or isinstance(rule.threshold, bool)
            or not abs(rule.threshold) <= sys.float_info.max):
        problems.append(f"threshold must be a finite number, got {rule.threshold!r}")
    if not isinstance(rule.template, str):
        problems.append(f"template must be text, got {rule.template!r}")
    return problems


class EngineState(Record):
    __slots__ = ("network", "space", "concepts", "lexicon", "problems", "anomaly_rules")

    def __init__(self, network: Optional[Network] = None, space: Optional[Space] = None,
                 concepts: Optional[ConceptStore] = None, lexicon: Optional[Lexicon] = None,
                 problems: Optional[Dict[str, Problem]] = None,
                 anomaly_rules: Optional[Dict[str, AnomalyRule]] = None) -> None:
        self.network = Network() if network is None else network
        self.space = Space() if space is None else space
        self.concepts = ConceptStore() if concepts is None else concepts
        self.lexicon = Lexicon() if lexicon is None else lexicon
        self.problems = {} if problems is None else problems
        self.anomaly_rules = {} if anomaly_rules is None else anomaly_rules

    def add_problem(self, problem: Problem) -> None:
        """Store a problem, replacing one stored under its id. Refused, with
        nothing stored, for a kind outside PROBLEM_KINDS or an anomaly or
        limitation without evidence (InvalidProblem), or a field KSIF cannot
        write."""
        if problem.kind not in PROBLEM_KINDS:
            raise InvalidProblem(f"unknown problem kind {problem.kind!r}")
        if problem.kind in ("anomaly", "limitation") and not problem.evidence:
            raise InvalidProblem(f"{problem.kind} problem must carry evidence")
        check_id(problem.id, "problem id")
        check_str(problem.statement, "problem statement")
        if problem.category is not None:
            check_id(problem.category, "problem category")
        for entry in (*problem.evidence, *problem.concepts):
            check_str(entry, "problem entry")
        self.problems[problem.id] = problem

    def add_anomaly_rule(self, rule: AnomalyRule) -> None:
        """Store an anomaly rule, replacing one stored under its id; refused
        with InvalidRule, nothing stored, when validate_anomaly_rule objects."""
        problems = validate_anomaly_rule(rule)
        if problems:
            raise InvalidRule("; ".join(problems))
        self.anomaly_rules[rule.id] = rule

    def copy(self) -> "EngineState":
        return copy.deepcopy(self)


def new_state() -> EngineState:
    return EngineState()
