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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .concepts import ConceptStore, Lexicon
from .rules import PatternAtom, term_problems
from .sln import Network
from .space import Space

PROBLEM_KINDS = ("anomaly", "relationship", "generalized", "specialized", "limitation")


@dataclass
class Problem:
    id: str
    kind: str
    statement: str
    evidence: Tuple[str, ...] = ()
    category: Optional[str] = None
    concepts: Tuple[str, ...] = ()  # the entities the problem is about


@dataclass
class AnomalyRule:
    """Human-assigned pattern + threshold that turns observations into a Problem."""

    id: str
    atoms: Tuple[PatternAtom, ...]
    metric: str  # count | freq
    op: str  # ge | gt | le | lt | eq
    threshold: float
    template: str

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
    return problems


@dataclass
class EngineState:
    network: Network = field(default_factory=Network)
    space: Space = field(default_factory=Space)
    concepts: ConceptStore = field(default_factory=ConceptStore)
    lexicon: Lexicon = field(default_factory=Lexicon)
    problems: Dict[str, Problem] = field(default_factory=dict)
    anomaly_rules: Dict[str, AnomalyRule] = field(default_factory=dict)

    def copy(self) -> "EngineState":
        return copy.deepcopy(self)


def new_state() -> EngineState:
    return EngineState()
