"""A knowledge-space engine: semantic link networks with rule inference,
multi-dimensional classification spaces, concept networks grown from text,
a problem discovery loop, and canonical text persistence.

Every public name is listed once, under the module that defines it, and is
imported from there the first time it is used (PEP 562): `import ksengine`
loads no engine module, and a name's module loads only when someone asks
for it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "concepts": (
        "Concept", "ConceptStore", "Lexicon", "ObservationScope", "ReadTrace",
        "enrich_concept", "generalize_concepts", "import_category_hierarchy",
        "read_text",
    ),
    "discovery": (
        "AbilityReport", "AnalogyResult", "Candidate", "IncrementFragment",
        "LinkCandidate", "Recommendation", "Verdict", "ability_report",
        "analogize", "detect_co_occurrence", "detect_limitation", "find_problem",
        "find_solution", "generalize_problem", "recommend", "specialize_problem",
        "trace_cause_effect", "verify_knowledge",
    ),
    "errors": ("KsError", "KsifError"),
    "fixtures": ("build_reference_network", "build_reference_state"),
    "ksif": ("export_space_fragment", "export_state", "import_state"),
    "rules": (
        "Explanation", "PatternAtom", "Rule", "derive_fixpoint", "explain",
        "retract_with_maintenance", "validate_rule", "verify_explanation",
    ),
    "sln": (
        "ClassRef", "FileRef", "LinkType", "Network", "QueryPattern", "RepBundle",
        "SemanticLink", "SemanticNode", "parse_pattern",
    ),
    "space": ("NormalFormReport", "Space", "can_hold", "join_spaces"),
    "state": ("AnomalyRule", "EngineState", "Problem", "new_state"),
    "taxonomy": ("CategoryTree",),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _HOME.keys())
