"""The package surface: lazy exports, which modules a CLI command loads,
imports the source never uses, and private modules it must not import."""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import ksengine
from ksengine import cli
from ksengine.ksif import export_space_fragment, export_state
from ksengine.sln import RepBundle
from ksengine.state import new_state

PUBLIC_NAMES = frozenset({
    "AbilityReport", "AnalogyResult", "AnomalyRule", "Candidate", "CategoryTree",
    "ClassRef", "Concept", "ConceptStore", "EngineState", "Explanation", "FileRef",
    "IncrementFragment", "KsError", "KsifError", "Lexicon", "LinkCandidate",
    "LinkType", "Network", "NormalFormReport", "ObservationScope", "PatternAtom",
    "Problem", "QueryPattern", "ReadTrace", "Recommendation", "RepBundle", "Rule",
    "SemanticLink", "SemanticNode", "Space", "Verdict", "ability_report",
    "analogize", "build_reference_network", "build_reference_state", "can_hold",
    "derive_fixpoint", "detect_co_occurrence", "detect_limitation",
    "enrich_concept", "explain", "export_space_fragment", "export_state",
    "find_problem", "find_solution", "generalize_concepts", "generalize_problem",
    "import_category_hierarchy", "import_state", "join_spaces", "new_state",
    "parse_pattern", "read_text", "recommend", "retract_with_maintenance",
    "specialize_problem", "trace_cause_effect", "validate_rule",
    "verify_explanation", "verify_knowledge",
})

# Commands that run a discovery tool; every other command must not load it.
DISCOVERY_COMMANDS = {
    "verify", "co-occur", "find-problem", "solve", "recommend", "analogy", "ability",
}


# ===== exports =====

def test_every_public_name_resolves_to_its_home_definition():
    assert len(PUBLIC_NAMES) == 60
    assert set(ksengine.__all__) == PUBLIC_NAMES
    assert len(ksengine.__all__) == len(PUBLIC_NAMES)
    assert ksengine.__version__ == "0.1.0"
    for name in ksengine.__all__:
        value = getattr(ksengine, name)
        assert value.__name__ == name
        home = importlib.import_module(value.__module__)
        assert getattr(home, name) is value, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ksengine import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES
    discovery = importlib.import_module("ksengine.discovery")
    assert namespace["AnomalyRule"] is discovery.AnomalyRule


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(ksengine, "no_such_name")


# ===== module loading per command =====

def _small_state():
    """A transitive chain, two placed dimensions and nothing else."""
    state = new_state()
    net = state.network
    net.add_link_type(RepBundle(word="before"), transitive=True, type_id="t")
    for name in ("a", "b", "c"):
        net.add_node(RepBundle(word=name), node_id=name)
    net.assert_link("a", "t", "b", link_id="k1")
    net.assert_link("b", "t", "c", link_id="k2")
    space = state.space
    topic = space.add_dimension("topic", dim_id="d1", root_id="troot")
    space.add_category(topic.id, "tech", "troot", cat_id="tech")
    space.add_category(topic.id, "ai", "tech", cat_id="ai")
    year = space.add_dimension("year", dim_id="d2", root_id="yroot")
    space.add_category(year.id, "1936", "yroot", cat_id="y1936")
    space.place("res1", {"d1": "ai", "d2": "y1936"})
    return state


# Run by a fresh interpreter: which ksengine modules does `import ksengine`
# load, then run each command in order, then which modules are loaded.
CHILD = """
import json, sys
import ksengine
bare = sorted(m for m in sys.modules if m.startswith("ksengine."))
from ksengine.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"bare": bare, "codes": codes, "loaded": sorted(sys.modules)}))
"""


def _run_child(tmp_path, argvs):
    src = os.path.dirname(os.path.dirname(os.path.abspath(ksengine.__file__)))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("KSENGINE_STATE", None)
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argvs)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().split("\n")[-1])


def test_commands_outside_discovery_never_load_it(tmp_path):
    state = _small_state()
    (tmp_path / "kb.ksif").write_text(export_state(state), encoding="utf-8")
    year, _rest = state.space.split(["year"])
    (tmp_path / "year.ksif").write_text(export_space_fragment(year), encoding="utf-8")
    at = ["--state", "state.ksif"]
    argvs = [
        ["import", "kb.ksif"] + at,
        ["export"] + at,
        ["derive"] + at,
        ["query", "(a, ?, c)"] + at,
        ["explain", "k1"] + at,
        ["place", "res2", "topic=tech", "year=y1936"] + at,
        ["locate", "topic=tech", "--mode", "subtree"] + at,
        ["nf-check"] + at,
        ["split", "year"] + at,
        ["join", "year.ksif"] + at,
        ["merge-dims", "topic", "year"] + at,
        ["read", "a b c"] + at,
        ["capacity", "2", "3"],
    ]
    assert {argv[0] for argv in argvs} | DISCOVERY_COMMANDS == set(cli._COMMANDS)
    report = _run_child(tmp_path, argvs)
    assert report["codes"] == [0] * len(argvs)
    assert "ksengine.cli" in report["loaded"]
    assert "ksengine.discovery" not in report["loaded"]
    assert "ksengine.fixtures" not in report["loaded"]
    assert report["bare"] == []


# Run by a fresh interpreter: whether importing the CLI, then discovery,
# loads dataclasses or inspect.
NO_CODEGEN_CHILD = """
import json, sys
import ksengine.cli
after_cli = [m for m in ("dataclasses", "inspect") if m in sys.modules]
import ksengine.discovery
after_discovery = [m for m in ("dataclasses", "inspect") if m in sys.modules]
print(json.dumps([after_cli, after_discovery]))
"""


def test_cli_and_discovery_load_no_dataclasses():
    """Each decorated dataclass generates and execs code at import, which
    every CLI process would pay; records are NamedTuples or plain classes."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ksengine.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", NO_CODEGEN_CHILD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[], []]
    for name in sorted(os.listdir(os.path.join(src, "ksengine"))):
        if name.endswith(".py"):
            with open(os.path.join(src, "ksengine", name), encoding="utf-8") as handle:
                text = handle.read()
            assert "@dataclass" not in text and "from dataclasses" not in text, name


def test_verify_loads_discovery(tmp_path):
    (tmp_path / "state.ksif").write_text(export_state(_small_state()), encoding="utf-8")
    (tmp_path / "cands.ksif").write_text(
        "KSIF 1\nLINK\tx\ta\tt\tc\t1.0\tE\n", encoding="utf-8"
    )
    report = _run_child(tmp_path, [["verify", "cands.ksif", "--state", "state.ksif"]])
    assert report["codes"] == [0]
    assert "ksengine.discovery" in report["loaded"]
    assert "ksengine.fixtures" not in report["loaded"]


# ===== imports =====

def _unused_imports(source):
    """Names a module imports and never reads (an annotation is a read)."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - read)


def _private_imports(source):
    """Modules an import statement names with a leading underscore in any
    part of the dotted name, __future__ excepted."""
    named = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            named += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            named.append(node.module)
    return sorted(name for name in named if name != "__future__"
                  and any(part.startswith("_") for part in name.split(".")))


def _scan_modules(check):
    """{file name: check(source)} of each package module check finds faults in."""
    home = os.path.dirname(os.path.abspath(ksengine.__file__))
    found = {}
    for name in sorted(os.listdir(home)):
        if name.endswith(".py"):
            with open(os.path.join(home, name), encoding="utf-8") as handle:
                faults = check(handle.read())
            if faults:
                found[name] = faults
    return found


def test_no_module_imports_a_private_module():
    """The engine is pure standard library through its public modules, so it
    runs on interpreters whose private modules differ from CPython's."""
    assert _private_imports("from _collections import _tuplegetter") == ["_collections"]
    assert _scan_modules(_private_imports) == {}


def test_every_imported_name_is_used():
    assert _scan_modules(_unused_imports) == {}
