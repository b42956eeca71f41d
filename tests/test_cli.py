"""Command line behaviour: exit codes, output formats, state round trips."""

import argparse
import gc
import os
import pathlib
import random
import subprocess
import sys

import pytest

from ksengine import cli
from ksengine.cli import main
from ksengine.discovery import AnomalyRule, Problem
from ksengine.errors import KsError
from ksengine.ksif import export_state, import_state
from ksengine.rules import PatternAtom, derive_fixpoint, explain
from ksengine.sln import RepBundle
from ksengine.state import new_state

from generators import deep_proof_network, random_state


@pytest.fixture(autouse=True)
def _no_ambient_state(monkeypatch):
    monkeypatch.delenv("KSENGINE_STATE", raising=False)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_state(path, state):
    path.write_text(export_state(state), encoding="utf-8")


def load_state(path):
    return import_state(path.read_text(encoding="utf-8"))


def chain_state():
    """Three nodes under a transitive type, one hop short of closure."""
    state = new_state()
    net = state.network
    net.add_link_type(RepBundle(word="before"), transitive=True, type_id="t")
    for name in ("a", "b", "c"):
        net.add_node(RepBundle(word=name), node_id=name)
    net.assert_link("a", "t", "b", 0.9, link_id="k1")
    net.assert_link("b", "t", "c", 0.4, link_id="k2")
    return state


def space_state():
    """Two dimensions with one resource placed under topic/tech/ai."""
    state = new_state()
    space = state.space
    topic = space.add_dimension("topic", dim_id="d1", root_id="troot")
    space.add_category(topic.id, "tech", "troot", cat_id="tech")
    space.add_category(topic.id, "ai", "tech", cat_id="ai")
    space.add_category(topic.id, "arts", "troot", cat_id="arts")
    year = space.add_dimension("year", dim_id="d2", root_id="yroot")
    space.add_category(year.id, "1936", "yroot", cat_id="y1936")
    space.add_category(year.id, "1950", "yroot", cat_id="y1950")
    return state


def reading_state():
    """cat/mat entities plus a relation word wiring them together."""
    state = new_state()
    store = state.concepts
    store.add_concept("cat", concept_id="cat")
    store.add_concept("mat", concept_id="mat")
    store.add_concept("on", concept_id="on", link_type="rests-on")
    state.lexicon.set_candidates("cat", ["cat"])
    state.lexicon.set_candidates("mat", ["mat"])
    state.lexicon.set_candidates("on", ["on"])
    return state


# ===== parser and state plumbing =====

def test_no_command_prints_usage(capsys):
    code, _out, err = run(capsys, [])
    assert code == 1
    assert "usage" in err


def test_help_exits_zero(capsys):
    code, out, _err = run(capsys, ["--help"])
    assert code == 0
    assert "usage" in out


def test_unknown_command_is_usage_error(capsys):
    code, _out, err = run(capsys, ["conjure"])
    assert code == 1
    assert "error:" in err


def test_missing_state_is_usage_error(capsys):
    code, _out, err = run(capsys, ["export"])
    assert code == 1
    assert "no state file" in err


def test_state_path_from_environment(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("KSENGINE_STATE", str(tmp_path / "fresh.ksif"))
    code, out, _err = run(capsys, ["export"])
    assert code == 0
    assert out == "KSIF 1\n"


def test_import_then_export_round_trips(capsys, tmp_path):
    doc = export_state(random_state(random.Random(20250101)))
    src = tmp_path / "in.ksif"
    src.write_text(doc, encoding="utf-8")
    state_file = tmp_path / "state.ksif"
    code, out, _err = run(capsys, ["import", str(src), "--state", str(state_file)])
    assert code == 0 and out == ""
    assert state_file.read_text(encoding="utf-8") == doc
    code, out, _err = run(capsys, ["export", "--state", str(state_file)])
    assert code == 0
    assert out == doc


def test_import_rejects_bad_header(capsys, tmp_path):
    src = tmp_path / "bad.ksif"
    src.write_text("KSIF 2\n", encoding="utf-8")
    code, _out, err = run(capsys, ["import", str(src), "--state", str(tmp_path / "s")])
    assert code == 2
    assert "error:" in err


def test_import_missing_file_is_data_error(capsys, tmp_path):
    code, _out, err = run(
        capsys, ["import", str(tmp_path / "nope.ksif"), "--state", str(tmp_path / "s")]
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ["import", "BAD"], ["export"], ["place", "res1", "topic=ai", "year=y1936"],
], ids=["import", "export", "place"])
def test_non_utf8_file_is_a_data_error(capsys, tmp_path, argv):
    """A byte that is not UTF-8 ends in exit 2 naming the file and the
    byte's offset; a write command leaves its state file as it was."""
    data = export_state(space_state()).encode("utf-8")
    data = data[:20] + b"\xff" + data[20:]
    bad = tmp_path / "bad.ksif"
    bad.write_bytes(data)
    state_file = tmp_path / "state.ksif" if argv[0] == "import" else bad
    argv = [str(bad) if arg == "BAD" else arg for arg in argv]
    code, out, err = run(capsys, argv + ["--state", str(state_file)])
    assert code == 2 and out == ""
    assert err == f"error: {bad}: byte 20 is not UTF-8\n"
    assert bad.read_bytes() == data
    assert state_file == bad or not state_file.exists()


def test_import_rejects_cyclic_provenance(capsys, tmp_path):
    src = tmp_path / "cyclic.ksif"
    src.write_text(
        "KSIF 1\n"
        "LINKTYPE\tt\t0\t0\t\tS\t\tt\t\t0\n"
        "NODE\ta\t0.0\tS\t\ta\t\t0\t0\n"
        "NODE\tb\t0.0\tS\t\tb\t\t0\t0\n"
        "LINK\tk1\ta\tt\tb\t1.0\tD\tflip\t1\tk2\n"
        "LINK\tk2\tb\tt\ta\t1.0\tD\tflip\t1\tk1\n"
        "RULE\tflip\tS\t\tflip\t\t0\t1\t?x\tt\t?y\t1\t?y\tt\t?x\n",
        encoding="utf-8",
    )
    state_file = tmp_path / "state.ksif"
    code, _out, err = run(capsys, ["import", str(src), "--state", str(state_file)])
    assert code == 2
    assert "line 5" in err and "Traceback" not in err
    assert not state_file.exists()


def test_import_refuses_a_head_type_bound_at_a_node(capsys, tmp_path):
    """A rule whose head reads a node as a link type imported cleanly and
    then crashed derive; import now refuses it at its line."""
    src = tmp_path / "flipped.ksif"
    src.write_text(
        "KSIF 1\n"
        "LINKTYPE\tt\t0\t0\t\tS\t\tt\t\t0\n"
        "NODE\ta\t0.0\tS\t\ta\t\t0\t0\n"
        "NODE\tb\t0.0\tS\t\tb\t\t0\t0\n"
        "LINK\tk1\ta\tt\tb\t1.0\tE\n"
        "RULE\tflipped\tS\t\tflipped\t\t0\t1\t?x\t?t\t?y\t1\t?x\t?y\t?t\n",
        encoding="utf-8",
    )
    state_file = tmp_path / "state.ksif"
    code, _out, err = run(capsys, ["import", str(src), "--state", str(state_file)])
    assert code == 2
    assert "line 6" in err and "head variable ?y" in err and "Traceback" not in err
    assert not state_file.exists()


# ===== derive / query / explain =====

def test_derive_reports_new_links_then_none(capsys, tmp_path):
    state_file = tmp_path / "state.ksif"
    write_state(state_file, chain_state())
    code, out, _err = run(capsys, ["derive", "--state", str(state_file)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1 new links"
    link_id, source, type_id, target, weight = lines[1].split("\t")
    assert (source, type_id, target) == ("a", "t", "c")
    assert weight == "0.4"
    saved = state_file.read_text(encoding="utf-8")
    code, out, _err = run(capsys, ["derive", "--state", str(state_file)])
    assert code == 0
    assert out == "0 new links\n"
    assert state_file.read_text(encoding="utf-8") == saved


def test_query_prints_sorted_bindings(capsys, tmp_path):
    state_file = tmp_path / "state.ksif"
    write_state(state_file, chain_state())
    run(capsys, ["derive", "--state", str(state_file)])
    code, out, _err = run(capsys, ["query", "(a, t, ?)", "--state", str(state_file)])
    assert code == 0
    assert out == "b\nc\n"


def test_query_unknown_constant_binds_nothing(capsys, tmp_path):
    state_file = tmp_path / "state.ksif"
    write_state(state_file, chain_state())
    code, out, _err = run(capsys, ["query", "(ghost, t, ?)", "--state", str(state_file)])
    assert code == 0
    assert out == ""


def test_query_malformed_pattern_is_usage_error(capsys, tmp_path):
    state_file = tmp_path / "state.ksif"
    write_state(state_file, chain_state())
    code, _out, err = run(capsys, ["query", "nonsense", "--state", str(state_file)])
    assert code == 1
    assert "error:" in err


def test_explain_prints_indented_tree(capsys, tmp_path):
    state_file = tmp_path / "state.ksif"
    write_state(state_file, chain_state())
    _code, out, _err = run(capsys, ["derive", "--state", str(state_file)])
    derived_id = out.splitlines()[1].split("\t")[0]
    code, out, _err = run(capsys, ["explain", derived_id, "--state", str(state_file)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith(f"{derived_id} (a, t, c) by sys.transitive.t")
    assert "?x=a" in lines[0] and "?z=c" in lines[0]
    assert lines[1] == "  k1 (a, t, b) explicit"
    assert lines[2] == "  k2 (b, t, c) explicit"


def test_explain_prints_a_proof_deeper_than_the_recursion_limit(capsys, tmp_path):
    n = 1200
    net, root = deep_proof_network(n)
    state = new_state()
    state.network = net
    state_file = tmp_path / "state.ksif"
    write_state(state_file, state)
    code, out, _err = run(capsys, ["explain", root, "--state", str(state_file)])
    assert code == 0
    lines = out.splitlines()
    # n - 2 derived steps and n - 1 explicit leaves, the last two the deepest.
    assert len(lines) == 2 * n - 3
    assert lines[-1] == "  " * (n - 2) + f"k{n - 1:06d} (v{n - 2:04d}, pre, v{n - 1:04d}) explicit"


def test_explain_unknown_link_is_data_error(capsys, tmp_path):
    state_file = tmp_path / "state.ksif"
    write_state(state_file, chain_state())
    code, _out, err = run(capsys, ["explain", "k999", "--state", str(state_file)])
    assert code == 2
    assert "error:" in err


def test_explain_of_short_premise_list_is_data_error(capsys, tmp_path):
    src = tmp_path / "short.ksif"
    src.write_text(
        "KSIF 1\n"
        "LINKTYPE\tt\t1\t0\t\tS\t\tt\t\t0\n"
        "NODE\ta\t0.0\tS\t\ta\t\t0\t0\n"
        "NODE\tb\t0.0\tS\t\tb\t\t0\t0\n"
        "NODE\tc\t0.0\tS\t\tc\t\t0\t0\n"
        "LINK\tk1\ta\tt\tb\t1.0\tE\n"
        "LINK\tk2\tb\tt\tc\t1.0\tE\n"
        "LINK\tk3\ta\tt\tc\t1.0\tD\tsys.transitive.t\t1\tk1\n",
        encoding="utf-8",
    )
    state_file = tmp_path / "state.ksif"
    code, _out, err = run(capsys, ["import", str(src), "--state", str(state_file)])
    assert code == 2
    assert "line 8:" in err
    assert "premises ('k1',) do not satisfy the body of rule 'sys.transitive.t'" in err
    assert "Traceback" not in err
    assert not state_file.exists()
    # Import refuses the step; a network built in process can still hold it,
    # and explain then reports it as an engine (data) error.
    net = chain_state().network
    net.add_derived("a", "t", "c", 1.0, "sys.transitive.t", ("k1",), link_id="k3")
    with pytest.raises(KsError) as caught:
        explain(net, "k3")
    assert "premises ('k1',) do not satisfy the body of rule 'sys.transitive.t'" in str(
        caught.value
    )


# ===== space commands =====

def test_place_then_locate(capsys, tmp_path):
    state_file = tmp_path / "state.ksif"
    write_state(state_file, space_state())
    code, out, _err = run(
        capsys,
        ["place", "res1", "topic=ai", "year=y1936", "--state", str(state_file)],
    )
    assert code == 0 and out == ""
    code, out, _err = run(
        capsys,
        ["locate", "topic=tech", "--mode", "subtree", "--state", str(state_file)],
    )
    assert code == 0
    assert out == "res1\n"
    code, out, _err = run(
        capsys,
        ["locate", "topic=ai", "year=y1936", "--state", str(state_file)],
    )
    assert code == 0
    assert out == "res1\n"
    code, out, _err = run(
        capsys, ["locate", "topic=arts", "--mode", "subtree", "--state", str(state_file)]
    )
    assert code == 0
    assert out == ""


def test_place_twice_needs_replace(capsys, tmp_path):
    state_file = tmp_path / "state.ksif"
    write_state(state_file, space_state())
    argv = ["place", "res1", "topic=ai", "year=y1936", "--state", str(state_file)]
    assert run(capsys, argv)[0] == 0
    code, _out, err = run(capsys, argv)
    assert code == 2
    assert "error:" in err
    argv_replace = [
        "place", "res1", "topic=arts", "year=y1950", "--replace",
        "--state", str(state_file),
    ]
    assert run(capsys, argv_replace)[0] == 0
    code, out, _err = run(
        capsys, ["locate", "topic=arts", "year=y1950", "--state", str(state_file)]
    )
    assert out == "res1\n"


def test_place_bad_coordinate_token(capsys, tmp_path):
    state_file = tmp_path / "state.ksif"
    write_state(state_file, space_state())
    code, _out, err = run(
        capsys, ["place", "res1", "topicai", "--state", str(state_file)]
    )
    assert code == 1
    assert "DIM=CAT" in err


def test_place_unknown_dimension_is_data_error(capsys, tmp_path):
    state_file = tmp_path / "state.ksif"
    write_state(state_file, space_state())
    code, _out, err = run(
        capsys, ["place", "res1", "mood=ai", "--state", str(state_file)]
    )
    assert code == 2
    assert "error:" in err


def test_nf_check_clean_space(capsys, tmp_path):
    state_file = tmp_path / "state.ksif"
    state = space_state()
    state.space.place("res1", {"d1": "ai", "d2": "y1936"})
    state.space.place("res2", {"d1": "arts", "d2": "y1950"})
    state.space.place("res3", {"d1": "ai", "d2": "y1950"})
    write_state(state_file, state)
    code, out, _err = run(capsys, ["nf-check", "--state", str(state_file)])
    assert code == 0
    assert out == "clean\n"


def test_nf_check_reports_each_violation(capsys, tmp_path):
    state_file = tmp_path / "state.ksif"
    state = space_state()
    space = state.space
    space.add_category("d1", "tech", "troot", cat_id="tech2")
    space.add_dimension("lonely", dim_id="d3", root_id="lroot")
    # two placements agreeing dimension-wise make d1 functionally fix d2
    space.place("res1", {"d1": "ai", "d2": "y1936", "d3": "lroot"})
    space.place("res2", {"d1": "arts", "d2": "y1950", "d3": "lroot"})
    write_state(state_file, state)
    code, out, _err = run(capsys, ["nf-check", "--state", str(state_file)])
    assert code == 0
    lines = out.splitlines()
    assert "duplicate-name\td1\ttroot\ttech" in lines
    assert "dependent\td1\td2" in lines
    assert "trivial\td3" in lines


def test_split_emits_fragment_and_join_restores(capsys, tmp_path):
    state_file = tmp_path / "state.ksif"
    state = space_state()
    state.space.place("res1", {"d1": "ai", "d2": "y1936"})
    state.space.place("res2", {"d1": "arts", "d2": "y1950"})
    write_state(state_file, state)
    original = state_file.read_text(encoding="utf-8")
    code, out, _err = run(capsys, ["split", "topic", "--state", str(state_file)])
    assert code == 0
    assert out.startswith("KSIF 1\n")
    assert "DIM\td1\ttopic" in out
    fragment_file = tmp_path / "fragment.ksif"
    fragment_file.write_text(out, encoding="utf-8")
    remaining = load_state(state_file)
    assert [d.name for d in remaining.space.dimensions()] == ["year"]
    code, _out, err = run(
        capsys, ["join", str(fragment_file), "--state", str(state_file)]
    )
    assert code == 0
    assert err == ""
    assert state_file.read_text(encoding="utf-8") == original


def test_join_warns_about_one_sided_resources(capsys, tmp_path):
    state_file = tmp_path / "state.ksif"
    state = new_state()
    left = state.space.add_dimension("left", dim_id="d1", root_id="lr")
    state.space.place("only-here", {left.id: "lr"})
    write_state(state_file, state)
    donor = new_state()
    right = donor.space.add_dimension("right", dim_id="d9", root_id="rr")
    donor.space.place("only-there", {right.id: "rr"})
    donor_file = tmp_path / "donor.ksif"
    write_state(donor_file, donor)
    code, _out, err = run(capsys, ["join", str(donor_file), "--state", str(state_file)])
    assert code == 0
    assert "only-here" in err and "only-there" in err
    assert load_state(state_file).space.placements == {}


def test_merge_dims_prints_new_dimension_id(capsys, tmp_path):
    state_file = tmp_path / "state.ksif"
    state = space_state()
    state.space.place("res1", {"d1": "ai", "d2": "y1936"})
    write_state(state_file, state)
    code, out, _err = run(
        capsys, ["merge-dims", "topic", "year", "--state", str(state_file)]
    )
    assert code == 0
    merged_id = out.strip()
    merged = load_state(state_file)
    dim = merged.space.resolve_dimension(merged_id)
    assert dim.name == "topic+year"
    assert merged.space.placements["res1"] == {merged_id: dim.tree.children(dim.tree.root)[0]}


# ===== reading =====

def test_read_traces_and_persists(capsys, tmp_path):
    state_file = tmp_path / "state.ksif"
    write_state(state_file, reading_state())
    code, out, _err = run(
        capsys, ["read", "cat on mat", "--state", str(state_file)]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "tokens=3 resolved=3 skipped=0 relations=1 cooccur=1"
    assert lines[1] == "0\tcat\tresolved\tcat\tscore=0"
    assert lines[3] == "2\tmat\tresolved\tmat\tscore=0"
    assert lines[4] == "1\ton\trelation\tmat\tcat -rests-on-> mat"
    saved = load_state(state_file)
    assert saved.concepts.relation_weight("cat", "rests-on", "mat") == 1.0
    assert saved.concepts.relation_weight("cat", "co-occur", "mat") == 1.0


def test_read_radius_limits_cooccurrence(capsys, tmp_path):
    state_file = tmp_path / "state.ksif"
    write_state(state_file, reading_state())
    text = "cat x x x mat"
    code, out, _err = run(
        capsys, ["read", text, "--radius", "2", "--state", str(state_file)]
    )
    assert code == 0
    assert "cooccur=0" in out.splitlines()[0]
    write_state(state_file, reading_state())
    code, out, _err = run(
        capsys, ["read", text, "--radius", "4", "--state", str(state_file)]
    )
    assert code == 0
    assert "cooccur=1" in out.splitlines()[0]


@pytest.mark.parametrize("radius", ["0", "-2", "x"])
def test_read_radius_below_one_is_a_usage_error(capsys, tmp_path, radius):
    state_file = tmp_path / "state.ksif"
    write_state(state_file, reading_state())
    before = state_file.read_bytes()
    code, out, err = run(capsys, ["read", "cat on mat", "--radius", radius,
                                  "--state", str(state_file)])
    assert code == 1 and out == ""
    assert err.startswith("error: argument --radius: radius must be at least 1")
    assert "_radius" not in err
    assert state_file.read_bytes() == before


def test_read_merges_lexicon_fragment_first(capsys, tmp_path):
    donor = new_state()
    donor.concepts.add_concept("dog", concept_id="dog")
    donor.lexicon.set_candidates("dog", ["dog"])
    lexicon_file = tmp_path / "lexicon.ksif"
    write_state(lexicon_file, donor)
    state_file = tmp_path / "state.ksif"
    write_state(state_file, new_state())
    code, out, _err = run(
        capsys,
        ["read", "dog", "--lexicon", str(lexicon_file), "--state", str(state_file)],
    )
    assert code == 0
    assert out.splitlines()[0] == "tokens=1 resolved=1 skipped=0 relations=0 cooccur=0"
    saved = load_state(state_file)
    assert "dog" in saved.concepts
    assert saved.lexicon.candidates("dog") == ["dog"]


def test_read_goals_steer_ambiguous_words(capsys, tmp_path):
    state = new_state()
    store = state.concepts
    store.add_concept("bank.river", concept_id="bank.river")
    store.add_concept("bank.money", concept_id="bank.money")
    store.add_concept("cash", concept_id="cash")
    store.add_relation("bank.money", "holds", "cash")
    state.lexicon.set_candidates("bank", ["bank.river", "bank.money"])
    state_file = tmp_path / "state.ksif"
    write_state(state_file, state)
    code, out, _err = run(capsys, ["read", "bank", "--state", str(state_file)])
    assert "\tbank.river\t" in out.splitlines()[1]
    write_state(state_file, state)
    code, out, _err = run(
        capsys, ["read", "bank", "--goals", "cash", "--state", str(state_file)]
    )
    assert code == 0
    assert "\tbank.money\t" in out.splitlines()[1]


# ===== verification =====

def test_verify_accepts_derivable_link(capsys, tmp_path):
    state_file = tmp_path / "state.ksif"
    write_state(state_file, chain_state())
    candidates = tmp_path / "candidates.ksif"
    candidates.write_text("KSIF 1\nLINK\tx1\ta\tt\tc\t1.0\tE\n", encoding="utf-8")
    code, out, _err = run(
        capsys, ["verify", str(candidates), "--state", str(state_file)]
    )
    assert code == 0
    assert out == "1\tlink\taccepted\t-\n"


def test_verify_rejects_underivable_link(capsys, tmp_path):
    state_file = tmp_path / "state.ksif"
    write_state(state_file, chain_state())
    candidates = tmp_path / "candidates.ksif"
    candidates.write_text(
        "KSIF 1\nLINK\tx1\ta\tt\tc\t1.0\tE\nLINK\tx2\tc\tt\ta\t1.0\tE\n",
        encoding="utf-8",
    )
    code, out, _err = run(
        capsys, ["verify", str(candidates), "--state", str(state_file)]
    )
    assert code == 3
    lines = out.splitlines()
    assert lines[0].startswith("1\tlink\taccepted")
    assert lines[1].startswith("2\tlink\trejected")


def test_verify_consistency_mode_exclusive_pairs(capsys, tmp_path):
    state = new_state()
    net = state.network
    net.add_link_type(RepBundle(word="hot"), type_id="hot")
    net.add_link_type(RepBundle(word="cold"), type_id="cold")
    net.add_node(RepBundle(word="p"), node_id="p")
    net.add_node(RepBundle(word="q"), node_id="q")
    net.assert_link("p", "hot", "q")
    state_file = tmp_path / "state.ksif"
    write_state(state_file, state)
    candidates = tmp_path / "candidates.ksif"
    candidates.write_text("KSIF 1\nLINK\tx1\tp\tcold\tq\t1.0\tE\n", encoding="utf-8")
    code, out, _err = run(
        capsys,
        [
            "verify", str(candidates), "--mode", "consistency",
            "--exclusive", "hot:cold", "--state", str(state_file),
        ],
    )
    assert code == 3
    assert "rejected" in out
    code, out, _err = run(
        capsys,
        ["verify", str(candidates), "--mode", "consistency", "--state", str(state_file)],
    )
    assert code == 0
    assert "accepted" in out


def test_verify_bad_exclusive_pair_is_usage_error(capsys, tmp_path):
    state_file = tmp_path / "state.ksif"
    write_state(state_file, chain_state())
    candidates = tmp_path / "candidates.ksif"
    candidates.write_text("KSIF 1\n", encoding="utf-8")
    code, _out, err = run(
        capsys,
        ["verify", str(candidates), "--exclusive", "oops", "--state", str(state_file)],
    )
    assert code == 1
    assert "T1:T2" in err


# ===== problems =====

def test_co_occur_persists_problems(capsys, tmp_path):
    state_file = tmp_path / "state.ksif"
    write_state(state_file, new_state())
    events = tmp_path / "events.txt"
    events.write_text(
        "# record then members\nr1 x y\nr2 x y\n\nr3 x z\n", encoding="utf-8"
    )
    code, out, _err = run(
        capsys,
        ["co-occur", str(events), "--min-support", "2", "--state", str(state_file)],
    )
    assert code == 0
    assert out.startswith("co.x.y\t")
    saved = load_state(state_file)
    assert "co.x.y" in saved.problems
    assert saved.problems["co.x.y"].evidence == ("r1", "r2")


def test_import_then_export_reproduces_the_format_pin(capsys, tmp_path):
    """Every record kind, carriage returns in fields included, survives the
    CLI's own file reading and writing byte for byte."""
    pin = os.path.join(os.path.dirname(__file__), "data", "pin.ksif")
    state_file = str(tmp_path / "kb.ksif")
    assert run(capsys, ["import", pin, "--state", state_file])[0] == 0
    code, out, _err = run(capsys, ["export", "--state", state_file])
    with open(pin, encoding="utf-8", newline="") as handle:
        assert (code, out) == (0, handle.read())


def test_co_occur_min_support_below_one_is_a_usage_error(capsys, tmp_path):
    state_file = tmp_path / "state.ksif"
    write_state(state_file, chain_state())
    before = state_file.read_bytes()
    events = tmp_path / "events.txt"
    events.write_text("r1 x y\n", encoding="utf-8")
    code, out, err = run(capsys, ["co-occur", str(events), "--min-support", "0",
                                  "--state", str(state_file)])
    assert (code, out) == (1, "")
    assert err == "error: argument --min-support: min-support must be at least 1, got 0\n"
    assert state_file.read_bytes() == before


def test_co_occur_refuses_a_problem_id_no_state_could_load(capsys, tmp_path):
    state_file = tmp_path / "state.ksif"
    write_state(state_file, chain_state())
    before = state_file.read_bytes()
    events = tmp_path / "events.txt"
    events.write_text("r1 café tea\n", encoding="utf-8")
    code, out, err = run(capsys, ["co-occur", str(events), "--min-support", "1",
                                  "--state", str(state_file)])
    assert (code, out) == (2, "")
    assert "co.café.tea" in err and "Traceback" not in err
    assert state_file.read_bytes() == before


def test_find_problem_with_rules_file(capsys, tmp_path):
    state = new_state()
    net = state.network
    net.add_link_type(RepBundle(word="cites"), type_id="cites")
    for name in ("n1", "n2", "n3"):
        net.add_node(RepBundle(word=name), node_id=name)
    net.assert_link("n1", "cites", "n2")
    net.assert_link("n2", "cites", "n3")
    state_file = tmp_path / "state.ksif"
    write_state(state_file, state)
    holder = new_state()
    holder.anomaly_rules["watch"] = AnomalyRule(
        "watch", (PatternAtom("?x", "cites", "?y"),),
        "count", "ge", 2, "{count} citation pairs",
    )
    rules_file = tmp_path / "rules.ksif"
    write_state(rules_file, holder)
    code, out, _err = run(
        capsys,
        ["find-problem", "--rules", str(rules_file), "--state", str(state_file)],
    )
    assert code == 0
    assert out == "anom.watch\tanomaly\t2 citation pairs\n"
    saved = load_state(state_file)
    assert "anom.watch" in saved.problems


def test_find_problem_defaults_to_stored_rules(capsys, tmp_path):
    state = new_state()
    net = state.network
    net.add_link_type(RepBundle(word="cites"), type_id="cites")
    net.add_node(RepBundle(word="n1"), node_id="n1")
    net.add_node(RepBundle(word="n2"), node_id="n2")
    net.assert_link("n1", "cites", "n2")
    state.anomaly_rules["watch"] = AnomalyRule(
        "watch", (PatternAtom("?x", "cites", "?y"),),
        "count", "ge", 1, "{count} hits",
    )
    state_file = tmp_path / "state.ksif"
    write_state(state_file, state)
    code, out, _err = run(capsys, ["find-problem", "--state", str(state_file)])
    assert code == 0
    assert out == "anom.watch\tanomaly\t1 hits\n"


def solving_state():
    state = new_state()
    store = state.concepts
    store.add_concept("wet", concept_id="wet")
    store.add_concept("mop", concept_id="mop")
    store.add_relation("mop", "prevents", "wet")
    state.problems["p1"] = Problem(
        "p1", "relationship", "floor keeps getting wet",
        evidence=("r1",), concepts=("wet",),
    )
    state.problems["p2"] = Problem(
        "p2", "relationship", "mystery stain",
        evidence=("r1", "r2"), concepts=("ghost",),
    )
    return state


def test_solve_prints_solution_concepts(capsys, tmp_path):
    state_file = tmp_path / "state.ksif"
    write_state(state_file, solving_state())
    code, out, _err = run(
        capsys,
        ["solve", "p1", "--solution-types", "prevents", "--state", str(state_file)],
    )
    assert code == 0
    assert out == "mop\n"


def test_solve_unknown_problem_is_data_error(capsys, tmp_path):
    state_file = tmp_path / "state.ksif"
    write_state(state_file, solving_state())
    code, _out, err = run(
        capsys, ["solve", "p9", "--solution-types", "prevents", "--state", str(state_file)]
    )
    assert code == 2
    assert "not found" in err


def test_recommend_ranks_by_evidence(capsys, tmp_path):
    state_file = tmp_path / "state.ksif"
    write_state(state_file, solving_state())
    code, out, _err = run(
        capsys,
        ["recommend", "--solution-types", "prevents", "--state", str(state_file)],
    )
    assert code == 0
    assert out.splitlines() == [
        "p2\tunsolved\t-",
        "p1\tsolved\tmop",
    ]


# ===== analogy and ability =====

def analogy_files(tmp_path, target_nodes):
    source = new_state()
    net = source.network
    net.add_link_type(RepBundle(word="flow"), type_id="flow")
    net.add_node(RepBundle(word="s1"), node_id="s1")
    net.add_node(RepBundle(word="s2"), node_id="s2")
    net.assert_link("s1", "flow", "s2", link_id="m1")
    source_file = tmp_path / "source.ksif"
    write_state(source_file, source)
    target = new_state()
    tnet = target.network
    tnet.add_link_type(RepBundle(word="flow"), type_id="flow")
    for index in range(target_nodes):
        tnet.add_node(RepBundle(word=f"q{index + 1}"), node_id=f"q{index + 1}")
    if target_nodes >= 2:
        tnet.assert_link("q1", "flow", "q2")
    target_file = tmp_path / "target.ksif"
    write_state(target_file, target)
    return source_file, target_file


def test_analogy_maps_source_onto_target(capsys, tmp_path):
    source_file, target_file = analogy_files(tmp_path, target_nodes=2)
    code, out, _err = run(
        capsys,
        [
            "analogy", "--source", str(source_file), "--target", str(target_file),
            "--solution-links", "m1",
        ],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "outcome\texact"
    assert "map\ts1\tq1" in lines
    assert "map\ts2\tq2" in lines
    assert "solution\tq1\tflow\tq2" in lines


def test_analogy_conjecture_reports_relation_statuses(capsys, tmp_path):
    source = new_state()
    net = source.network
    net.add_link_type(RepBundle(word="flow"), type_id="flow")
    net.add_link_type(RepBundle(word="helps"), type_id="helps")
    for name in ("s1", "s2", "s3"):
        net.add_node(RepBundle(word=name), node_id=name)
    net.assert_link("s1", "flow", "s2", link_id="m1")
    net.assert_link("s2", "helps", "s3", link_id="m2")
    source_file = tmp_path / "source.ksif"
    write_state(source_file, source)
    target = new_state()
    tnet = target.network
    tnet.add_link_type(RepBundle(word="flow"), type_id="flow")
    for name in ("q1", "q2", "q3"):
        tnet.add_node(RepBundle(word=name), node_id=name)
    tnet.assert_link("q1", "flow", "q2")
    target_file = tmp_path / "target.ksif"
    write_state(target_file, target)
    code, out, _err = run(
        capsys,
        [
            "analogy", "--source", str(source_file), "--target", str(target_file),
            "--solution-links", "m2",
        ],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "outcome\tconjecture"
    assert "relation\tpresent\tq1\tflow\tq2" in lines
    assert "relation\tconjectured\tq2\thelps\tq3" in lines
    assert "solution\tq2\thelps\tq3" in lines


def test_analogy_without_mapping_exits_three(capsys, tmp_path):
    source_file, target_file = analogy_files(tmp_path, target_nodes=1)
    code, out, _err = run(
        capsys,
        [
            "analogy", "--source", str(source_file), "--target", str(target_file),
            "--solution-links", "m1",
        ],
    )
    assert code == 3
    assert out.splitlines()[0] == "outcome\tnone"


def test_analogy_fault_names_the_file_at_fault(capsys, tmp_path):
    source_file, target_file = analogy_files(tmp_path, target_nodes=2)
    text = target_file.read_text(encoding="utf-8")
    target_file.write_text(text.replace("NODE\tq1\t0.0", "NODE\tq1\tx"), encoding="utf-8")
    code, out, err = run(
        capsys, ["analogy", "--source", str(source_file), "--target", str(target_file)]
    )
    assert (code, out) == (2, "")
    assert err == f"error: {target_file}: line 3: rank 'x' is not a finite number\n"


@pytest.mark.parametrize("argv, message", [
    (["analogy", "--source", "s.ksif", "--target", "t.ksif", "--max-nodes", "0"],
     "argument --max-nodes: max-nodes must be at least 1, got 0"),
    (["capacity", "2", "0"], "argument n: n must be at least 1, got 0"),
], ids=["analogy-max-nodes", "capacity-n"])
def test_count_below_one_is_a_usage_error(capsys, argv, message):
    assert run(capsys, argv) == (1, "", f"error: {message}\n")


def test_ability_counts_answers_per_increment(capsys, tmp_path):
    state = new_state()
    net = state.network
    net.add_link_type(RepBundle(word="t"), type_id="t")
    for name in ("a", "b", "c", "d"):
        net.add_node(RepBundle(word=name), node_id=name)
    net.assert_link("a", "t", "b", link_id="k1")
    state_file = tmp_path / "state.ksif"
    write_state(state_file, state)
    before = state_file.read_text(encoding="utf-8")
    questions = tmp_path / "questions.txt"
    questions.write_text(
        "# one pattern per line\n(a, t, ?)\n(c, t, ?)\n(ghost, t, ?)\n",
        encoding="utf-8",
    )
    inc1 = tmp_path / "inc1.ksif"
    inc1.write_text("KSIF 1\nLINK\tk8\tc\tt\td\t1.0\tE\n", encoding="utf-8")
    inc2 = tmp_path / "inc2.ksif"
    inc2.write_text("KSIF 1\nLINK\tk9\td\tt\ta\t1.0\tE\n", encoding="utf-8")
    code, out, _err = run(
        capsys,
        [
            "ability", "--questions", str(questions),
            "--increments", str(inc1), str(inc2),
            "--state", str(state_file),
        ],
    )
    assert code == 0
    assert out.splitlines() == [
        "0\t1\t3\t0",
        "1\t2\t3\t0",
        "2\t2\t3\t0",
    ]
    assert state_file.read_text(encoding="utf-8") == before


def test_ability_takes_an_increment_asserting_a_derived_triple(capsys, tmp_path):
    state = new_state()
    net = state.network
    net.add_link_type(RepBundle(word="t"), transitive=True, type_id="t")
    for name in ("a", "b", "c"):
        net.add_node(RepBundle(word=name), node_id=name)
    net.assert_link("a", "t", "b", link_id="k1")
    net.assert_link("b", "t", "c", link_id="k2")
    state_file = tmp_path / "state.ksif"
    write_state(state_file, state)
    questions = tmp_path / "questions.txt"
    questions.write_text("(a, t, ?)\n", encoding="utf-8")
    inc = tmp_path / "inc.ksif"
    inc.write_text("KSIF 1\nLINK\tkx1\ta\tt\tc\t1.0\tE\n", encoding="utf-8")
    code, out, err = run(
        capsys,
        ["ability", "--questions", str(questions), "--increments", str(inc),
         "--state", str(state_file)],
    )
    assert (code, err) == (0, "")
    assert out.splitlines() == ["0\t1\t1\t0", "1\t1\t1\t0"]


def test_ability_fault_names_its_increment(capsys, tmp_path):
    state_file = tmp_path / "state.ksif"
    write_state(state_file, chain_state())
    questions = tmp_path / "questions.txt"
    questions.write_text("(a, t, ?)\n", encoding="utf-8")
    inc1 = tmp_path / "inc1.ksif"
    inc1.write_text("KSIF 1\nLINK\tk8\ta\tt\tc\t1.0\tE\n", encoding="utf-8")
    inc2 = tmp_path / "inc2.ksif"
    inc2.write_text("KSIF 1\nLINK\tk9\tnope\tt\ta\t1.0\tE\n", encoding="utf-8")
    code, out, err = run(
        capsys,
        ["ability", "--questions", str(questions), "--increments", str(inc1), str(inc2),
         "--state", str(state_file)],
    )
    assert (code, out) == (2, "")
    assert err == "error: increment 2: node 'nope' not found\n"


def test_ability_bad_question_names_its_file_and_line(capsys, tmp_path, monkeypatch):
    """Lines are numbered as in the file: blank and # lines count."""
    monkeypatch.chdir(tmp_path)
    write_state(tmp_path / "state.ksif", chain_state())
    (tmp_path / "q.txt").write_text("(a, t, ?)\n(a, t)\n", encoding="utf-8")
    (tmp_path / "r.txt").write_text("# questions\n\n(a, t, ?)\n(a, ?, ?)\n", encoding="utf-8")
    code, out, err = run(capsys, ["ability", "--questions", "q.txt", "--state", "state.ksif"])
    assert (code, out, err) == (1, "", "error: q.txt: line 2: cannot parse pattern '(a, t)'\n")
    code, out, err = run(capsys, ["ability", "--questions", "r.txt", "--state", "state.ksif"])
    assert (code, out) == (1, "")
    assert err == "error: r.txt: line 4: pattern must have exactly one hole, found 2\n"


# ===== capacity =====

def test_capacity_prints_verdict(capsys):
    code, out, _err = run(capsys, ["capacity", "2", "3"])
    assert code == 0 and out == "true\n"
    code, out, _err = run(capsys, ["capacity", "3", "2"])
    assert code == 0 and out == "false\n"


def test_capacity_rejects_nonpositive_tree(capsys):
    code, _out, err = run(capsys, ["capacity", "0", "3"])
    assert code == 2
    assert "error:" in err


# ===== lifecycle =====

def _subcommands():
    parser = cli._build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sorted(action.choices)


@pytest.mark.parametrize(
    "argv",
    [["derive"], ["place", "res1", "topic=ai", "year=y1936"]],
    ids=["derive", "place"],
)
def test_failed_save_prints_nothing_and_keeps_state(capsys, monkeypatch, tmp_path, argv):
    state_file = tmp_path / "state.ksif"
    state = space_state()
    state.network = chain_state().network
    write_state(state_file, state)
    before = state_file.read_bytes()

    def failing_replace(_src, _dst):
        raise OSError("rename refused")

    monkeypatch.setattr(cli.os, "replace", failing_replace)
    code, out, err = run(capsys, argv + ["--state", str(state_file)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert state_file.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.ksif", "state.ksif.lock"]


def _child_env():
    """The environment for a `python -m ksengine` child: this package's src/
    first on the path, and no ambient state file."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("KSENGINE_STATE", None)
    return env

def test_concurrent_writers_lose_no_update(tmp_path):
    state = space_state()
    net = state.network
    net.add_link_type(RepBundle(word="before"), transitive=True, type_id="t")
    nodes = [net.add_node(RepBundle(word=f"n{i}"), node_id=f"n{i:02d}") for i in range(80)]
    for a, b in zip(nodes, nodes[1:]):
        net.assert_link(a, "t", b)
    derive_fixpoint(net)
    assert len(net.links) == 3160
    state_file = tmp_path / "state.ksif"
    write_state(state_file, state)
    writers = [
        subprocess.Popen(
            [sys.executable, "-m", "ksengine", "place", f"r{i}", "topic=ai", "year=y1936",
             "--state", str(state_file)],
            cwd=tmp_path, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        for i in range(8)
    ]
    for writer in writers:
        _out, err = writer.communicate(timeout=120)
        assert writer.returncode == 0, err
    saved = load_state(state_file)
    assert sorted(saved.space.placements) == [f"r{i}" for i in range(8)]
    assert len(saved.network.links) == 3160
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.ksif", "state.ksif.lock"]



# ===== process entry =====

def _ksengine_process(argv, cwd):
    """`python -m ksengine argv` run from src/, as (exit code, stdout, stderr)."""
    done = subprocess.run([sys.executable, "-m", "ksengine", *argv], cwd=cwd, env=_child_env(),
                          capture_output=True, timeout=120)
    # bytes, decoded here: text mode would turn a carriage return into \n
    return done.returncode, done.stdout.decode(), done.stderr.decode()


def test_main_leaves_the_collector_as_it_found_it(capsys, tmp_path):
    # Only the process entry, cli.run, turns the collector off and freezes:
    # tests and benchmarks call main in process.
    state_file = tmp_path / "state.ksif"
    write_state(state_file, space_state())
    before = (gc.isenabled(), gc.get_freeze_count())
    for argv in (["export"], ["place", "res1", "topic=ai", "year=y1936"],
                 ["import", str(tmp_path / "missing.ksif")], ["derive", "--bogus"]):
        main(argv + ["--state", str(state_file)])
        assert (gc.isenabled(), gc.get_freeze_count()) == before
    capsys.readouterr()


def test_both_process_entries_are_cli_run():
    package = pathlib.Path(cli.__file__).parent
    assert (package / "__main__.py").read_text(encoding="utf-8").endswith(
        "from .cli import run\n\nsys.exit(run())\n")
    pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
    scripts = pyproject.read_text(encoding="utf-8").split("[project.scripts]\n")[1]
    assert scripts.split("\n[")[0].strip() == 'ksengine = "ksengine.cli:run"'


def test_process_entry_prints_and_saves_as_main_does(capsys, monkeypatch, tmp_path):
    rich = export_state(random_state(random.Random(11), torture=True))
    (tmp_path / "rich.ksif").write_text(rich, encoding="utf-8")
    argv = ["export", "--state", "rich.ksif"]
    monkeypatch.chdir(tmp_path)
    assert _ksengine_process(argv, tmp_path) == run(capsys, argv) == (0, rich, "")
    state = chain_state()
    state.space = space_state().space
    derive_fixpoint(state.network)
    for name in ("child.ksif", "inproc.ksif"):
        write_state(tmp_path / name, state)
    place = ["place", "res1", "topic=ai", "year=y1936", "--state"]
    assert _ksengine_process(place + ["child.ksif"], tmp_path) == (0, "", "")
    assert run(capsys, place + ["inproc.ksif"]) == (0, "", "")
    saved = (tmp_path / "inproc.ksif").read_bytes()
    assert (tmp_path / "child.ksif").read_bytes() == saved
    assert saved != export_state(state).encode()


def test_every_command_without_state_ends_in_documented_code(capsys, tmp_path):
    source_file, target_file = analogy_files(tmp_path, target_nodes=2)
    text = tmp_path / "lines.txt"
    text.write_text("r1 x y\n", encoding="utf-8")
    argvs = {
        "import": ["import", str(source_file)],
        "export": ["export"],
        "derive": ["derive"],
        "query": ["query", "(a, t, ?)"],
        "explain": ["explain", "k1"],
        "place": ["place", "res1", "topic=ai"],
        "locate": ["locate", "topic=ai"],
        "nf-check": ["nf-check"],
        "split": ["split", "topic"],
        "join": ["join", str(source_file)],
        "merge-dims": ["merge-dims", "topic", "year"],
        "read": ["read", "cat on mat"],
        "verify": ["verify", str(source_file)],
        "co-occur": ["co-occur", str(text)],
        "find-problem": ["find-problem"],
        "solve": ["solve", "p1"],
        "recommend": ["recommend"],
        "analogy": ["analogy", "--source", str(source_file), "--target", str(target_file)],
        "ability": ["ability", "--questions", str(text)],
        "capacity": ["capacity", "2", "3"],
    }
    assert sorted(argvs) == _subcommands()
    for command, argv in argvs.items():
        code, _out, err = run(capsys, argv)
        if command in ("analogy", "capacity"):
            assert code in (0, 3), command
        else:
            assert code == 1, command
            assert "no state file" in err, command
