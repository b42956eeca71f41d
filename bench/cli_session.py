"""Workload `cli-session`: one `python -m ksengine` process per op.

Set-up generates a knowledge base and saturates it: a transitive `prec`
chain, a co-citation graph into a symmetric `same` type, a three-dimension
space with placements, concepts with a lexicon and `treats` relations,
problems and anomaly rules. It writes the saturated state file, three later
KB versions (the base plus more explicit links), the input files of every
op, and the expectation of every op's output, and loads the state once
through the CLI. A cycle is one epoch: `import` of the next KB version, a
`derive`, then 38 shuffled calls; 28 of the epoch's 40 calls are reads.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import subprocess
import sys
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import oracles
from common import Op, build_network, canonical, make_ids, rng_for, transitive_rule

from ksengine import cli as ks_cli
from ksengine import rules as ks_rules
from ksengine.concepts import ConceptStore, Lexicon
from ksengine.discovery import AnomalyRule, Problem
from ksengine.ksif import export_state, import_state
from ksengine.rules import PatternAtom
from ksengine.space import Space
from ksengine.state import EngineState

VERSIONS = 3
CHAIN, PAPERS = 28, 110
PREC, CITES, SAME, TREATS = "prec", "cites", "same", "treats"
COCITE = ("co-cite", ((("?a", CITES, "?c"), ("?b", CITES, "?c")), (("?a", SAME, "?b"),)))
PROOF_RULES = dict([COCITE, transitive_rule(PREC)])
ANOMALY = (
    ("r1-cocite", (("?a", CITES, "?c"), ("?b", CITES, "?c")), "count", "ge", 1.0,
     "{count} co-citations"),
    ("r2-prec-share", (("?a", PREC, "?b"),), "freq", "ge", 0.1,
     "{share} of {total} links are precedences"),
    ("r3-self", (("?a", PREC, "?a"),), "count", "ge", 1.0, "{count} self precedences"),
)
# Per epoch after import and derive: (op, count, is write). Each epoch's
# slowest 5% of calls are its derive and its verify; find-problem fills the
# next 10%, so the 90th percentile falls inside one kind of call.
EPOCH_MIX = (
    ("export", 3, False), ("query", 9, False), ("explain", 3, False),
    ("locate-exact", 3, False), ("locate-subtree", 3, False), ("nf-check", 2, False),
    ("verify", 1, False), ("solve", 4, False),
    ("place", 2, True), ("read", 2, True), ("co-occur", 2, True), ("find-problem", 4, True),
)
DIMENSIONS = (("topic", 4, 3), ("year", 6, 0), ("venue", 3, 2))  # name, children, grandchildren
EXPLAIN_LINE = re.compile(r"^( *)(\S+) \((\S+), (\S+), (\S+)\) (explicit|by (\S+) \[.*\])$")

Check = Callable[[Tuple[str, int]], bool]


def _kb(seed: int) -> dict:
    """The seeded knowledge base as plain data."""
    rng = rng_for("cli", seed, "kb")
    chain = make_ids(rng, "v", CHAIN)
    papers = make_ids(rng, "p", PAPERS)
    refs = make_ids(rng, "r", PAPERS // 2)
    cites = [(p, r) for p in papers for r in sorted(rng.sample(refs, 2))]
    dims = []
    for (name, children, grand), dim_id in zip(DIMENSIONS, make_ids(rng, "d", len(DIMENSIONS))):
        root = make_ids(rng, "g" + name[0], 1)[0]
        cats = [(root, None, name)]
        for i, child in enumerate(make_ids(rng, "g" + name[0], children)):
            cats.append((child, root, f"{name}-{i}"))
            for j, leaf in enumerate(make_ids(rng, "g" + name[0] + "x", grand)):
                # One deliberate duplicate sibling name for nf-check to report.
                dup = name == "topic" and (i, j) == (0, 1)
                cats.append((leaf, child, f"{name}-{i}-{0 if dup else j}"))
        dims.append((dim_id, name, cats))
    placements = {
        p: {dim_id: rng.choice(cats)[0] for dim_id, _name, cats in dims} for p in papers
    }
    concepts = make_ids(rng, "c", 30)
    relation_concepts = concepts[:2]
    entities = concepts[2:]
    lexicon = {f"w{i}": [cid] for i, cid in enumerate(entities)}
    for i in range(6):
        lexicon[f"amb{i}"] = rng.sample(entities, 2)
    lexicon["uses"] = [relation_concepts[0]]
    lexicon["needs"] = [relation_concepts[1]]
    treats = sorted({tuple(rng.sample(entities, 2)) for _ in range(25)})
    problems = [(f"pb{i}", tuple(sorted(rng.sample(entities, 2)))) for i in range(3)]
    deltas = []
    end = chain[-1]
    for k, (node, paper) in enumerate(zip(make_ids(rng, "u", VERSIONS),
                                          make_ids(rng, "q", VERSIONS))):
        deltas.append({"nodes": [node, paper], "links": [(end, PREC, node)] + [
            (paper, CITES, r) for r in sorted(rng.sample(refs, 2))]})
        end = node
    return {"chain": chain, "papers": papers, "refs": refs, "cites": cites, "dims": dims,
            "placements": placements, "concepts": concepts, "relation_concepts":
            relation_concepts, "lexicon": lexicon, "treats": treats, "problems": problems,
            "deltas": deltas}


def _state(kb: dict) -> EngineState:
    explicit = [(a, PREC, b) for a, b in zip(kb["chain"], kb["chain"][1:])]
    explicit += [(p, CITES, r) for p, r in kb["cites"]]
    types = [(PREC, True, False, None), (CITES, False, False, None), (SAME, False, True, None)]
    state = EngineState(network=build_network(
        kb["chain"] + kb["papers"] + kb["refs"], types, explicit, dict([COCITE])))
    space = Space()
    for dim_id, name, cats in kb["dims"]:
        space.add_dimension(name, dim_id=dim_id, root_id=cats[0][0], root_name=name)
        for cat_id, parent, cat_name in cats[1:]:
            space.add_category(dim_id, cat_name, parent, cat_id=cat_id)
    for resource, point in kb["placements"].items():
        space.place(resource, point)
    state.space = space
    store, lexicon = ConceptStore(), Lexicon()
    for i, cid in enumerate(kb["concepts"]):
        label = ("uses", "needs")[i] if cid in kb["relation_concepts"] else None
        store.add_concept(f"concept {i}", concept_id=cid, link_type=label)
    for a, b in kb["treats"]:
        store.add_relation(a, TREATS, b)
    for word, candidates in kb["lexicon"].items():
        lexicon.set_candidates(word, candidates)
    state.concepts, state.lexicon = store, lexicon
    for pid, concepts in kb["problems"]:
        state.problems[pid] = Problem(pid, "relationship", f"problem {pid}", concepts=concepts)
    for rid, atoms, metric, op, threshold, template in ANOMALY:
        state.anomaly_rules[rid] = AnomalyRule(
            rid, tuple(PatternAtom(*a) for a in atoms), metric, op, threshold, template)
    return state


def _delta_lines(kb: dict, upto: int) -> str:
    """NODE and LINK records adding the first `upto` deltas as explicit facts."""
    state = EngineState(network=build_network(
        kb["chain"] + kb["refs"] + [n for d in kb["deltas"] for n in d["nodes"]],
        [(PREC, True, False, None), (CITES, False, False, None)], [], {}))
    new_nodes = set()
    for k, delta in enumerate(kb["deltas"][:upto]):
        new_nodes.update(delta["nodes"])
        for j, (s, t, o) in enumerate(delta["links"]):
            state.network.assert_link(s, t, o, link_id=f"kd{k}{j}")
    return "".join(
        line + "\n" for line in export_state(state).split("\n")
        if line.startswith("LINK\t") or (line.startswith("NODE\t") and line.split("\t")[1] in new_nodes)
    )


def _closure(kb: dict, version: int) -> List[Tuple[str, str, str]]:
    """Canonical stored facts once KB `version` is saturated."""
    chain = kb["chain"] + [d["nodes"][0] for d in kb["deltas"][:version]]
    cites = list(kb["cites"]) + [
        (s, o) for d in kb["deltas"][:version] for s, t, o in d["links"] if t == CITES]
    facts = oracles.chain_closure(chain, PREC) | {(p, CITES, r) for p, r in cites}
    facts |= {(a, SAME, b) for a, b in oracles.unordered(oracles.cocite_pairs(cites))}
    return sorted(facts)


def _parse_explain(text: str):
    """The CLI's indented proof tree as nested (triple, kind, rule, children)."""
    root: list = []
    stack: List[Tuple[int, list]] = [(-1, root)]
    for line in text.splitlines():
        m = EXPLAIN_LINE.match(line)
        if m is None:
            return None
        depth = len(m.group(1)) // 2
        node = [(m.group(3), m.group(4), m.group(5)), "explicit" if m.group(6) == "explicit"
                else "derived", m.group(7), []]
        while stack[-1][0] >= depth:
            stack.pop()
        stack[-1][1].append(node)
        stack.append((depth, node[3]))

    def freeze(node):
        return (node[0], node[1], node[2], tuple(freeze(c) for c in node[3]))

    return freeze(root[0]) if len(root) == 1 else None


def _lines(items: Sequence[str]) -> str:
    return "".join(f"{item}\n" for item in items)


def _reimports(text: str) -> bool:
    return export_state(import_state(text)) == text


class CliSession:
    def __init__(self, seed: int, workdir: str, src: str, inproc: bool):
        self.seed = seed
        self.workdir = workdir
        self.src = src
        self.inproc = inproc
        self.state_path = os.path.join(workdir, "state.ksif")
        self.files: Dict[str, str] = {}
        self.epochs: List[List[Tuple[str, bool, List[str], Check]]] = []

    # ===== generation =====

    def _generate(self) -> Tuple[Dict[str, str], list]:
        """(file name -> content, epoch op lists); writes nothing."""
        kb = _kb(self.seed)
        state = _state(kb)
        ks_rules.derive_fixpoint(state.network)
        base = export_state(state)
        files = {"kb-0.ksif": base}
        derived_ids = sorted(lid for lid, link in state.network.links.items()
                             if not link.is_explicit)
        epochs = []
        for version in range(1, VERSIONS + 1):
            name = f"kb-{version}.ksif"
            files[name] = base + _delta_lines(kb, version)
            epochs.append(self._epoch(kb, version, name, derived_ids, files))
        return files, epochs

    def _epoch(self, kb: dict, version: int, kb_file: str, derived_ids: List[str],
               files: Dict[str, str]) -> list:
        rng = rng_for("cli", self.seed, "epoch", version)
        facts = _closure(kb, version)
        before = set(_closure(kb, 0)) | {l for d in kb["deltas"][:version] for l in d["links"]}
        new = sorted(set(facts) - before)
        chain = kb["chain"] + [d["nodes"][0] for d in kb["deltas"][:version]]
        explicit = {(a, PREC, b) for a, b in zip(chain, chain[1:])}
        explicit |= {f for f in facts if f[1] == CITES}
        placements = {r: dict(p) for r, p in kb["placements"].items()}
        parent_of = {dim_id: {c: p for c, p, _n in cats} for dim_id, _name, cats in kb["dims"]}
        dup = [(dim_id, cats[1][0], cats[2][2]) for dim_id, name, cats in kb["dims"]
               if name == "topic"]
        ops = [
            ("import", True, ["import", kb_file], lambda out: out == ("", 0)),
            ("derive", True, ["derive"], lambda out, n=new: self._derived_ok(out, n)),
        ]
        plan = [(op, write) for op, count, write in EPOCH_MIX for _ in range(count)]
        rng.shuffle(plan)
        for index, (op, write) in enumerate(plan):
            tag = f"e{version}-{index}"
            if op == "export":
                want = (len(facts), len(placements))
                ops.append((op, write, ["export"], lambda out, w=want: self._export_ok(out, w)))
            elif op == "query":
                i, j = sorted(rng.sample(range(len(chain)), 2))
                p = rng.choice(kb["papers"])
                s, t, o = rng.choice([(chain[i], PREC, None), (None, PREC, chain[j]),
                                      (p, SAME, None), (chain[i], None, chain[j])])
                want = _lines(oracles.bindings(facts, s, t, o, (SAME,)))
                text = f"({s or '?'}, {t or '?'}, {o or '?'})"
                ops.append((op, write, ["query", text], lambda out, w=want: out == (w, 0)))
            elif op == "explain":
                lid = rng.choice(derived_ids)
                ops.append((op, write, ["explain", lid], lambda out, lid=lid, e=explicit:
                            self._proof_ok(out, lid, e)))
            elif op.startswith("locate"):
                mode = op.split("-")[1]
                dim_id, name, cats = rng.choice(kb["dims"])
                cat = rng.choice(cats[1:] if mode == "exact" else [
                    c for c in cats if c[1] == cats[0][0]])[0]
                want = _lines(oracles.locate(placements, parent_of, {dim_id: cat}, mode))
                ops.append((op, write, ["locate", f"{name}={cat}", "--mode", mode],
                            lambda out, w=want: out == (w, 0)))
            elif op == "nf-check":
                order = sorted(parent_of)
                found = [f"duplicate-name\t{d}\t{p}\t{n}" for d, p, n in dup]
                found += [f"dependent\t{a}\t{b}"
                          for a, b in oracles.dependent_pairs(order, placements)]
                want = _lines(found or ["clean"])
                ops.append((op, write, ["nf-check"], lambda out, w=want: out == (w, 0)))
            elif op == "verify":
                i, j = sorted(rng.sample(range(len(chain)), 2))
                pair = [(chain[i], chain[j], "accepted\t-"),
                        (chain[j], chain[i], "rejected\tnot derivable from current knowledge")]
                rng.shuffle(pair)
                name = f"{tag}-candidates.ksif"
                files[name] = "KSIF 1\n" + "".join(
                    f"LINK\tc{n}\t{a}\t{PREC}\t{b}\t1.0\tE\n" for n, (a, b, _v) in enumerate(pair))
                want = _lines([f"{n}\tlink\t{v}" for n, (_a, _b, v) in enumerate(pair, 1)])
                ops.append((op, write, ["verify", name], lambda out, w=want: out == (w, 3)))
            elif op == "solve":
                pid, goals = rng.choice(kb["problems"])
                want = _lines(sorted(oracles.reached_both_ways(kb["treats"], goals)))
                ops.append((op, write, ["solve", pid, "--solution-types", TREATS],
                            lambda out, w=want: out == (w, 0)))
            elif op == "place":
                resource = f"n{tag}"
                point = {dim_id: rng.choice(cats)[0] for dim_id, _name, cats in kb["dims"]}
                placements[resource] = point
                coords = [f"{name}={point[dim_id]}" for dim_id, name, _c in kb["dims"]]
                ops.append((op, write, ["place", resource] + coords,
                            lambda out: out == ("", 0)))
            elif op == "read":
                words = rng.sample(sorted(kb["lexicon"]), 10) + [f"zz{index}", f"yy{index}"]
                rng.shuffle(words)
                head = f"tokens={len(words)} resolved=10 skipped=2 "
                ops.append((op, write, ["read", " ".join(words), "--radius", "2"],
                            lambda out, h=head: out[1] == 0 and out[0].startswith(h)))
            elif op == "co-occur":
                pool = make_ids(rng, "e", 6)
                events = [(f"rec{n}", rng.sample(pool, 3)) for n in range(8)]
                name = f"{tag}-events.txt"
                files[name] = _lines(f"{rid} {' '.join(ents)}" for rid, ents in events)
                want = _lines(f"co.{a}.{b}\t{a} and {b} co-occur in {n} of {len(events)} records"
                              for a, b, n in oracles.cooccurrences(events, 2))
                ops.append((op, write, ["co-occur", name, "--min-support", "2"],
                            lambda out, w=want: out == (w, 0)))
            else:  # find-problem over the rules stored in the state
                found = []
                for rid, atoms, metric, cmp, threshold, template in ANOMALY:
                    hit = oracles.anomaly_hit(facts, atoms, metric, cmp, threshold, template)
                    if hit is not None:
                        found.append(f"anom.{rid}\tanomaly\t{hit[0]}")
                ops.append((op, write, ["find-problem"],
                            lambda out, w=_lines(found): out == (w, 0)))
        return ops

    # ===== checks =====

    def _derived_ok(self, out: Tuple[str, int], new: List[Tuple[str, str, str]]) -> bool:
        lines = out[0].splitlines()
        if out[1] != 0 or not lines or lines[0] != f"{len(new)} new links":
            return False
        got = [tuple(line.split("\t")[1:4]) for line in lines[1:]]
        return sorted(canonical(got, (SAME,))) == new

    def _export_ok(self, out: Tuple[str, int], want: Tuple[int, int]) -> bool:
        text, code = out
        kinds = [line.split("\t", 1)[0] for line in text.splitlines()]
        return (code == 0 and (kinds.count("LINK"), kinds.count("PLACE")) == want
                and _reimports(text))

    def _proof_ok(self, out: Tuple[str, int], lid: str, explicit) -> bool:
        tree = _parse_explain(out[0])
        return (out[1] == 0 and tree is not None and out[0].split(" ", 1)[0] == lid
                and oracles.check_proof(tree, explicit, PROOF_RULES, (SAME,)))

    # ===== the workload interface =====

    def setup(self) -> None:
        """Generate, write every input file, and load the state once via the CLI."""
        files, self.epochs = self._generate()
        for name, content in files.items():
            with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as handle:
                handle.write(content)
        self.files = files
        self.reset()
        out = self._call(["export"])
        if out != (files["kb-0.ksif"], 0):
            raise RuntimeError("the CLI did not load the generated state faithfully")

    def reset(self) -> None:
        with open(self.state_path, "w", encoding="utf-8") as handle:
            handle.write(self.files["kb-0.ksif"])

    def fingerprint(self) -> str:
        files, epochs = self._generate()
        return repr(sorted(files.items())) + repr(
            [[(name, write, argv) for name, write, argv, _c in ops] for ops in epochs])

    def _call(self, argv: List[str]) -> Tuple[str, int]:
        argv = argv + ["--state", self.state_path]
        if self.inproc:
            out, err = io.StringIO(), io.StringIO()
            cwd = os.getcwd()
            os.chdir(self.workdir)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = ks_cli.main(argv)
            finally:
                os.chdir(cwd)
            return out.getvalue(), code
        proc = subprocess.run(
            [sys.executable, "-m", "ksengine"] + argv, cwd=self.workdir,
            env=dict(os.environ, PYTHONPATH=self.src), capture_output=True, text=True)
        return proc.stdout, proc.returncode

    def cycle(self, index: int) -> Iterator[Op]:
        for name, write, argv, check in self.epochs[index % VERSIONS]:
            yield Op(name, write, lambda argv=argv: self._call(argv), check)

    def final_states(self) -> List[EngineState]:
        with open(self.state_path, "r", encoding="utf-8") as handle:
            return [import_state(handle.read())]
