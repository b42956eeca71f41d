"""Command-line surface for the knowledge-space engine.

One state file holds everything (network, space, concepts, lexicon, problems,
anomaly rules); its path comes from --state or the KSENGINE_STATE environment
variable. Each call loads the state once, runs one command on it and, for a
write command, saves it once. A write command holds an exclusive lock on
<state>.lock from before the load until after the save, so concurrent writers
take turns and none loses an update; the new file is written beside the old
one, fsynced and renamed over it, and the command's output is printed only
after the save succeeds. Exit codes: 0 on success, 1 for usage problems, 2
for data errors, 3 when verification rejects a candidate or an analogy finds
no mapping.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import gc
import io
import os
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence

from .concepts import read_text
from .errors import KsError, MalformedPattern
from .ksif import (
    export_space_fragment,
    export_state,
    fragment_to_increment,
    import_state,
    merge_lexicon_fragment,
    parse_anomaly_rules,
    parse_candidates,
)
from .rules import derive_fixpoint, explain
from .sln import parse_pattern
from .space import Space, can_hold, join_spaces
from .state import new_state


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _at_least_one(name: str) -> Callable[[str], int]:
    """The argparse type of the count option called name: an integer of at
    least 1; anything else is a usage error naming the option and value."""
    def count(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < 1:
            raise argparse.ArgumentTypeError(f"{name} must be at least 1, got {text}")
        return value
    return count


# ===== input helpers =====

def _parse_file(path: str, parse: Callable[[str], Any]) -> Any:
    """parse applied to the file's text as written (a KSIF field may hold a
    carriage return, which universal newlines would read as a line break);
    a fault in the text names the file."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:  # read() decodes the whole file at once
        raise KsError(f"{path}: byte {exc.start} is not UTF-8") from None
    try:
        return parse(text)
    except KsError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _read_lines(path: str, parse: Callable[[str], Any]) -> List[Any]:
    """parse applied to each stripped line of a file but blank lines and #
    comments; a fault names the file and the line, counting every line."""
    def parse_lines(text: str) -> List[Any]:
        parsed = []
        for number, raw in enumerate(text.split("\n"), 1):
            line = raw.strip()
            if line and not line.startswith("#"):
                try:
                    parsed.append(parse(line))
                except KsError as exc:
                    exc.args = (f"line {number}: {exc}",)
                    raise
        return parsed
    return _parse_file(path, parse_lines)


def _point(space: Space, tokens: Sequence[str]) -> Dict[str, str]:
    """DIM=CAT tokens as {dimension id: category}; DIM is an id or a name."""
    pairs = []
    for token in tokens:
        dim, sep, cat = token.partition("=")
        if not sep or not dim or not cat:
            raise _UsageError(f"coordinate {token!r} must look like DIM=CAT")
        pairs.append((dim, cat))
    return {space.resolve_dimension(dim).id: cat for dim, cat in pairs}


def _split_csv(text: str) -> List[str]:
    return [piece for piece in text.split(",") if piece]


# ===== commands =====
# Each command is an operation on the loaded state; `main` loads and saves it.
# A discovery command imports the discovery toolkit when it runs, so the
# other commands never load it.

def _cmd_export(state, _args) -> int:
    sys.stdout.write(export_state(state))
    return 0


def _cmd_derive(state, _args) -> int:
    new_links, _derivations = derive_fixpoint(state.network)
    print(f"{len(new_links)} new links")
    for link in sorted(new_links, key=lambda l: l.id):
        print(f"{link.id}\t{link.source}\t{link.type}\t{link.target}\t{link.weight!r}")
    return 0


def _cmd_query(state, args) -> int:
    pattern = parse_pattern(args.pattern)
    try:
        bindings = state.network.answer_query(pattern)
    except KsError:
        return 0  # unknown constants bind nothing
    for binding in bindings:
        print(binding)
    return 0


def _print_explanation(root) -> None:
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        indent = "  " * depth
        s, t, o = node.triple
        if node.kind == "explicit":
            print(f"{indent}{node.link_id} ({s}, {t}, {o}) explicit")
            continue
        env = node.substitution or {}
        bound = " ".join(f"{k}={env[k]}" for k in sorted(env))
        print(f"{indent}{node.link_id} ({s}, {t}, {o}) by {node.rule_id} [{bound}]")
        stack.extend((child, depth + 1) for child in reversed(node.children))


def _cmd_explain(state, args) -> int:
    _print_explanation(explain(state.network, args.link_id))
    return 0


def _cmd_place(state, args) -> int:
    state.space.place(args.resource, _point(state.space, args.coords), replace=args.replace)
    return 0


def _cmd_locate(state, args) -> int:
    for resource in state.space.locate(_point(state.space, args.coords), mode=args.mode):
        print(resource)
    return 0


def _cmd_nf_check(state, _args) -> int:
    report = state.space.check_normal_forms()
    if report.clean:
        print("clean")
        return 0
    for dim, parent, name in report.duplicate_names:
        print(f"duplicate-name\t{dim}\t{parent}\t{name}")
    for di, dj in report.dependent_dimensions:
        print(f"dependent\t{di}\t{dj}")
    for dim in report.trivial_dimensions:
        print(f"trivial\t{dim}")
    return 0


def _cmd_split(state, args) -> int:
    selected, state.space = state.space.split(_split_csv(args.dims))
    sys.stdout.write(export_space_fragment(selected))
    return 0


def _cmd_join(state, args) -> int:
    other = _parse_file(args.file, import_state).space
    state.space, warnings = join_spaces(state.space, other)
    for warning in warnings:
        print(warning, file=sys.stderr)
    return 0


def _cmd_merge_dims(state, args) -> int:
    print(state.space.merge_dimensions(args.dim1, args.dim2))
    return 0


def _cmd_read(state, args) -> int:
    if args.lexicon:
        _parse_file(args.lexicon, lambda text: merge_lexicon_fragment(state, text))
    tokens = args.text.split()
    trace = read_text(
        state.concepts, tokens, state.lexicon,
        goals=_split_csv(args.goals), radius=args.radius,
    )
    s = trace.summary
    print(
        f"tokens={s.tokens} resolved={s.resolved} skipped={s.skipped} "
        f"relations={s.relations_created} cooccur={s.cooccurrence_updates}"
    )
    for event in trace.events:
        concept = event.concept or "-"
        print(f"{event.position}\t{event.token}\t{event.action}\t{concept}\t{event.detail}")
    return 0


def _cmd_verify(state, args) -> int:
    from .discovery import verify_knowledge
    pairs = []
    for item in _split_csv(args.exclusive):
        first, sep, second = item.partition(":")
        if not sep or not first or not second:
            raise _UsageError(f"exclusive pair {item!r} must look like T1:T2")
        pairs.append((first, second))
    candidates = _parse_file(args.file, parse_candidates)
    # Saturate once: each candidate's scratch copy then carries the derive
    # mark, so its own derive costs nothing.
    derive_fixpoint(state.network)
    any_rejected = False
    for index, candidate in enumerate(candidates, start=1):
        verdict = verify_knowledge(
            state.network, candidate, mode=args.mode,
            concepts=state.concepts, exclusive_pairs=pairs,
        )
        status = "accepted" if verdict.accepted else "rejected"
        any_rejected = any_rejected or not verdict.accepted
        print(f"{index}\t{candidate.kind}\t{status}\t{verdict.reason or '-'}")
    return 3 if any_rejected else 0


def _cmd_co_occur(state, args) -> int:
    from .discovery import detect_co_occurrence
    events = [(tokens[0], tokens[1:]) for tokens in _read_lines(args.file, str.split)]
    problems = detect_co_occurrence(events, args.min_support)
    for problem in problems:
        state.add_problem(problem)
        print(f"{problem.id}\t{problem.statement}")
    return 0


def _cmd_find_problem(state, args) -> int:
    from .discovery import find_problem
    if args.rules:
        rules = _parse_file(args.rules, parse_anomaly_rules)
    else:
        rules = state.anomaly_rules
    links = [state.network.links[lid] for lid in sorted(state.network.links)]
    problems = find_problem(links, rules.values())
    for problem in problems:
        state.add_problem(problem)
        print(f"{problem.id}\t{problem.kind}\t{problem.statement}")
    return 0


def _cmd_solve(state, args) -> int:
    from .discovery import find_solution
    problem = state.problems.get(args.problem_id)
    if problem is None:
        raise KsError(f"problem {args.problem_id!r} not found")
    for solution in find_solution(
        state.concepts, problem, _split_csv(args.solution_types)
    ):
        print(solution)
    return 0


def _cmd_recommend(state, args) -> int:
    from .discovery import find_solution, recommend
    types = _split_csv(args.solution_types)
    pairs = [
        (problem, find_solution(state.concepts, problem, types))
        for _pid, problem in sorted(state.problems.items())
    ]
    for rec in recommend(pairs):
        solutions = ",".join(rec.solutions) if rec.solutions else "-"
        flag = "unsolved" if rec.unsolved else "solved"
        print(f"{rec.problem_id}\t{flag}\t{solutions}")
    return 0


def _cmd_analogy(_state, args) -> int:
    from .discovery import analogize
    source = _parse_file(args.source, import_state).network
    target = _parse_file(args.target, import_state).network
    result = analogize(
        source, _split_csv(args.solution_links), target, max_nodes=args.max_nodes
    )
    print(f"outcome\t{result.outcome}")
    if result.node_map:
        for src in sorted(result.node_map):
            print(f"map\t{src}\t{result.node_map[src]}")
    for tid in sorted(result.generalization):
        print(f"lift\t{tid}\t{result.generalization[tid]}")
    for s, t, o in result.mapped_solution:
        print(f"solution\t{s}\t{t}\t{o}")
    for entry in result.problem_relations + result.solution_relations:
        s, t, o = entry.triple
        print(f"relation\t{entry.status}\t{s}\t{t}\t{o}")
    for s, t, o in result.impact:
        print(f"impact\t{s}\t{t}\t{o}")
    return 3 if result.outcome == "none" else 0


def _cmd_ability(state, args) -> int:
    from .discovery import ability_report
    questions = _read_lines(args.questions, parse_pattern)
    increments = [_parse_file(f, fragment_to_increment) for f in args.increments]
    report = ability_report(
        state.network, questions, increments, state.anomaly_rules.values()
    )
    for entry in report.entries:
        print(f"{entry.increment}\t{entry.answered}\t{entry.questions}\t{entry.problems}")
    return 0


def _cmd_capacity(_state, args) -> int:
    print("true" if can_hold(args.x, args.n) else "false")
    return 0


# ===== command table =====

# Where a command's state comes from: the --state file (a fresh state when the
# file does not exist yet), the KSIF file named by the command's `file`
# argument, or nothing (an empty state the command ignores).
_STATE_FILE, _FILE_ARG, _EMPTY = "state-file", "file-arg", "empty"


def _arg(*flags: str, **options):
    """One argument besides --state, as `add_argument(*flags, **options)` takes it."""
    return flags, options


# The one declaration of each command, in `--help` order: command -> (help,
# arguments besides --state, operation, state source, whether the state is
# saved back). The parser is built from this table.
_COMMANDS = {
    "import": ("replace the state from a KSIF file", [_arg("file")],
               lambda _state, _args: 0, _FILE_ARG, True),
    "export": ("print the state as canonical KSIF", [], _cmd_export, _STATE_FILE, False),
    "derive": ("run rules to the fixpoint", [], _cmd_derive, _STATE_FILE, True),
    "query": ("answer a one-hole pattern", [
        _arg("pattern", help='e.g. "(N_1, ?, N_2)" or "(?, L_4, N_5)"'),
    ], _cmd_query, _STATE_FILE, False),
    "explain": ("print a link's derivation tree", [_arg("link_id")],
                _cmd_explain, _STATE_FILE, False),
    "place": ("place a resource at a point", [
        _arg("resource"),
        _arg("coords", nargs="+", metavar="DIM=CAT"),
        _arg("--replace", action="store_true", help="overwrite an existing placement"),
    ], _cmd_place, _STATE_FILE, True),
    "locate": ("find resources by coordinates", [
        _arg("coords", nargs="+", metavar="DIM=CAT"),
        _arg("--mode", choices=("exact", "subtree"), default="exact"),
    ], _cmd_locate, _STATE_FILE, False),
    "nf-check": ("report normal-form violations", [], _cmd_nf_check, _STATE_FILE, False),
    "split": ("split dimensions off into a printed fragment", [
        _arg("dims", help="comma-separated dimension ids or names"),
    ], _cmd_split, _STATE_FILE, True),
    "join": ("join a space fragment file in", [_arg("file")], _cmd_join, _STATE_FILE, True),
    "merge-dims": ("merge two dimensions into one", [_arg("dim1"), _arg("dim2")],
                   _cmd_merge_dims, _STATE_FILE, True),
    "read": ("read text into the concept network", [
        _arg("text", help="whitespace-separated tokens"),
        _arg("--lexicon", help="KSIF fragment with CONCEPT/LEXEME records"),
        _arg("--goals", default="", help="comma-separated goal concept ids"),
        _arg("--radius", type=_at_least_one("radius"), default=2),
    ], _cmd_read, _STATE_FILE, True),
    "verify": ("verify candidate links and rules", [
        _arg("file", help="KSIF fragment with LINK/RULE candidate records"),
        _arg("--mode", choices=("literal", "consistency"), default="literal"),
        _arg("--exclusive", default="",
             help="contradiction pairs for consistency mode, e.g. T1:T2,T3:T4"),
    ], _cmd_verify, _STATE_FILE, False),
    "co-occur": ("raise co-occurrence problems from an events file", [
        _arg("file", help="text file: one record id plus entities per line"),
        _arg("--min-support", type=_at_least_one("min-support"), default=2),
    ], _cmd_co_occur, _STATE_FILE, True),
    "find-problem": ("evaluate anomaly rules over the stored links", [
        _arg("--rules", help="KSIF file with ANOMALYRULE records "
                             "(default: rules stored in the state)"),
    ], _cmd_find_problem, _STATE_FILE, True),
    "solve": ("find solution concepts for a problem", [
        _arg("problem_id"),
        _arg("--solution-types", default="", help="comma-separated relation labels to follow"),
    ], _cmd_solve, _STATE_FILE, False),
    "recommend": ("rank stored problems with their solutions", [
        _arg("--solution-types", default=""),
    ], _cmd_recommend, _STATE_FILE, False),
    "analogy": ("map a source network onto a target network", [
        _arg("--source", required=True, help="KSIF file for the solved domain"),
        _arg("--target", required=True, help="KSIF file for the new domain"),
        _arg("--solution-links", default="",
             help="comma-separated link ids marking the source's solution"),
        _arg("--max-nodes", type=_at_least_one("max-nodes"), default=10),
    ], _cmd_analogy, _EMPTY, False),
    "ability": ("measure question answering across data increments", [
        _arg("--questions", required=True, help="text file with one query pattern per line"),
        _arg("--increments", nargs="*", default=[],
             help="KSIF network fragments, applied in order"),
    ], _cmd_ability, _STATE_FILE, False),
    "capacity": ("check whether n branches can hold an x-branch tree", [
        _arg("x", type=float),
        _arg("n", type=_at_least_one("n")),
    ], _cmd_capacity, _EMPTY, False),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="ksengine", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, (help_text, arguments, *_lifecycle) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)  # --state first, as --help lists it
        command.add_argument("--state", help="state file path (or set KSENGINE_STATE)")
        for flags, options in arguments:
            command.add_argument(*flags, **options)
    return parser


# ===== state lifecycle =====

@contextlib.contextmanager
def _write_lock(path: str):
    """Hold an exclusive advisory lock on <path>.lock; closing it releases it."""
    with open(path + ".lock", "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        yield


def _save(path: str, text: str) -> None:
    """Write text to a temp file beside path (named for this process), fsync
    it and rename it over path; on any failure the temp file is removed."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    operation, source, saved = _COMMANDS[args.command][2:]
    held_out, held_err = io.StringIO(), io.StringIO()
    try:
        path = args.state or os.environ.get("KSENGINE_STATE")
        if not path and (source == _STATE_FILE or saved):
            raise _UsageError("no state file: pass --state or set KSENGINE_STATE")
        with _write_lock(path) if saved else contextlib.nullcontext():
            if source == _STATE_FILE and os.path.exists(path):
                state = _parse_file(path, import_state)
            elif source == _FILE_ARG:
                state = _parse_file(args.file, import_state)
            else:
                state = new_state()
            if not saved:
                return operation(state, args)
            with contextlib.redirect_stdout(held_out), contextlib.redirect_stderr(held_err):
                code = operation(state, args)
            _save(path, export_state(state))
    except (_UsageError, MalformedPattern) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (KsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(held_out.getvalue())
    sys.stderr.write(held_err.getvalue())
    return code


def run() -> int:
    """The process entry (`python -m ksengine`, the `ksengine` script): one
    main() call with the cyclic collector off, and main's exit code.

    The process ends after the call, and the engine's hot paths make no
    reference cycles (see rules._walk), so reference counting frees what a
    call drops. Freezing what is left spares interpreter exit its full
    collection. main() itself leaves the collector alone: tests and
    benchmarks call it in process."""
    gc.disable()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
