"""Outside-in tracing: spans around calls into the engine's public functions.

The tracer wraps each traced function wherever a module binds it (the
defining module and every module that imported the name), and each traced
method on its class, so no engine source changes. A span records name, start,
end, parent span and the benchmark op it belongs to, plus a few counts read
from the call's arguments and result. Spans stay in memory until the run
ends; a layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

Counter = Callable[[tuple, Any], Dict[str, float]]


def _none(_args: tuple, _result: Any) -> Dict[str, float]:
    return {}


def _derive(_args, result):
    return {"new_links": len(result[0]), "new_derivations": len(result[1])}


def _analogy(_args, result):
    return {result.outcome: 1}


def _read(_args, result):
    return {"tokens": result.summary.tokens, "resolved": result.summary.resolved}


# (span name, module, attribute path, counter). A dotted attribute path
# names a method on a class.
TARGETS: Tuple[Tuple[str, str, str, Counter], ...] = (
    ("cli.main", "ksengine.cli", "main", _none),
    ("rules.derive", "ksengine.rules", "derive_fixpoint", _derive),
    ("rules.rows", "ksengine.rules", "rows_from_network", _none),
    ("rules.match", "ksengine.rules", "match_atoms", lambda a, r: {"results": len(r)}),
    ("rules.retract", "ksengine.rules", "retract_with_maintenance", _none),
    ("rules.explain", "ksengine.rules", "explain", _none),
    ("sln.type_facts", "ksengine.sln", "Network.type_facts", lambda a, r: {"rows": len(r)}),
    ("sln.add_derived", "ksengine.sln", "Network.add_derived", _none),
    ("sln.retract_link", "ksengine.sln", "Network.retract_link",
     lambda a, r: {"removed": len(r)}),
    ("sln.answer_query", "ksengine.sln", "Network.answer_query", _none),
    ("discovery.verify", "ksengine.discovery", "verify_knowledge", _none),
    ("discovery.analogize", "ksengine.discovery", "analogize", _analogy),
    ("discovery.find_problem", "ksengine.discovery", "find_problem", _none),
    ("discovery.ability", "ksengine.discovery", "ability_report", _none),
    ("ksif.import", "ksengine.ksif", "import_state", lambda a, r: {"bytes": len(a[0].encode())}),
    ("ksif.export", "ksengine.ksif", "export_state", _none),
    ("space.place", "ksengine.space", "Space.place", _none),
    ("space.locate", "ksengine.space", "Space.locate", _none),
    ("space.nf_check", "ksengine.space", "Space.check_normal_forms", _none),
    ("concepts.read", "ksengine.concepts", "read_text", _read),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts", "child_time")

    def __init__(self, name: str, parent: int, op: Optional[int]):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = 0.0
        self.end = 0.0
        self.counts: Dict[str, float] = {}
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op: Optional[int] = None
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ===== installing =====

    def _wrap(self, name: str, fn: Callable, counter: Counter) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, parent, tracer.op)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if parent >= 0:
                    tracer.spans[parent].child_time += span.end - span.start
            span.counts = counter(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.startswith("ksengine") and m]
        for name, module_name, attr, counter in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self._wrap(name, vars(cls)[meth], counter))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner: Any, key: str, value: Any) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    # ===== reporting =====

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (name, start, end, parent, op, counts)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps([span.name, span.start, span.end, span.parent,
                                         span.op, span.counts]) + "\n")

    def layer_metrics(self, ops: int) -> Dict[str, Tuple[float, str]]:
        """Per-layer (value, unit) from the spans recorded inside benchmark ops."""
        spans = [s for s in self.spans if s.op is not None]
        by_name: Dict[str, List[Span]] = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)

        def named(name: str) -> List[Span]:
            # Recursive calls (explain) count once, at their outermost span.
            return [s for s in by_name.get(name, ())
                    if s.parent < 0 or self.spans[s.parent].name != name]

        def mean_time(name: str, self_only: bool = False) -> float:
            group = named(name)
            if not group:
                return 0.0
            return statistics.fmean(s.self_time if self_only else s.duration for s in group)

        def total(name: str, key: str) -> float:
            return float(sum(s.counts.get(key, 0) for s in named(name)))

        def per_call(name: str, key: str) -> float:
            calls = len(named(name))
            return total(name, key) / calls if calls else 0.0

        def inside(name: str, ancestor: str) -> List[Span]:
            out = []
            for span in by_name.get(name, ()):
                cur = span.parent
                while cur >= 0 and self.spans[cur].name != ancestor:
                    cur = self.spans[cur].parent
                if cur >= 0:
                    out.append(span)
            return out

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        derives = named("rules.derive")
        noop = [s for s in derives if s.counts["new_links"] == 0]
        match_in_derive = sum(s.counts["results"] for s in inside("rules.match", "rules.derive"))
        analogies = len(named("discovery.analogize"))
        imports = named("ksif.import")
        m = {
            "rules.derive_s": mean_time("rules.derive"),
            "rules.derive_self_s": mean_time("rules.derive", self_only=True),
            "rules.derive_calls": ratio(len(derives), ops),
            "rules.noop_derive_s": statistics.fmean(s.duration for s in noop) if noop else 0.0,
            "rules.rounds": ratio(len(inside("rules.rows", "rules.derive")), len(derives)),
            "rules.rows_s": mean_time("rules.rows"),
            "rules.match_s": mean_time("rules.match"),
            "rules.match_results": per_call("rules.match", "results"),
            "rules.firing_yield": ratio(total("rules.derive", "new_derivations"), match_in_derive),
            "rules.new_links": per_call("rules.derive", "new_links"),
            "rules.retract_s": mean_time("rules.retract"),
            "rules.explain_s": mean_time("rules.explain"),
            "sln.type_facts_s": mean_time("sln.type_facts"),
            "sln.type_facts_rows": per_call("sln.type_facts", "rows"),
            "sln.add_derived_calls": ratio(len(named("sln.add_derived")), ops),
            "sln.retract_link_s": mean_time("sln.retract_link"),
            "sln.retract_removed": per_call("sln.retract_link", "removed"),
            "sln.answer_query_s": mean_time("sln.answer_query"),
            "discovery.verify_s": mean_time("discovery.verify"),
            "discovery.verify_calls": ratio(len(named("discovery.verify")), ops),
            "discovery.derives_per_verify": ratio(
                len(inside("rules.derive", "discovery.verify")), len(named("discovery.verify"))),
            "discovery.analogize_s": mean_time("discovery.analogize"),
            "discovery.find_problem_s": mean_time("discovery.find_problem"),
            "discovery.ability_s": mean_time("discovery.ability"),
            "ksif.import_s": mean_time("ksif.import"),
            "ksif.export_s": mean_time("ksif.export"),
            "ksif.import_bytes": per_call("ksif.import", "bytes"),
            "ksif.import_mb_per_s": ratio(
                total("ksif.import", "bytes") / 1e6, sum(s.duration for s in imports)),
            "space.place_s": mean_time("space.place"),
            "space.locate_s": mean_time("space.locate"),
            "space.nf_check_s": mean_time("space.nf_check"),
            "concepts.read_s": mean_time("concepts.read"),
            "concepts.tokens": per_call("concepts.read", "tokens"),
            "concepts.resolved_ratio": ratio(
                total("concepts.read", "resolved"), total("concepts.read", "tokens")),
            "cli.self_s": mean_time("cli.main", self_only=True),
            "cli.calls": ratio(len(named("cli.main")), ops),
        }
        for outcome in ("exact", "generalized", "conjecture", "none"):
            m[f"discovery.analogy_outcome.{outcome}"] = ratio(
                total("discovery.analogize", outcome), analogies)
        return {name: (value, unit_of(name)) for name, value in m.items()}


def unit_of(name: str) -> str:
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("calls"):
        return "1/op"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_yield")) or ".analogy_outcome." in name:
        return "ratio"
    return "count"
