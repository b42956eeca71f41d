#!/usr/bin/env python3
"""Seeded, stdlib-only benchmark for ksengine.

Usage, from the repository root:

    python3 bench/run.py --workload saturate --seed 1 --seconds 45 --trace 0

Workloads: saturate, discover, cli-session (see bench/NOTES.md). Each run sets
up its inputs from the seed, runs whole cycles of ops closed-loop, one at a
time, until --seconds have passed, checks every op's output against an
expectation fixed beforehand, and prints one JSON object as its last line.
With --trace 0 it reports the end-to-end metrics. With --trace 1 it runs the
same cycles once untraced and once traced and reports per-layer metrics from
the traced pass, plus the tracing overhead, and writes the traced spans to
.bench_work/spans-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# The development seed is used while tuning; the hold-out seed only to confirm.
DEV_SEED = 1
HOLDOUT_SEED = 7919
# Set-ups timed in an untraced run: one before the first op, the rest spread
# evenly over the run, so that the median sees the machine at several speeds.
SETUP_REPEATS = 11
# Seconds between two timings of the reference routine during a run, and
# how many timings on each side of an op make up its local reference.
REFERENCE_EVERY_S = 0.25
REFERENCE_NEIGHBOURS = 8
# setup_s is set-up time in reference units scaled to seconds by this fixed
# reference time, the routine's typical time on the machine in NOTES.md.
REFERENCE_NOMINAL_S = 0.004
STARTUP_PROBES = 5

WORKLOADS = ("saturate", "discover", "cli-session")


def _workload(name: str, seed: int, workdir: str, inproc: bool):
    """A workload: setup() prepares a run and may be repeated, cycle(i) yields
    the ops of cycle i, reset() restores the state before cycle 0,
    fingerprint() renders the generated inputs, final_states() returns what
    the run left behind."""
    if name == "saturate":
        from saturate import Saturate
        return Saturate(seed)
    if name == "discover":
        from discover import Discover
        return Discover(seed)
    from cli_session import CliSession
    return CliSession(seed, workdir, SRC, inproc)


def _reference() -> int:
    """Fixed plain-Python work, no engine code: the closure of a 40-node chain
    by naive joins over a dict index and a set of triples, 3 to 5 ms.

    Like the engine, it spends its time hashing tuples and strings into dicts
    and sets, so it slows down with the machine in about the same proportion.
    """
    facts = {(f"v{i:03d}", "prec", f"v{i + 1:03d}") for i in range(39)}
    while True:
        by_source: Dict[str, List[Tuple[str, str, str]]] = {}
        for fact in facts:
            by_source.setdefault(fact[0], []).append(fact)
        new = {(s, t, o2) for s, t, o in facts for _s, _t, o2 in by_source.get(o, ())}
        if new <= facts:
            return len(facts)
        facts |= new


def _time_reference(references: List[Tuple[float, float]]) -> None:
    """Time the reference routine once and append (start, seconds)."""
    t0 = time.perf_counter()
    _reference()
    references.append((t0, time.perf_counter() - t0))


def _run_cycles(workload, seconds: Optional[float], cycles: Optional[int], tracer=None,
                references: Optional[List[Tuple[float, float]]] = None,
                resetup: Optional[Callable[[], None]] = None):
    """Run whole cycles until the time or cycle budget is spent.

    Returns (samples, cycles run); a sample is (op name, is write, seconds,
    ok, cycle index, start). With a references list, the reference routine is
    timed between ops every REFERENCE_EVERY_S seconds and (start, seconds)
    appended there. With resetup, it is called between ops SETUP_REPEATS - 1
    times, evenly spread over the seconds; the time it takes does not count
    against them.
    """
    samples: List[Tuple[str, bool, float, bool, int, float]] = []
    start = time.perf_counter()
    last_reference = float("-inf")
    setup_every = seconds / SETUP_REPEATS if resetup is not None and seconds else 0.0
    setups = 0
    paused = 0.0
    index = 0
    while True:
        for op in workload.cycle(index):
            if (setup_every and setups < SETUP_REPEATS - 1
                    and time.perf_counter() - start - paused >= (setups + 1) * setup_every):
                t0 = time.perf_counter()
                resetup()
                paused += time.perf_counter() - t0
                setups += 1
            if references is not None and time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
                _time_reference(references)
                last_reference = time.perf_counter()
            if tracer is not None:
                tracer.op = len(samples)
            t0 = time.perf_counter()
            try:
                out = op.run()
                error = None
            except Exception as exc:  # a failed op counts against fail_ratio
                error = exc
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.op = None
            ok = error is None
            if ok:
                try:
                    ok = bool(op.check(out))
                except Exception as exc:
                    error, ok = exc, False
            if not ok:
                print(f"wrong: cycle {index} op {op.name}: {error!r}", file=sys.stderr)
            samples.append((op.name, op.write, elapsed, ok, index, t0))
        index += 1
        if cycles is not None and index >= cycles:
            break
        if seconds is not None and time.perf_counter() - start - paused >= seconds:
            break
    return samples, index


def _in_reference_units(timings: List[Tuple[float, float]],
                        references: List[Tuple[float, float]]) -> List[float]:
    """Each (start, seconds) timing over its local reference: the median
    reference time among the REFERENCE_NEIGHBOURS timings on each side."""
    starts = [r[0] for r in references]
    out = []
    for start, seconds in timings:
        at = bisect.bisect(starts, start)
        near = references[max(0, at - REFERENCE_NEIGHBOURS):at + REFERENCE_NEIGHBOURS]
        out.append(seconds / statistics.median(r[1] for r in near))
    return out


def _quantile(values: List[float], q: int) -> float:
    """The q-th percentile (inclusive method); the median for q=50."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _import_engine() -> float:
    """Seconds to import the package and its CLI afresh.

    The fresh modules are dropped afterwards and the ones in use put back, so
    the workloads keep running on the classes they were built with.
    """
    def engine_modules():
        return {name: module for name, module in sys.modules.items()
                if name == "ksengine" or name.startswith("ksengine.")}

    in_use = engine_modules()
    for name in in_use:
        del sys.modules[name]
    t0 = time.perf_counter()
    import ksengine.cli  # noqa: F401
    elapsed = time.perf_counter() - t0
    for name in engine_modules():
        del sys.modules[name]
    sys.modules.update(in_use)
    return elapsed


def _startup_probe() -> float:
    """Median wall time of a no-state CLI call in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(STARTUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "ksengine", "capacity", "2", "3"],
                       env=env, cwd=ROOT, check=True, capture_output=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _final_checks(workload) -> Tuple[int, int, int]:
    """(export bytes, stored links, failures) over the workload's final states.

    Every final state must export, re-import and export again byte-exact.
    """
    from ksengine.ksif import export_state, import_state

    size = links = failures = 0
    for state in workload.final_states():
        text = export_state(state)
        if export_state(import_state(text)) != text:
            failures += 1
        size += len(text.encode("utf-8"))
        links += len(state.network.links)
    return size, links, failures


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEV_SEED,
                        help=f"input seed (development {DEV_SEED}, hold-out {HOLDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ksengine", "__init__.py")):
        print(f"error: engine sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import ksengine  # noqa: F401  first import, compiling .pyc files if needed
    import ksengine.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    if not os.path.abspath(ksengine.__file__).startswith(SRC + os.sep):
        print(f"error: imported ksengine from {ksengine.__file__}", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    # The later set-ups run on a spare workload in a directory of its own, so
    # they leave the running workload's state alone.
    spare_dir = workdir + "-setup"
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(spare_dir, exist_ok=True)
    try:
        # In traced runs the CLI workload calls cli.main in process, so both
        # passes of the overhead comparison do the same work.
        workload = _workload(args.workload, args.seed, workdir, inproc=bool(args.trace))
        # (start, seconds) of the reference routine and of each set-up; the
        # first set-up gets reference timings of its own just before it.
        references: List[Tuple[float, float]] = []
        for _ in range(0 if args.trace else REFERENCE_NEIGHBOURS):
            _time_reference(references)
        t0 = time.perf_counter()
        workload.setup()
        setup_times = [(t0, import_s + time.perf_counter() - t0)]
        spare = _workload(args.workload, args.seed, spare_dir, inproc=False)

        def resetup() -> None:
            t0 = time.perf_counter()
            import_time = _import_engine()
            t1 = time.perf_counter()
            spare.setup()
            setup_times.append((t0, import_time + time.perf_counter() - t1))

        # Seed self-check: a second generator with the same seed must produce
        # byte-identical inputs and op lists.
        twin = _workload(args.workload, args.seed, workdir, inproc=bool(args.trace))
        run_failures = int(workload.fingerprint() != twin.fingerprint())

        metrics: Dict[str, Tuple[float, str]] = {}
        unbounded: Dict[str, Tuple[float, str]] = {}
        if args.trace:
            from tracer import Tracer

            plain, cycles = _run_cycles(workload, args.seconds / 2, None)
            workload.reset()
            tracer = Tracer()
            tracer.install()
            try:
                samples, _ = _run_cycles(workload, None, cycles, tracer)
            finally:
                tracer.uninstall()
            tracer.dump(os.path.join(os.path.dirname(workdir), f"spans-{args.workload}.jsonl"))
            metrics.update(tracer.layer_metrics(len(samples)))
            metrics["cli.startup_s"] = (_startup_probe(), "s")
            metrics["trace.overhead_ratio"] = (
                sum(s[2] for s in samples) / sum(s[2] for s in plain), "ratio")
        else:
            samples, cycles = _run_cycles(workload, args.seconds, None,
                                          references=references, resetup=resetup)
        size, links, failures = _final_checks(workload)
        run_failures += failures
        if not args.trace:
            times = [s[2] for s in samples]
            writes = [s[2] for s in samples if s[1]]
            reads = [s[2] for s in samples if not s[1]]
            in_ref = _in_reference_units([(s[5], s[2]) for s in samples], references)
            setup_ref = _in_reference_units(setup_times, references)
            writes_ref = [r for r, s in zip(in_ref, samples) if s[1]]
            reads_ref = [r for r, s in zip(in_ref, samples) if not s[1]]
            # The bounded timings are means over whole cycles of op times in
            # units of the reference routine timed around each op. The machine
            # switches between speeds up to twice apart for tens of seconds
            # at a time; the reference slows down with it, so the ratio keeps
            # the engine's cost and drops most of the machine's. A mean moves
            # with the share of time spent at each speed where a median jumps
            # from one speed to the other. Seconds and percentiles are printed
            # for reading, not bounded.
            metrics = {
                "setup_s": (statistics.median(setup_ref) * REFERENCE_NOMINAL_S, "s"),
                "ops_per_ref": (len(in_ref) / sum(in_ref), "1/ref"),
                "write_ref.mean": (statistics.fmean(writes_ref), "ref"),
                "read_ref.mean": (statistics.fmean(reads_ref), "ref"),
                "peak_rss_mb": (_peak_rss_mb(args.workload == "cli-session"), "MB"),
                "state_bytes_per_link": (size / links, "bytes"),
            }
            unbounded = {
                "ref_s": (statistics.median(r[1] for r in references), "s"),
                "setup_samples": (len(setup_times), "count"),
                "setup_wall_s": (statistics.median(t[1] for t in setup_times), "s"),
                "ops_per_s": (len(times) / sum(times), "1/s"),
                "write_s.mean": (statistics.fmean(writes), "s"),
                "read_s.mean": (statistics.fmean(reads), "s"),
                "op_s.p50": (_quantile(times, 50), "s"),
                "op_s.p90": (_quantile(times, 90), "s"),
                "write_s.p50": (_quantile(writes, 50), "s"),
                "read_s.p50": (_quantile(reads, 50), "s"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(spare_dir, ignore_errors=True)

    failed = sum(1 for s in samples if not s[3]) + run_failures
    attempted = len(samples)
    writes_n = sum(1 for s in samples if s[1])
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{cycles} cycles, {attempted} ops ({writes_n} writes, "
          f"{attempted - writes_n} reads), {failed} failed or wrong")
    print(f"fail_ratio {failed / max(attempted, 1):.6g} (failed or wrong / attempted)")
    for name, (value, unit) in {**metrics, **unbounded}.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
