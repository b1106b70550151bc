#!/usr/bin/env python3
"""Run one ewlgames benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-pd-1824 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from its `src`.
`--trace 0` runs the CLI in child processes, closed loop with one child
at a time, for about `--seconds` (at least one operation), and reports
the end-to-end metrics. `--trace 1` runs the CLI once untraced and then
the same pipeline in process with spans around every layer call, and
reports the per-layer metrics. `--workload all` runs every workload in
turn. Every operation's outputs are checked; the last stdout line is a
JSON object with `correct`, `attempted`, `failed` and `metrics`.
See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness  # noqa: E402
from perfbench.spans import Tracer, self_times  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload  # noqa: E402

SETUP_REPS = 7
TRACE_SETUP_REPS = 3

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "points_per_s": "points/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "grid.busy_s": "s",
    "grid.candidates": "count",
    "grid.strategies": "count",
    "grid.keep_ratio": "ratio",
    "kernel.calls": "count",
    "kernel.busy_s": "s",
    "kernel.call_s_p50": "s",
    "kernel.pairs": "count",
    "kernel.pairs_per_s": "pairs/s",
    "kernel.bytes_out": "B_computed",
    "nash.calls": "count",
    "nash.busy_s": "s",
    "nash.cells_per_s": "cells/s",
    "nash.equilibria": "count",
    "nash.br_tie_mean": "strategies",
    "bayes.calls": "count",
    "bayes.busy_s": "s",
    "bayes.call_s_p50": "s",
    "bayes.candidates": "count",
    "bayes.equilibria": "count",
    "bayes.yield": "ratio",
    "sweep.busy_s": "s",
    "output.write_s": "s",
    "output.read_s": "s",
    "output.bytes": "B",
    "output.rows": "count",
    "svgplot.busy_s": "s",
    "svgplot.points": "count",
    "svgplot.bytes": "B",
    "catalogue.busy_s": "s",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}

_WROTE = re.compile(r"wrote (\d+) record")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_operation(workload: Workload, work: Path, seed: int, *, same_as: str | None = None):
    """One CLI invocation plus its output checks; returns (child result, verdict).

    A repeat (`same_as` is an earlier operation's fingerprint) must write
    byte-identical outputs; any other operation gets the full check.
    """
    harness.clear_outputs(workload, work)
    res = harness.run_child(harness.cli_argv(*workload.argv()), work)
    if res.code != 0:
        return res, harness.Verdict(problems=[f"exit code {res.code}: {res.stdout.strip()[-500:]}"])
    if same_as is not None:
        fingerprint = harness.fingerprint(workload, work)
        problems = [] if fingerprint == same_as else ["output differs from the first operation of this run"]
        return res, harness.Verdict(fingerprint=fingerprint, problems=problems)
    try:
        verdict = harness.verify(workload, work, seed, deep=True)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return res, harness.Verdict(problems=[f"unreadable output: {exc!r}"])
    if seed == 0:
        verdict.problems += harness.reference_problems(workload, verdict)
    stated = _WROTE.search(res.stdout)
    if not workload.analyze and (stated is None or int(stated.group(1)) != verdict.count):
        verdict.problems.append(f"CLI reported {stated and stated.group(1)} records, file holds {verdict.count}")
    return res, verdict


def measure(workload: Workload, seed: int, seconds: float, work: Path) -> dict:
    """Untraced closed loop: end-to-end metrics over as many operations as fit."""
    setup = harness.measure_setup(work, SETUP_REPS)
    ops = [run_operation(workload, work, seed)]
    first = ops[0][1]
    # Budget only the operations themselves: checks run between them.
    while sum(o.wall_s for o, _ in ops) + statistics.median(o.wall_s for o, _ in ops) <= seconds:
        ops.append(run_operation(workload, work, seed, same_as=first.fingerprint))
    walls = [o.wall_s for o, _ in ops]
    return {
        "attempted": len(ops),
        "failed": sum(1 for _, v in ops if v.problems),
        "problems": [p for _, v in ops for p in v.problems],
        "metrics": {
            "setup_s": statistics.median(setup),
            "run_s": statistics.median(walls),
            "points_per_s": statistics.median(workload.points / w for w in walls),
            "peak_rss_mb": statistics.median(o.peak_rss_mb for o, _ in ops),
        },
        "units": END_TO_END,
        "samples": {
            "setup_s": setup,
            "run_s": walls,
            "cpu_s": [o.cpu_s for o, _ in ops],
            "peak_rss_mb": [o.peak_rss_mb for o, _ in ops],
        },
        "records": first.count,
        "digest": first.digest,
    }


def layer_metrics(tracer: Tracer, cli: harness.ChildResult, setup_s: float) -> dict[str, float]:
    spans = tracer.spans
    selfs = self_times(spans)
    root, layer_spans = spans[0], spans[1:]
    busy: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    for s in layer_spans:
        for key in {s.layer, s.name}:
            busy[key] = busy.get(key, 0.0) + selfs[s.id]
        durations.setdefault(s.name, []).append(s.duration)
    c = tracer.counters.get

    def p50(name: str) -> float:
        return statistics.median(durations[name]) if name in durations else 0.0

    return {
        "grid.busy_s": busy.get("grid", 0.0),
        "grid.candidates": c("grid.candidates", 0),
        "grid.strategies": c("grid.strategies", 0),
        "grid.keep_ratio": _ratio(c("grid.strategies", 0), c("grid.candidates", 0)),
        "kernel.calls": c("kernel.calls", 0),
        "kernel.busy_s": busy.get("kernel", 0.0),
        "kernel.call_s_p50": p50("kernel"),
        "kernel.pairs": c("kernel.pairs", 0),
        "kernel.pairs_per_s": _ratio(c("kernel.pairs", 0), busy.get("kernel", 0.0)),
        "kernel.bytes_out": c("kernel.bytes_out", 0),
        "nash.calls": c("nash.calls", 0),
        "nash.busy_s": busy.get("nash", 0.0),
        "nash.cells_per_s": _ratio(c("nash.cells", 0), busy.get("nash", 0.0)),
        "nash.equilibria": c("nash.equilibria", 0),
        "nash.br_tie_mean": _ratio(c("nash.br_members", 0), c("nash.br_sets", 0)),
        "bayes.calls": c("bayes.calls", 0),
        "bayes.busy_s": busy.get("bayes", 0.0),
        "bayes.call_s_p50": p50("bayes"),
        "bayes.candidates": c("bayes.candidates", 0),
        "bayes.equilibria": c("bayes.equilibria", 0),
        "bayes.yield": _ratio(c("bayes.equilibria", 0), c("bayes.candidates", 0)),
        "sweep.busy_s": busy.get("sweep", 0.0),
        "output.write_s": busy.get("output.write", 0.0),
        "output.read_s": busy.get("output.read", 0.0),
        "output.bytes": c("output.bytes", 0),
        "output.rows": c("output.rows", 0),
        "svgplot.busy_s": busy.get("svgplot", 0.0),
        "svgplot.points": c("svgplot.points", 0),
        "svgplot.bytes": c("svgplot.bytes", 0),
        "catalogue.busy_s": busy.get("catalogue", 0.0),
        "process.cpu_s": cli.cpu_s,
        "trace.overhead_s": root.duration - (cli.wall_s - setup_s),
        "trace.unattributed_s": root.duration - sum(selfs[s.id] for s in layer_spans),
    }


def measure_traced(workload: Workload, seed: int, work: Path) -> dict:
    """One untraced CLI operation, then the traced in-process pipeline on the same inputs."""
    setup_s = statistics.median(harness.measure_setup(work, TRACE_SETUP_REPS))
    cli, cli_verdict = run_operation(workload, work, seed)

    traced_dir = work / "traced"
    traced_dir.mkdir()
    harness.write_inputs(workload, seed, traced_dir)
    tracer = Tracer(run_id=f"{workload.name}/seed{seed}/{os.getpid()}")
    sys.path.insert(0, str(harness.SRC))
    try:
        from perfbench.traced import run_pipeline  # imports numpy: after the thread pins

        run_pipeline(workload, traced_dir, tracer)
        traced_verdict = harness.verify(workload, traced_dir, seed, deep=False)
    except Exception:  # the mirror no longer matches the package: report it as a failure
        traced_verdict = harness.Verdict(problems=[f"traced pipeline failed:\n{traceback.format_exc()}"])
    tracer.write(work / "spans.jsonl")
    if traced_verdict.digest != cli_verdict.digest:
        traced_verdict.problems.append("traced output differs from the CLI output")
    verdicts = (cli_verdict, traced_verdict)
    return {
        "attempted": 2,
        "failed": sum(1 for v in verdicts if v.problems),
        "problems": cli_verdict.problems + traced_verdict.problems,
        "metrics": layer_metrics(tracer, cli, setup_s) if tracer.spans else dict.fromkeys(PER_LAYER, 0.0),
        "units": PER_LAYER,
        "records": cli_verdict.count,
        "digest": cli_verdict.digest,
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    work = harness.WORK / workload.name
    harness.prepare(workload, seed, work)
    result = measure_traced(workload, seed, work) if trace else measure(workload, seed, seconds, work)
    result.update(workload=workload.name, seed=seed, trace=trace, env=env)
    (work / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    print(f"{workload.name} seed={seed} trace={int(trace)}: {result['attempted']} operation(s), "
          f"{result['records']} records, digest {result['digest'][:16]}")
    for name, value in result["metrics"].items():
        print(f"  {name:<22} {value:>16.6g} {result['units'][name]}")
    fail_frac = result["failed"] / result["attempted"]
    print(f"  {'fail_frac':<22} {fail_frac:>16.6g} ratio")
    for problem in result["problems"]:
        print(f"  FAILED CHECK: {problem}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # On SIGTERM, unwind so that run_child kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    pins = harness.pin_thread_env()
    try:
        harness.WORK.mkdir(exist_ok=True)
        env = harness.probe_environment(harness.WORK)
    except harness.HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env.update(nproc=os.cpu_count(), seed=args.seed, thread_env=pins)
    print("env " + json.dumps(env, sort_keys=True))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            results.append(run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), env))
    except harness.HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def key(r: dict, metric: str) -> str:
        return metric if len(results) == 1 else f"{r['workload']}.{metric}"

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key(r, m): {"value": v, "unit": r["units"][m]}
            for r in results for m, v in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
