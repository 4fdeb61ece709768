"""End-to-end ChatIYP benchmark: one workload, one run, one JSON line.

    python3 e2ebench/run.py --workload cyphereval-cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is built from ``src/`` of
that checkout and timed only from outside, through its public functions.
With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` a run alternates untraced blocks with blocks
that have spans around each layer, and reports the per-layer metrics, the
costliest questions and Cypher operators, and the tracing overhead.  The
lines before the JSON say what ran, how many operations of each type were
attempted and failed, and which checks passed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

#: Cypher operators reported one by one (the costliest on cyphereval-cold);
#: every other operator's self time is summed into ``cypher.op.other``.
OPERATORS = ("Aggregate", "Expand", "Sort", "Project", "Match", "LabelScan", "TopK",
             "HashLookup")
#: Cold set-ups per run: about half before the measured window (on the
#: in-process workloads the last of them is the write worker), the rest
#: after it, so the median samples the machine at both ends of the run.
SETUP_REPEATS = 7


def run_workload(name: str, seed: int, seconds: float, trace: bool, graph: str = "medium",
                 limit: int | None = None, setup_repeats: int = SETUP_REPEATS,
                 dump: bool = True) -> dict:
    """Run one workload; returns the result object plus report lines."""
    import spans as tracing
    import workloads as wl

    cls = wl.CLASSES[name]
    first = (setup_repeats + 1) // 2
    setups = wl.time_setups(graph, cls.serve, first - (not cls.serve))
    workload = cls(seed, graph, limit)
    lines = [f"workload={name} seed={seed} seconds={seconds} trace={int(trace)} graph={graph}"]
    try:
        if not cls.serve:
            workload.worker = wl.WriteWorker(graph, cls.cache_size)
            setups.append(workload.worker.setup)
        side = wl.Ledger()
        ledgers = [wl.Ledger(), side]
        workload.warm_up(ledgers[0])
        window = wl.Ledger()
        ledgers.append(window)
        tracer = None
        if not trace:
            workload.measure(seconds, window, tracing.NullTracer(), side)
        else:
            # Untraced and traced blocks alternate, so the machine's drift
            # over the run weighs on both sides of the tracing overhead alike.
            tracer = tracing.Tracer()
            traced = wl.Ledger()
            ledgers.append(traced)
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline:
                workload.measure(0, window, tracing.NullTracer(), side)
                with tracing.installed(tracer):
                    workload.measure(0, traced, tracer, side)
        rss_mb = wl.peak_rss_mb()  # before the checks and G-Eval allocate
        setups += wl.time_setups(graph, cls.serve, setup_repeats - first)
        workload.verify()
        geval = workload.geval_mean()
        if trace:
            metrics = layer_metrics(workload, tracer, window, traced, setups, lines)
            if dump:
                tracer.dump(HERE / "out" / f"trace-{name}-seed{seed}.jsonl")
        else:
            metrics = end_to_end_metrics(workload, window, side, setups, geval, rss_mb)
    finally:
        workload.close()

    attempted, failed = Counter(), Counter()
    for ledger in ledgers:
        attempted.update(ledger.attempted)
        failed.update(ledger.failed)
    for kind in ("ask", "cypher", "write"):
        lines.append(f"ops {kind}: attempted={attempted[kind]} failed={failed[kind]}")
    if workload.serve:
        lines.append(f"probe failures (mixed boolean/integer DISTINCT and grouping): "
                     f"{workload.probe_failures}")
    asks = window.latency_ms["ask"]
    p99 = workload.p99_ms(window)
    lines.append(f"timed window: {window.ops} ops in {len(window.blocks)} blocks, "
                 f"{len(asks)} ask samples of {len(set(window.ask_keys))} questions, "
                 f"{sum(ms >= p99 for ms in asks)} at or beyond p99")
    lines.append(f"set-up: {len(setups)} cold set-ups, totals "
                 + " ".join(f"{s['total_s']:.3f}" for s in setups) + " s")
    for check, count in sorted(workload.checked.items()):
        lines.append(f"check passed x{count}: {check}")
    for check, count in sorted(workload.refuted.items()):
        lines.append(f"CHECK FAILED x{count}: {check}")
    lines.extend(f"  {problem}" for problem in workload.problems)
    return {
        "correct": not workload.refuted,
        "attempted": sum(attempted.values()),
        "failed": sum(failed.values()),
        "metrics": metrics,
        "lines": lines,
    }


def end_to_end_metrics(workload, window, side, setups, geval: float, rss_mb: float) -> dict:
    import workloads as wl

    asks = window.latency_ms["ask"]
    both = wl.Ledger(latency_ms={
        kind: window.latency_ms[kind] + side.latency_ms[kind] for kind in window.latency_ms
    })
    values = {
        "setup_s": (statistics.median(s["total_s"] for s in setups), "s"),
        "throughput_qps": (window.qps(), "1/s"),
        "p50_ms": (wl.percentile(asks, 0.50), "ms"),
        "cpu_ms_per_op": (window.cpu_ms_per_op(), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "geval_mean": (geval, "score"),
        "write_p50_ms": (wl.percentile(both.latency_ms["write"], 0.50), "ms"),
        "cypher_p50_ms": (wl.percentile(workload.cypher_latencies(both), 0.50), "ms"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def layer_metrics(workload, tracer, untraced, traced, setups, lines) -> dict:
    import spans as tracing
    from repro.cypher import CypherError, is_read_only

    spans = tracer.spans
    ops = traced.ops
    # The ask tail, from the untraced blocks: unbounded, as the host's speed
    # states move it by more than any bound allowed (see README.md).
    values = {"p99_ms": workload.p99_ms(untraced)}
    values.update(tracing.summarize(spans, ops))
    values.update(tracing.server_overheads(spans))

    # One PROFILE pass over the read-only Cypher the window executed,
    # weighted by how often each query ran.
    operator_ms: Counter = Counter()
    for query, count in tracing.executed_queries(spans).items():
        try:
            if not is_read_only(query):
                continue
            result, _ = workload.chat.engine.profile(query)
        except CypherError:
            continue
        for operator, ms in _operator_self_ms(result.profile):
            operator_ms[operator] += ms * count
    for operator in OPERATORS:
        values[f"cypher.op.{operator}.self_ms"] = operator_ms[operator] / max(1, ops)
    values["cypher.op.other.self_ms"] = sum(
        ms for operator, ms in operator_ms.items() if operator not in OPERATORS
    ) / max(1, ops)

    values["iyp.generate_s"] = statistics.median(s["generate_s"] for s in setups)
    values["core.init_s"] = statistics.median(s["init_s"] for s in setups)
    values["server.start_s"] = statistics.median(s["start_s"] for s in setups)
    overhead = (untraced.qps() / traced.qps() - 1.0) * 100.0
    values["trace.overhead_pct"] = overhead

    lines.append(f"traced window: {ops} ops; per-layer figures are per operation")
    for name, value in values.items():
        lines.append(f"  {name} = {value:.4f}")
    lines.append("top questions by ask time in the traced window:")
    total_ask = sum(tracing.duration_ms(r) for r in spans if r[tracing.NAME] == "op.ask")
    for question, ms, asks in tracing.top_questions(spans, 5):
        lines.append(f"  {ms:9.1f} ms {100 * ms / max(total_ask, 1e-9):5.1f}%  "
                     f"x{asks}  {question}")
    lines.append("top Cypher operators by self time (PROFILE pass, weighted by runs):")
    for operator, ms in operator_ms.most_common(3):
        lines.append(f"  {ms:9.1f} ms  {operator}")
    lines.append("self time by span (the traced window's cost ledger):")
    ledger = tracing.self_time_by_name(spans)
    total = sum(ledger.values())
    for name, ms in ledger.most_common(8):
        lines.append(f"  {ms:9.1f} ms {100 * ms / max(total, 1e-9):5.1f}%  {name}")
    lines.append(f"tracing overhead: untraced {untraced.qps():.2f} op/s, traced "
                 f"{traced.qps():.2f} op/s ({overhead:+.1f}%)")

    units = {"_ms": "ms/op", "_s": "s", "_pct": "%"}
    result = {}
    for name, value in values.items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count/op")
        if name == "p99_ms" or (name.startswith("server.") and name.endswith("_ms")):
            unit = "ms"
        result[name] = {"value": value, "unit": unit}
    return result


def _operator_self_ms(tree: dict):
    yield tree["operator"], tree["self_time_ms"]
    for child in tree.get("children", ()):
        yield from _operator_self_ms(child)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end ChatIYP benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("cyphereval-cold", "entity-describe", "http-zipf-writes"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    source = HERE.parent / "src"
    try:
        import repro
    except ImportError as exc:
        print(f"e2ebench: cannot import the program from {source}: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(source.resolve()):
        print(f"e2ebench: repro was imported from {repro.__file__}, not from {source}",
              file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in result.pop("lines"):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
