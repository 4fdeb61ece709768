"""Tests of the benchmark itself: every workload at a small size on the small graph.

    python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import steady  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"] for metric in SPEC["per_layer"]}


def small_run(workload: str, trace: bool = False, seed: int = 3) -> dict:
    return run.run_workload(workload, seed, 0.2, trace, graph="small", limit=40,
                            setup_repeats=1, dump=False)


def probe_failures(result: dict) -> int:
    line = next(line for line in result["lines"] if line.startswith("probe failures"))
    return int(line.rsplit(" ", 1)[1])


# -- oracles -------------------------------------------------------------------


def test_distinct_keeps_true_apart_from_one_and_merges_one_with_one_point_zero():
    assert len(oracles.distinct_keys([1, True, 1.0, 0, False])) == 4
    assert oracles.grouped_counts([1, True, 1.0, 0, False]) == {
        ("number", 1.0): 2, ("boolean", True): 1, ("number", 0.0): 1, ("boolean", False): 1,
    }


def test_parse_rendered_inverts_render_value():
    from repro.cypher import render_value

    for value in (True, False, 0, 7, 1.0, 2.5):
        parsed = oracles.parse_rendered(render_value(value))
        assert oracles.value_key(parsed) == oracles.value_key(value)


def test_ranked_hits_is_a_stable_descending_sort_with_floor():
    matrix = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.6, 0.8]])
    hits = oracles.ranked_hits(matrix, ["a", "b", "c", "d"], np.array([1.0, 0.0]), 3, 0.0)
    assert [entry for entry, _ in hits] == ["a", "c", "d"]  # tie a/c keeps insertion order
    floor = oracles.ranked_hits(matrix, ["a", "b", "c", "d"], np.array([1.0, 0.0]), 9, 0.7)
    assert [entry for entry, _ in floor] == ["a", "c"]


def test_probe_evaluator_rejects_true_merged_with_one():
    values = [1, True, 1.0, 0, False]
    assert not oracles.probe_rows_ok(values, [{"v": "1"}, {"v": "0"}], grouped=False)
    right = [{"v": "1"}, {"v": "true"}, {"v": "0"}, {"v": "false"}]
    assert oracles.probe_rows_ok(values, right, grouped=False)
    assert not oracles.probe_rows_ok(values, [{"v": "1", "n": "3"}, {"v": "0", "n": "2"}],
                                     grouped=True)
    assert not oracles.probe_rows_ok(  # one group listed twice
        values, [{"v": "1", "n": "1"}, {"v": "1.0", "n": "1"}, {"v": "true", "n": "1"},
                 {"v": "0", "n": "1"}, {"v": "false", "n": "1"}], grouped=True)
    assert oracles.probe_rows_ok(
        values, [{"v": "1", "n": "2"}, {"v": "true", "n": "1"}, {"v": "0", "n": "1"},
                 {"v": "false", "n": "1"}], grouped=True)


def test_windowed_p99_keeps_whole_blocks():
    import workloads

    values = [float(i % 100) for i in range(2500)]
    # Blocks of 500: windows of 1000, the remainder joins the last window.
    assert workloads.windowed_p99(values, [500, 1000, 1500, 2000, 2500]) == 98.0
    assert workloads.windowed_p99(values[:300], [300]) == 98.0  # one short window


def test_question_p99_takes_each_questions_median():
    import workloads

    # 200 questions; q0-q2 are slow in every pass, and a random stall hits
    # q3 once.  The stall is not a question's median, so it is no tail.
    keys, values = [], []
    for passes in range(5):
        for q in range(200):
            keys.append(f"q{q}")
            values.append(100.0 + q if q < 3 else (500.0 if (q, passes) == (3, 2) else 1.0))
    assert workloads.question_p99(values, keys) == 100.0
    assert workloads.question_p99([3.0, 1.0, 2.0], ["a", "a", "a"]) == 2.0


def test_quartile_spread():
    median, q1, q3, share = steady.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (median, q1, q3) == (3.0, 1.5, 4.5)
    assert share == pytest.approx(1.0)


# -- workloads -----------------------------------------------------------------


@pytest.mark.parametrize("workload", ["cyphereval-cold", "entity-describe", "http-zipf-writes"])
def test_workload_runs_checks_and_reports_every_end_to_end_metric(workload):
    result = small_run(workload)
    assert result["correct"], result["lines"]
    assert set(result["metrics"]) == END_TO_END
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name
    lines = "\n".join(result["lines"])
    assert "CHECK FAILED" not in lines
    if workload == "http-zipf-writes":
        # Only the boolean/integer probes may fail: at most one per round.
        assert result["failed"] == probe_failures(result) <= result["attempted"] // 20
    else:
        assert result["failed"] == 0


def test_same_seed_same_inputs():
    import workloads

    first = workloads.EntityDescribeWorkload(5, "small", None).side_items
    again = workloads.EntityDescribeWorkload(5, "small", None).side_items
    other = workloads.EntityDescribeWorkload(6, "small", None).side_items
    assert first == again and first != other and sorted(first) == sorted(other)


@pytest.mark.parametrize("workload", ["cyphereval-cold", "http-zipf-writes"])
def test_traced_run_reports_every_per_layer_metric(workload):
    result = small_run(workload, trace=True)
    assert result["correct"], result["lines"]
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert set(metrics) == PER_LAYER
    assert metrics["rag.symbolic_ms"] > 0 and metrics["llm.calls"] > 0
    assert metrics["cypher.executions"] > 0
    report = "\n".join(result["lines"])
    assert "top questions by ask time" in report and "tracing overhead" in report
    if workload == "http-zipf-writes":
        assert metrics["graph.csr_builds"] > 0  # writes drop the snapshot
        assert metrics["serving.cache_misses"] > 0
        assert metrics["server.ask_overhead_ms"] > 0
        assert metrics["server.start_s"] > 0
    else:
        assert metrics["server.ask_overhead_ms"] == 0


def test_tracing_is_removed_after_the_traced_window():
    from repro import ChatIYP

    before = ChatIYP.ask
    small_run("cyphereval-cold", trace=True)
    assert ChatIYP.ask is before


def test_probe_wrong_answers_count_as_failed_cypher_operations():
    import spans
    import workloads

    probe = workloads.HttpZipfWritesWorkload(1, "small", 20)
    try:
        ledger = workloads.Ledger()
        for _ in range(len(workloads.PROBE_LISTS)):
            probe.rounds += 1
            probe.http_probe(ledger, spans.NullTracer())
    finally:
        probe.close()
    assert ledger.attempted["cypher"] == len(workloads.PROBE_LISTS)
    # A wrong answer is counted as a failed cypher operation, never raised;
    # nothing else fails.
    assert set(ledger.failed) <= {"cypher"}
    assert ledger.failed["cypher"] == probe.probe_failures <= len(workloads.PROBE_LISTS)


def test_cli_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "cyphereval-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
