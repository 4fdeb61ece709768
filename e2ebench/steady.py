"""Steadiness check: two sets of runs per workload, spread against bounds.

    python3 e2ebench/steady.py                      # 2 sets x 10 runs, every workload
    python3 e2ebench/steady.py --runs 5 --sets 1 --workloads http-zipf-writes

Each run is ``run.py`` in its own process with its own seed (set ``k`` uses
seeds ``1000*k + 1 .. 1000*k + runs``).  For every end-to-end metric the
command prints each set's median and quartiles (``statistics.quantiles``,
n=4), the spread (third minus first quartile, over the median) against the
metric's bound from BENCHMARK.json, and how far the second set's median
moved from the first in the metric's worse direction.  It also compares
the share of failed operations between sets, which must be identical.
Exit status 1 when a spread or a median shift exceeds its bound, or the
failed shares differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    metrics = spec["end_to_end"]
    ok = True
    record = {}
    for workload in args.workloads:
        sets = []
        for k in range(1, args.sets + 1):
            results = []
            for i in range(1, args.runs + 1):
                started = time.perf_counter()
                result = run_once(workload, 1000 * k + i, args.seconds)
                elapsed = time.perf_counter() - started
                results.append(result)
                brief = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                                 for m in metrics)
                print(f"{workload} set {k} run {i}: {elapsed:.1f} s, correct={result['correct']}"
                      f" failed={result['failed']}/{result['attempted']} {brief}", flush=True)
                ok &= result["correct"]
            sets.append(results)
        record[workload] = sets
        print(f"\n== {workload}: {args.runs} runs x {args.sets} sets ==")
        print(f"{'metric':16} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}"
              f" {'bound':>6} {'shift':>7}")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            first = None
            for k, results in enumerate(sets, start=1):
                values = [r["metrics"][name]["value"] for r in results]
                median, q1, q3, share = spread(values)
                shift = ""
                if first is None:
                    first = median
                else:
                    worse = (median - first) / first
                    if metric["better"] == "higher":
                        worse = -worse
                    shift = f"{worse:+.3f}"
                    if worse > bound:
                        ok = False
                        shift += " !"
                flag = ""
                if share > bound:
                    ok, flag = False, " !"
                elif share > bound / 3:
                    flag = " (over a third of the bound)"
                print(f"{name:16} {k:>3} {median:12.4f} {q1:12.4f} {q3:12.4f} {share:7.3f}"
                      f" {bound:6.2f} {shift:>7}{flag}")
        shares = {
            k: sorted({(r["failed"], r["attempted"]) for r in results})
            for k, results in enumerate(sets, start=1)
        }
        ratios = {
            k: {round(f / a, 12) for f, a in pairs} for k, pairs in shares.items()
        }
        same = len(set().union(*ratios.values())) == 1
        ok &= same
        print(f"failed share per set: {ratios}{'' if same else '  ! differs'}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{int(time.time())}.json").write_text(json.dumps(record))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
