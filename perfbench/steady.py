"""Steadiness check of the benchmark: repeated runs over several seeds.

Usage, from the repository root::

    python3 perfbench/steady.py                  # every workload, seeds 1-10
    python3 perfbench/steady.py --workloads solve-hard --seeds 1-5

For each workload it makes two sets of runs of ``perfbench/run.py
--trace 0``, one run per seed, one at a time, each ``run_seconds`` from
``BENCHMARK.json`` long.  Per set it prints each end-to-end metric's
median and its spread, the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
a third of the metric's bound, and then how far the second set's median
moved from the first.  Then it runs ``--trace 1`` twice on each of seeds
1 and 2 and requires the exact counts, and on ``solve-hard`` the sweeps of
each instance, to be equal.

The check passes when every output is correct, every spread but that of
``setup_s`` is within its metric's bound, every median moved by no more
than its bound either way, both sets failed the same number of
operations (out of the same number attempted, where any failed), and
the exact counts repeat.  ``setup_s`` is
the median of a few set-ups per run, so its spread is printed and
flagged but, as in the benchmark's acceptance rule, only its move
between the sets is gated.  The full results go to
``.perfbench/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
EXACT_SEEDS = (1, 2)
EXACT = (
    "ingest.records", "canonical_scaling.sweeps", "canonical_scaling.budget_hits",
    "support.witness_calls", "properties.fits", "cli.artifact_bytes",
)


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run in a child process; its report record and result line."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    *_, report, result = proc.stdout.strip().splitlines()
    return json.loads(report), json.loads(result)


def spread(values: list[float]) -> tuple[float, float]:
    """Median and interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '1,4,7'")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = _seeds(args.seeds)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results: dict = {"seconds": seconds, "seeds": seeds, "runs": [], "exact": []}
    ok = True
    for workload in workloads:
        medians: dict[str, list[float]] = {}
        tallies = []  # (attempted, failed) over each set
        for set_no in range(SETS):
            values: dict[str, list[float]] = {}
            tally = [0, 0]
            for seed in seeds:
                began = time.perf_counter()
                report, result = run_once(workload, seed, seconds, 0)
                wall = time.perf_counter() - began
                results["runs"].append({"workload": workload, "set": set_no, "seed": seed,
                                        "wall_s": wall, "report": report, "result": result})
                tally[0] += result["attempted"]
                tally[1] += result["failed"]
                if not result["correct"]:
                    ok = False
                    print(f"{workload} seed {seed}: incorrect output")
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            tallies.append(tuple(tally))
            for name, vals in values.items():
                median, share = spread(vals)
                medians.setdefault(name, []).append(median)
                target = bounds[name] / 3
                flag = "" if share < target else "  WIDE"
                print(f"{workload:16} set {set_no} {name:12} median {median:12.6g} "
                      f"spread {share:7.4f} (a third of bound {target:.4f}){flag}")
                if name != "setup_s":  # only setup_s's move is gated, below
                    ok &= share <= bounds[name]
        # failures must repeat exactly; where there are any, so must the attempts
        agree = tallies[0][1] == tallies[1][1] and (tallies[0] == tallies[1] or not tallies[0][1])
        ok &= agree
        print(f"{workload:16} failed of attempted per set: "
              f"{', '.join(f'{f} of {a}' for a, f in tallies)}{'' if agree else '  DIFFER'}")
        for name, (first, second) in medians.items():
            moved = (second - first) / first
            print(f"{workload:16} {name:12} second median moved {moved:+.4f} "
                  f"(bound {bounds[name]})")
            ok &= abs(moved) <= bounds[name]
        for seed in EXACT_SEEDS:
            counts = []
            for _ in range(2):
                report, result = run_once(workload, seed, seconds, 1)
                counts.append({k: result["metrics"][k]["value"] for k in EXACT})
                counts[-1].update((k, f["value"]) for k, f in report["figures"].items()
                                  if k.startswith("sweeps."))  # solve-hard, per instance
            same = counts[0] == counts[1]
            ok &= same
            results["exact"].append({"workload": workload, "seed": seed, "counts": counts})
            print(f"{workload:16} seed {seed} exact counts {'equal' if same else 'DIFFER'}: {counts[0]}")

    out = ROOT / ".perfbench" / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print(f"{'steady' if ok else 'NOT steady'}; runs in {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
