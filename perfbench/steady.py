"""Steadiness check: two interleaved sets of runs per workload, compared.

    python3 perfbench/steady.py --runs 10 --first-seed 1

Reads the command, the run length, the workloads and the end-to-end bounds
from ``BENCHMARK.json``.  For each workload, set A runs seeds
``first_seed .. first_seed+runs-1`` and set B the next ``runs`` seeds, one
A run and one B run at a time, alternating which goes first.  For each
end-to-end metric and set it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, which is
the distance between the quartiles as a share of the median.  A metric
agrees when each set's spread is within its bound (``setup_s`` excepted) and
set B's median is not worse than set A's by more than the bound; the failed
share must be the same in both sets.  Raw results go to
``.perfbench_results/steady-<time>.json``.  Exits 1 when any check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _one_run(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["seed"], result["wall_s"] = seed, wall
    return result


def _summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def compare(spec, workload, sets) -> bool:
    ok = True
    shares = []
    for name in ("A", "B"):
        runs = sets[name]
        shares.append(sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs))
        if not all(r["correct"] for r in runs):
            print(f"  {workload} set {name}: a run reported correct=false")
            ok = False
    if shares[0] != shares[1]:
        print(f"  {workload}: failed share differs, A {shares[0]} vs B {shares[1]}")
        ok = False
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a, b = (_summary([r["metrics"][name]["value"] for r in sets[s]]) for s in ("A", "B"))
        sign = 1 if metric["better"] == "lower" else -1
        worse = sign * (b["median"] - a["median"]) / a["median"]
        spread_ok = name == "setup_s" or max(a["spread"], b["spread"]) <= bound
        verdict = "ok" if spread_ok and worse <= bound else "FAIL"
        if name != "setup_s" and max(a["spread"], b["spread"]) > bound / 3:
            verdict += " (spread above a third of the bound)"
        ok &= verdict != "FAIL"
        print(f"  {workload:13s} {name:12s} A {a['median']:.5g} [{a['q1']:.5g}, {a['q3']:.5g}]"
              f" spread {a['spread']:6.2%} | B {b['median']:.5g} [{b['q1']:.5g}, {b['q3']:.5g}]"
              f" spread {b['spread']:6.2%} | B worse by {worse:+6.2%}"
              f" (bound {bound:.0%}) {verdict}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]

    raw = {n: {"A": [], "B": []} for n in names}
    for i in range(args.runs):
        for workload in names:
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for name in order:
                seed = args.first_seed + i + (args.runs if name == "B" else 0)
                result = _one_run(spec["command"], workload, seed, spec["run_seconds"])
                raw[workload][name].append(result)
                print(f"[{i + 1}/{args.runs}] {workload} set {name} seed {seed}: "
                      f"run_s {result['metrics']['run_s']['value']:.3f}, "
                      f"wall {result['wall_s']:.1f} s", file=sys.stderr, flush=True)

    print(f"two sets of {args.runs} runs per workload, run_seconds {spec['run_seconds']}")
    ok = all([compare(spec, w, raw[w]) for w in names])
    out = ROOT / ".perfbench_results"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(raw, indent=1))
    print(f"{'all sets agree' if ok else 'SETS DISAGREE'}; raw results in {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
