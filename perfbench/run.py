"""Benchmark of wsdenoise: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload ulf-short --seed 1 --seconds 30 --trace 0

Builds nothing: it imports the package from ``src/`` of the checkout it sits
in, and fails (exit 2, no result) when that is missing.  One process runs one
workload with one compute thread.  A run repeats whole rounds; a round
builds fresh datasets (timed as ``setup_s``) and runs the workload's fixed
list of operations on them (timed as ``run_s``).  Another round starts
while at least half of it is expected to fit in ``--seconds``, so a run
lasts about ``--seconds``.  The medians over rounds are reported; set-up is
repeated after the window until there are ``SETUP_SAMPLES`` samples and
``SETUP_MIN_S`` of them in all, so a cheap set-up is still timed over
enough work.  Outputs are checked after every round,
outside the timed regions.

With ``--trace 1`` one untraced round runs first; then wrappers are
installed around the package's public functions and the traced rounds fill
the window.  The per-layer metrics are the traced rounds' mean, and
``trace.overhead_s`` is the traced median ``run_s`` minus the untraced one.
Spans are written to ``.perfbench_results/`` at the end.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# one compute thread, fixed before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_SAMPLES = 3
SETUP_MIN_S = 3.0


def _round(wl, out_root, tracer=None, rnd=0):
    """One round: build, run, check.  Returns a dict of its measurements."""
    out_dir = tempfile.mkdtemp(dir=out_root)
    try:
        if tracer is not None:
            tracer.start_round(rnd)
        t0 = time.perf_counter()
        data = wl.build()
        t1 = time.perf_counter()
        outputs = wl.run(data, out_dir)
        t2 = time.perf_counter()
        layers = tracer.round_metrics(wl.distinct_docs) if tracer is not None else None
        errors = [err for _, err in outputs if err is not None]
        problems, label_acc = wl.check(data, outputs)
    finally:
        shutil.rmtree(out_dir)  # every round writes into a fresh directory
    return {"setup_s": t1 - t0, "run_s": t2 - t1, "errors": errors,
            "problems": problems, "label_acc": label_acc, "layers": layers}


def _window(wl, out_root, seconds, tracer=None):
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(_round(wl, out_root, tracer, len(rounds)))
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(rounds) >= seconds:
            return rounds


def measure(args, out_root):
    import workloads  # imports wsdenoise, so only once src/ is on the path

    wl = workloads.WORKLOADS[args.workload](args.seed, out_root)
    untraced = None
    tracer = None
    if args.trace:
        import spans
        untraced = _round(wl, out_root)
        tracer = spans.Tracer()
        tracer.install()
    rounds = _window(wl, out_root, args.seconds, tracer)
    everything = rounds + ([untraced] if untraced else [])

    accs = {r["label_acc"] for r in everything if not r["errors"]}
    problems = sorted({p for r in everything for p in r["problems"]})
    if len(accs) > 1:
        problems.append(f"label_acc differs between rounds of identical input: {sorted(accs)}")
    for msg in problems + [e for r in everything for e in r["errors"]]:
        print(f"{wl.name}: {msg}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": wl.ops * len(everything),
        "failed": sum(len(r["errors"]) for r in everything),
    }

    run_s = statistics.median(r["run_s"] for r in rounds)
    if tracer is None:
        setup = [r["setup_s"] for r in rounds]
        while len(setup) < SETUP_SAMPLES or sum(setup) < SETUP_MIN_S:
            t0 = time.perf_counter()
            wl.build()
            setup.append(time.perf_counter() - t0)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "run_s": (run_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "label_acc": (accs.pop() if len(accs) == 1 else float("nan"), "share"),
        }
    else:
        layer = {name: statistics.fmean(r["layers"][name] for r in rounds)
                 for name in rounds[0]["layers"]}
        layer["trace.overhead_s"] = run_s - untraced["run_s"]
        print(f"{wl.name} untraced run_s = {untraced['run_s']:.6g} s, "
              f"traced run_s = {run_s:.6g} s")
        metrics = {name: (layer[name], spans.UNITS[name]) for name in spans.PER_LAYER}
        results_dir = ROOT / ".perfbench_results"
        results_dir.mkdir(exist_ok=True)
        tracer.dump(results_dir / f"spans-{wl.name}-seed{args.seed}.jsonl")

    for name, (value, unit) in metrics.items():
        print(f"{wl.name} {name} = {value:.6g} {unit}  ({len(rounds)} rounds)")
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["ulf-short", "wscl-longdoc", "grid-wscw"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "wsdenoise" / "__init__.py").is_file():
        print(f"error: no wsdenoise package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    out_root = tempfile.mkdtemp(dir=work_root)
    try:
        result = measure(args, out_root)
    finally:
        shutil.rmtree(out_root)
        try:
            work_root.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
