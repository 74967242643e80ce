"""copreg benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload tabular-large --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke      # every workload at toy scale, with checks

Run from the root of a checkout; the program is imported from its ``src``.
The workload runs in child processes (``child.py``) with one BLAS thread;
set-up is timed in each, and times are per-input-set medians over their
rounds.  The last line of standard output is the result object; with
``--trace 1`` its metrics are the per-layer figures and the spans go to
``bench/out/spans-<workload>-seed<n>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from workloads import FIT_TASKS, NAMES, POOL  # noqa: E402

#: Workload processes per untraced run; each times its own set-up.
CHILDREN = 3
#: A run ends, result or not, within this many seconds.
DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "fit_s": "s",
                    "score_s": "s", "peak_rss_mb": "MB"}

BLAS_THREADS = "1"


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_child(argv, deadline):
    """Start child.py, wait for it, return its result with ``setup_s``."""
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"),
                             *argv], cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"child exceeded the {DEADLINE_S:.0f} s deadline")
    lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"child exited with {proc.returncode} and no result")
    result = json.loads(lines[-1][len("RESULT "):])
    result["setup_s"] = result["ready_at"] - started
    return result


def measure(workload, seed, seconds, trace, scale="full"):
    """Result object for one run (the benchmark's output contract).

    Untraced, the loop is split over CHILDREN processes, each timing its own
    set-up and starting at another input set: a process's speed depends on
    its memory layout, and several processes average that out.  Traced, one
    process runs the whole loop and writes one span file.
    """
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{workload}-seed{seed}-pid{os.getpid()}"
    children = 1 if trace else CHILDREN
    common = ["--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds / children), "--trace", str(trace),
              "--scale", scale, "--work-dir", os.path.join(OUT_DIR, tag)]
    if trace:
        common += ["--spans", os.path.join(
            OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")]
    results = [_run_child(common + ["--first-set", str(c * POOL // children)],
                          deadline)
               for c in range(children)]
    rounds = [r for res in results for r in res["rounds"]]
    out = {"correct": all(res["correct"] for res in results),
           "attempted": sum(res["attempted"] for res in results),
           "failed": sum(res["failed"] for res in results)}
    if trace:
        out["metrics"] = {name: {"value": value, "unit": _layer_unit(name)}
                          for name, value in results[0]["layers"].items()}
        return out
    values = {
        "setup_s": statistics.median(res["setup_s"] for res in results),
        "wall_s": _per_set(rounds, lambda t: sum(t.values())),
        "fit_s": _per_set(rounds, lambda t: sum(
            v for k, v in t.items() if k in FIT_TASKS)),
        "score_s": _per_set(rounds, lambda t: sum(
            v for k, v in t.items() if k not in FIT_TASKS)),
        "peak_rss_mb": max(res["peak_rss_mb"] for res in results),
    }
    out["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                      for k, v in values.items()}
    return out


def _per_set(rounds, value):
    """Mean over input sets of the median over that set's rounds.

    Averaging per-set medians keeps a run that happened to repeat one set
    more often from weighting it more than the others.
    """
    by_set = {}
    for r in rounds:
        by_set.setdefault(r["set"], []).append(value(r["times"]))
    return statistics.fmean(statistics.median(v) for v in by_set.values())


def _layer_unit(name):
    import tracing
    return tracing.METRICS[name][0]


def smoke(seed):
    """Every workload at toy scale, traced and untraced; checks must pass."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    ok = [w["name"] for w in spec["workloads"]] == list(NAMES)
    for name in NAMES:
        for trace in (0, 1):
            t0 = time.perf_counter()
            res = measure(name, seed, 0, trace, scale="smoke")
            good = (res["correct"] and res["failed"] == 0
                    and set(res["metrics"]) == want[trace])
            ok = ok and good
            print(f"{'ok  ' if good else 'FAIL'} {name} trace={trace} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  f"correct={res['correct']} "
                  f"({time.perf_counter() - t0:.1f} s)", flush=True)
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at toy scale with all checks")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "copreg", "cli.py")):
        print(f"no copreg sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
