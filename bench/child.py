"""One workload in one process: set up, run rounds of CLI commands, check.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``
and BLAS threads fixed.  Round i runs input set ``(first_set + i) mod POOL``.
Prints one line ``RESULT <json>`` on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--first-set", type=int, default=0)
    args = ap.parse_args()

    # -- set-up: the program's imports and the seeded inputs ---------------------
    from copreg import cli

    import workloads

    pool = workloads.prepare_pool(args.workload, args.seed, args.work_dir,
                                  scale=args.scale)
    ready_at = time.monotonic()

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(args.workload)
        tracing.install(tracer)

    # -- closed loop of whole rounds ----------------------------------------------
    rounds = []
    attempted = failed = 0
    loop_start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.round = len(rounds)
        set_id = (args.first_set + len(rounds)) % len(pool)
        wl = pool[set_id]
        times = {}
        for task, argv in wl.commands:
            attempted += 1
            t0 = time.perf_counter()
            span = (contextlib.nullcontext() if tracer is None
                    else tracer.span(f"cli.{task}"))
            try:
                with span:
                    rc = cli.main(argv)
            except Exception:
                traceback.print_exc()
                rc = -1
            times[task] = times.get(task, 0.0) + time.perf_counter() - t0
            if rc != 0:
                print(f"{task} exited with {rc}", file=sys.stderr)
                failed += 1
        rounds.append({"set": set_id, "times": times})
        elapsed = time.perf_counter() - loop_start
        last = sum(times.values())
        if elapsed + last > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.active = False  # the checks below call into copreg too

    # -- correctness, outside the timed loop --------------------------------------
    import checks
    try:
        results = []
        if failed == 0:
            for k in sorted({r["set"] for r in rounds}):
                results += [(f"set{k}.{name}", ok, detail)
                            for name, ok, detail in checks.run(pool[k])]
    except Exception:
        traceback.print_exc()
        results = [("checks_ran", False, "a check raised")]
    for name, ok, detail in results:
        print(f"[{'ok' if ok else 'FAIL'}] {args.workload} {name}: {detail}",
              file=sys.stderr)
    correct = bool(results) and all(ok for _, ok, _ in results)

    payload = {"ready_at": ready_at, "rounds": rounds,
               "attempted": attempted, "failed": failed, "correct": correct,
               "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        payload["layers"] = tracing.layer_metrics(tracer, len(rounds))
        if args.spans:
            tracer.write(args.spans)
    shutil.rmtree(args.work_dir, ignore_errors=True)
    print("RESULT " + json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
