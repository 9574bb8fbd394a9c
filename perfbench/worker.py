"""One workload in one fresh process; started by run.py, never by hand.

Set-up time runs from the moment run.py started this process (passed in
PERFBENCH_SPAWN_TIME) to the first timed call: importing the package,
building the corpus and writing the workload's inputs.  Then, by mode:

* setup   - stop there and report the set-up time, raw and at the reference
            speed of speed.py;
* measure - untraced calls, cycling over the inputs until --seconds are used,
            with the host-speed probe of speed.py running;
* trace   - one counting pass, then an untraced and a span pass, interleaved.

The result is written as JSON to --result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

import speed

# The set-up probe starts before the package is imported, so that set-up
# time too can be given at the reference speed.
SETUP_PROBE = speed.SpeedProbe(speed.SETUP_PERIOD_S)
SETUP_PROBE.start()

import numpy  # noqa: E402
from amenalyzer import _kernels, cli, corpus  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def call(item, tracer=None):
    """Run one command-line call.

    Returns (seconds, CPU seconds, exit code, stdout, perf_counter() at the
    start).  The exit code is None when the call raised; stdout then holds
    the error.
    """
    out = io.StringIO()
    if tracer is not None:
        tracer.item = item.key
    cpu = time.process_time()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(item.argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed call, recorded and counted
        rc, out = None, io.StringIO(repr(exc))
    return time.perf_counter() - start, time.process_time() - cpu, rc, out.getvalue(), start


def summarize(workload, items, calls):
    """Timings and correctness of one pass, given each item's call() result."""
    failures, counts = [], {}
    for item, (_s, _cpu, rc, stdout, _start) in zip(items, calls):
        if rc is None:
            reason = f"raised {stdout}"
        else:
            reason = workloads.check_output(workload, item, rc, stdout)
        if reason is not None:
            failures.append(f"{item.key}: {reason}")
        elif workload.name == "crosscheck-corpus":
            counts.update(workloads.crosscheck_counts(stdout))
    return {
        "wall_s": sum(c[0] for c in calls),
        "items": {item.key: [c[0], c[1]] for item, c in zip(items, calls)},
        "attempted": len(items),
        "failures": failures,
        "crosscheck_counts": counts,
    }


def measure(workload, items, seconds):
    """Untraced calls, cycling over the inputs until ``seconds`` are used.

    The first pass always completes.  After it, an input is run again only
    if its median so far still fits in the time left, so a run keeps to its
    length while every sample of every input is used.  The speed probe runs
    throughout, and each call's times are also given at the reference speed
    (speed.py).  Returns one summary per complete or partial pass, and the
    host's median speed.
    """
    samples = {item.key: [] for item in items}
    passes = []
    probe = speed.SpeedProbe()
    probe.start()
    start = time.perf_counter()
    while True:
        done, calls = [], []
        for item in items:
            left = seconds - (time.perf_counter() - start)
            if passes and statistics.median(samples[item.key]) > left:
                continue
            result = call(item)
            samples[item.key].append(result[0])
            done.append(item)
            calls.append(result)
        if not done:
            break
        passes.append((done, calls))
    probe.stop()
    summaries = []
    for done, calls in passes:
        summary = summarize(workload, done, calls)
        summary["items_norm"] = {
            item.key: list(probe.normalise(c[4], c[0], c[1])) for item, c in zip(done, calls)
        }
        summaries.append(summary)
    return summaries, probe.speed()


def trace(workload, items, spans_path):
    # The counting pass goes first, so the untraced and span passes both run
    # warm.  Those two alternate item by item, so a change in machine speed
    # over the run shifts both alike and their difference, the tracing
    # overhead, is not swamped by it.
    counter = tracing.WorkCounter()
    with counter:
        counted = summarize(workload, items, [call(item) for item in items])
    tracer = tracing.SpanTracer()
    rebinding = tracer.rebinding()
    plain_calls, traced_calls = [], []
    for item in items:
        plain_calls.append(call(item))
        with rebinding:
            traced_calls.append(call(item, tracer))
    plain = summarize(workload, items, plain_calls)
    traced = summarize(workload, items, traced_calls)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    crosscheck_counts = {}
    for passed in (counted, plain, traced):
        crosscheck_counts.update(passed["crosscheck_counts"])
    return {
        "passes": [counted, plain, traced],
        "layer_metrics": tracing.layer_metrics(
            tracer.totals(),
            counter.counts,
            counted["attempted"],
            crosscheck_counts,
            traced["wall_s"] - plain["wall_s"],
        ),
    }


def environment(root):
    nproc = len(os.sched_getaffinity(0))
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "kernel_backend": _kernels.kernel_backend(),
        "nproc": nproc,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": git_commit(root),
    }


def git_commit(root):
    """The checked-out commit, read from .git without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--short", action="store_true")
    p.add_argument("--outdir", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    corpus.corpus()
    items, digest = workloads.build_items(
        workload, args.seed, os.path.join(args.outdir, "inputs"), short=args.short
    )
    setup_s = time.time() - float(os.environ["PERFBENCH_SPAWN_TIME"])
    SETUP_PROBE.stop()
    spawned = time.perf_counter() - setup_s
    setup_norm_s, _ = SETUP_PROBE.normalise(spawned, setup_s, time.process_time())
    result = {"raw_setup_s": setup_s, "setup_s": setup_norm_s, "digest": digest}
    if args.mode == "measure":
        result["passes"], result["host_speed"] = measure(workload, items, args.seconds)
    elif args.mode == "trace":
        spans = os.path.join(args.outdir, f"spans-{args.workload}-{args.seed}.jsonl")
        result.update(trace(workload, items, spans))
    if args.mode != "setup":
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["environment"] = environment(root)
        result["shapes"] = workloads.shape_summary(
            [workloads.shape_record(a) for a in workload.algebras(args.seed)]
        )
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
