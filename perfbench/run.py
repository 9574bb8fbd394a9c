"""The amenalyzer benchmark: one workload per invocation, driven through the CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ladder-exact --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --check        # short self-check of every workload

Each invocation starts fresh worker processes (perfbench/worker.py) with
numpy/BLAS threads capped at the number of usable CPUs.  With --trace 0 it
reports the end-to-end metrics named in BENCHMARK.json: set-up time is the
median of nine worker starts; one worker calls the CLI on every input in
turn, cycling until --seconds are used, and a pass is timed as the sum of
each input's median call.  Every time in BENCHMARK.json is given at a fixed
reference speed of the host (speed.py), so that the host's drifting speed
does not swamp the program's; the raw times are recorded and printed beside
them as raw_setup_s, raw_wall_s, raw_cpu_s and raw_max_item_s.  With
--trace 1 one worker makes a counting pass, then an untraced and a span
pass, and the per-layer metrics are reported.
Every run writes its full record (all metrics, per-input shapes,
environment) to .perfbench_out/, and prints a table followed by one JSON
line: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 9  # worker starts; the measuring worker's start is one of them
TIME_LIMIT_S = 170  # every run, its workers included, ends within this

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "amenalyzer", "__init__.py")):
        raise BenchmarkError(f"no amenalyzer sources under {os.path.join(ROOT, 'src')}")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchmarkError(f"cannot read {path}: {exc}") from exc


def worker_env():
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, mode, outdir, deadline, short=False):
    result = os.path.join(outdir, f"worker-{mode}.json")
    if os.path.exists(result):
        os.remove(result)
    cmd = [
        sys.executable, WORKER,
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--mode", mode, "--outdir", outdir, "--result", result,
    ] + (["--short"] if short else [])
    env = worker_env()
    env["PERFBENCH_SPAWN_TIME"] = repr(time.time())
    try:
        proc = subprocess.run(cmd, env=env, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchmarkError(f"{mode} worker for {args.workload} timed out") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{mode} worker for {args.workload} exited with {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def run(args, spec, short=False):
    """One benchmark run; returns (record, JSON-line dict)."""
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    outdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(outdir, exist_ok=True)
    if args.trace:
        worker = run_worker(args, "trace", outdir, deadline, short)
        passes = worker["passes"]
        metrics = {name: tuple(value_unit) for name, value_unit in worker["layer_metrics"].items()}
        digests = {worker["digest"]}
    else:
        # Set-up is timed before and after the measurement, so that its samples
        # fall in different phases of the host's drifting speed.
        half = SETUP_SAMPLES // 2
        before = [run_worker(args, "setup", outdir, deadline, short) for _ in range(half)]
        worker = run_worker(args, "measure", outdir, deadline, short)
        after = [run_worker(args, "setup", outdir, deadline, short) for _ in range(half)]
        setups = before + [worker] + after
        passes = worker["passes"]
        setup = [w["setup_s"] for w in setups]
        raw_setup = [w["raw_setup_s"] for w in setups]
        item_s, item_cpu, norm_s, norm_cpu = {}, {}, {}, {}
        for p in passes:
            for key, (wall, cpu) in p["items"].items():
                item_s.setdefault(key, []).append(wall)
                item_cpu.setdefault(key, []).append(cpu)
            for key, (wall, cpu) in p["items_norm"].items():
                norm_s.setdefault(key, []).append(wall)
                norm_cpu.setdefault(key, []).append(cpu)
        failed = sum(len(p["failures"]) for p in passes)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (sum(statistics.median(v) for v in norm_s.values()), "s"),
            "cpu_s": (sum(statistics.median(v) for v in norm_cpu.values()), "s"),
            "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
            "max_item_s": (max(statistics.median(v) for v in norm_s.values()), "s"),
            "raw_setup_s": (statistics.median(raw_setup), "s"),
            "raw_wall_s": (sum(statistics.median(v) for v in item_s.values()), "s"),
            "raw_cpu_s": (sum(statistics.median(v) for v in item_cpu.values()), "s"),
            "raw_max_item_s": (max(statistics.median(v) for v in item_s.values()), "s"),
            "host_speed": (worker["host_speed"], "x_reference"),
            "fail_ratio": (failed / sum(p["attempted"] for p in passes), "failed/attempted"),
        }
        samples = sorted(len(v) for v in item_s.values())
        digests = {w["digest"] for w in setups}
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    if len(digests) != 1:
        failures.append("workers generated different input files from one seed")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples_per_input": [1, 1] if args.trace else [samples[0], samples[-1]],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": failures,
        "input_digest": sorted(digests)[0],
        "shapes": worker["shapes"],
        "environment": worker["environment"],
        "run_s": time.monotonic() - start,
        "pass_detail": passes,
    }
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    line = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
            for m in wanted
            if m["name"] in metrics
        },
    }
    return record, line


def print_table(record):
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"samples/input={record['samples_per_input']} run_s={record['run_s']:.1f}")
    env = record["environment"]
    print("# environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    shapes = record["shapes"]
    print(f"# inputs: {len(shapes['inputs'])}  real-only share={shapes['real_only_share']:.2f}  "
          f"sparse share={shapes['sparse_share']:.2f}")
    for name, m in record["metrics"].items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    for failure in record["failures"][:10]:
        print(f"FAILED {failure}")


def self_check(spec):
    """Run every workload on its reduced input list and check the output shape."""
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=1.0, trace=trace)
            record, line = run(args, spec, short=True)
            print_table(record)
            names = set(record["metrics"]) | set(line["metrics"])
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            problems += [f"{workload}: bad metric name {n!r}" for n in names if not METRIC_NAME.fullmatch(n)]
            problems += [f"{workload}: missing {m['name']}" for m in wanted if m["name"] not in line["metrics"]]
            if not trace and record["metrics"]["fail_ratio"]["value"] != 0:
                problems.append(f"{workload}: fail_ratio {record['metrics']['fail_ratio']['value']}")
            problems += [f"{workload}: {f}" for f in record["failures"]]
    for p in problems:
        print(f"SELF-CHECK: {p}", file=sys.stderr)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None):
    try:
        spec = load_spec()
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check", action="store_true", help="short self-check of every workload")
    args = p.parse_args(argv)
    if not args.check and args.workload is None:
        p.error("--workload is required")
    try:
        if args.check:
            return self_check(spec)
        record, line = run(args, spec)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print_table(record)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
