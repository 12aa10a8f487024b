#!/usr/bin/env python3
"""Builds and runs the P3Q benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest [--workload NAME]

Run from the repository root. The benchmark package (perfbench/Cargo.toml)
is built in release mode, offline, into $CARGO_TARGET_DIR (default
perfbench/target). The workload runs in a child process with P3Q_THREADS=2;
its peak resident set (ru_maxrss of that process alone) is added to the
result as peak_rss_mib. Everything the benchmark prints is passed through;
the last line is the result JSON. A traced run writes its spans (JSON lines)
to perfbench/spans/<workload>-seed<seed>.jsonl. A failed build or run exits
non-zero without printing a result.

--selftest checks determinism: two runs with one seed must report the same
counter digest, and a run with another seed a different one.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["query-stream", "actor-burst", "lazy-converge", "resolve-churn"]
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark; returns the binary's path or None."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(os.path.abspath(target), "release", "p3q-perfbench")


def run_workload(binary, workload, seed, seconds, trace, spans=None):
    """Runs one workload; returns (exit code, stdout lines, peak RSS MiB)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, P3Q_THREADS="2")
    child = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE)
    timer = threading.Timer(RUN_TIMEOUT_S, child.kill)
    timer.start()
    try:
        out = child.stdout.read().decode()
        child.stdout.close()
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    # ru_maxrss is in KiB on Linux.
    return child.returncode, out.splitlines(), usage.ru_maxrss / 1024.0


def selftest(binary, workloads):
    ok = True
    for workload in workloads:
        digests = []
        for seed in (11, 11, 12):
            code, lines, _ = run_workload(binary, workload, seed, 1, 0)
            if code != 0 or len(lines) < 2:
                print(f"{workload}: run with seed {seed} failed", file=sys.stderr)
                return False
            digests.append(json.loads(lines[-2])["report"]["counters_digest"])
        same_seed = digests[0] == digests[1]
        other_seed = digests[0] != digests[2]
        ok &= same_seed and other_seed
        print(f"{workload}: seed 11 twice -> {digests[0]} {digests[1]} "
              f"({'equal' if same_seed else 'DIFFERENT'}); seed 12 -> {digests[2]} "
              f"({'differs' if other_seed else 'SAME'})")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return 0 if selftest(binary, [args.workload] if args.workload else WORKLOADS) else 1

    spans = None
    if args.trace:
        os.makedirs(os.path.join(HERE, "spans"), exist_ok=True)
        spans = os.path.join(HERE, "spans", f"{args.workload}-seed{args.seed}.jsonl")
    code, lines, rss_mib = run_workload(
        binary, args.workload, args.seed, args.seconds, args.trace, spans)
    if code != 0 or len(lines) < 2:
        print(f"perfbench: {args.workload} exited with {code}", file=sys.stderr)
        return 1
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    report["report"]["end_to_end"]["peak_rss_mib"] = {"value": rss_mib, "unit": "MiB"}
    if args.trace == 0:
        result["metrics"]["peak_rss_mib"] = {"value": rss_mib, "unit": "MiB"}
    for line in lines[:-2]:
        print(line)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
