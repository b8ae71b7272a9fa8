#!/usr/bin/env python3
"""Builds the PSKETCH CEGIS benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload smodel --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) built
against the repository's crates by path, into $CARGO_TARGET_DIR
(default: .bench_build). Each workload runs in a process of its own, so
its peak memory is its own. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the exit
code is 0 only when every output was correct.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["smodel", "sat_check"]
# Each workload must end within this many seconds beyond --seconds.
SLACK_SECONDS = 120


def die(message, code=2):
    print(message, file=sys.stderr)
    sys.exit(code)


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        die("perfbench: the repository's crates are missing; nothing to build")
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    # Cargo's output goes to stderr: stdout carries only results.
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        die("perfbench: build failed")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")


def run_one(exe, env, args, workload):
    """Runs one workload; returns (exit code, stdout)."""
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit()]
    if args.trace:
        spans = os.path.join(env["CARGO_TARGET_DIR"], f"spans-{workload}-{args.seed}.jsonl")
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + SLACK_SECONDS)
    except subprocess.TimeoutExpired:
        die(f"perfbench: workload {workload} overran its time", 1)
    return proc.returncode, proc.stdout


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("perfbench: --seed must be >= 0 and --seconds >= 1")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.abspath(target))
    exe = build(env)

    if args.workload != "all":
        code, out = run_one(exe, env, args, args.workload)
        sys.stdout.write(out)
        sys.exit(code)

    # Every workload, each in its own process; metrics are prefixed
    # with the workload's name.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, out = run_one(exe, env, args, workload)
        lines = out.splitlines()
        if not lines or not lines[-1].startswith("{"):
            sys.stdout.write(out)
            die(f"perfbench: workload {workload} printed no result", 1)
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        worst = worst or code
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total))
    sys.exit(worst)


if __name__ == "__main__":
    main()
