#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds `rcm-order` (from the repository root) and the `perfbench` package
(this directory) from source into `$CARGO_TARGET_DIR` (default
`.bench_build`), runs the workload, and prints one JSON object as the last
line of standard output: `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json; with
`--trace 1` a separate traced run reports the per-layer ones, merged from
`perfbench` (stable public surface) and `perfbench-probe` (RcmRuntime
driver and pool phases). A provenance line precedes the result. Generated
inputs, request outputs, span files and result copies go to
`<target>/perfbench-work`.

`--self-test` runs every workload at minimal length and checks that each
named metric is emitted with its unit, that a deliberately corrupted
permutation is counted as failed, and that `service_stream` flags a run
whose generator lag exceeds its limit.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["cli_mtx", "engine_shapes", "service_stream"]
# Each run must end within 180 s of its start (900 s when it builds).
RUN_LIMIT_S = 175.0


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build(target, probe):
    """Build rcm-order and the benchmark binaries; exits on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    bins = ["--bin", "perfbench"] + (["--bin", "perfbench-probe"] if probe else [])
    steps = [
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "--bin", "rcm-order"],
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")] + bins,
    ]
    for step in steps:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + step
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def text_of(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_binary(cmd, deadline):
    """Run one benchmark binary in its own process group; returns its
    stdout lines, or exits (killing the group) when it fails or overruns."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("run.py: %s overran its time limit" % os.path.basename(cmd[0]))
    if proc.returncode != 0:
        sys.exit("run.py: %s exited with %d" % (os.path.basename(cmd[0]), proc.returncode))
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        sys.exit("run.py: %s printed no result" % os.path.basename(cmd[0]))
    return lines


def run(args):
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("run.py: no repository around %s to build" % HERE)
    target = target_dir()
    build(target, args.trace == 1)
    deadline = time.monotonic() + RUN_LIMIT_S
    work = os.path.join(target, "perfbench-work")
    os.makedirs(work, exist_ok=True)
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = text_of(["git", "-C", ROOT, "rev-parse", "HEAD"])
    common = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--rcm-order", os.path.join(target, "release", "rcm-order"),
        "--work", work, "--rustc", text_of(["rustc", "--version"]), "--commit", commit,
        "--corrupt", str(args.corrupt), "--lag-limit-ms", str(args.lag_limit_ms),
    ]
    binaries = ["perfbench"] + (["perfbench-probe"] if args.trace == 1 else [])
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in binaries:
        lines = run_binary([os.path.join(target, "release", name)] + common, deadline)
        for line in lines[:-1]:
            print(line)
        part = json.loads(lines[-1])
        result["correct"] = result["correct"] and part["correct"]
        result["attempted"] += part["attempted"]
        result["failed"] += part["failed"]
        result["metrics"].update(part["metrics"])
    if args.trace == 1:
        # Failures of the traced run's own requests, as a share.
        failed_frac = result["failed"] / max(1, result["attempted"])
        result["metrics"]["failed_frac"] = {"value": failed_frac, "unit": "fraction"}
    print(json.dumps(result))


def self_test(args):
    """Minimal-length runs of every workload, checked against BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def attempt(workload, trace, extra=()):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", "7",
               "--seconds", "1", "--trace", str(trace)] + list(extra)
        proc = subprocess.run(cmd, capture_output=True, text=True)
        last = proc.stdout.strip().splitlines()[-1:] if proc.returncode == 0 else []
        return (json.loads(last[0]) if last else None), proc.stderr

    def expect(ok, what):
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            result, err = attempt(workload, trace)
            what = "%s --trace %d" % (workload, trace)
            if result is None:
                expect(False, what + ": no result\n" + err)
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            missing = sorted(set(units[trace]) - set(got))
            extra = sorted(set(got) - set(units[trace]))
            wrong = sorted(k for k in units[trace] if k in got and got[k] != units[trace][k])
            expect(not missing and not extra and not wrong,
                   "%s emits every metric with its unit (missing %s, undeclared %s, wrong unit %s)"
                   % (what, missing, extra, wrong))
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   what + " is correct with no failed requests")
    for workload in ("cli_mtx", "engine_shapes"):
        result, _ = attempt(workload, 0, ["--corrupt", "1"])
        expect(result is not None and result["failed"] >= 1 and not result["correct"],
               workload + " counts a corrupted permutation as failed")
    result, _ = attempt("engine_shapes", 1, ["--corrupt", "1"])
    expect(result is not None and result["metrics"].get("failed_frac", {}).get("value", 0) > 0,
           "a corrupted permutation shows in the traced run's failed_frac")
    result, err = attempt("service_stream", 0, ["--lag-limit-ms", "0"])
    expect(result is not None and not result["correct"] and "generator lag" in err,
           "service_stream flags a run whose generator lag exceeds its limit")
    print("self-test: %d failure(s)" % len(failures))
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--corrupt", type=int, choices=[0, 1], default=0, help=argparse.SUPPRESS)
    p.add_argument("--lag-limit-ms", type=float, default=50.0, help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.self_test:
        sys.exit(self_test(args))
    if args.workload is None:
        p.error("--workload is required")
    run(args)


if __name__ == "__main__":
    main()
