#!/usr/bin/env python3
"""Repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds the library and the
benchmark from source into the build directory ($CARGO_TARGET_DIR, default
.bench_build), runs the benchmark's helper tests, checks that the committed
IL policy under perfbench/policy/ matches its training spec (it trains it
only when no file does), then runs one measured pass of the workload. The last line of stdout is the JSON result;
the exit code is nonzero when the build, a helper test or a correctness
check fails. Traced runs (--trace 1) also write a Chrome trace-event file
(open it in Perfetto or chrome://tracing) under <build dir>/traces/.
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
POLICY_DIR = os.path.join(HERE, "policy")
BUILD_TIMEOUT_S = 800
RUN_SLACK_S = 150


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def call(cmd, timeout, log_path=None, capture=False):
    """Runs cmd in its own process group; kills the whole group on timeout.

    Returns (exit code, stdout text when capture is set)."""
    out = open(log_path, "a") if log_path else None
    try:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, start_new_session=True, text=True,
            stdout=subprocess.PIPE if capture else out,
            stderr=out if out else None)
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            log(f"timed out after {timeout} s: {' '.join(cmd)}")
            return 124, ""
        return proc.returncode, stdout or ""
    finally:
        if out:
            out.close()


def tail(path, lines=30):
    try:
        with open(path) as f:
            return "".join(f.readlines()[-lines:])
    except OSError:
        return ""


def prepare(build_dir):
    """Builds the benchmark, runs its helper tests, finds the policy."""
    os.makedirs(build_dir, exist_ok=True)
    build_log = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        code, _ = call(step, BUILD_TIMEOUT_S, build_log)
        if code != 0:
            log("build failed:\n" + tail(build_log))
            return False
    code, _ = call([os.path.join(build_dir, "perfbench_selftest")], 120,
                   build_log)
    if code != 0:
        log("helper tests failed:\n" + tail(build_log))
        return False
    code, _ = call([os.path.join(build_dir, "perfbench"), "--prepare",
                    "--policy-dir", POLICY_DIR,
                    "--cache-dir", os.path.join(build_dir, "cache")],
                   BUILD_TIMEOUT_S, build_log)
    if code != 0:
        log("policy preparation failed:\n" + tail(build_log))
        return False
    return True


def check_contract(result, config, trace):
    """The result's metric names and units must be exactly BENCHMARK.json's."""
    expected = config["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if want != got:
        return f"metrics {sorted(got)} do not match BENCHMARK.json {sorted(want)}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys do not match the contract"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    config_path = os.path.join(ROOT, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log(f"no repository sources next to {HERE}; nothing to build")
        return 2
    with open(config_path) as f:
        config = json.load(f)
    if args.workload not in [w["name"] for w in config["workloads"]]:
        log(f"unknown workload {args.workload!r}")
        return 2

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        ok = prepare(build_dir)
        fcntl.flock(lock, fcntl.LOCK_UN)
    if not ok:
        return 3

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--policy-dir", POLICY_DIR,
           "--cache-dir", os.path.join(build_dir, "cache")]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    code, stdout = call(cmd, args.seconds * 2 + RUN_SLACK_S, capture=True)
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    problem = ("the benchmark printed no result" if result is None
               else check_contract(result, config, args.trace))
    if problem:
        print("\n".join(lines[:-1] if result is not None else lines))
        log(problem)
        return code or 5
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
