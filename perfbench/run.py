#!/usr/bin/env python3
"""Builds the perfbench harness and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload corpus_pipeline --seed 1 --seconds 20 --trace 0

The harness is configured and built in Release under .bench_build/ on
first use (later runs rebuild only what changed). The last line of
standard output is the result: {"correct", "attempted", "failed",
"metrics"}. With --trace 1 the metrics are the per-layer ones and the
benchmark's spans are written as Chrome-trace JSON under
.bench_build/perfbench/traces/. Progress and build output go to stderr.

With --trace 0, setup_s is the best of SETUP_SAMPLES cold set-ups, each
timed in a fresh harness process from its spawn: the measured run's own,
and set-up-only runs spread evenly over its measuring time. The host's
slow phases last seconds, so one ~10 ms sample, or several taken back to
back, lands in whichever phase is current. The measured process is
stopped (SIGSTOP) while a set-up-only run takes its sample, so neither
slows the other; the per-call best times discard the calls a stop lands
in.
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
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD, "perfbench")
WORKLOADS = ("corpus_pipeline", "schedule_sweep", "serve_stream")
# The harness processes together must end well inside the 180 s a run may
# take.
RUN_TIMEOUT_S = 170
SETUP_SAMPLES = 8


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("repository sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def trace_is_strict_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f, parse_constant=reject_constant)
        return isinstance(doc.get("traceEvents"), list) and len(doc["traceEvents"]) > 0
    except (OSError, ValueError) as e:
        print(f"perfbench: trace {path} is not strict JSON: {e}", file=sys.stderr)
        return False


def start_harness(cmd, env):
    spawn_ns = time.monotonic_ns()  # CLOCK_MONOTONIC, as the harness reads it
    return subprocess.Popen(cmd + ["--spawn-ns", str(spawn_ns)], stdout=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)


def finish_harness(proc, out, workload):
    """Checks one ended harness process and returns its parsed result line."""
    if proc.returncode != 0:
        fail(f"{workload} exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        fail("no result line")
    return json.loads(lines[-1])


def run_harness(cmd, env, deadline, workload, sample_every=None, sample=None):
    """Runs one harness process to its end and returns its result. While it
    runs, stops it every sample_every seconds to call sample(), if given.
    On any failure the process is killed and reaped before this returns."""
    proc = start_harness(cmd, env)
    try:
        next_sample = time.monotonic() + (sample_every or 0)
        while True:
            wait_until = deadline if sample is None else min(deadline, next_sample)
            try:
                out, _ = proc.communicate(timeout=max(0.01, wait_until - time.monotonic()))
                break
            except subprocess.TimeoutExpired:
                if time.monotonic() >= deadline:
                    fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
                if sample is not None and time.monotonic() >= next_sample:
                    os.kill(proc.pid, signal.SIGSTOP)
                    # Waits for the stop without reaping: an exit in between
                    # stays for communicate() to collect.
                    os.waitid(os.P_PID, proc.pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
                    try:
                        sample()
                    finally:
                        os.kill(proc.pid, signal.SIGCONT)
                    next_sample += sample_every
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return finish_harness(proc, out, workload)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    trace_out = os.path.join(BUILD, "traces", f"{args.workload}-{args.seed}.json")
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--inputs", os.path.join(HERE, "inputs"),
           "--spec", os.path.join(ROOT, "BENCHMARK.json"), "--trace-out", trace_out]
    if args.trace:
        os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    # The measured configuration is the program's default: no DRBML_* knob
    # leaks in from the caller's environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DRBML_")}
    deadline = time.monotonic() + RUN_TIMEOUT_S

    setups = []

    def sample_setup():
        if len(setups) + 1 < SETUP_SAMPLES:
            r = run_harness(cmd + ["--setup-only", "1"], env, deadline, args.workload)
            setups.append(r["metrics"]["setup_s"]["value"])

    if args.trace:
        result = run_harness(cmd, env, deadline, args.workload)
    else:
        result = run_harness(cmd, env, deadline, args.workload,
                             args.seconds / SETUP_SAMPLES, sample_setup)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has unexpected keys")
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    if setups:
        setup = result["metrics"]["setup_s"]
        setup["value"] = min(setups + [setup["value"]])
        print(f"perfbench: setup_s is the best of {len(setups) + 1} cold set-ups",
              file=sys.stderr)
    if args.trace and not trace_is_strict_json(trace_out):
        result["correct"] = False
    print(json.dumps(result))


if __name__ == "__main__":
    main()
