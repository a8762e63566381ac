#!/usr/bin/env python3
"""Planner benchmark: build the planbench binary from this checkout's sources, run it.

  python3 planbench/run.py --workload cold_plan --seed 1 --seconds 30 --trace 0
  python3 planbench/run.py                      # every workload, one after another
  python3 planbench/run.py --trace 1            # the traced run: per-layer metrics
  python3 planbench/run.py --selftest           # the benchmark's own tests
  python3 planbench/run.py --record-digests     # re-pin expected_digests.tsv

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR/planbench
(default .bench_build/planbench) with CMAKE_BUILD_TYPE=Release. With --workload the
last stdout line is the binary's JSON result; without it a per-workload summary follows
and every result is also written to <build>/results.json. See planbench/README.md.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["cold_plan", "replan_ladder", "warm_serve"]
DIGESTS = os.path.join(HERE, "expected_digests.tsv")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print("planbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "planbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "tofu", "core", "session.h")):
        fail("no tofu sources under %s/src; run from a full checkout" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    # Keep the compiler's temporary files inside the build directory too.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail("build step %s failed: %s" % (step[:2], error))
        if done.returncode != 0:
            fail("build step %s exited %d" % (step[:2], done.returncode))


def source_id():
    """The git commit if this is a repository, plus a digest of src/ either way."""
    commit = "none"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if done.returncode == 0:
                commit = done.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for directory, subdirs, files in os.walk(src):
        subdirs.sort()
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return "%s+src:%s" % (commit, digest.hexdigest()[:12])


def run_workload(bdir, workload, seed, seconds, trace, commit, echo=True):
    """Runs one workload; returns (exit code, parsed result or None)."""
    command = [os.path.join(bdir, "planbench"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--digests", DIGESTS, "--commit", commit]
    if trace:
        command += ["--spans", os.path.join(bdir, "spans-%s-%d.jsonl" % (workload, seed))]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 1)
    sys.stderr.write(done.stderr)
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, result


def run_all(bdir, args, commit):
    results = {}
    status = 0
    for workload in WORKLOADS:
        print("# ---- %s" % workload, flush=True)
        code, result = run_workload(bdir, workload, args.seed, args.seconds, args.trace,
                                    commit, echo=True)
        results[workload] = result
        if code != 0 or result is None or not result.get("correct"):
            status = 1
    print("# ---- summary (seed %d, %s s, trace %d)" % (args.seed, args.seconds, args.trace))
    for workload in WORKLOADS:
        result = results[workload]
        if result is None:
            print("# %-14s no result" % workload)
            continue
        print("# %-14s correct=%s attempted=%d failed=%d" % (
            workload, result["correct"], result["attempted"], result["failed"]))
        for name, metric in result["metrics"].items():
            print("#   %-34s %16.6f %s" % (name, metric["value"], metric["unit"]))
    with open(os.path.join(bdir, "results.json"), "w") as handle:
        json.dump({"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                   "source": commit, "results": results}, handle, indent=1)
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()

    bdir = build_dir()
    build(bdir)
    if args.selftest:
        test = os.path.join(bdir, "planbench_test")
        if not os.path.isfile(test):
            fail("planbench_test was not built (GoogleTest not found)")
        return subprocess.run([test]).returncode
    if args.record_digests:
        return subprocess.run([os.path.join(bdir, "planbench"), "--record-digests",
                               DIGESTS]).returncode
    commit = source_id()
    if args.workload is None:
        return run_all(bdir, args, commit)
    code, result = run_workload(bdir, args.workload, args.seed, args.seconds, args.trace,
                                commit)
    if result is None and code == 0:
        code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
