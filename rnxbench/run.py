#!/usr/bin/env python3
"""Build and run the rnx benchmark from the root of a source tree.

    python3 rnxbench/run.py --workload {query,serve} --seed N \
        --seconds S --trace {0,1}
    python3 rnxbench/run.py selftest          # tests of the benchmark's logic
    python3 rnxbench/run.py compare A.json B.json

A run builds the rnx library and the benchmark binary (Release) into
.bench_build, then runs one workload.  Build output goes to stderr; the
last line of stdout is the benchmark's result object.  The result, with the
run environment, is also written to .bench_out/.  `compare` prints the
metric deltas of two such result files and refuses results whose kernel
ISA differs.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"rnxbench: {msg}", file=sys.stderr, flush=True)


def build(target):
    """Configure once, then build `target`; compiler output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", target])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest():
    """SHA-256 over the library sources (path and bytes), for checkouts
    that are not git repositories."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def run_workload(args):
    if not build("rnxbench"):
        return 1
    cmd = [os.path.join(BUILD, "rnxbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", OUT, "--commit", commit(),
           "--source-digest", source_digest()]
    with subprocess.Popen(cmd) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            log(f"run exceeded {RUN_TIMEOUT_S} s")
            return 1


def selftest():
    if not build("rnxbench_tests"):
        return 1
    return subprocess.run([os.path.join(BUILD, "rnxbench_tests")]).returncode


def compare(a_path, b_path):
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    if a["env"]["isa"] != b["env"]["isa"]:
        log(f"refused: results from different kernel ISAs "
            f"({a['env']['isa']} vs {b['env']['isa']})")
        return 2
    for key in ("workload", "trace"):
        if a["env"][key] != b["env"][key]:
            log(f"refused: different {key} ({a['env'][key]} vs {b['env'][key]})")
            return 2
    ma, mb = a["result"]["metrics"], b["result"]["metrics"]
    print(f"{'metric':32s} {'A':>14s} {'B':>14s} {'B/A-1':>9s}")
    for name in ma:
        if name not in mb:
            continue
        va, vb = ma[name]["value"], mb[name]["value"]
        delta = f"{(vb / va - 1) * 100:+8.2f}%" if va else "      n/a"
        print(f"{name:32s} {va:14.6g} {vb:14.6g} {delta} {ma[name]['unit']}")
    return 0


def main(argv):
    if argv[:1] == ["selftest"]:
        return selftest()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            log("usage: run.py compare A.json B.json")
            return 2
        return compare(argv[1], argv[2])
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["query", "serve"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    return run_workload(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
