#!/usr/bin/env python3
"""Build the ASPEN benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload e6_sw_gemm [--seed 1] [--seconds 10] [--trace 0]

Run from the root of a checkout. The first run configures and builds a
Release tree in $CARGO_TARGET_DIR (default .bench_build); later runs only
re-check it. The last line of standard output is the benchmark's JSON
result; a line before it records the set-up facts (compiler, build type,
commit or source digest, nproc). Exits non-zero, printing no result, when
the build or the run fails.
"""
import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

WORKLOADS = ["e6_sw_gemm", "e6_dma_stream", "e7_campaign", "nn_digits_b1"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    """Configure (first time) and build; build logs go to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "aspen_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def cache_value(out, key):
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(re.escape(key) + r":[A-Z]+=(.*)", line.strip())
                if m:
                    return m.group(1)
    except OSError:
        pass
    return ""


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return "commit " + r.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sha256 " + h.hexdigest()[:16]


def facts(out):
    compiler = cache_value(out, "CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        r = subprocess.run([compiler, "--version"], capture_output=True,
                           text=True)
        version = r.stdout.splitlines()[0] if r.stdout else ""
    return {
        "compiler": version or compiler,
        "build_type": cache_value(out, "CMAKE_BUILD_TYPE"),
        "source": source_id(),
        "nproc": os.cpu_count(),
        "env": {v: os.environ.get(v, "unset") for v in
                ("ASPEN_BLOCK_TIER", "ASPEN_BLOCK_CONSTFOLD",
                 "ASPEN_BENCH_SMOKE")},
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()

    out = build_dir()
    if not build(out):
        print("run.py: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(out, "aspen_perfbench")
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    text = r.stdout.decode()
    if r.returncode != 0:
        sys.stderr.write(text)
        print("run.py: benchmark exited with %d" % r.returncode,
              file=sys.stderr)
        return 1
    lines = text.rstrip("\n").splitlines()
    print("setup_facts " + json.dumps(facts(out), sort_keys=True))
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
