#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload hot_wire|cold_wire \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the copath library, the copathd
daemon and the perfbench harness from source (Release) under
$CARGO_TARGET_DIR (default .bench_build), runs one workload, and relays
the harness output. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}, with the metric names
checked against BENCHMARK.json and its units attached. See
perfbench/README.md.
"""
import argparse
import ctypes
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hot_wire", "cold_wire")
HARNESS_TIMEOUT_S = 170
PR_SET_PDEATHSIG = 1


def die_with_parent():
    """Child preexec: SIGKILL the harness if this script dies first."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_id():
    """The commit when this is a git checkout, else a hash of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            dirty = subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain", "--", "src",
                 "tools", "CMakeLists.txt", "perfbench"],
                capture_output=True, text=True).stdout.strip()
            return out.stdout.strip() + ("-dirty" if dirty else "")
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def build(build_dir):
    cmd_cfg = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
    cmd_build = ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                 "--target", "perfbench", "copathd"]
    for cmd in ([] if os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
                else [cmd_cfg]) + [cmd_build]:
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stdout[-4000:] + out.stderr[-4000:])
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    for need in ("CMakeLists.txt", "src/copath.hpp", "tools/copathd.cpp"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no copath sources here (missing %s)" % need)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = base if os.path.isabs(base) else os.path.join(ROOT, base)
    build_dir = os.path.join(base, "perfbench")
    build(build_dir)

    workdir = os.path.join(base, "work-%d" % os.getpid())
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--copathd", os.path.join(build_dir, "copath", "copathd"),
           "--workdir", os.path.relpath(workdir, ROOT),
           "--spans-dir", os.path.relpath(os.path.join(base, "spans"), ROOT),
           "--commit", source_id()]
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True, preexec_fn=die_with_parent)
        try:
            out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            fail("harness timed out after %d s" % HARNESS_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.splitlines()
    if proc.returncode not in (0, 1, 3) or not lines:
        sys.stdout.write(out)
        fail("harness exited with status %d" % proc.returncode)
    result_line = lines[-1]
    for line in lines[:-1]:
        print(line)

    # The harness prints {"metrics": {name: value}}; BENCHMARK.json is the
    # one list of metric names and their units.
    result = json.loads(result_line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result object")
    kind = "per_layer" if args.trace else "end_to_end"
    want = [m["name"] for m in spec[kind]]
    got = result["metrics"]
    if set(got) != set(want):
        fail("metrics differ from BENCHMARK.json %s: missing %s, extra %s" % (
            kind, sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    result["metrics"] = {m["name"]: {"value": got[m["name"]], "unit": m["unit"]}
                         for m in spec[kind]}
    result_line = json.dumps(result)
    print(result_line)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
