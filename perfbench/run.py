#!/usr/bin/env python3
"""Campaign benchmark entry point.

    python3 perfbench/run.py --workload mine-matrix --seed 1000 --seconds 20 --trace 0

Run from the root of a source checkout. It builds perfbench (and the
repository's core library) from source into .bench_build/, fills the model
cache in .bench_build/model-cache untimed (training any missing model), then
runs the workload and passes its output through. The last stdout line is the
result JSON object. Exits non-zero without a result when the sources are not
there or the build fails. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench-cmake")
OUT_DIR = os.path.join(BUILD_ROOT, "perfbench")
MODEL_CACHE = os.path.join(BUILD_ROOT, "model-cache")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("mine-matrix", "xplat-fanout", "store-resume")


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, **kw):
    """Run a command with its stdout sent to stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              **kw).returncode == 0
    except OSError as e:
        log(f"cannot run {cmd[0]}: {e}")
        return False


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        log(f"no repository sources at {ROOT}")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return (run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                       "-DCMAKE_BUILD_TYPE=Release"])
            and run_quiet(["cmake", "--build", BUILD_DIR, "--target",
                           "perfbench", "-j", jobs]))


def git_commit():
    """HEAD of the checkout when it is its own git work tree, else 'none'."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath(ROOT):
            return "none"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        return head.stdout.strip() if head.returncode == 0 else "none"
    except OSError:
        return "none"


def source_sha256():
    """Hash of the program and benchmark sources (the checkout may not be
    a git repository, so this identifies the code measured)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        h.update(f.read())
    return h.hexdigest()


def warm(env):
    """Fill the model cache untimed; returns 1 if any model was trained."""
    proc = subprocess.run([BINARY, "--warm"], env=env, capture_output=True,
                          text=True)
    sys.stderr.write(proc.stdout + proc.stderr)
    if proc.returncode != 0:
        return None
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1])["warm_trained"] if lines else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1000)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reps", type=int, default=0,
                    help="episodes per ledger (0: the workload's default)")
    args = ap.parse_args()

    if not build():
        log("build failed")
        return 2
    os.makedirs(MODEL_CACHE, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ, CREATE_ASSETS_DIR=MODEL_CACHE)
    trained = warm(env)
    if trained is None:
        log("model cache warm-up failed")
        return 3

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reps", str(args.reps), "--out-dir", OUT_DIR,
           "--golden", os.path.join(ROOT, "bench", "golden"),
           "--commit", git_commit(), "--source", source_sha256(),
           "--warm-trained", str(trained)]
    last = ""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
            if line.strip():
                last = line.strip()
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        log(f"perfbench exited with {code}")
        return code
    try:
        result = json.loads(last)
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        ok = False
    if not ok:
        log("perfbench did not end with a result object")
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
