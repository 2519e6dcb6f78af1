#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--tiny]

Run from the repository root. The first call configures and builds the
optimized `perfbench` binary (the parhc library from ../src plus
perfbench/src) into $CARGO_TARGET_DIR, or .bench_build when that is unset;
later calls only bring the build up to date. The binary's output is passed
through: its last line is the result object
{"correct", "attempted", "failed", "metrics"}. Build output goes to stderr.
Spans of traced runs are written to <build dir>/spans/.
"""
import argparse
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("varden-2d", "embed-64d")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else pathlib.Path.cwd() / d


def build(out):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no parhc sources next to {HERE.name}/ (expected {ROOT}/src)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    cache = out / "CMakeCache.txt"
    if cache.is_file() and \
            f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in cache.read_text():
        shutil.rmtree(out)  # configured for another checkout
    cmds = []
    if not cache.is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmds.append(["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release", *gen])
    jobs = str(os.cpu_count() or 1)
    cmds.append(["cmake", "--build", str(out), "--target", "perfbench",
                 "-j", jobs])
    for cmd in cmds:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return out / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="self-check sizes: every workload in seconds")
    a = ap.parse_args()

    out = build_dir()
    binary = build(out / "perfbench")
    spans = out / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--spans-dir", str(spans)]
    if a.tiny:
        cmd.append("--tiny")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{a.workload} did not finish within {RUN_TIMEOUT_S} s")
    if r.returncode != 0:
        fail(f"{a.workload} exited with code {r.returncode}")
    sys.stdout.write(r.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
