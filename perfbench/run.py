#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: cold_open, shared_drilldown, stream_ingest (see
perfbench/README.md). The first call configures and builds
perfbench/CMakeLists.txt (the library plus the benchmark binary) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls only
re-run the incremental build. Build output goes to stderr, so the last line
of stdout is the JSON result. Each run gets a fresh model directory
under the build directory, deleted at exit; trace mode writes its spans to
.bench_build/traces/.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_open", "shared_drilldown", "stream_ingest")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the benchmark binary; returns its path or None."""
    if not os.path.isdir(os.path.join(ROOT, "src", "subtab")):
        print("perfbench: library sources (src/subtab) not found next to "
              "perfbench/; run from a full checkout", file=sys.stderr)
        return None
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.call(["cmake", "--build", out_dir, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr) != 0:
        return None
    return os.path.join(out_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    state_dir = os.path.join(out_dir, "state-%d" % os.getpid())
    shutil.rmtree(state_dir, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", state_dir,
           "--trace-dir", os.path.join(os.path.dirname(out_dir), "traces")]
    # On SIGTERM, unwind through the finally below so the benchmark process
    # is stopped and waited for before the state directory goes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.terminate()
            proc.wait()
        shutil.rmtree(state_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
