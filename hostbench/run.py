#!/usr/bin/env python3
r"""Builds and runs the host-time benchmark of the virtual-FPGA stack.

Usage, from the repository root:

    python3 hostbench/run.py --workload cad_verify --seed 1 \
        --seconds 30 --trace 0
    python3 hostbench/run.py --self-check

The benchmark is a CMake project of its own (hostbench/CMakeLists.txt) that
compiles the repository's libraries from src/ in Release mode into
.bench_build/hostbench (or $CARGO_TARGET_DIR/hostbench when that is set),
then runs the `hostbench` binary with the given arguments. Build output goes
to stderr, so the last line of stdout is the binary's JSON result.
"""
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = pathlib.Path(base)
    if not base.is_absolute():
        base = ROOT / base
    return base / "hostbench"


def build(out):
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "hostbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("hostbench: the repository's src/ tree is missing next to "
              f"{HERE.name}/", file=sys.stderr)
        return 2
    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"hostbench: build failed: {e}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([str(out / "hostbench")] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
