#!/usr/bin/env python3
"""Build the library and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to .bench_build (release
profile); build output goes to stderr. The benchmark's own stdout is
passed through, so its last line is the JSON result. Determinism records
and traces are kept under .bench_build/perfbench.
"""

import ctypes
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 175
ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout():
    """Turn address-space randomisation off in the child, as `setarch -R`
    does, so that every run places its heap and code at the same
    addresses; the run-to-run spread then leaves out layout effects.
    Where the call is refused the run goes on with randomisation."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        persona = libc.personality(0xFFFFFFFF)
        if persona != -1:
            libc.personality(persona | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def dune():
    found = shutil.which("dune")
    if found:
        return [found]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("perfbench: dune not found")


def main():
    if not os.path.isfile(os.path.join("perfbench", "dune")):
        sys.exit("perfbench: run from the repository root")
    build = subprocess.run(
        dune()
        + ["build", "--root", ".", "--profile", "release",
           "--build-dir", BUILD_DIR, "./perfbench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed (exit %d)" % build.returncode)
    args = [EXE] + sys.argv[1:] + ["--state-dir", os.path.join(BUILD_DIR, "perfbench")]
    with subprocess.Popen(args, preexec_fn=fixed_layout) as proc:
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
