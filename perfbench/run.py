#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload consensus [--seed N] [--seconds S] [--trace 0|1]

The arguments go to bench.exe unchanged; its last line of output is the
JSON result.  The build uses dune with its shared cache off, so nothing
is written outside the repository.  The exit code is the benchmark's,
or 1 if the build fails.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 175
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("perfbench: build did not finish: %s\n" % e)
        return 1
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        sys.stderr.write("perfbench: build failed\n")
        return 1
    # The traced run reads GC phases from the runtime's event ring: keep
    # its file inside the build tree, and small.  The file holds one ring
    # per possible domain (128 in OCaml 5.1): 2^11 words each make about
    # 3 MiB, below the size of bench.exe, so a file-size limit the build
    # fits under also fits the ring.  At 2^20 words the file is 1 GiB,
    # and a lower file-size limit kills the run with SIGXFSZ.
    events_dir = os.path.join("_build", "perfbench-events")
    os.makedirs(events_dir, exist_ok=True)
    env["OCAML_RUNTIME_EVENTS_DIR"] = events_dir
    env["OCAMLRUNPARAM"] = "e=11"
    try:
        return subprocess.run([EXE] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
