#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload eqaso-update --seed 1 --seconds 20 --trace 0

The benchmark program is the Go module in perfbench/, which uses the
repository's packages through a replace directive. This script builds it into
.bench_build/ at the repository root, keeping the Go build cache, the Go
configuration and every temporary file there as well, then runs it with the
given arguments. The program's output passes through unchanged; its last
line is the JSON result. The exit code is the program's, or 1 when the
build fails.
"""

import argparse
import os
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 850  # a cold build compiles the standard library too
RUN_LIMIT_S = 175  # a run, its build included, ends within this
FIRST_RUN_LIMIT_S = 895  # the same for a run whose build is cold
COLD_BUILD_S = 60  # a build that takes longer than this was cold


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(root, "go.mod")):
        sys.exit("perfbench: %s holds no go.mod; run from a checkout of the repository" % root)

    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"), ("GOPATH", "gopath"),
                     ("GOTMPDIR", "tmp"), ("TMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config"),
                     ("XDG_CACHE_HOME", "cache")):
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="-mod=mod", GOWORK="off", GOENV="off")

    binary = os.path.join(build, "perfbench")
    start = time.monotonic()
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                               timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: build exceeded %d s" % BUILD_TIMEOUT_S)
    if built.returncode != 0:
        sys.exit("perfbench: build failed")
    built_s = time.monotonic() - start
    # The program's watchdog ends a hung run at least 5 s before this
    # script's own limit, so the run fails with the program's goroutine dump.
    budget = (FIRST_RUN_LIMIT_S if built_s > COLD_BUILD_S else RUN_LIMIT_S) - built_s
    deadline = max(int(budget) - 5, 30)
    try:
        ran = subprocess.run([binary, "-workload", args.workload, "-seed", str(args.seed),
                              "-seconds", str(args.seconds), "-trace", str(args.trace),
                              "-deadline", "%ds" % deadline],
                             cwd=root, env=env, timeout=deadline + 5)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % (deadline + 5))
    sys.exit(ran.returncode)

if __name__ == "__main__":
    main()
