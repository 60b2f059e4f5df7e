#!/usr/bin/env python3
"""Build and run the InteGrade benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload place-10k --seed 1 --seconds 20 --trace 0

The benchmark is the Go program in this directory, a module of its own that
compiles against the middleware source one directory up. This wrapper builds
it into .bench_build/ at the checkout root (the Go build and module caches
live there too, so nothing is written outside the checkout), then runs it
with the given arguments and passes its output and exit code through.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

# Wall-clock limits for the two steps; a run must end well inside 180 s
# (900 s for the first, building run).
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    return env


def build():
    go = shutil.which("go")
    if go is None:
        print("perfbench: the go toolchain is not on PATH", file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at %s; run from a full checkout" % ROOT, file=sys.stderr)
        return False
    env = go_env()
    for key in ("GOCACHE", "GOMODCACHE", "GOPATH", "GOTMPDIR", "XDG_CONFIG_HOME"):
        os.makedirs(env[key], exist_ok=True)
    try:
        proc = subprocess.run(
            [go, "build", "-trimpath", "-o", BINARY, "."],
            cwd=HERE, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return False
    return proc.returncode == 0


def main(argv):
    if not build():
        return 2
    try:
        proc = subprocess.run([BINARY] + argv, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
