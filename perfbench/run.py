#!/usr/bin/env python3
"""Build perfbench from source, then run it with the given arguments.

Run from the repository root:

    python3 perfbench/run.py --workload dna-long --seed 42 --seconds 10 --trace 0

Everything the build and the run write stays under the build directory
($CARGO_TARGET_DIR when set, else .bench_build) of the current
directory: the Go build cache, the binary, the run's scratch store and
the traced run's spans. The exit code is the benchmark's; a failed
build exits non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def go_binary():
    found = shutil.which("go")
    if found:
        return found
    goroot = os.environ.get("GOROOT", "/usr/local/go")
    return os.path.join(goroot, "bin", "go")


def build_env(build):
    """The environment for go: caches and config inside build."""
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("TMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config")):
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env["GOENV"] = "off"
    env["GOTOOLCHAIN"] = "local"
    env["GOFLAGS"] = ""
    env["GOPROXY"] = "off"
    env["CGO_ENABLED"] = "0"
    return env


def build(src, out, build_dir):
    """go build the perfbench package in src into out; return the exit code."""
    proc = subprocess.run([go_binary(), "build", "-o", out, "."], cwd=src,
                          env=build_env(build_dir), stdout=sys.stderr)
    return proc.returncode


def main():
    root = os.getcwd()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = os.path.join(build_dir, "perfbench-bin", "perfbench")
    code = build(HERE, binary, build_dir)
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code or 1
    workdir = os.path.join(build_dir, "perfbench")
    proc = subprocess.run([binary, "--workdir", workdir] + sys.argv[1:], cwd=root)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
