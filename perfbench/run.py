#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload solve-warm --seed 1 --seconds 10 --trace 0

The Go program in this directory is built from source into .bench_build
(or $CARGO_TARGET_DIR when set) with the Go build cache, module cache and
tool configuration kept there too, so the run writes nothing outside the
checkout. The benchmark's arguments are passed through; its exit status
is this script's. Without the repository's sources next to it the build
fails and the script exits non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys


def main() -> int:
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = os.path.abspath(build)
    binary = os.path.join(build, "perfbench", "perfbench")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOTELEMETRY="off",
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
    )
    go = shutil.which("go")
    if go is None and os.environ.get("GOROOT"):
        go = os.path.join(os.environ["GOROOT"], "bin", "go")
    if go is None:
        print("perfbench: no Go toolchain on PATH", file=sys.stderr)
        return 1
    os.makedirs(os.path.dirname(binary), exist_ok=True)
    built = subprocess.run(
        [go, "build", "-o", binary, "."],
        cwd=bench_dir,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    out = os.path.join(build, "perfbench")
    ran = subprocess.run([binary, "--out", out] + sys.argv[1:], cwd=root)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
