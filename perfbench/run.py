#!/usr/bin/env python3
"""Build the vGPRS benchmark from source and run one workload.

Run from anywhere inside a checkout of the repository:

    python3 perfbench/run.py --workload register-small --seed 1 --seconds 10 --trace 0

The Go toolchain's build cache, module cache and configuration all live in
.bench_build/ at the repository root, so a run reads and writes nothing
outside the checkout. The arguments are passed to the benchmark unchanged;
its last line of standard output is the JSON result. A failed build exits
non-zero without printing a result.
"""

import os
import subprocess
import sys


def commit(root):
    """The checkout's git revision ("+modified" if the tree is dirty), or
    "unknown" when root is not the top of a git work tree."""

    def git(*args):
        out = subprocess.run(["git", "-C", root] + list(args),
                             capture_output=True, text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else None

    try:
        top = git("rev-parse", "--show-toplevel")
        if top is None or os.path.realpath(top) != os.path.realpath(root):
            return "unknown"
        rev = git("rev-parse", "HEAD")
        if rev is None:
            return "unknown"
        return rev + ("+modified" if git("status", "--porcelain") else "")
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    home = os.path.join(build, "home")
    tmp = os.path.join(build, "tmp")
    os.makedirs(home, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)

    env = dict(os.environ)
    env.update(
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOCACHE=os.path.join(build, "go-cache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOPROXY="off",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    ldflags = "-X main.commit=" + commit(root)
    built = subprocess.run(
        ["go", "build", "-buildvcs=false", "-ldflags", ldflags, "-o", binary, "."],
        cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
