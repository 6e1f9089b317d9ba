#!/usr/bin/env python3
"""Build and run the repository's benchmark (see perfbench/README.md).

Run it from the repository root:

    python3 perfbench/run.py --workload emu-serve-98k --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload emu-serve-98k --seed 1 --seconds 12 --trace 1
    python3 perfbench/run.py --steady 10

perfbench/ is a Go module of its own that uses the repository's packages
from the parent directory. This script builds it into .bench_build/, keeping
the Go build cache and temporary files there too, then runs the binary with
the same arguments plus the source revision. The binary prints one JSON
record per measurement and the result as its last line. A failed build
exits non-zero without printing a result.
"""

import hashlib
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 800


def source_revision(root):
    """A digest of the Go sources and module files, plus the git commit when
    the tree is a git checkout, so records name the program they measured."""
    digest = hashlib.sha256()
    paths = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in filenames:
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                paths.append(os.path.relpath(os.path.join(dirpath, name), root))
    for rel in sorted(paths):
        digest.update(rel.encode() + b"\0")
        with open(os.path.join(root, rel), "rb") as f:
            digest.update(f.read() + b"\0")
    rev = "src:" + digest.hexdigest()[:16]
    if os.path.isdir(os.path.join(root, ".git")):
        git = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            rev = "git:" + git.stdout.strip() + " " + rev
    return rev


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "go-cache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    exe = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:] + ["--revision", source_revision(root)]
    return subprocess.run([exe] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
