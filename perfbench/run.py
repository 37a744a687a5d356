#!/usr/bin/env python3
"""Build and run the p4assert benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 40 --trace 0

It builds the benchmark program (this directory's Go module) and p4served
from source into .bench_build/ (or $CARGO_TARGET_DIR), keeping the Go build
cache there too, then runs one workload in a fresh process. The in-process
workloads (explore, rules, solve) run at GOMAXPROCS=1, so the garbage
collector shares the verifier's core; serve leaves GOMAXPROCS at its
default (nproc) for the daemon and its clients. The program's last line of
standard output is the JSON result. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
IN_PROCESS = ("explore", "rules", "solve")
WORKLOADS = IN_PROCESS + ("serve",)
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def find_go():
    go = shutil.which("go")
    if go:
        return go
    goroot = os.environ.get("GOROOT")
    if goroot and os.path.exists(os.path.join(goroot, "bin", "go")):
        return os.path.join(goroot, "bin", "go")
    fail("no go toolchain on PATH")


def revision():
    """The git commit of the checkout, else a digest of its Go sources."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def build(go, out_dir):
    """Builds the benchmark program and p4served; returns their paths."""
    env = dict(os.environ)
    env.pop("GOMAXPROCS", None)
    env.update(
        GOCACHE=os.path.join(out_dir, "gocache"),
        GOPATH=os.path.join(out_dir, "gopath"),
        GOMODCACHE=os.path.join(out_dir, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(out_dir, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly -buildvcs=false",
    )
    bins = {}
    for name, pkg in (("perfbench", "."), ("p4served", "p4assert/cmd/p4served")):
        bins[name] = os.path.join(out_dir, "bin", name)
        res = subprocess.run([go, "build", "-o", bins[name], pkg], cwd=HERE, env=env,
                             stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            fail("building %s failed" % name)
    return bins


def stop_group(pgid):
    """Kills whatever is left of the program's process group and waits."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("go.mod", os.path.join("cmd", "p4served", "main.go")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s not found: run from a full checkout of the repository" % need)

    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bins = build(find_go(), out_dir)
    work = os.path.join(out_dir, "work")
    spans = os.path.join(out_dir, "spans")
    os.makedirs(spans, exist_ok=True)

    env = dict(os.environ)
    if args.workload in IN_PROCESS:
        env["GOMAXPROCS"] = "1"
    else:
        env.pop("GOMAXPROCS", None)
    cmd = [bins["perfbench"],
           "-workload", args.workload,
           "-seed", str(args.seed),
           "-seconds", str(args.seconds),
           "-trace", str(args.trace),
           "-p4served", bins["p4served"],
           "-workdir", work,
           "-commit", revision()]
    if args.trace:
        cmd += ["-spans", os.path.join(spans, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    # A session of its own lets a timeout take down the daemon as well.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 3
    stop_group(proc.pid)
    proc.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
