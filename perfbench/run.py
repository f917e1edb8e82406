#!/usr/bin/env python3
"""Build and run the hoardgo allocator benchmark.

Run from the root of a hoardgo checkout:

    python3 perfbench/run.py --workload warm-churn --seed 1 --seconds 10 --trace 0

It builds the benchmark's Go programs from source (into .bench_build/, with
the Go build cache there too), runs the end-to-end program (e2e), and with
--trace 1 also the per-layer ladder. The last line of its output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. It exits
non-zero without that line when the build or a run fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("warm-churn", "size-cycle", "prodcons", "serve")
# Share of --seconds the traced run gives e2e's replays; the ladder
# gets the rest.
TRACED_E2E_SHARE = 0.6
# A run must end within 180 s; leave room for the build and set-up.
CHILD_TIMEOUT_S = 150


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def go_env(root, build):
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOPATH=os.path.join(build, "gopath"),
        HOME=os.path.join(build, "home"),
        XDG_CONFIG_HOME=os.path.join(build, "home", ".config"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOPROXY="off",
    )
    # The benchmark pins its own backends; the environment must not.
    env.pop("HOARDGO_BACKEND", None)
    for d in ("gocache", "tmp", "gopath", "home"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    return env


def build(root, build_dir, env, pkg):
    out = os.path.join(build_dir, "bin", pkg)
    cmd = ["go", "build", "-o", out, "./" + pkg]
    try:
        p = subprocess.run(cmd, cwd=os.path.join(root, "perfbench"), env=env,
                           capture_output=True, text=True, timeout=800)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build of {pkg} failed: {e}")
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        fail(f"build of {pkg} failed")
    return out


def run_child(cmd, env, timeout):
    """Runs one benchmark program, echoes its report, returns its result."""
    try:
        p = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{os.path.basename(cmd[0])} timed out after {timeout}s")
    sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if p.returncode != 0 or not lines:
        fail(f"{os.path.basename(cmd[0])} exited with {p.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail(f"{os.path.basename(cmd[0])} printed no result")


def revision(root, env):
    """The checkout's git revision, or "unknown"; git may not look above root."""
    env = dict(env, GIT_CEILING_DIRECTORIES=os.path.dirname(root), GIT_CONFIG_NOSYSTEM="1")
    try:
        p = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root, env=env,
                           capture_output=True, text=True, timeout=10)
        if p.returncode == 0:
            return p.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    root = os.getcwd()
    for need in ("go.mod", "hoard.go", os.path.join("perfbench", "go.mod")):
        if not os.path.isfile(os.path.join(root, need)):
            fail(f"not a hoardgo checkout: {need} is missing")
    build_dir = os.path.join(root, ".bench_build")
    env = go_env(root, build_dir)

    t = time.monotonic()
    e2e = build(root, build_dir, env, "e2e")
    ladder = build(root, build_dir, env, "ladder") if args.trace else None
    print(f"# built in {time.monotonic() - t:.1f}s")

    common = ["-workload", args.workload, "-seed", str(args.seed), "-rev", revision(root, env)]
    if not args.trace:
        out = run_child([e2e, *common, "-seconds", str(args.seconds), "-trace", "0"],
                        env, CHILD_TIMEOUT_S)
    else:
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        out = run_child([e2e, *common, "-seconds", str(args.seconds * TRACED_E2E_SHARE),
                         "-trace", "1", "-spans", os.path.join(spans, args.workload + ".jsonl")],
                        env, CHILD_TIMEOUT_S)
        lad = run_child([ladder, "-seconds", str(args.seconds * (1 - TRACED_E2E_SHARE))],
                        env, CHILD_TIMEOUT_S)
        out["correct"] = out["correct"] and lad["correct"]
        out["failed"] += lad["failed"]
        out["metrics"].update(lad["metrics"])
    print(json.dumps({k: out[k] for k in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
