#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload omega_hotspot --seed 1 --seconds 10 --trace 0

The script builds the Go program in perfbench/ from the checkout's sources
into .bench_build/ (Go's build cache, module cache and temporary files stay
there too), runs it, and passes its output through: readable metric lines,
then one JSON result line.  It exits non-zero when the build fails, when the
program fails a check, or when it overruns its time limit.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def run_group(cmd, cwd, env, timeout, capture):
    """Run cmd in its own process group; kill the whole group on timeout.

    Returns (None, None) on timeout and raises OSError if cmd cannot start.
    """
    proc = subprocess.Popen(
        cmd,
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE if capture else None,
        stderr=subprocess.STDOUT if capture else None,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None, None
    return proc.returncode, out


def build_env():
    env = dict(os.environ)
    dirs = {
        "GOCACHE": "gocache",
        "GOMODCACHE": "gomodcache",
        "GOPATH": "gopath",
        "GOTMPDIR": "tmp",
        "TMPDIR": "tmp",
        "HOME": "home",
        "XDG_CONFIG_HOME": "home",
    }
    for var, sub in dirs.items():
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[var] = path
    # Sources only: no toolchain or module downloads, no workspace files.
    env.update(GOPROXY="off", GOTOOLCHAIN="local", GOWORK="off", GOFLAGS="-mod=mod", CGO_ENABLED="0")
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = build_env()
    try:
        code, out = run_group(
            ["go", "build", "-trimpath", "-o", BINARY, "."], HERE, env, BUILD_TIMEOUT_S, capture=True
        )
    except OSError as err:
        sys.stderr.write("perfbench: cannot run the Go toolchain: %s\n" % err)
        return 2
    if code != 0:
        sys.stderr.write("perfbench: build failed\n")
        if out:
            sys.stderr.write(out.decode(errors="replace"))
        return 2

    code, _ = run_group(
        [
            BINARY,
            "-workload", args.workload,
            "-seed", str(args.seed),
            "-seconds", repr(args.seconds),
            "-trace", str(args.trace),
        ],
        ROOT,
        env,
        RUN_TIMEOUT_S,
        capture=False,
    )
    if code is None:
        sys.stderr.write("perfbench: run exceeded %d s and was killed\n" % RUN_TIMEOUT_S)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
