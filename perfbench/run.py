#!/usr/bin/env python3
"""Builds the rulebases benchmark from source and runs it.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1] [--gen-seed N]

<name> is mine-sparse, census-grow, drift-window or serve-mixed, or `all`
to run every workload in turn. Run it from the repository root. The
benchmark is built in release mode into $CARGO_TARGET_DIR (default
`.bench_build` at the repository root); cargo's output goes to stderr, so
the last line on stdout is the benchmark's JSON result. See
perfbench/README.md for the workloads and metrics.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["mine-sparse", "census-grow", "drift-window", "serve-mixed"]

child = None


def stop(signum, _frame):
    """Ends the running child before this process exits."""
    if child is not None and child.poll() is None:
        child.terminate()
        try:
            child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
    sys.exit(128 + signum)


def run(cmd, **kwargs):
    global child
    child = subprocess.Popen(cmd, cwd=ROOT, **kwargs)
    code = child.wait()
    child = None
    return code


def build():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    code = run(cmd, env=env, stdout=sys.stderr)
    if code != 0:
        print(f"perfbench: build failed ({code})", file=sys.stderr)
        sys.exit(code if code > 0 else 1)
    return os.path.join(target, "release", "perfbench")


def main(argv):
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    binary = build()
    if "--workload" in argv:
        at = argv.index("--workload") + 1
        if at < len(argv) and argv[at] == "all":
            worst = 0
            for name in WORKLOADS:
                args = argv[:at] + [name] + argv[at + 1:]
                worst = max(worst, run([binary] + args))
            return worst
    return run([binary] + argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
