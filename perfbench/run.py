#!/usr/bin/env python3
"""Benchmark entry point: builds the harness from source, runs one
workload through it and prints the result.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The harness (perfbench/harness, a Cargo package of its own) is built in
release mode into $CARGO_TARGET_DIR, or .bench_build when that is unset.
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics. A provenance line (CPU model, rustc, commit or
source digest, seeds, samples) comes just before the result, and the
last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits non-zero without a result when the repository sources are missing,
the build fails, or the harness dies or overruns.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "harness", "Cargo.toml")
BINARY = "perfbench-harness"
WORKLOADS = ("overload_serial", "overload_sharded", "md_replay", "water_compressed")
# The first run in a fresh checkout builds; later runs find it built.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_bounded(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the whole group and waits
    for it if it outlives timeout. Returns (returncode, stdout)."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{os.path.basename(cmd[0])} overran its {timeout} s limit")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build(env):
    code, _ = run_bounded(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        BUILD_TIMEOUT_S,
        env=env,
        stdout=sys.stderr,
    )
    if code != 0:
        fail(f"building the harness failed (exit {code})")


def tool_version(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30).stdout
        return out.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def source_identity():
    """The git commit when the tree is a git checkout, and always a
    SHA-256 over the library sources the harness builds against."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = tool_version(["git", "-C", ROOT, "rev-parse", "HEAD"])
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in ("src", "crates"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(hashlib.sha256(f.read()).digest())
    return commit, digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    for needed in ("Cargo.toml", "crates", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"repository sources missing ({needed} not found beside perfbench/)")

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build(env)

    seed = args.seed % (1 << 64)
    cmd = [
        os.path.join(target, "release", BINARY),
        "--workload", args.workload,
        "--seed", str(seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
    ]
    code, out = run_bounded(cmd, RUN_TIMEOUT_S, env=env, stdout=subprocess.PIPE, text=True)
    lines = out.splitlines()
    if code != 0 or not lines:
        sys.stderr.write(out)
        fail(f"harness exited with code {code}")
    try:
        record = json.loads(lines[-1])
        result = record["result"]
        provenance = record["provenance"]
    except (ValueError, KeyError, TypeError):
        sys.stderr.write(out)
        fail("harness printed no result record")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} differ from {sorted(RESULT_KEYS)}")

    commit, digest = source_identity()
    provenance.update(
        {
            "cpu_model": cpu_model(),
            "rustc": tool_version(["rustc", "--version"]),
            "cargo": tool_version(["cargo", "--version"]),
            "git_commit": commit,
            "source_sha256": digest,
        }
    )
    for line in lines[:-1]:
        print(line)
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
