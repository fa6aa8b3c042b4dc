#!/usr/bin/env python3
"""Run one workload of the MPH benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds ../src plus the benchmark binary into
$CARGO_TARGET_DIR (default .bench_build) with CMake, runs the binary, and
passes its output through; the last line of standard output is the result
object.  Exits non-zero, without a result, when the sources are missing or
the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ccsm_coupled", "p2p_named", "handshake_churn")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, **kwargs):
    """Run cmd in its own process group; on timeout kill the whole group and
    wait for it, so no compiler or rank process outlives the benchmark."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{cmd[0]} timed out after {timeout} s")
    finally:
        # Reached on timeout and on SIGTERM/SIGINT of this script alike.
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    return proc.returncode, out


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure once, then build the binary (a no-op when up to date)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"MPH sources not found under {ROOT / 'src'}", 2)
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "mph_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    # Compiler temporaries go under the build directory, not the system's.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for step in steps:
        code, _ = run_group(step, BUILD_TIMEOUT_S, stdout=sys.stderr, env=env)
        if code != 0:
            fail(f"build step failed: {' '.join(step)}")
    return out / "mph_perfbench"


def source_digest():
    """SHA-256 over the runtime sources, so a result names the code it
    measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "none"


def check_result(line):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    if result["attempted"] < 1:
        raise ValueError("no operation attempted")
    return result


def main():
    # Turn SIGTERM into SystemExit so run_group's cleanup stops the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", f"{git_sha()}/src:{source_digest()}"]
    if args.trace:
        spans = build_dir() / f"spans-{args.workload}-seed{args.seed}.json"
        cmd += ["--spans-out", str(spans)]
    code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                          text=True, cwd=ROOT)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        sys.stderr.write(out)
        fail(f"benchmark exited with code {code}")
    try:
        check_result(lines[-1])
    except ValueError as e:  # json.JSONDecodeError is a ValueError
        sys.stderr.write(out)
        fail(f"malformed result line: {e}")
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
