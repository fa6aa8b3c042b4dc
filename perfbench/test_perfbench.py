#!/usr/bin/env python3
"""Self-test of the benchmark's own checks.

    python3 perfbench/test_perfbench.py

Run from the repository root.  Checks that
  * a clean p2p_named run reports no failures and ok_frac == 1;
  * a run whose echo side corrupts three echoes on purpose reports exactly
    three failures and ok_frac < 1, so the echo check is live;
  * a run whose echo side sends three echoes short (half the bytes) reports
    exactly three failures, so a short delivery cannot pass on stale data;
  * run.py exits non-zero without a result line when the sources are absent.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def p2p_result(binary, *extra):
    out = subprocess.run(
        [str(binary), "--workload", "p2p_named", "--seed", "7",
         "--seconds", "1", "--trace", "0", *extra],
        capture_output=True, text=True, check=True, timeout=170).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_clean_run(binary):
    r = p2p_result(binary)
    assert r["correct"] and r["failed"] == 0, r
    assert r["metrics"]["ok_frac"]["value"] == 1.0, r


def test_corrupted_echoes_count_as_failures(binary):
    r = p2p_result(binary, "--corrupt-echo", "3")
    assert not r["correct"] and r["failed"] == 3, r
    assert r["metrics"]["ok_frac"]["value"] < 1.0, r


def test_short_echoes_count_as_failures(binary):
    r = p2p_result(binary, "--short-echo", "3")
    assert not r["correct"] and r["failed"] == 3, r
    assert r["metrics"]["ok_frac"]["value"] < 1.0, r


def test_refuses_without_sources():
    lonely = run.build_dir() / "selftest-lonely"
    shutil.rmtree(lonely, ignore_errors=True)
    shutil.copytree(run.HERE, lonely / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", lonely)
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "p2p_named",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=lonely, timeout=170)
    shutil.rmtree(lonely)
    assert p.returncode != 0 and p.stdout.strip() == "", p


def main():
    binary = run.build()
    test_clean_run(binary)
    test_corrupted_echoes_count_as_failures(binary)
    test_short_echoes_count_as_failures(binary)
    test_refuses_without_sources()
    print("perfbench self-test: OK")


if __name__ == "__main__":
    main()
