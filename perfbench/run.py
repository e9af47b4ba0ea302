#!/usr/bin/env python3
"""Builds the release `orientd` and the benchmark from this checkout, then
runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run it from the root of a checkout.  Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result.  Build artifacts go to
$CARGO_TARGET_DIR, `.bench_build` when unset.

`--self-test` runs every workload at a tiny size (a few hundred sensors, a
few seconds) with and without tracing, and checks that each run names every
metric of BENCHMARK.json with its unit and that the oracle passed.  It also
covers `edit_stream`, which the benchmark implements but BENCHMARK.json does
not list (see README.md).
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("static_build", "edit_stream", "tenant_mix")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("Cargo.toml", "crates", os.path.join("src", "bin", "orientd.rs")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from the root of a full checkout")
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "orientd"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join("perfbench", "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "orientd")


def run(binary, orientd, args, capture=False):
    cmd = [binary, *args, "--orientd", orientd]
    if capture:
        return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return subprocess.run(cmd, cwd=ROOT)


def self_test(binary, orientd):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in WORKLOADS:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            args = ["--workload", workload, "--seed", "7", "--seconds", "2",
                    "--trace", trace, "--smoke"]
            done = run(binary, orientd, args, capture=True)
            lines = done.stdout.strip().splitlines()
            problems = []
            if done.returncode != 0 or not lines:
                problems.append(f"exit {done.returncode}")
            else:
                result = json.loads(lines[-1])
                if not result["correct"] or result["failed"]:
                    problems.append("oracle failed")
                got = result["metrics"]
                for metric in spec[kind]:
                    m = got.get(metric["name"])
                    if m is None or m.get("unit") != metric["unit"]:
                        problems.append(f"{metric['name']} missing or wrong unit")
                extra = set(got) - {m["name"] for m in spec[kind]}
                if extra:
                    problems.append(f"unexpected metrics {sorted(extra)}")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"self-test {workload} trace={trace}: {status}")
            ok = ok and not problems
    return 0 if ok else 1


def main():
    binary, orientd = build()
    if sys.argv[1:] == ["--self-test"]:
        sys.exit(self_test(binary, orientd))
    sys.exit(run(binary, orientd, sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
