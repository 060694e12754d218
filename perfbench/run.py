#!/usr/bin/env python3
"""Build and run the HEAVEN benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The first form builds the benchmark package (perfbench/Cargo.toml, a
workspace of its own that depends on the repository's crates by path) in
release mode, offline, into $CARGO_TARGET_DIR (default: .bench_build at
the checkout root), then runs one workload. The last line of standard
output is the JSON result; build output goes to standard error.

The second form is the self-test: it runs every workload briefly in both
modes and checks that each run prints every metric BENCHMARK.json names,
with its unit, and no other.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(done.returncode or 1)
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "release", "heaven-perfbench")


def smoke(exe):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            args = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace]
            done = subprocess.run([exe] + args, cwd=ROOT, capture_output=True, text=True)
            tag = f"{workload} --trace {trace}"
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                failures.append(f"{tag}: exit {done.returncode}: {done.stderr.strip()}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{tag}: correctness {result['correct']}, "
                                f"{result['failed']} of {result['attempted']} failed")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            for name in sorted(set(want) | set(got)):
                if want.get(name) != got.get(name):
                    failures.append(f"{tag}: metric {name}: BENCHMARK.json unit "
                                    f"{want.get(name)}, emitted unit {got.get(name)}")
            print(f"smoke: {tag}: {len(got)} metrics, {result['attempted']} checked",
                  file=sys.stderr)
    for f in failures:
        print(f"smoke: FAIL {f}", file=sys.stderr)
    sys.exit(1 if failures else 0)


def main():
    exe = build()
    if sys.argv[1:] == ["--smoke"]:
        smoke(exe)
    done = subprocess.run([exe] + sys.argv[1:], cwd=ROOT)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
