#!/usr/bin/env python3
"""Build and run the time-to-smoothed-mesh benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--out <dir>]

Builds `perfbench/` (its own cargo package over the repository's crates)
in release mode, runs one workload, and prints as the last line of
standard output one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
metrics of BENCHMARK.json, with `--trace 1` its per-layer metrics. A full
record of each run (host manifest, sample counts and quartiles, failure
reasons) goes to `--out` (default `perfbench/results`).

Exits non-zero, printing no result, when the build or the run fails or
when the run's metrics do not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def git_rev():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "none (not a git checkout)"


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, timeout=60)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    exe = Path(env["CARGO_TARGET_DIR"]) / "release" / "lms-perfbench"
    if not exe.is_file():
        fail(f"build produced no {exe}")
    return exe


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--out", default="perfbench/results",
                    help="record directory, relative to the repository root")
    args = ap.parse_args()

    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        spec = json.loads((HERE / "workloads.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read the benchmark definition: {e}")
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if set(spec["per_layer"]) != {m["name"] for m in bench["per_layer"]}:
        fail("the interaction map in perfbench/workloads.json does not match BENCHMARK.json")
    wanted = bench["per_layer" if args.trace == "1" else "end_to_end"]

    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    env["CARGO_TARGET_DIR"] = str(target if target.is_absolute() else ROOT / target)
    exe = build(env)

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--out", args.out,
           "--git-rev", git_rev(), "--rustc", rustc_version()]
    oracle = spec["workloads"][args.workload].get("oracle", {})
    if "ref_quality" in oracle:
        refs = ",".join(f"{k}:{v}" for k, v in oracle["ref_quality"].items())
        cmd += ["--ref-quality", refs, "--quality-tol", str(oracle["quality_tol"])]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"run exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"last line of the run is not JSON: {lines[-1]!r}")

    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in wanted}
    if got != want:
        fail(f"metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
