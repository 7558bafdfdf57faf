#!/usr/bin/env python3
"""Builds and runs the fhs benchmark for one workload, and prints its result.

Run from the root of the repository:

    python3 perfbench/run.py --workload huge-ir-grid --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end metrics of BENCHMARK.json; with `--trace 1`
they are the per-layer metrics of the traced run. The line before it is
the run's context: host, build, workload, seeds and worker count.

`--record FILE` also appends the context and result as one JSON line to
FILE, the input format of `perfbench/compare.py`.

The benchmark binary is built with cargo into `$CARGO_TARGET_DIR`
(default `.bench_build`), and every file the run writes stays under it.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("huge-ir-grid", "large-figures", "stream-ir")
# Set-up is measured in this many fresh processes besides the measuring one.
SETUP_REPEATS = 4
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    binary = target / "release" / "fhs-perfbench"
    if not binary.is_file():
        fail(f"built binary missing at {binary}")
    return binary


def run_binary(binary, args):
    """Runs the benchmark binary and returns its last stdout line, parsed."""
    try:
        done = subprocess.run([str(binary), *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark process failed: {e}")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"benchmark process exited with code {done.returncode}")
    return json.loads(lines[-1])


def command_output(cmd, env=None):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              env=env, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def git_rev():
    # Only a repository rooted at the checkout itself counts: never one
    # found in a directory above it.
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    return command_output(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env)


def source_digest():
    """SHA-256 over the sources the benchmark builds, so results from
    checkouts without git history still name the code they measured."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in (ROOT / "crates", HERE):
        files += [p for p in top.rglob("*")
                  if p.is_file() and "target" not in p.relative_to(ROOT).parts]
    for p in sorted(f for f in files if f.is_file()):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path, help="append context and result to this JSONL file")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    target = target_dir()
    binary = build(target)
    out_dir = target / "perfbench-out"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--out-dir", str(out_dir)]

    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            setups.append(run_binary(binary, [*common, "--setup-only"])["setup_s"])
    run = run_binary(binary, [*common, "--seconds", str(args.seconds),
                              "--trace", str(args.trace)])
    metrics = run["metrics"]
    if not args.trace:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": run["workers"],
        "host": {
            "cpus": os.cpu_count(),
            "available_parallelism": run["cpus"],
            "cpu_model": cpu_model(),
            "machine": platform.machine(),
            "kernel": platform.release(),
            "python": platform.python_version(),
        },
        "build": {
            "profile": run["profile"],
            "rustc": command_output(["rustc", "-V"]),
            "cargo": command_output(["cargo", "-V"]),
            "git_rev": git_rev(),
            "source_sha256": source_digest(),
        },
        "run": {k: v for k, v in run.items() if k not in ("metrics", "correct", "attempted", "failed")},
        "setup_samples_s": setups,
        "error_rate": run["failed"] / max(run["attempted"], 1),
    }
    result = {
        "correct": bool(run["correct"]),
        "attempted": int(run["attempted"]),
        "failed": int(run["failed"]),
        "metrics": metrics,
    }
    if args.record:
        with args.record.open("a") as f:
            f.write(json.dumps({"context": context, "result": result}) + "\n")
    print(json.dumps({"perfbench": context}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
