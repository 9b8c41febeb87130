#!/usr/bin/env python3
"""CMT-bone step benchmark: build, run, report.

    python3 perfbench/run.py --workload proxy_n8 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seconds 30     # every workload in turn
    python3 perfbench/run.py --test

Builds perfbench/ (which compiles the library from ../src) into the
directory named by CARGO_TARGET_DIR, or .bench_build, under the repository
root; then runs the benchmark binary and passes its output through. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (see
perfbench/README.md). --test builds and runs the benchmark's own tests
instead. Build output goes to standard error. The script exits non-zero,
without printing a result, if the build fails or the run is refused.
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
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(target: str) -> Path:
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(out), "--target", target,
                 "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")
    return out / target


def source_id() -> str:
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "sha256:" + h.hexdigest()[:16]


def run_tests() -> int:
    binary = build("perfbench_tests")
    status = subprocess.run([str(binary)], cwd=ROOT).returncode
    contract = subprocess.run(
        [sys.executable, "-m", "unittest", "-v", "test_contract"],
        cwd=HERE / "tests").returncode
    return status or contract


def run_workload(binary: Path, workload: str, args, source: str):
    """Run one workload; returns (its standard output, its result object)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-id", source]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: benchmark exited with {done.returncode}")
    lines = done.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.exit("run.py: benchmark printed no result line")
    return done.stdout, result


def main() -> int:
    # subprocess.run kills its child when the wait is interrupted, so turning
    # SIGTERM into SystemExit stops the build or benchmark process with us.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload",
                    help="one workload; without it every workload in "
                         "BENCHMARK.json runs in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if args.test:
        return run_tests()

    binary = build("cmtbone_perfbench")
    source = source_id()
    if args.workload:
        out, _ = run_workload(binary, args.workload, args, source)
        sys.stdout.write(out)
        return 0
    # Every workload: each one's report, then one combined result line whose
    # metric names are prefixed with the workload.
    with open(ROOT / "BENCHMARK.json") as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        out, result = run_workload(binary, name, args, source)
        sys.stdout.write(f"== {name}\n" + out.rstrip("\n").rsplit("\n", 1)[0]
                         + "\n")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
