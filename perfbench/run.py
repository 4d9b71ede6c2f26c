#!/usr/bin/env python3
"""Time-to-solution benchmark for pipescg.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <t> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds perfbench/ (and with it the library from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs one
workload.  --trace 0 runs perfbench_e2e (service API only) and prints the
end-to-end metrics; --trace 1 runs perfbench_trace and prints the per-layer
metrics, writing its span file to <build>/spans/<workload>-seed<n>.json.
The last line of standard output is the result object.  --selftest shows
that every correctness check rejects a broken input.  See README.md.
"""
import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# Every run must exit within 180 s; the programs bound their own time by
# --seconds plus at most one round, so this only catches a hang.
RUN_TIMEOUT_S = 170


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(target):
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", target,
                    "-j", "4"], check=True, stdout=sys.stderr)
    return out / target


def run_program(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"perfbench: {cmd[0]} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"perfbench: {cmd[0]} printed no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        help="poisson125_ooc, thermal2_incache or "
                        "thermal2_observed")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    try:
        run(args, parser)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError) as err:
        sys.exit(f"perfbench: {err}")


def run(args, parser):
    if args.selftest:
        sys.exit(subprocess.run([str(build("perfbench_selftest"))]).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    if args.trace:
        spans = build_dir() / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        out = spans / f"{args.workload}-seed{args.seed}.json"
        result = run_program([str(build("perfbench_trace"))] + common +
                             ["--out", str(out)])
    else:
        exe = build("perfbench_e2e")
        # Per-request traces of the observed workload; removed after the run.
        scratch = build_dir() / "requests" / f"{args.workload}-{os.getpid()}"
        try:
            result = run_program([str(exe)] + common + ["--out", str(scratch)])
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
