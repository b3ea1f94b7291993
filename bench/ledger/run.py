#!/usr/bin/env python3
"""Builds the ledger from source and runs one workload.

    python3 bench/ledger/run.py --workload <name> --seed <n> \
        [--seconds <s>] [--trace 0|1]

Run it from the root of a source checkout. The first run configures and
builds bench/ledger (Release) into $CARGO_TARGET_DIR/ledger, default
.bench_build/ledger; later runs only rebuild what changed. Build output goes
to stderr, so the last line on stdout is the ledger's result object.
--trace 1 runs the traced variant and writes its spans to
<build dir>/traces/<workload>.jsonl.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
# The ledger itself exits within 180 s; this only guards against a hang.
RUN_TIMEOUT_S = 175


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "ledger"


def build(out: Path) -> Path:
    if not any((out / name).exists() for name in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "ldpjs_ledger",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return out / "ldpjs_ledger"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", default=10, type=float)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 2
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}"]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace", str(traces / f"{args.workload}.jsonl")]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
