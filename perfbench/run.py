#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload sweep-k3 --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. It builds perfbench and icicled from
the checkout's own sources (CMake, into .bench_build/perfbench, or
$CARGO_TARGET_DIR/perfbench when that is set), then runs the workload in
a fresh perfbench process, so the workload's peak RSS is its own.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: every end-to-end metric of BENCHMARK.json
with --trace 0, every per-layer metric with --trace 1, in its order and
with its units. Build output goes to build.log in the build directory
and progress to stderr. A traced run also writes its spans to
.bench_run/spans/.

Exits nonzero, printing no result, when the sources are missing, the
build fails, or the run fails, misses an end-to-end metric or prints
one BENCHMARK.json does not list.
"""

import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-k3", "sweep-traced", "serve-mix")
# perfbench stops its own timed phases well before this.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build(out):
    """Configure once, then bring perfbench and icicled up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no icicle sources under {ROOT / 'src'}; nothing to build")
    out.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "icicled", "-j", str(os.cpu_count() or 1)])
    with open(out / "build.log", "ab") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=log) != 0:
                fail(f"build step failed: {' '.join(step)} "
                     f"(see {out / 'build.log'})")


def with_units(workload, values, trace):
    """perfbench's name -> value map as BENCHMARK.json's metrics.

    BENCHMARK.json alone sets the names, their order and their units.
    A per-layer metric the workload does not touch reads 0; a missing
    end-to-end metric or an unlisted name fails the run.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace else "end_to_end"]
    unknown = set(values) - {m["name"] for m in listed}
    if unknown:
        fail(f"{workload} printed metrics BENCHMARK.json does not list: "
             f"{sorted(unknown)}")
    metrics = {}
    for m in listed:
        if m["name"] not in values and not trace:
            fail(f"{workload} did not print {m['name']}")
        metrics[m["name"]] = {"value": values.get(m["name"], 0),
                              "unit": m["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    build(out)
    # Relative to the checkout (perfbench runs there): the daemon's
    # socket lives under it, and a Unix socket path has ~100 bytes.
    work = pathlib.Path(".bench_run")
    command = [str(out / "perfbench"), args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--icicled", str(out / "icicled"),
               "--digests", str(HERE / "digests.txt"),
               "--work", str(work)]
    if args.trace:
        (ROOT / work / "spans").mkdir(parents=True, exist_ok=True)
        command += ["--spans", str(work / "spans" /
                                   f"{args.workload}-s{args.seed}.jsonl")]
    # Its own session, so a timeout can stop the daemon and its workers
    # along with perfbench.
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")

    lines = stdout.decode().strip().splitlines()
    if not lines:
        fail(f"{args.workload} printed no result (exit {proc.returncode})")
    result = json.loads(lines[-1])
    result["metrics"] = with_units(args.workload, result["metrics"],
                                   args.trace)
    print(json.dumps(result), flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
