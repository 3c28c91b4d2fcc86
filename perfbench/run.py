#!/usr/bin/env python3
"""Run -> trace -> analyze benchmark for the SWORD reproduction.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first form builds sword-perfbench (a Release build of ../src plus
perfbench/sword_perfbench.cpp, under .bench_build/perfbench), runs one
measurement and prints, as the last stdout line, one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end_to_end
metrics of BENCHMARK.json, --trace 1 the per_layer ones; the names and units
printed are checked against BENCHMARK.json.

--self-test runs every workload once at a tiny size in both modes, plus two
oracle workloads, and checks that every metric is emitted with its unit, that
no operation failed, and that perfbench/metrics.json documents every metric.
The oracles are suite-fixed (all 80 DRB and OmpSCR programs, team 3, each
checked against its registered race count; the only workload whose accesses
the duplicate filter suppresses) and hpc-access (HPCCG and miniFE, whose
strided accesses the coalescer folds).
Neither is a measured workload: on a shared virtual machine their collect
phase (kernel-heavy start-up and wake-ups for suite-fixed, disk stalls for
hpc-access) spread by more than the largest allowed bound from run to run.

Threads: team threads plus one flush worker stay within nproc (sword-perfbench
refuses to run otherwise); nested DRB kernels briefly run more OS threads.

Reads and writes only inside the repository checkout. Exits non-zero without
printing a result when the sources, the build or the measurement fail.
"""
import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-work")
BINARY = os.path.join(BUILD_DIR, "sword-perfbench")
ORACLE_WORKLOADS = ["suite-fixed", "hpc-access"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {os.path.relpath(path, ROOT)}: {e}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("repository sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "sword-perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def measure(workload, seed, seconds, trace, quick=False):
    """Runs sword-perfbench once; returns (diagnostic lines, result object)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", WORK_DIR]
    if quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: sword-perfbench exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"{workload}: sword-perfbench exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload}: last output line is not JSON: {lines[-1]!r}")
    return lines[:-1], result


def check_result(result, expected):
    """Problems with a result against BENCHMARK.json's metric list."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if result["attempted"] < 1:
        problems.append("no operation attempted")
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    for name in sorted(set(metrics) - set(want)):
        problems.append(f"unexpected metric {name}")
    for name, unit in want.items():
        got = metrics.get(name)
        if got is None:
            problems.append(f"missing metric {name}")
        elif got.get("unit") != unit:
            problems.append(f"{name}: unit {got.get('unit')!r}, want {unit!r}")
    return problems


def self_test(spec):
    doc = load_json(os.path.join(BENCH_DIR, "metrics.json"))
    problems = []
    e2e = {m["name"] for m in spec["end_to_end"]}
    for section in ("end_to_end", "per_layer"):
        for m in spec[section]:
            entry = doc.get(section, {}).get(m["name"])
            if not entry or not entry.get("why"):
                problems.append(f"metrics.json: no 'why' for {m['name']}")
            elif section == "per_layer":
                moves = entry.get("moves", [])
                if not moves or not set(moves) <= e2e:
                    problems.append(f"metrics.json: {m['name']} moves {moves}")
    for workload in [w["name"] for w in spec["workloads"]] + ORACLE_WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            _, result = measure(workload, 1, 1, trace, quick=True)
            label = f"{workload} --trace {trace}"
            found = [f"{label}: {p}" for p in check_result(result, spec[section])]
            if not found:
                if result["failed"] or not result["correct"]:
                    found.append(f"{label}: {result['failed']} of "
                                 f"{result['attempted']} operations failed")
                if trace == 0:
                    found += [f"{label}: {n} is not positive"
                              for n, v in result["metrics"].items()
                              if v["value"] <= 0]
            print(f"{label}: {result['attempted']} operation(s), "
                  f"{'ok' if not found else 'FAILED'}")
            problems += found
    for p in problems:
        print("  " + p)
    print("self-test " + ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    build()
    if args.self_test:
        return self_test(spec)

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {names}")
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    lines, result = measure(args.workload, args.seed, args.seconds, args.trace)
    problems = check_result(
        result, spec["per_layer" if args.trace else "end_to_end"])
    if problems:
        fail("; ".join(problems))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
