#!/usr/bin/env python3
"""Builds and runs hacksim's wall-clock benchmark (see README.md).

    python3 perfbench/run.py --workload paper-fig10 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (a CMake package that
compiles ../src itself) in Release into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; later calls rebuild only what
changed. The perfbench binary's last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; this script checks it
against BENCHMARK.json (every metric of the pass present, with its unit and
a finite value, end-to-end values above 0) and prints it as its own last
line. A missing or malformed metric, a crashed binary or a failed build
exits non-zero without a result line.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Returns the perfbench binary, or None when it cannot be built."""
    if not (ROOT / "src").is_dir():
        log(f"no simulator sources under {ROOT / 'src'}; run from a checkout")
        return None
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(PACKAGE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        try:
            # Build logs go to stderr: stdout's last line is the result.
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step failed: {err}")
            return None
        if proc.returncode != 0:
            log(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
            return None
    return out / "perfbench"


def run_binary(binary, args):
    """Runs perfbench; returns (stdout lines, parsed last-line JSON or None)."""
    try:
        proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"perfbench exceeded {RUN_TIMEOUT_S} s and was killed")
        return [], None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench exited with code {proc.returncode}")
        return lines, None
    try:
        return lines, json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench's last line is not JSON")
        return lines, None


def contract_problems(result, trace):
    """Every way the result breaks BENCHMARK.json's contract for this pass."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = contract["per_layer" if trace else "end_to_end"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
        return problems
    metrics = result["metrics"]
    for spec in expected:
        name = spec["name"]
        got = metrics.get(name)
        if got is None:
            problems.append(f"missing metric {name}")
            continue
        value = got.get("value")
        if got.get("unit") != spec["unit"]:
            problems.append(f"{name}: unit {got.get('unit')!r}, "
                            f"expected {spec['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
        elif not trace and value <= 0:
            problems.append(f"{name}: end-to-end value {value} is not above 0")
    names = {spec["name"] for spec in expected}
    problems += [f"unexpected metric {n}" for n in metrics if n not in names]
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int):
        problems.append("failed must be a whole number")
    return problems


def bench(args):
    binary = build()
    if binary is None:
        return 2
    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        bench_args += ["--trace-out",
                        str(traces / f"{args.workload}-seed{args.seed}.json")]
    lines, result = run_binary(binary, bench_args)
    for line in lines[:-1]:
        print(line)
    if result is None:
        return 1
    problems = contract_problems(result, args.trace)
    if problems:
        log(f"{len(problems)} contract problem(s):")
        for p in problems:
            log(f"  {p}")
        return 1
    print(json.dumps(result), flush=True)
    return 0


def self_test():
    """Proves that a forced failed run, a non-deterministic digest and a
    missing metric are each caught and counted, and that a clean run
    passes. Uses campaign-mix, whose timed pass runs at jobs=nproc against
    a jobs=1 reference."""
    binary = build()
    if binary is None:
        return 2
    base = ["--workload", "campaign-mix", "--seed", "7", "--seconds", "1",
            "--trace", "0"]
    checks = []

    lines, result = run_binary(binary, base + ["--inject", "fail-run"])
    checks.append(("forced failed run is counted",
                   result is not None and not result["correct"]
                   and result["failed"] >= 1))

    lines, result = run_binary(binary, base + ["--inject", "nondeterminism"])
    checks.append(("non-deterministic digest is caught",
                   result is not None and not result["correct"]
                   and result["failed"] >= 1
                   and any(l.startswith("FAILED digest") for l in lines)))

    lines, result = run_binary(binary, base + ["--inject", "drop-metric"])
    problems = contract_problems(result, False) if result else []
    checks.append(("missing metric is caught",
                   any(p.startswith("missing metric") for p in problems)))

    lines, result = run_binary(binary, base)
    checks.append(("clean run passes",
                   result is not None and result["correct"]
                   and result["failed"] == 0
                   and not contract_problems(result, False)))

    for name, ok in checks:
        print(f"self-test: {'ok  ' if ok else 'FAIL'} {name}")
    passed = sum(ok for _, ok in checks)
    print(f"self-test: {passed}/{len(checks)} checks passed")
    return 0 if passed == len(checks) else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["paper-fig10", "dense-uplink", "campaign-mix"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
