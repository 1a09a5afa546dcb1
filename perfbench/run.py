#!/usr/bin/env python3
"""Builds and runs the repo benchmark (perfbench/src/main.cpp).

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: ycsb-a-16k, ycsb-b-4k-crash-repair, or `all` to run each
workload BENCHMARK.json lists in turn (one JSON result line per workload).

The store's libraries (../src) and the benchmark binary are configured and
built with CMake under $CARGO_TARGET_DIR (default .bench_build) inside the
working directory; later runs rebuild incrementally. Build output goes to
stderr, so the last line on stdout is the benchmark's JSON result. The exit
code is nonzero when the build fails, a correctness gate fails, or the
printed metrics differ from the set BENCHMARK.json declares, or the
prediction map (perfbench/predictions.json) contradicts itself.

With --trace 1 the per-layer metrics are also checked against the
`zero_on` predictions in perfbench/predictions.json: each metric predicted
to read zero on this workload is listed with its value. A metric that
moved is reported, not failed; later changes may move it on purpose.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def metric_set_error(trace, result_line):
    """Why the result's metrics differ from BENCHMARK.json's, or None."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"),
              encoding="utf-8") as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in json.loads(result_line)["metrics"].items()}
    if got == want:
        return None
    return "metrics differ from BENCHMARK.json: " + ", ".join(
        sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k)))


def load_predictions():
    with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as f:
        return json.load(f)["per_layer"]


def prediction_errors():
    """Metrics whose `on` and `zero_on` workload lists overlap."""
    return [f"{name} is predicted both to move and to read 0 on "
            + ", ".join(sorted(set(p["on"]) & set(p["zero_on"])))
            for name, p in load_predictions().items()
            if set(p["on"]) & set(p["zero_on"])]


def isolation_lines(workload, result_line):
    """Lines comparing the per-layer result with the zero_on predictions."""
    predictions = load_predictions()
    metrics = json.loads(result_line)["metrics"]
    lines = []
    for name, p in predictions.items():
        if workload in p["zero_on"] and name in metrics:
            value = metrics[name]["value"]
            verdict = "as predicted" if value == 0 else "MOVED"
            lines.append(f"isolation: {name} = {value} (predicted 0): {verdict}")
    return lines


def run_workload(binary, argv):
    """Runs the benchmark binary on `argv`; returns its exit code."""
    done = subprocess.run([binary, *argv], stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        if lines:
            print("\n".join(lines))
        return done.returncode or 1
    args = dict(zip(argv[::2], argv[1::2]))
    trace = args.get("--trace") == "1"
    error = metric_set_error(trace, lines[-1])
    if error is not None:
        print("\n".join(lines[:-1]))
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    if trace:
        lines[-1:-1] = isolation_lines(args.get("--workload"), lines[-1])
    print("\n".join(lines), flush=True)
    return 0


def main() -> int:
    errors = prediction_errors()
    for error in errors:
        print(f"perfbench: predictions.json: {error}", file=sys.stderr)
    if errors:
        return 1
    build = os.path.join(os.getcwd(),
                         os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                         "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = (
        ["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "-j", jobs, "--target", "perfbench"],
    )
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1
    binary = os.path.join(build, "perfbench")
    argv = sys.argv[1:]
    if "--workload" not in argv[:-1] or \
            argv[argv.index("--workload") + 1] != "all":
        return run_workload(binary, argv)
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"),
              encoding="utf-8") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    failures = 0
    for workload in workloads:
        one = list(argv)
        one[one.index("--workload") + 1] = workload
        failures += run_workload(binary, one) != 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
