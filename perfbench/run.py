#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds the program's libraries and the
measuring binary from source (perfbench/CMakeLists.txt) into .bench_build,
or into $CARGO_TARGET_DIR when that is set, then runs one workload and
passes its output through.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics; --trace 0 reports every
end_to_end metric of BENCHMARK.json and --trace 1 every per_layer metric.

Exit status: 0 when the run's outputs were all correct; 1 when a check
failed; 2 on bad arguments; 3 when the build failed; 4 when the binary's
output broke the reporting contract or the run timed out.  Only a status-0
or status-1 run prints a result line.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
MAX_SEED = 1 << 62
MAX_SECONDS = 600


def fail(code, msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(code)


def parse_uint(text, lo, hi):
    """Decimal digits only, within [lo, hi]; None otherwise."""
    if not text or len(text) > 20 or not all("0" <= c <= "9" for c in text):
        return None
    value = int(text)
    return value if lo <= value <= hi else None


def parse_args(argv, workloads):
    if len(argv) % 2 != 0:
        fail(2, "arguments come in --flag value pairs")
    seen = {}
    for flag, value in zip(argv[0::2], argv[1::2]):
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            fail(2, "unknown argument %r" % flag)
        if flag in seen:
            fail(2, "repeated argument %s" % flag)
        seen[flag] = value
    missing = [f for f in ("--workload", "--seed", "--seconds", "--trace")
               if f not in seen]
    if missing:
        fail(2, "missing %s" % ", ".join(missing))
    if seen["--workload"] not in workloads:
        fail(2, "unknown workload %r (expected one of %s)"
             % (seen["--workload"], ", ".join(workloads)))
    seed = parse_uint(seen["--seed"], 0, MAX_SEED)
    if seed is None:
        fail(2, "bad --seed %r (decimal integer in [0, 2^62])" % seen["--seed"])
    seconds = parse_uint(seen["--seconds"], 1, MAX_SECONDS)
    if seconds is None:
        fail(2, "bad --seconds %r (whole number in [1, %d])"
             % (seen["--seconds"], MAX_SECONDS))
    if seen["--trace"] not in ("0", "1"):
        fail(2, "bad --trace %r (0 or 1)" % seen["--trace"])
    return seen["--workload"], seed, seconds, seen["--trace"]


def configured_source(build_dir):
    """Source directory a build tree was configured from, or None."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return os.path.realpath(line.split("=", 1)[1].strip())
    except OSError:
        pass
    return None


def build(build_dir):
    """Configure once, then (re)build the binary; returns its path."""
    log = sys.stderr
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(3, "program sources not found next to perfbench/")
    source = configured_source(build_dir)
    if source is not None and source != os.path.realpath(HERE):
        # A tree configured from another checkout: start its cache afresh.
        os.remove(os.path.join(build_dir, "CMakeCache.txt"))
        shutil.rmtree(os.path.join(build_dir, "CMakeFiles"), ignore_errors=True)
        source = None
    if source is None:
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=log, stderr=log) != 0:
            fail(3, "configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build_dir, "--target", "lf_perfbench",
           "-j", jobs]
    if subprocess.call(cmd, stdout=log, stderr=log) != 0:
        fail(3, "build failed")
    return os.path.join(build_dir, "lf_perfbench")


def check_result(line, defs):
    """Validate the binary's result line against the reporting contract."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if not isinstance(result, dict) or sorted(result) != sorted(
            ["correct", "attempted", "failed", "metrics"]):
        return "result keys differ from correct/attempted/failed/metrics"
    if not isinstance(result["correct"], bool):
        return "correct is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) \
                or result[key] < 0:
            return "%s is not a whole number" % key
    if result["attempted"] < 1:
        return "attempted is below 1"
    metrics = result["metrics"]
    want = {d["name"]: d["unit"] for d in defs}
    if not isinstance(metrics, dict) or sorted(metrics) != sorted(want):
        return "metric names differ from BENCHMARK.json"
    for name, m in metrics.items():
        if not isinstance(m, dict) or sorted(m) != ["unit", "value"]:
            return "metric %s is not {value, unit}" % name
        if m["unit"] != want[name]:
            return "metric %s has unit %r, BENCHMARK.json says %r" % (
                name, m["unit"], want[name])
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) \
                or not math.isfinite(v):
            return "metric %s is not a finite number" % name
    return None


def main(argv):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(2, "cannot read BENCHMARK.json: %s" % e)
    workloads = [w["name"] for w in bench["workloads"]]
    workload, seed, seconds, trace = parse_args(argv, workloads)

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)

    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", trace]
    if trace == "1":
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans_dir, "%s-%d.tsv" % (workload, seed))]
    # The program reads LF_* knobs from the environment; none may leak in.
    env = {k: v for k, v in os.environ.items() if not k.startswith("LF_")}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, universal_newlines=True)
    except subprocess.TimeoutExpired:
        fail(4, "run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1):
        sys.stdout.write(proc.stdout)
        fail(proc.returncode if proc.returncode > 0 else 4,
             "binary exited with status %d" % proc.returncode)
    defs = bench["per_layer"] if trace == "1" else bench["end_to_end"]
    problem = check_result(lines[-1], defs)
    if problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(4, problem)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
