#!/usr/bin/env python3
"""End-to-end served-Betti benchmark.

Builds the qtda library and the benchmark executable from this checkout, runs one
workload, and prints the result.  Run from the repository root:

    python3 bench_e2e/run.py --workload table1 --seed 7 --seconds 20 --trace 0
    python3 bench_e2e/run.py --self-check

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics (and writes the replay's Chrome trace).  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  Everything the run leaves behind goes to .bench_build/: the
build tree, the full report of each run (host fingerprint, load, workload
shape) and the traces.  The exit code is 0 only when every response was
correct.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "qtda_bench_e2e")
RESULTS = os.path.join(BUILD, "results")
RUN_TIMEOUT_S = 170
# The program runs with its daemon defaults: no tracing, no fault injection.
UNSET_ENV = ("QTDA_TRACE", "QTDA_CHAOS")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: no qtda sources next to bench_e2e/ (src/CMakeLists.txt "
            "is missing); nothing to build")
        return False
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", jobs,
                  "--target", "qtda_bench_e2e"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("run.py: build step failed: " + " ".join(step))
            return False
    return True


def load_average():
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def metric_names(trace):
    """The metric names BENCHMARK.json expects for this trace mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [metric["name"] for metric in spec[key]]


def compare_shape(workload, seed, shape):
    """Compares the run's workload shape with the one recorded for this seed,
    or for the default seed 7 (the shape does not depend on the seed)."""
    with open(os.path.join(HERE, "shapes.json")) as f:
        recorded = json.load(f).get(workload, {})
    key = str(seed) if str(seed) in recorded else "7"
    if key not in recorded:
        return "no recorded shape"
    if recorded[key] == shape:
        return "matches the shape recorded on seed " + key
    return "DIFFERS from the shape recorded on seed %s: %s" % (
        key, json.dumps(recorded[key]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run a few requests of every workload through "
                             "every metric and check path")
    args = parser.parse_args()
    if not args.self_check and not args.workload:
        parser.error("--workload is required")

    if not build():
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    socket = os.path.join(".bench_build", "e2e-%d.sock" % os.getpid())
    command = [BINARY, "--socket", socket]
    tag = "self-check"
    if args.self_check:
        command.append("--self-check")
    else:
        tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
        command += ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            command += ["--trace-out",
                        os.path.join(".bench_build", "results",
                                     "trace-%s.json" % tag)]

    nproc = os.cpu_count() or 1
    load_before = load_average()
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, text=True,
                              stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S)
        return 2
    load_after = load_average()
    lines = done.stdout.rstrip("\n").split("\n")
    if args.self_check:
        print("\n".join(lines))
        return done.returncode

    try:
        report = json.loads(lines[-1])
    except (ValueError, IndexError):
        print("\n".join(lines))
        log("run.py: the benchmark printed no report (exit %d)"
            % done.returncode)
        return 2
    print("\n".join(lines[:-1]))

    host = dict(report["host"], nproc=nproc, cpu_model=cpu_model(),
                load_before=load_before, load_after=load_after,
                overloaded_at_start=load_before[0] > nproc,
                unset_env=[k for k in UNSET_ENV if k in os.environ])
    report["host"] = host
    report["shape_check"] = compare_shape(args.workload, args.seed,
                                          report["shape"])
    print("host: %d cpus (%s), simd %s, %s, %s build, load %.2f -> %.2f"
          % (nproc, host["cpu_model"], host["simd_active"], host["compiler"],
             host["build_type"], load_before[0], load_after[0]))
    if host["overloaded_at_start"]:
        print("WARNING: load average %.2f exceeded %d cpus when the run "
              "started; its timings are suspect" % (load_before[0], nproc))
    print("shape: " + json.dumps(report["shape"]) + " -- " +
          report["shape_check"])
    with open(os.path.join(RESULTS, tag + ".json"), "w") as f:
        json.dump(report, f, indent=1)

    metrics = report["metrics"]
    missing = [name for name in metric_names(args.trace) if name not in metrics]
    if missing:
        log("run.py: the benchmark did not report " + ", ".join(missing))
        return 2
    print(json.dumps({
        "correct": bool(report["correct"]) and done.returncode == 0,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {name: metrics[name]
                    for name in metric_names(args.trace)},
    }))
    return 0 if report["correct"] and done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
