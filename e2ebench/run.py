#!/usr/bin/env python3
"""End-to-end solve benchmark driver.

Builds bench_e2e from the sources of the checkout it sits in (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs each workload in its own child
process, and prints the results. For a single workload the last line of
standard output is the result JSON:

  {"correct": true, "attempted": 60, "failed": 0, "metrics": {...}}

Examples (from the repository root):

  python3 e2ebench/run.py --workload solve-large --seed 1746 --trace 0
  python3 e2ebench/run.py --workload solve-large --trace 1
  python3 e2ebench/run.py --workload all --seed 1746 --out e2e.json
  python3 e2ebench/run.py --workload all --repeat 10 --vary-seed

--repeat N alternates the workload order between rounds and prints, per
(workload, metric), the median and the quartile spread as a share of the
median next to the bound from BENCHMARK.json. Exit status is 0 only when
every run passed its correctness checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["solve-large", "solve-small", "dist-3rank", "converge-ckpt"]
CHILD_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    """BENCHMARK.json at the repository root, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f)


def build(build_root):
    """Configures and builds bench_e2e; returns the binary path."""
    build_dir = os.path.join(build_root, "e2ebench")
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "bench_e2e",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "bench_e2e")


def run_workload(binary, build_root, workload, seed, seconds, trace, spec):
    """Runs one workload in a child process. Returns its result dict, or
    None when the child failed without printing one."""
    scratch = os.path.join(build_root, "tmp")
    traces = os.path.join(build_root, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", scratch,
           "--trace-file", os.path.join(
               traces, "%s.seed%d.trace.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: %s timed out after %d s" % (workload, CHILD_TIMEOUT_S))
        return None
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("run.py: %s exited %d without a result" % (workload,
                                                      proc.returncode))
        return None
    if proc.returncode != 0:
        result["correct"] = False
    if spec is not None:
        want = {m["name"] for m in spec["per_layer" if trace else
                                          "end_to_end"]}
        got = set(result["metrics"])
        if want != got:
            log("run.py: metrics differ from BENCHMARK.json: missing %s, "
                "extra %s" % (sorted(want - got), sorted(got - want)))
            result["correct"] = False
    return result


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def summarize(runs, spec):
    """Prints median and spread per (workload, metric); returns the
    medians keyed 'workload.metric'."""
    bounds = {}
    if spec is not None:
        bounds = {m["name"]: m.get("bound") for m in
                  spec["end_to_end"] + spec["per_layer"]}
    medians = {}
    print("%-14s %-32s %14s %8s %10s %6s" % (
        "workload", "metric", "median", "unit", "iqr/med", "bound"))
    for workload in WORKLOADS:
        results = [r for w, r in runs if w == workload and r is not None]
        if not results:
            continue
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results
                      if name in r["metrics"]]
            med = statistics.median(values)
            medians[workload + "." + name] = {"value": med,
                                              "unit": first["unit"]}
            bound = bounds.get(name)
            print("%-14s %-32s %14.6g %8s %9.2f%% %6s" % (
                workload, name, med, first["unit"], 100 * spread(values),
                "" if bound is None else "%g%%" % (100 * bound)))
    return medians


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1746)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"] if spec else 15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="rounds over the selected workloads")
    parser.add_argument("--vary-seed", action="store_true",
                        help="round r uses seed + r")
    parser.add_argument("--out", help="write every result here as JSON")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(build_root)
    except subprocess.CalledProcessError as e:
        sys.exit("run.py: build failed: %s" % " ".join(e.cmd))
    selected = WORKLOADS if args.workload == "all" else [args.workload]

    runs = []
    for r in range(args.repeat):
        order = selected if r % 2 == 0 else selected[::-1]
        seed = args.seed + r if args.vary_seed else args.seed
        for workload in order:
            log("run.py: round %d, %s, seed %d" % (r, workload, seed))
            runs.append((workload, run_workload(
                binary, build_root, workload, seed, args.seconds,
                args.trace, spec)))

    ok = all(r is not None and r["correct"] and r["failed"] == 0
             for _, r in runs)
    if len(runs) == 1:
        result = runs[0][1]
        if result is None:
            sys.exit(1)
        final = result
    else:
        final = {
            "correct": ok,
            "attempted": sum(r["attempted"] for _, r in runs if r),
            "failed": sum(r["failed"] for _, r in runs if r),
            "metrics": summarize(runs, spec),
        }
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seed": args.seed, "repeat": args.repeat,
                       "vary_seed": args.vary_seed, "trace": args.trace,
                       "runs": [{"workload": w, "result": r}
                                for w, r in runs]}, f, indent=1)
    print(json.dumps(final), flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
