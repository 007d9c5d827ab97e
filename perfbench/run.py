#!/usr/bin/env python3
"""The repository benchmark: builds palb_perf and runs one workload.

    python3 perfbench/run.py --workload plan_paper --seed 1 --seconds 10 --trace 0

Run it from the repository root. It configures and builds
perfbench/CMakeLists.txt into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the measuring program, checks that every
metric BENCHMARK.json declares was reported, and prints the environment
block, a metric table and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes the spans to trace-<workload>.jsonl in the build directory).
Exit status: 0 when every output check passed, 1 when one failed, 2 when
the benchmark could not run. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("plan_paper", "plan_fleet", "serve_steady")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--fleet-seed", type=int, default=9090,
                   help="plan_fleet topology and input seed")
    p.add_argument("--request-seed", type=int, default=None,
                   help="request-stream seed (default: --seed)")
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--inject-plan", default=None,
                   help="also feed this basic-low plan document through the "
                        "output check")
    return p.parse_args(argv)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    """Configures once, then builds palb_perf incrementally."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no palb sources next to perfbench/ (src/ missing)")
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "palb_perf",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "palb_perf")


def git_commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def main(argv):
    args = parse_args(argv)
    try:
        end_to_end, per_layer = declared_metrics()
        out = build_dir()
        binary = build(out)
    except (OSError, RuntimeError, KeyError, ValueError,
            subprocess.CalledProcessError) as e:
        log(f"perfbench: cannot build: {e}")
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--fleet-seed", str(args.fleet_seed), "--size", args.size]
    if args.request_seed is not None:
        cmd += ["--request-seed", str(args.request_seed)]
    if args.inject_plan:
        cmd += ["--inject-plan", os.path.abspath(args.inject_plan)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(out, f"trace-{args.workload}.jsonl")]
    # SIGTERM ends the run like Ctrl-C, so the child is always stopped and
    # waited for before run.py exits.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: palb_perf timed out")
        return 2
    except KeyboardInterrupt:
        log("perfbench: interrupted")
        return 2
    lines = r.stdout.strip().splitlines()
    try:
        if r.returncode not in (0, 1) or not lines:
            raise ValueError(f"status {r.returncode}")
        report = json.loads(lines[-1])
    except ValueError as e:
        log(f"perfbench: palb_perf failed: {e}")
        return 2
    report["environment"]["git_commit"] = git_commit()
    report["environment"]["nproc"] = os.cpu_count()
    with open(os.path.join(out, f"report-{args.workload}.json"), "w") as f:
        json.dump(report, f, indent=2)

    wanted = per_layer if args.trace else end_to_end
    measured = report["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        log(f"perfbench: metrics not reported: {', '.join(missing)}")
        return 2
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    for key, value in report["environment"].items():
        print(f"  env {key}: {value}")
    for key, value in report["samples"].items():
        print(f"  samples {key}: {int(value)}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>18.6g} {m['unit']}")
    print(json.dumps({"correct": report["correct"],
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
