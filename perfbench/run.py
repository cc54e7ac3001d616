#!/usr/bin/env python3
"""Repository benchmark: builds the program from source and runs one workload.

    python3 perfbench/run.py --workload presets|hospital|pipeline \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program is built (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: every end-to-end metric of
BENCHMARK.json with --trace 0, every per-layer metric with --trace 1. The
line before it holds the run's stamp (host, build and load settings). A full
report, with every unit time, and the traced run's span file are left under
<build dir>/reports.
See perfbench/README.md for what each workload and metric means.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("presets", "hospital", "pipeline")
# Set-up is measured in separate set-up-only processes, half before and
# half after the measured run, so a host slowdown of a few seconds cannot
# hit all of them; the reported figure is their median.
SETUP_SPAWNS = 16
CHILD_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure and build the benchmark; returns the workload binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no program sources under {ROOT}/src; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(ROOT, target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, "configure")
    run_quiet(["cmake", "--build", out, "-j", jobs], "build")
    return os.path.join(out, "perfbench_workload"), out


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace")[-8000:])
        fail(f"{what} failed ({' '.join(cmd)})")


def spawn(binary, args):
    """Run one workload process; returns its result dict."""
    t0 = time.monotonic_ns()
    proc = subprocess.Popen([binary] + args + ["--spawn-ns", str(t0)],
                            stdout=subprocess.PIPE, cwd=ROOT)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        status = proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
    if status != 0:
        fail(f"workload process exited with {status}: {' '.join(args)}")
    lines = out.decode().strip().splitlines()
    if not lines:
        fail("workload process printed nothing")
    return json.loads(lines[-1])


def git_sha():
    """HEAD of the checkout if it is a git work tree; read without git so
    nothing outside the checkout is touched."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["end_to_end"], bench["per_layer"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    end_to_end, per_layer = declared()
    binary, build_dir = build()
    nproc = os.cpu_count() or 1
    # Load comes from at most nproc threads and connections. Every workload
    # is a closed loop on one thread; the traced pipeline run ends with a
    # serve session over its connections.
    threads, connections = 1, 0
    if args.workload == "pipeline":
        connections = min(4, nproc)
    reports = os.path.join(build_dir, "reports")
    os.makedirs(reports, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--threads", str(threads),
              "--connections", str(connections), "--out-dir", reports]

    setup = []
    if not args.trace:
        for _ in range(SETUP_SPAWNS // 2):
            setup.append(spawn(binary, common + ["--trace", "0", "--setup-only"])["setup_s"])
    result = spawn(binary, common + ["--trace", str(args.trace)])
    if not args.trace:
        setup.append(result["setup_s"])
        for _ in range(SETUP_SPAWNS - SETUP_SPAWNS // 2):
            setup.append(spawn(binary, common + ["--trace", "0", "--setup-only"])["setup_s"])

    measured = dict(result["metrics"])
    if args.trace:
        wanted = per_layer
    else:
        wanted = end_to_end
        measured["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not args.trace:
                fail(f"workload {args.workload} did not report {m['name']}")
            # A layer this workload never calls into did no work here.
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"] or got["value"] is None:
            fail(f"metric {m['name']}: got {got}, declared unit {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    extra = sorted(set(measured) - set(metrics))
    if extra:
        fail(f"workload {args.workload} reported undeclared metrics {extra}")

    stamp = dict(result.get("stamp", {}))
    stamp.update({"workload": args.workload, "git_sha": git_sha(),
                  "seconds": str(args.seconds), "trace": str(args.trace)})
    if setup:
        stamp["setup_samples_s"] = " ".join(f"{s:.6f}" for s in setup)
    line = {"correct": bool(result["correct"]) and result["failed"] == 0,
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(reports, name), "w") as f:
        json.dump({"stamp": stamp, "samples": result.get("samples", {}), **line},
                  f, indent=1, sort_keys=True)
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
