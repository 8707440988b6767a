#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload kv-update --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout. It configures and builds
perfbench/ (which compiles the repository's medley library from src/) into
$CARGO_TARGET_DIR (default .bench_build), runs it, and prints its
notes, a host/build stamp line, and, as the last line of stdout,
one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json,
--trace 1 the per-layer ones. Every result is also written, with its
stamp, under <build dir>/results/. See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_TYPE = "RelWithDebInfo"
RUNNER_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure once, then build incrementally; build logs go to stderr."""
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", BENCH_DIR, "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
            if subprocess.run(["which", "ninja"], capture_output=True).returncode == 0:
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                fail("cmake configure failed")
        jobs = str(os.cpu_count() or 1)
        if subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed")
    return os.path.join(bdir, "perfbench_runner")


def source_digest():
    """SHA-256 over the library and benchmark sources (names + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def stamp(bdir, args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = "unknown"
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    cxx = line.split("=", 1)[1].strip()
                    out = subprocess.run([cxx, "--version"], capture_output=True,
                                         text=True).stdout
                    compiler = out.splitlines()[0] if out else cxx
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "kernel": platform.release(),
        "compiler": compiler,
        "build_type": BUILD_TYPE,
        "git_commit": commit,
        "source_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["kv-update", "kv-scan"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--plant-wrong-read", action="store_true",
                    help="smoke-test hook: store one value under the wrong "
                         "key's tag, which the output checks must catch")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    for need in (spec_path, os.path.join(ROOT, "CMakeLists.txt"),
                 os.path.join(ROOT, "src")):
        if not os.path.exists(need):
            fail("not a source checkout: %s is missing" % os.path.relpath(need, ROOT))
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    bdir = build_dir()
    runner = build(bdir)
    span_dir = os.path.join(bdir, "spans")
    os.makedirs(span_dir, exist_ok=True)
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--span-dir", span_dir]
    if args.plant_wrong_read:
        cmd.append("--plant-wrong-read")
    try:
        run = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUNNER_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("runner did not finish within %d s" % RUNNER_TIMEOUT_S)
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail("runner exited with code %d" % run.returncode)
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    for m in wanted:
        if m["name"] not in metrics:
            fail("runner did not report %s" % m["name"])
        if metrics[m["name"]]["unit"] != m["unit"]:
            fail("%s reported in %s, BENCHMARK.json says %s"
                 % (m["name"], metrics[m["name"]]["unit"], m["unit"]))
    extra = sorted(set(metrics) - {m["name"] for m in wanted})
    if extra:
        fail("runner reported metrics BENCHMARK.json does not list: %s"
             % ", ".join(extra))

    st = stamp(bdir, args)
    for line in lines[:-1]:
        print(line)
    print("# stamp " + json.dumps(st, sort_keys=True))
    os.makedirs(os.path.join(bdir, "results"), exist_ok=True)
    out = os.path.join(bdir, "results", "%s-seed%d-trace%d.json"
                       % (args.workload, args.seed, args.trace))
    with open(out, "w") as f:
        json.dump({"stamp": st, "notes": lines[:-1], "result": result}, f,
                  indent=1, sort_keys=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
