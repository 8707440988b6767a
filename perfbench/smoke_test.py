#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a seconds-long scale.

    python3 perfbench/smoke_test.py

For every workload it runs perfbench/run.py untraced and traced for one
second and asserts that each metric BENCHMARK.json names is printed with
its unit, that the run is correct, and that end-to-end values are
positive. Then it plants one value tagged with the wrong key in each
workload's store and asserts the output checks count it in `failed`.
Exits non-zero on the first failed assertion.
"""

import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd + list(extra), capture_output=True, text=True,
                         cwd=ROOT, timeout=600)
    assert out.returncode == 0, "%s exited %d:\n%s" % (
        " ".join(cmd), out.returncode, out.stderr[-2000:])
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_metrics(res, wanted, label, positive):
    for m in wanted:
        got = res["metrics"].get(m["name"])
        assert got is not None, "%s: %s not printed" % (label, m["name"])
        assert got["unit"] == m["unit"], "%s: %s in %s, expected %s" % (
            label, m["name"], got["unit"], m["unit"])
        assert math.isfinite(got["value"]), "%s: %s = %r" % (
            label, m["name"], got["value"])
        if positive:
            assert got["value"] > 0, "%s: %s = %r, expected > 0" % (
                label, m["name"], got["value"])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = "%s trace %d" % (name, trace)
            res = run(name, trace)
            assert res["correct"] and res["failed"] == 0, "%s: %r" % (
                label, {k: res[k] for k in ("correct", "attempted", "failed")})
            assert res["attempted"] > 0, label
            check_metrics(res, spec[key], label, positive=trace == 0)
            print("ok  %s: %d ops, all %d metrics" % (
                label, res["attempted"], len(spec[key])))
        res = run(name, 0, "--plant-wrong-read")
        assert not res["correct"] and res["failed"] >= 1, (
            "%s: planted wrong-key read not counted: %r" % (
                name, {k: res[k] for k in ("correct", "attempted", "failed")}))
        print("ok  %s: planted wrong-key read counted (%d failed of %d)" % (
            name, res["failed"], res["attempted"]))
    print("smoke test passed")


if __name__ == "__main__":
    main()
