#!/usr/bin/env python3
"""Self-test of the repo benchmark.

    python3 perfbench/selftest.py

Run from the repository root. For every workload in BENCHMARK.json it
checks that
  - a short untraced run passes its correctness check and prints every
    end-to-end metric, with the unit BENCHMARK.json names, and no other;
  - a short traced run does the same for every per-layer metric;
  - a run with a deliberately corrupted output fails its correctness
    check: exit code non-zero, "correct": false, at least one failure;
and that the command exits non-zero without a result in a directory
holding only BENCHMARK.json and the benchmark's own files.
"""
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = "2"


def run(spec, workload, trace, cwd=ROOT, extra=()):
    cmd = spec["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", SECONDS, "--trace", trace]
    cmd += list(extra)
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def check_metrics(result, expected, label, failures):
    if result is None:
        failures.append("%s: no JSON result" % label)
        return
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        failures.append("%s: unexpected keys %s" % (label, sorted(result)))
    got = result.get("metrics", {})
    for metric in expected:
        name = metric["name"]
        if name not in got:
            failures.append("%s: metric %s missing" % (label, name))
            continue
        if got[name].get("unit") != metric["unit"]:
            failures.append("%s: %s has unit %r, BENCHMARK.json says %r" % (
                label, name, got[name].get("unit"), metric["unit"]))
        value = got[name].get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append("%s: %s value %r" % (label, name, value))
    extra = set(got) - {m["name"] for m in expected}
    if extra:
        failures.append("%s: metrics not in BENCHMARK.json: %s" % (
            label, sorted(extra)))
    if not result.get("correct") or result.get("failed") != 0:
        failures.append("%s: correct=%s failed=%s" % (
            label, result.get("correct"), result.get("failed")))
    if not result.get("attempted", 0) >= 1:
        failures.append("%s: attempted=%s" % (label, result.get("attempted")))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in (("0", spec["end_to_end"]),
                                ("1", spec["per_layer"])):
            label = "%s --trace %s" % (workload, trace)
            code, result = run(spec, workload, trace)
            if code != 0:
                failures.append("%s: exit code %d" % (label, code))
            check_metrics(result, expected, label, failures)
            print("checked", label, flush=True)

        label = "%s --corrupt" % workload
        code, result = run(spec, workload, "0", extra=["--corrupt"])
        if code == 0:
            failures.append("%s: exit code 0" % label)
        if result is None or result.get("correct") is not False or \
                result.get("failed", 0) < 1:
            failures.append("%s: corruption not detected: %s" % (
                label, result and {k: result[k] for k in
                                   ("correct", "attempted", "failed")}))
        print("checked", label, flush=True)

    # Only BENCHMARK.json and the benchmark's own files: nothing to build.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    workload = spec["workloads"][0]["name"]
    code, result = run(spec, workload, "0", cwd=bare)
    if code == 0 or result is not None:
        failures.append("bare directory: exit %d, result %r" % (code, result))
    shutil.rmtree(bare, ignore_errors=True)
    print("checked bare directory", flush=True)

    for failure in failures:
        print("FAIL:", failure)
    print("selftest: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
