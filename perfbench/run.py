#!/usr/bin/env python3
"""Build and run famtree's end-to-end benchmark.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-test

The first form configures and builds perfbench/ (a CMake package that
compiles the checkout's own sources) into .bench_build/perfbench, then runs
one workload. The last line of standard output is the JSON result; build
logs go to standard error. The exit code is the benchmark's: 0 only when
every correctness check passed.

The binary reports bare metric values by name; this script attaches the
units BENCHMARK.json declares, so the metric list lives in one place. A
per-layer metric a workload does not exercise reads 0.

--self-test runs every workload at tiny size, traced and untraced, checks
that every workload reports every end-to-end metric and that every per-layer
metric is reported by some workload, and checks that the correctness checks
catch a corrupted reference (--sabotage).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "famtree_perfbench")
WORKLOADS = ["csv-to-cover", "pairwise-rules", "append-repair", "serve-mixed"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then let the build tool bring the binary up to date."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"perfbench: {needed} missing at the checkout root; "
                "nothing to build")
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "famtree_perfbench",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def source_rev():
    """git revision when there is one, plus a digest of the sources."""
    rev = "nogit"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True)
        if out.returncode == 0:
            rev = out.stdout.strip()
    digest = hashlib.sha1()
    for top in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return f"{rev}+src.{digest.hexdigest()[:12]}"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_binary(extra):
    """Runs the binary; returns its exit code, its output lines before the
    result, and the result (None when it printed none)."""
    proc = subprocess.Popen([BINARY] + extra, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    lines = [l for l in out.splitlines() if l.strip()]
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines.pop())
    return proc.returncode, lines, result


def with_units(result, spec, trace):
    """The result with every metric BENCHMARK.json declares for this kind of
    run, each with its declared unit. Raises KeyError when an end-to-end
    metric is missing."""
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    metrics = {}
    for m in declared:
        value = result["metrics"].get(m["name"])
        if value is None:
            if trace == "0":
                raise KeyError(m["name"])
            value = 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return dict(result, metrics=metrics)


def self_test(rev):
    spec = load_spec()
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    layer_seen = set()
    problems = []
    for w in WORKLOADS:
        base = ["--workload", w, "--seed", "7", "--seconds", "1", "--tiny",
                "--rev", rev]
        for trace in ("0", "1"):
            code, _, res = run_binary(base + ["--trace", trace])
            if code != 0 or not res or not res["correct"] or res["failed"]:
                problems.append(f"{w} trace={trace}: exit {code}")
                continue
            if trace == "1":
                layer_seen |= set(res["metrics"])
            elif e2e - set(res["metrics"]):
                problems.append(f"{w}: missing "
                                f"{sorted(e2e - set(res['metrics']))}")
        code, _, res = run_binary(base + ["--trace", "0", "--sabotage"])
        if code == 0 or not res or res["correct"] or res["failed"] < 1:
            problems.append(f"{w}: corrupted reference not detected "
                            f"(exit {code})")
        log(f"self-test {w}: {'ok' if not problems else 'FAILED'}")
        if problems:
            break
    if not problems and layer - layer_seen:
        problems.append(f"per-layer metrics no workload reports: "
                        f"{sorted(layer - layer_seen)}")
    for p in problems:
        log(f"FAILED {p}")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not build():
        log("perfbench: build failed")
        return 2
    rev = source_rev()
    if args.self_test:
        return self_test(rev)
    code, lines, result = run_binary(
        ["--workload", args.workload, "--seed", str(args.seed), "--seconds",
         str(args.seconds), "--trace", args.trace, "--rev", rev])
    for line in lines:
        print(line)
    if result is None:
        log(f"perfbench: no result (exit {code})")
        return code or 2
    try:
        result = with_units(result, load_spec(), args.trace)
    except KeyError as missing:
        log(f"perfbench: the run did not report {missing}")
        return 2
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
