#!/usr/bin/env python3
"""The repository benchmark: build, prepare inputs, measure one workload.

    python3 perfbench/run.py --workload opt_chain --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root (any directory works; paths resolve against
this file). The engine is built from source with CMake into
`.bench_build/`, and seeded inputs and scratch databases live in
`.bench_work/`, both at the repository root.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`. The line before
it is the full report (host context, seed, triple count, flush policy,
sample counts). The exit status is non-zero, and no result is printed,
when the build fails, the engine sources are missing, or any answer is
wrong.

`--smoke` runs every workload briefly, traced and untraced, and checks
that each run passes its correctness gate and emits every metric named in
BENCHMARK.json with that metric's unit.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_work"
WORKLOADS = ("opt_chain", "union_join", "serve_mixed")
# Prepared seeds kept on disk (each holds a ~20 MB snapshot).
KEEP_PREPARED = 4
# Phase limits: a first run (which builds) ends within 15 minutes, any
# later run within 3.
BUILD_TIMEOUT_S = 600
PREPARE_TIMEOUT_S = 90
RUN_TIMEOUT_S = 80


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def run_child(cmd, timeout, **kwargs):
    """Runs `cmd` to completion (killing it on timeout); returns it."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, out


def build():
    missing = [p for p in ("CMakeLists.txt", "src", "include") if not (ROOT / p).exists()]
    if missing:
        log("engine sources not found next to perfbench/ (missing: %s)" % ", ".join(missing))
        return None
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        code, _ = run_child(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            log("cmake configure failed")
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    code, _ = run_child(["cmake", "--build", str(BUILD_DIR), "--target", "wdperf", "-j", jobs],
                        BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        log("build failed")
        return None
    return BUILD_DIR / "wdperf"


def file_digest(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        code, out = run_child(["git", "-C", str(ROOT), "rev-parse", "HEAD"], 30,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if code == 0:
            return out.strip()
    files = sorted(p for d in ("src", "include", "perfbench") for p in (ROOT / d).rglob("*")
                   if p.is_file())
    return "sources-sha256:" + file_digest(files + [ROOT / "CMakeLists.txt"])


def prepare(binary, workload, seed):
    """The prepared-input directory for this seed and build (cached)."""
    prepared_root = WORK_DIR / "prepared"
    target = prepared_root / ("seed%d-%s" % (seed, file_digest([binary])))
    target.mkdir(parents=True, exist_ok=True)
    code, _ = run_child([str(binary), "prepare", "--workload", workload, "--seed", str(seed),
                         "--dir", str(target)], PREPARE_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        return None
    os.utime(target)
    stale = sorted(prepared_root.iterdir(), key=lambda p: p.stat().st_mtime)[:-KEEP_PREPARED]
    for old in stale:
        shutil.rmtree(old, ignore_errors=True)
    return target


def measure(binary, workload, seed, seconds, trace):
    """Runs one measurement; returns (exit code, stdout lines)."""
    prepared = prepare(binary, workload, seed)
    if prepared is None:
        log("preparing inputs failed")
        return 1, []
    work = WORK_DIR / ("run-%d" % os.getpid())
    traces = WORK_DIR / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--prepared", str(prepared), "--work-dir", str(work),
           "--trace-file", str(traces / ("%s-seed%d.json" % (workload, seed))),
           "--source-id", source_id()]
    try:
        code, out = run_child(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return code, out.splitlines()


def check(condition, message):
    if not condition:
        raise SystemExit("run.py: smoke: " + message)


def smoke(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    check({w["name"] for w in spec["workloads"]} <= set(WORKLOADS), "unknown workload")
    for workload in WORKLOADS:
        for trace in (0, 1):
            started = time.monotonic()
            code, lines = measure(binary, workload, 7, 1, trace)
            if code != 0 or not lines:
                log("smoke: %s trace=%d exited %d" % (workload, trace, code))
                return 1
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  "result keys %s" % sorted(result))
            check(result["correct"] is True and result["attempted"] >= 1, str(result))
            metrics = result["metrics"]
            names = [m["name"] for m in wanted[trace]]
            check(sorted(metrics) == sorted(names),
                  "metric names differ: %s" % sorted(set(metrics) ^ set(names)))
            for m in wanted[trace]:
                got = metrics[m["name"]]
                check(got["unit"] == m["unit"],
                      "%s has unit %s, not %s" % (m["name"], got["unit"], m["unit"]))
                check(isinstance(got["value"], (int, float)), "%s: %s" % (m["name"], got))
            log("smoke: %s trace=%d ok (%d metrics, %.1f s)"
                % (workload, trace, len(metrics), time.monotonic() - started))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if binary is None:
        return 2
    if args.smoke:
        return smoke(binary)
    code, lines = measure(binary, args.workload, args.seed, args.seconds, args.trace)
    # A failed run prints no result: its report goes to stderr only.
    for line in lines:
        print(line, file=sys.stdout if code == 0 else sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
