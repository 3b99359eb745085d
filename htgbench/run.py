#!/usr/bin/env python3
"""htgbench runner: builds the harness from source and runs one workload.

Run from the root of a checkout:

  python3 htgbench/run.py --workload dge-bin --seed 1 --seconds 25 --trace 0
  python3 htgbench/run.py --selftest
  python3 htgbench/run.py compare <reports A> <reports B>

A run prints the harness's human-readable report and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. --trace 0 gives the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones. Each run
also writes .bench_out/<workload>-s<seed>-t<trace>.report.json (fingerprint,
per-rep series with drift, checks, span summary) and, when traced, the
spans in .trace.json.

An untraced run splits its seconds over PROCESSES harness processes on the
same inputs and reports, per metric, the median of the processes' values:
each process gets its own address-space layout, and one process can run
several percent slow throughout.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "htgbench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "htgbench")
WORKLOADS = ("dge-bin", "reseq-workflow", "server-mixed")
RUN_TIMEOUT_S = 170
PROCESSES = 3


def fail(message, code=2):
    print("htgbench: " + message, file=sys.stderr)
    sys.exit(code)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def source_id():
    """git sha when the checkout is a repository, plus a digest of the
    engine and harness sources (a checkout without .git has only that)."""
    digest = hashlib.sha256()
    for top in ("src", "htgbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    ident = "src:" + digest.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if sha.returncode == 0:
            ident = "git:" + sha.stdout.strip()[:12] + " " + ident
    return ident


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "catalog", "database.h")):
        fail("engine sources (src/) not found next to htgbench/")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(tool + " not found")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-8000:])
            fail("build failed: " + " ".join(step))


def run_binary(args, timeout):
    """Runs the harness; returns (stdout lines, result dict)."""
    env = dict(os.environ, HTGBENCH_SOURCE_ID=source_id())
    try:
        done = subprocess.run([BINARY, "--out", OUT] + args, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("harness timed out after %d s" % timeout, 1)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write("\n".join(lines[:-1]) + "\n")
        fail("harness exited with code %d" % done.returncode, 1)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("harness printed no result line", 1)
    return lines, result


def validate(result, trace, benchmark):
    """Schema check of one result line against BENCHMARK.json."""
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(result))
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int):
            problems.append(key + " is not an integer")
    if result["attempted"] < 1:
        problems.append("attempted < 1")
    wanted = benchmark["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    if list(result["metrics"]) != names:
        problems.append("metric names %s, want %s"
                        % (list(result["metrics"]), names))
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append("%s unit %r, want %r"
                            % (m["name"], got.get("unit"), m["unit"]))
        if not isinstance(got.get("value"), (int, float)):
            problems.append(m["name"] + " value is not a number")
        elif not trace and got["value"] == 0:
            problems.append(m["name"] + " is 0")
    return problems


def report_path(workload, seed, trace, part=None):
    suffix = "" if part is None else "-p%d" % part
    return os.path.join(OUT, "%s-s%d-t%d%s.report.json"
                        % (workload, seed, trace, suffix))


def run_workload(workload, seed, seconds, trace, extra=()):
    """One run: a single traced process, or PROCESSES untraced ones whose
    metrics are combined by median. Returns (stdout lines, result, the
    report files written)."""
    base = ["--workload", workload, "--seed", str(seed), "--trace",
            str(trace)] + list(extra)
    if trace:
        lines, result = run_binary(base + ["--seconds", str(seconds)],
                                   RUN_TIMEOUT_S)
        return lines, result, [report_path(workload, seed, trace)]
    lines, parts, reports = [], [], []
    per_process_timeout = RUN_TIMEOUT_S / PROCESSES
    for part in range(PROCESSES):
        part_lines, result = run_binary(
            base + ["--seconds", str(seconds / PROCESSES), "--part",
                    str(part)], per_process_timeout)
        lines.extend(part_lines[:-1])
        parts.append(result)
        reports.append(report_path(workload, seed, trace, part))
    names = list(parts[0]["metrics"])
    combined = {
        "correct": all(p["correct"] for p in parts),
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "metrics": {
            name: {"value": statistics.median(
                       p["metrics"][name]["value"] for p in parts),
                   "unit": parts[0]["metrics"][name]["unit"]}
            for name in names},
    }
    with open(reports[0]) as f:
        fingerprint = json.load(f)["fingerprint"]
    fingerprint.update(seconds=seconds, part=-1, processes=PROCESSES)
    with open(report_path(workload, seed, trace), "w") as f:
        json.dump(dict(combined, fingerprint=fingerprint, parts=reports), f,
                  indent=1)
    lines.append("combined (median of %d processes): %s"
                 % (PROCESSES, ", ".join(
                     "%s %.6g %s" % (n, m["value"], m["unit"])
                     for n, m in combined["metrics"].items())))
    lines.append(json.dumps(combined))
    return lines, combined, reports


def cmd_run(args):
    if args.workload not in WORKLOADS:
        fail("unknown workload %r (one of %s)" % (args.workload,
                                                  ", ".join(WORKLOADS)))
    build()
    lines, result, _ = run_workload(args.workload, args.seed, args.seconds,
                                    args.trace)
    problems = validate(result, args.trace == 1, spec())
    if problems:
        sys.stderr.write("\n".join(lines) + "\n")
        fail("result does not match BENCHMARK.json: " + "; ".join(problems),
             1)
    print("\n".join(lines))


def cmd_selftest():
    """Tiny-scale runs of every workload, traced and untraced: checks the
    output schema, metric names and units, that every correctness check
    passes and no operation fails, and that every check rejects a
    deliberately wrong expected value."""
    build()
    benchmark = spec()
    bad = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            _, result, reports = run_workload(
                workload, 7, 3, trace, ["--scale", "0.05", "--selftest"])
            problems = validate(result, trace == 1, benchmark)
            # Every workload is built so that no operation fails.
            if not result["correct"] or result["failed"]:
                problems.append("run not correct or %d failed"
                                % result["failed"])
            checks = {}
            for path in reports:
                with open(path) as f:
                    for name, verdict in json.load(f)["checks"].items():
                        seen = checks.setdefault(name, [True, True])
                        seen[0] &= verdict["pass"]
                        seen[1] &= verdict["rejects_wrong_expected"]
            if not checks:
                problems.append("no correctness checks ran")
            for name, (passed, rejects) in sorted(checks.items()):
                if not passed:
                    problems.append("check %s failed" % name)
                if not rejects:
                    problems.append("check %s accepts a wrong expected value"
                                    % name)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("selftest %-15s trace=%d checks=%-60s %s"
                  % (workload, trace, ",".join(sorted(checks)), status))
            bad.extend(problems)
    if bad:
        fail("selftest failed", 1)
    print("selftest passed")


# Fingerprint fields that must agree before two results are compared; the
# source id is what a comparison is for.
COMPARABLE = ("nproc", "cpu", "compiler", "build_type", "workload", "seed",
              "scale", "seconds", "trace", "processes")


def load_reports(path):
    paths = [path]
    if os.path.isdir(path):
        # Per-process part reports are folded into their run's report.
        paths = [os.path.join(path, p) for p in sorted(os.listdir(path))
                 if p.endswith(".report.json")
                 and not re.search(r"-p\d+\.report\.json$", p)]
    reports = []
    for p in paths:
        with open(p) as f:
            reports.append(json.load(f))
    return reports


def cmd_compare(a_path, b_path):
    """Compares two sets of reports (parent and change) per workload and
    metric: medians, change, and the bound BENCHMARK.json fixes. Refuses
    pairs whose fingerprints differ in anything but the source."""
    a, b = load_reports(a_path), load_reports(b_path)

    def key(r):
        fp = r["fingerprint"]
        return (fp["workload"], fp["seed"], fp["trace"])

    b_by_key = {key(r): r for r in b}
    pairs = []
    for ra in a:
        rb = b_by_key.get(key(ra))
        if rb is None:
            continue
        for field in COMPARABLE:
            if ra["fingerprint"].get(field) != rb["fingerprint"].get(field):
                fail("refusing to compare %s: fingerprint field %s differs "
                     "(%r vs %r)" % (key(ra), field, ra["fingerprint"].get(field),
                                     rb["fingerprint"].get(field)), 1)
        pairs.append((ra, rb))
    if not pairs:
        fail("no report in both sets has the same workload, seed and trace",
             1)
    bounds = {m["name"]: m for m in spec()["end_to_end"]}
    rows = {}
    for ra, rb in pairs:
        wl = ra["fingerprint"]["workload"]
        for name, m in ra["metrics"].items():
            if name in rb["metrics"]:
                rows.setdefault((wl, name), ([], []))
                rows[(wl, name)][0].append(m["value"])
                rows[(wl, name)][1].append(rb["metrics"][name]["value"])
    print("%-16s %-30s %12s %12s %8s %6s  %s"
          % ("workload", "metric", "median A", "median B", "change",
             "bound", "verdict"))
    for (wl, name), (va, vb) in sorted(rows.items()):
        ma, mb = statistics.median(va), statistics.median(vb)
        change = (mb - ma) / ma if ma else 0.0
        spec_m = bounds.get(name)
        verdict = ""
        if spec_m:
            worse = change if spec_m["better"] == "lower" else -change
            verdict = ("worse beyond bound" if worse > spec_m["bound"]
                       else "within bound")
        print("%-16s %-30s %12.5g %12.5g %+7.1f%% %6s  %s"
              % (wl, name, ma, mb, 100 * change,
                 spec_m["bound"] if spec_m else "-", verdict))


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            fail("usage: run.py compare <reports A> <reports B>")
        cmd_compare(sys.argv[2], sys.argv[3])
        return
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        cmd_selftest()
    elif args.workload:
        cmd_run(args)
    else:
        parser.error("--workload or --selftest is required")


if __name__ == "__main__":
    main()
