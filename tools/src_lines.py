#!/usr/bin/env python3
"""Line counts of the engine sources, per src/ module.

Counts every line of every file under src/<module>/ in the working tree.
With --base <git-ref>, also counts the same modules at that ref and prints
the change, so a PR can state its net lines in src/:

  tools/src_lines.py                 # lines per module
  tools/src_lines.py --base HEAD~1   # lines, lines at HEAD~1, delta

Report-only: the exit status is 0 whatever the numbers are.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def count_lines(data):
    return data.count(b"\n") + (1 if data and not data.endswith(b"\n") else 0)


def module_of(rel_path):
    """src/exec/batch.cc -> exec; files directly under src/ -> '.'"""
    parts = rel_path.split("/")
    return parts[1] if len(parts) > 2 else "."


def tree_counts(root):
    counts = {}
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, "rb") as f:
                n = count_lines(f.read())
            counts[module_of(rel)] = counts.get(module_of(rel), 0) + n
    return counts


def ref_counts(root, ref):
    listed = subprocess.run(
        ["git", "-C", root, "ls-tree", "-r", "--name-only", ref, "--", "src"],
        capture_output=True, text=True)
    if listed.returncode != 0:
        sys.exit("src_lines: cannot list src/ at %s: %s" %
                 (ref, listed.stderr.strip()))
    paths = [p for p in listed.stdout.splitlines() if p]
    # One `git cat-file --batch` process reads every blob.
    request = "".join("%s:%s\n" % (ref, p) for p in paths).encode()
    out = subprocess.run(["git", "-C", root, "cat-file", "--batch"],
                         input=request, capture_output=True).stdout
    counts = {}
    pos = 0
    for path in paths:
        header_end = out.index(b"\n", pos)
        size = int(out[pos:header_end].split()[2])
        body = out[header_end + 1:header_end + 1 + size]
        pos = header_end + 1 + size + 1  # body plus its trailing newline
        counts[module_of(path)] = counts.get(module_of(path), 0) + \
            count_lines(body)
    return counts


def main():
    parser = argparse.ArgumentParser(
        description="Line counts per src/ module, optionally against a "
                    "git ref.")
    parser.add_argument("--base", help="git ref to compare against")
    parser.add_argument("--root", default=ROOT,
                        help="repository root (default: this checkout)")
    args = parser.parse_args()

    now = tree_counts(args.root)
    base = ref_counts(args.root, args.base) if args.base else None
    modules = sorted(set(now) | set(base or {}))
    if base is None:
        print("%-10s %8s" % ("module", "lines"))
        for m in modules:
            print("%-10s %8d" % (m, now.get(m, 0)))
        print("%-10s %8d" % ("total", sum(now.values())))
        return
    print("%-10s %8s %8s %8s" % ("module", "lines", "base", "delta"))
    for m in modules:
        a, b = now.get(m, 0), base.get(m, 0)
        print("%-10s %8d %8d %+8d" % (m, a, b, a - b))
    a, b = sum(now.values()), sum(base.values())
    print("%-10s %8d %8d %+8d" % ("total", a, b, a - b))


if __name__ == "__main__":
    main()
