#!/usr/bin/env python3
"""Attribute SIGPROF samples from sampler.c to functions and source files.

    scripts/hostprof/report.py PROFILE.raw [--under SUBSTR] [--within SUBSTR]
                               [--callees SUBSTR]

Resolves every sampled address with `addr2line -f -C -i` (inlined frames
count as frames of their own; a library without debug info, such as libc,
falls back to `nm`, and its internal functions read "near <the nearest
exported symbol>") and prints, per function and per source file:

  self   share of samples whose innermost frame is there;
  incl   share of samples with that function/file anywhere on the stack.

Each table lists its top 25 rows.

--under keeps only samples with a function matching SUBSTR on the stack;
shares stay relative to all samples, so `--under ResourcePool::feasible`
reads as "share of all host time spent below feasible".

--within keeps the same samples but takes every share relative to them:
`--within SimExecutor::run` reads as "share of the simulated work", leaving
out what runs outside the simulator loop (hostbench's untimed probes).

--callees adds one table: the samples with a function matching SUBSTR on the
stack, split by the next frame inward whose source file lies in this
checkout (inlined library code is skipped over). A sample whose innermost
project frame is the function itself reads "(self)". With recursion, the
innermost match counts.
"""
import argparse
import bisect
import collections
import functools
import os
import subprocess
import sys
from pathlib import Path

ROOT = str(Path(__file__).resolve().parents[2]) + os.sep


def parse(path):
    maps, samples, dropped = [], [], 0
    with open(path) as f:
        for line in f:
            if line.startswith("map "):
                parts = line.split()
                if len(parts) < 7:
                    continue
                lo, hi = (int(x, 16) for x in parts[1].split("-"))
                maps.append((lo, hi, int(parts[3], 16), parts[6]))
            elif line.startswith("s "):
                samples.append([int(x, 16) for x in line.split()[1:]])
            elif line.startswith("dropped "):
                dropped = int(line.split()[1])
    maps.sort()
    return maps, samples, dropped


@functools.lru_cache(maxsize=None)
def is_pie_or_shared(path):
    try:
        with open(path, "rb") as f:
            head = f.read(18)
        return head[16] == 3  # e_type ET_DYN
    except OSError:
        return True


def nm_symbols(path):
    """Sorted (addr, name) of defined function symbols, for stripped libs."""
    syms = []
    for flags in (["-C", "-n"], ["-C", "-n", "-D"]):
        try:
            out = subprocess.run(["nm", *flags, "--defined-only", path],
                                 capture_output=True, text=True).stdout
        except OSError:
            return []
        for line in out.splitlines():
            parts = line.split(" ", 2)
            if len(parts) == 3 and parts[1] in "tTwW":
                syms.append((int(parts[0], 16), parts[2]))
        if syms:
            break
    syms.sort()
    return syms


def resolve(maps, addrs):
    """addr -> list of (function, file), innermost inlined frame first."""
    starts = [m[0] for m in maps]
    base = {}
    for lo, _, off, path in maps:
        if off == 0 and path not in base:
            base[path] = lo
    by_obj = collections.defaultdict(list)
    out = {}
    for a in addrs:
        i = bisect.bisect_right(starts, a) - 1
        if i < 0 or a >= maps[i][1] or not maps[i][3].startswith("/"):
            out[a] = [("??", "??")]
            continue
        path = maps[i][3]
        rel = a - base.get(path, maps[i][0] - maps[i][2]) \
            if is_pie_or_shared(path) else a
        by_obj[path].append((a, rel))
    for path, items in by_obj.items():
        query = "\n".join("%x" % rel for _, rel in items) + "\n"
        res = subprocess.run(["addr2line", "-a", "-f", "-C", "-i", "-e", path],
                             input=query, capture_output=True, text=True).stdout
        records, cur = [], None
        lines = res.splitlines()
        k = 0
        while k < len(lines):
            if lines[k].startswith("0x"):
                cur = []
                records.append(cur)
                k += 1
                continue
            fn = lines[k]
            src = (lines[k + 1] if k + 1 < len(lines) else "??").split(":")[0]
            if src == "??":  # no line info: the name is the nearest symbol
                src = os.path.basename(path)
                fn = fn if fn == "??" else "near " + fn
            if fn == "operator()":  # lambdas: name them by their file
                fn = "operator() [%s]" % os.path.basename(src)
            cur.append((fn, src))
            k += 2
        syms = None
        for (a, rel), frames in zip(items, records):
            if not frames or frames[0][0] == "??":
                if syms is None:
                    syms = nm_symbols(path)
                j = bisect.bisect_right(syms, (rel, "\xff")) - 1
                # Without debug info only exported symbols are known: a
                # library-internal function reads as the nearest one before it.
                name = "near " + syms[j][1] if j >= 0 else "??"
                frames = [(name, os.path.basename(path))]
            out[a] = frames
    return out


TOP = 25  # rows per table


def short(fn, width):
    return fn if len(fn) <= width else fn[: width - 3] + "..."


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("profile")
    ap.add_argument("--under", default=None)
    ap.add_argument("--within", default=None)
    ap.add_argument("--callees", default=None)
    args = ap.parse_args()
    if args.under and args.within:
        ap.error("--under and --within both filter; give one")
    keep = args.under or args.within

    maps, samples, dropped = parse(args.profile)
    if not samples:
        print("no samples in %s" % args.profile)
        return 1
    # Return addresses point after the call; look up the call itself.
    lookups = set()
    for s in samples:
        lookups.add(s[0])
        lookups.update(a - 1 for a in s[1:])
    frames_of = resolve(maps, sorted(lookups))

    self_fn, incl_fn = collections.Counter(), collections.Counter()
    self_file, incl_file = collections.Counter(), collections.Counter()
    callees = collections.Counter()
    kept = 0
    for s in samples:
        stack = list(frames_of[s[0]])
        for a in s[1:]:
            stack.extend(frames_of[a - 1])
        if keep and not any(keep in fn for fn, _ in stack):
            continue
        kept += 1
        if args.callees:
            at = next((i for i, (fn, _) in enumerate(stack)
                       if args.callees in fn), None)
            if at is not None:
                inward = (fn for fn, src in reversed(stack[:at])
                          if src.startswith(ROOT))
                callees[next(inward, "(self)")] += 1
        self_fn[stack[0][0]] += 1
        self_file[stack[0][1]] += 1
        for fn in {fn for fn, _ in stack}:
            incl_fn[fn] += 1
        for src in {src for _, src in stack}:
            incl_file[src] += 1

    total = kept if args.within else len(samples)
    print("samples %d (dropped %d)%s: %d%s" % (
        len(samples), dropped, " under %r" % keep if keep else "", kept,
        "; shares of these" if args.within else ""))
    for title, selfc, inclc in (("function", self_fn, incl_fn),
                                ("source file", self_file, incl_file)):
        print("\n%-7s %-7s %s  (by inclusive share)" % ("incl%", "self%", title))
        for key, n in inclc.most_common(TOP):
            print("%6.1f  %6.1f  %s" % (100.0 * n / total,
                                        100.0 * selfc[key] / total,
                                        short(key, 110)))
        print("\n%-7s %-7s %s  (by self share)" % ("self%", "incl%", title))
        for key, n in selfc.most_common(TOP):
            print("%6.1f  %6.1f  %s" % (100.0 * n / total,
                                        100.0 * inclc[key] / total,
                                        short(key, 110)))
    if args.callees:
        n = sum(callees.values())
        print("\n%-7s %-7s callees of %r: %d samples, %.1f%% of %s" % (
            "count", "share%", args.callees, n, 100.0 * n / max(total, 1),
            "those kept" if args.within else "all samples"))
        for key, c in callees.most_common(TOP):
            print("%6d  %6.1f  %s" % (c, 100.0 * c / max(n, 1), short(key, 110)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
