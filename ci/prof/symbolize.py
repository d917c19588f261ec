#!/usr/bin/env python3
"""Turn a sampler.c profile into a per-function table.

    ci/prof/symbolize.py PROFILE [--within REGEX] [--callers REGEX] [--top N]

Each sampled address is mapped to its binary's ELF virtual address (the
/proc/self/maps copy in the profile gives the file offset, `readelf -lW`
the LOAD segment that holds it) and named with `addr2line -f -i -C`, so
inlined frames count as functions of their own. Prints, per function, the
share of samples it appears in (inclusive) and the share it is innermost
in (self). With --within, only samples with a frame matching REGEX count,
so "X is 21 % of try_get" reads as `--within try_get`.

With --callers, prints instead the caller chains of the samples whose
innermost frame matches REGEX, each cut to its CALLER_DEPTH nearest frames,
with their share of those samples. A stripped libc names its functions
after the nearest exported symbol, so a `memcpy` can read as
`__nss_database_lookup`; its callers say whose copy it is.
"""
import argparse
import bisect
import collections
import re
import subprocess

# Frames of a caller chain printed by --callers, nearest first.
CALLER_DEPTH = 4


def read_profile(path):
    maps, samples = [], []
    with open(path) as f:
        for line in f:
            if line.startswith("maps "):
                fields = line.split()
                if len(fields) >= 7 and "x" in fields[2]:
                    lo, hi = (int(x, 16) for x in fields[1].split("-"))
                    maps.append((lo, hi, int(fields[3], 16), fields[6]))
            elif line.strip() and line.strip() != "samples":
                samples.append([int(x, 16) for x in line.split()])
    return sorted(maps), samples


def load_segments(binary):
    """(p_offset, p_vaddr, p_filesz) of every LOAD segment of `binary`."""
    out = subprocess.run(["readelf", "-lW", binary], capture_output=True, text=True).stdout
    segs = []
    for line in out.splitlines():
        fields = line.split()
        if fields and fields[0] == "LOAD":
            segs.append((int(fields[1], 16), int(fields[2], 16), int(fields[4], 16)))
    return segs


def to_vaddr(addr, maps, segments):
    i = bisect.bisect_right(maps, (addr, float("inf"))) - 1
    if i < 0 or not maps[i][0] <= addr < maps[i][1]:
        return None
    lo, _, offset, binary = maps[i]
    file_off = addr - lo + offset
    if binary not in segments:
        segments[binary] = load_segments(binary)
    for p_offset, p_vaddr, p_filesz in segments[binary]:
        if p_offset <= file_off < p_offset + p_filesz:
            return binary, file_off - p_offset + p_vaddr
    return None


def names(binary, vaddrs):
    """Inline chain (innermost first) of each address, via one addr2line."""
    query = "\n".join(hex(a) for a in vaddrs) + "\n"
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", binary],
        input=query, capture_output=True, text=True,
    ).stdout.splitlines()
    # Per address: its "0x..." line, then (function, file:line) pairs.
    chains, chain, is_function = {}, None, False
    for line in out:
        if line.startswith("0x"):
            chain, is_function = chains.setdefault(int(line, 16), []), True
        elif chain is not None:
            if is_function:
                chain.append(re.sub(r"::h[0-9a-f]{16}$", "", line))
            is_function = not is_function
    return chains


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profile")
    ap.add_argument("--within", help="count only samples with a frame matching this regex")
    ap.add_argument("--callers", help="print the caller chains of samples ending in this regex")
    ap.add_argument("--top", type=int, default=30)
    args = ap.parse_args()

    maps, samples = read_profile(args.profile)
    segments = {}
    # A caller frame holds a return address; the call is the byte before it.
    frames = [
        [to_vaddr(a if depth == 0 else a - 1, maps, segments) for depth, a in enumerate(s)]
        for s in samples
    ]
    by_binary = collections.defaultdict(set)
    for sample in frames:
        for frame in sample:
            if frame:
                by_binary[frame[0]].add(frame[1])
    chains = {b: names(b, sorted(v)) for b, v in by_binary.items()}

    stacks = []
    for sample in frames:
        stack = []
        for frame in sample:
            stack.extend(chains[frame[0]].get(frame[1], ["??"]) if frame else ["??"])
        stacks.append(stack)
    if args.within:
        pattern = re.compile(args.within)
        stacks = [s for s in stacks if any(pattern.search(f) for f in s)]
    if not stacks:
        print("no samples")
        return
    if args.callers:
        pattern = re.compile(args.callers)
        leaves = [s for s in stacks if pattern.search(s[0])]
        print(f"{len(leaves)} of {len(stacks)} samples end in /{args.callers}/")
        chains = collections.Counter(" <- ".join(s[1 : 1 + CALLER_DEPTH]) for s in leaves)
        for chain, n in chains.most_common(args.top):
            print(f"{100 * n / len(leaves):7.1f}  {chain}")
        return
    inclusive, own = collections.Counter(), collections.Counter()
    for stack in stacks:
        own[stack[0]] += 1
        inclusive.update(set(stack))
    total = len(stacks)
    print(f"{total} samples" + (f" within /{args.within}/" if args.within else ""))
    print(f"{'incl %':>7} {'self %':>7}  function")
    for name, n in inclusive.most_common(args.top):
        print(f"{100 * n / total:7.1f} {100 * own[name] / total:7.1f}  {name}")


if __name__ == "__main__":
    main()
