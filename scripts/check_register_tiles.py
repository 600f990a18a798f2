#!/usr/bin/env python3
"""Checks that GEMM microkernels keep their accumulators in registers.

    objdump -d --no-show-raw-insn -C \\
        build/src/tensor/CMakeFiles/apots_tensor.dir/simd_kernels_avx512.cc.o \\
        | python3 scripts/check_register_tiles.py GemmPanelAvx512

Reads an objdump listing on stdin and finds, in every function whose name
contains the given text, each innermost loop (a backward branch and the
code it jumps back over) that holds an FMA or a VPDPBUSD. For each such
loop it prints the FMA count, the vector stores, and the FMAs that add a
memory operand (the 213 form with a memory source, which is how a spilled
accumulator is read). A register tile's k loop has neither. Exits 1 when
any loop has either, or when no loop is found.
"""

import re
import sys

BRANCH = re.compile(r"j\w+\s+([0-9a-f]+)")
FMA = re.compile(r"v(fmadd|pdpbusd)")
STORE = re.compile(r"v\w*mov\w*\s+%[xyz]mm\d+,.*\(")
MEMORY_ADDEND = re.compile(r"vfmadd213\w*\s+[-\w]*\(")


def functions(listing, name):
    """Yields the (address, instruction) lists of the matching functions."""
    body, on = [], False
    for line in listing:
        if re.match(r"^[0-9a-f]+ <", line):
            if on and body:
                yield body
            body, on = [], name in line
            continue
        m = re.match(r"\s*([0-9a-f]+):\s+(.*)", line)
        if on and m:
            body.append((int(m.group(1), 16), m.group(2)))
    if on and body:
        yield body


def innermost_loops(body):
    index = {addr: i for i, (addr, _) in enumerate(body)}
    loops = []
    for i, (addr, ins) in enumerate(body):
        m = BRANCH.match(ins)
        if m and int(m.group(1), 16) <= addr and int(m.group(1), 16) in index:
            loops.append((index[int(m.group(1), 16)], i))
    return [l for l in loops
            if not any(o != l and o[0] >= l[0] and o[1] <= l[1] for o in loops)]


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    listing = sys.stdin.read().splitlines()
    found, bad = 0, 0
    for body in functions(listing, sys.argv[1]):
        for start, end in innermost_loops(body):
            loop = [ins for _, ins in body[start:end + 1]]
            fmas = [ins for ins in loop if FMA.match(ins)]
            if not fmas:
                continue
            traffic = [ins for ins in loop
                       if STORE.match(ins) or
                       (MEMORY_ADDEND.match(ins) and "{1to" not in ins)]
            found += 1
            bad += bool(traffic)
            print(f"loop at {body[start][0]:#x}: {len(loop)} instructions, "
                  f"{len(fmas)} FMAs, {len(traffic)} accumulator loads or "
                  f"stores")
            for ins in traffic[:4]:
                print(f"    {ins}")
    if found == 0:
        print("no FMA loop found", file=sys.stderr)
        return 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
