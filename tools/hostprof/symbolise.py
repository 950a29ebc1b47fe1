#!/usr/bin/env python3
"""Symbolises the dumps of sampler.so and allocsites.so (see their headers).

    symbolise.py [--by self|site] [--top N] [--skip REGEX] DUMP [DUMP2]

Each stack is charged to one symbol: its innermost frame (`self`, the
default, for samples) or the innermost frame that is not allocator or
iterator plumbing (`site`, for allocation counts). Frames inside the
preloaded library are dropped. With two dumps (say a parent's and a
change's) the table shows both shares and their difference. Symbols come from `nm`; libc's static malloc internals
have none, so an address in an unnamed gap around libc's malloc-family
exports is named `libc:malloc.c`.
"""
import argparse, bisect, collections, re, subprocess

PLUMBING = (r"^(<?alloc::|__rust_|__rdl_|__rg_|std::alloc|std::sys::alloc|core::alloc|<?counting::|"
            r"hashbrown::raw|core::ptr::drop_in_place|.*raw_vec|.*RawVec|.*Spec(FromIter|Extend|CloneIntoVec)|"
            r".*Iterator>::fold|.*Iterator::collect|.*try_process|<T as alloc::|"
            r".*FnMut<A> for &mut F>::call_mut|(__libc_)?(malloc|calloc|realloc|memalign)$)")
MALLOC = {"malloc", "free", "calloc", "realloc", "memalign", "posix_memalign", "aligned_alloc", "valloc",
          "pvalloc", "malloc_usable_size", "malloc_trim", "mallopt", "malloc_info", "malloc_stats", "mallinfo2"}
MODULES = {}


class Module:
    def __init__(self, path):
        self.path, syms = path, []
        for flags in (["-S", "-C"], ["-D", "-S", "-C"]):  # full table, else dynamic
            out = subprocess.run(["nm", "--defined-only", *flags, path], capture_output=True, text=True)
            for m in re.finditer(r"^([0-9a-f]+) (?:([0-9a-f]+) )?[tTwWiI] (.+)$", out.stdout, re.M):
                syms.append((int(m[1], 16), int(m[2] or "0", 16), m[3]))
            if syms:
                break
        self.syms = sorted(syms)
        self.starts = [s[0] for s in self.syms]
        # malloc.c's statics sit in the gaps around its exports.
        at = [i for i, s in enumerate(self.syms) if s[2].split("@")[0].removeprefix("__libc_") in MALLOC]
        ends = [s[0] + s[1] for s in self.syms] + [1 << 64]
        self.malloc = (ends[at[0] - 1] if at[0] else 0, (self.starts + [1 << 64])[at[-1] + 1]) if at else (1, 0)
        # A position-independent object's symbols are relative to its load base.
        self.dynamic = open(path, "rb").read(18)[16] == 3

    def name(self, vaddr):
        at = bisect.bisect_right(self.starts, vaddr) - 1
        if at >= 0 and (self.syms[at][1] == 0 or vaddr < self.syms[at][0] + self.syms[at][1]):
            return self.syms[at][2]
        if self.malloc[0] <= vaddr < self.malloc[1]:
            return "libc:malloc.c"
        return f"{self.path.rsplit('/', 1)[-1]}+{vaddr:#x}"


def load(path):  # the executable mappings `(lo, hi, path, base)` and the stacks
    maps, bases, stacks, section = [], {}, [], None
    for line in open(path):
        if line.startswith("# "):
            section = line[2:].strip()
        elif section == "maps" and len(f := line.split()) >= 6 and f[5].startswith("/"):
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            bases[f[5]] = min(lo, bases.get(f[5], lo))
            if "x" in f[1]:
                maps.append((lo, hi, f[5]))
        elif section == "stacks":
            count, *pcs = line.split()
            stacks.append((int(count), [int(pc, 16) for pc in pcs]))
    return sorted((lo, hi, p, bases[p]) for lo, hi, p in maps), stacks


def symbol(maps, pc):
    at = bisect.bisect_right([m[0] for m in maps], pc) - 1
    if at < 0 or pc >= maps[at][1]:
        return "", "?"
    _, _, path, base = maps[at]
    module = MODULES[path] = MODULES.get(path) or Module(path)
    # A return address is one past its call: name the call.
    return path, module.name(pc - 1 - (base if module.dynamic else 0))


def table(path, by, skip):
    maps, stacks = load(path)
    totals = collections.Counter()
    for count, pcs in stacks:
        frames = (symbol(maps, pc) for pc in pcs)
        names = [n for lib, n in frames if not lib.endswith(("allocsites.so", "sampler.so"))] or ["?"]
        totals[names[0] if by == "self" else next((n for n in names if not skip.match(n)), names[-1])] += count
    return totals, sum(count for count, _ in stacks)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--by", choices=["self", "site"], default="self")
    ap.add_argument("--top", type=int, default=40)
    ap.add_argument("--skip", help="a regex of further frames a site skips")
    ap.add_argument("dumps", nargs="+")
    args = ap.parse_args()
    skip = re.compile(PLUMBING + (f"|{args.skip}" if args.skip else ""))
    runs = [table(d, args.by, skip) for d in args.dumps[:2]]
    shares = {name: [100 * t[name] / max(n, 1) for t, n in runs] for t, _ in runs for name in t}
    for d, (_, n) in zip(args.dumps, runs):
        print(f"{d}: {n} {'allocations' if args.by == 'site' else 'samples'}")
    for name, share in sorted(shares.items(), key=lambda kv: -max(kv[1]))[: args.top]:
        diff = f"{share[1] - share[0]:+7.2f}" if len(share) == 2 else ""
        print("".join(f"{s:7.2f}%" for s in share), diff, f"{runs[0][0][name]:>9}", name[:150])


if __name__ == "__main__":
    main()
