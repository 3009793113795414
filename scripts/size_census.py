#!/usr/bin/env python3
"""Census of the size notions over every subset of a small group.

For each kappa, counts how many subsets are left large / left thick (both
variants) / left small, and how often the two thickness variants disagree.
A compact way to see the implication lattice and the variant gap at finite
scale.
"""

from __future__ import annotations

import argparse

from kappasets import classify as cl
from kappasets.classify import DEFAULT_NODE_BUDGET, NodeCounter
from kappasets.groups import GroupAxiomError, GroupSpecError, build_group


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--group", default="cyclic:6")
    args = ap.parse_args()
    try:
        G = build_group(args.group)
    except (GroupSpecError, GroupAxiomError) as exc:
        ap.error(str(exc))

    n = G.order
    counter = NodeCounter(DEFAULT_NODE_BUDGET)
    print(f"group {args.group} (order {n}), left side")
    print(f"{'kappa':>5s} {'large':>6s} {'thickG':>6s} {'thickA':>6s} {'gap':>4s} {'small':>6s}")
    for kappa in range(2, n + 1):
        limit = kappa - 1
        large = thick_g = thick_a = gap = small = 0
        for amask in range(1 << n):
            large += cl.min_cover_size(G, amask, "left", counter) <= limit
            g_ok = limit <= cl.thick_lmax(G, amask, "left", "witness-in-G", counter)
            a_ok = limit <= cl.thick_lmax(G, amask, "left", "witness-in-A", counter)
            thick_g += g_ok
            thick_a += a_ok
            gap += g_ok != a_ok
        for amask in range(1 << n):
            small += all(
                cl.min_cover_size(G, lmask & ~amask, "left", counter) <= limit
                for lmask in range(1 << n)
                if cl.min_cover_size(G, lmask, "left", counter) <= limit
            )
        print(f"{kappa:5d} {large:6d} {thick_g:6d} {thick_a:6d} {gap:4d} {small:6d}")
    print(f"nodes spent: {counter.spent}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
