#!/usr/bin/env python3
"""Resolvability tables for small groups.

Prints, for each group and kappa, the largest number of cells in a
partition into left (and left-and-right) kappa-large subsets, with the
witness partition for the left mode. All values are exact search results.
"""

from __future__ import annotations

import argparse

from kappasets.classify import DEFAULT_NODE_BUDGET
from kappasets.groups import GroupAxiomError, GroupSpecError, build_group, read_int
from kappasets.resolvability import res_search

DEFAULT_SPECS = [
    "cyclic:2",
    "cyclic:3",
    "cyclic:4",
    "cyclic:5",
    "cyclic:6",
    "cyclic:8",
    "product:cyclic:2+cyclic:2",
    "symmetric:3",
    "dihedral:3",
    "dihedral:4",
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--groups", nargs="*", default=DEFAULT_SPECS, help="group specs")
    ap.add_argument("--node-budget", default=str(DEFAULT_NODE_BUDGET))
    args = ap.parse_args()
    try:
        budget = read_int(args.node_budget)
    except ValueError:
        ap.error(f"argument --node-budget: invalid int value: {args.node_budget!r}")
    if budget < 0:
        ap.error(f"node budget must be >= 0, got {budget}")
    try:
        groups = [(spec, build_group(spec)) for spec in args.groups]
    except (GroupSpecError, GroupAxiomError) as exc:
        ap.error(str(exc))

    print(f"{'group':28s} {'kappa':>5s} {'left':>5s} {'both':>5s}  witness (left mode)")
    for spec, G in groups:
        for kappa in range(2, G.order + 1):
            left = res_search(G, kappa, "left", node_budget=budget)
            both = res_search(G, kappa, "left+right", node_budget=budget)
            cells = " | ".join(str(c) for c in left.best.cells)
            star = "" if left.optimal and both.optimal else " (non-optimal: budget)"
            print(f"{spec:28s} {kappa:5d} {left.cells:5d} {both.cells:5d}  {cells}{star}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
