"""Seeded command lists for the three benchmark workloads.

A workload is a fixed catalogue of CLI commands. A run replays one cycle of
that catalogue, built from the seed, until the run time is spent. The
catalogue is fixed so that runs with different seeds do the same amount of
work; the seed picks the concrete inputs (a left translate g*A of every
classify subset) and the order in which commands are sent. Left translation
keeps every cover number, so each translate costs about what its template
costs, while its witnesses and search order differ.

Every command any seed can produce is listed by ``command_space``, so the
reference bodies recorded in ``reference.json`` cover all seeds.
"""

from __future__ import annotations

import random

from kappasets.groups import build_group

WORKLOADS = ("classify", "search", "verify")

#: Fixed seed of the classify catalogue; the run seed never changes it.
CATALOGUE_SEED = 1408_5607

#: Group families per order for classify (cyclic, dihedral, products and
#: symmetric:3-based). Order 16 and up is left out, see DESIGN.md.
CLASSIFY_FAMILIES = {
    8: ("cyclic:8", "dihedral:4", "product:cyclic:2+cyclic:4"),
    9: ("cyclic:9", "product:cyclic:3+cyclic:3"),
    10: ("cyclic:10", "dihedral:5"),
    12: ("cyclic:12", "dihedral:6", "product:symmetric:3+cyclic:2"),
    14: ("cyclic:14", "dihedral:7"),
}
SUBSET_KINDS = ("sparse", "co-sparse", "random")
#: Smallest kappa drawn per order. At order 14 a kappa of 3 to 5 makes one
#: command take 1-4 s, see DESIGN.md.
MIN_KAPPA = {14: 6}
CLASSIFY_SIZE = 240

#: (mode, group, kappa, cells); every entry is conclusive under the default
#: node budget. Probes use the default witness-in-G variant.
SEARCH_CATALOGUE = (
    ("res-left", "symmetric:4", 12, None),
    ("res-left", "cyclic:20", 11, None),
    ("res-left", "product:cyclic:4+cyclic:4", 8, None),
    ("res-left", "cyclic:18", 10, None),
    ("res-left", "cyclic:16", 9, None),
    ("res-left", "dihedral:6", 4, None),
    ("res-both", "cyclic:20", 10, None),
    ("res-both", "product:cyclic:4+cyclic:4", 9, None),
    ("res-both", "dihedral:8", 9, None),
    ("res-both", "dihedral:6", 4, None),
    ("res-both", "cyclic:12", 7, None),
    ("two-thick", "product:symmetric:3+cyclic:2", 3, 3),
    ("two-thick", "cyclic:10", 4, 2),
    ("two-thick", "dihedral:5", 3, 2),
    ("two-thick", "cyclic:9", 3, 2),
    ("two-thick", "cyclic:8", 3, 2),
    ("non-large", "cyclic:12", 4, 2),
    ("non-large", "dihedral:6", 6, 3),
    ("non-large", "product:symmetric:3+cyclic:2", 4, 3),
    ("non-large", "cyclic:10", 5, 3),
    ("non-large", "dihedral:5", 4, 2),
    ("non-large", "dihedral:4", 4, 3),
)

VERIFY_SUITES = ("duality", "meets", "s-set", "thm3", "comment1", "comment2", "oracle")


def classify_catalogue() -> list[tuple[str, tuple[int, ...], int]]:
    """The fixed (group, subset template, kappa) list, orders taken in turn."""
    rng = random.Random(CATALOGUE_SEED)
    orders = sorted(CLASSIFY_FAMILIES)
    out = []
    for i in range(CLASSIFY_SIZE):
        n = orders[i % len(orders)]
        spec = rng.choice(CLASSIFY_FAMILIES[n])
        kind = SUBSET_KINDS[(i // len(orders)) % len(SUBSET_KINDS)]
        if kind == "sparse":
            subset = rng.sample(range(n), rng.randint(1, 6))
        elif kind == "co-sparse":
            gone = set(rng.sample(range(n), rng.randint(1, 6)))
            subset = [x for x in range(n) if x not in gone]
        else:
            subset = [x for x in range(n) if rng.random() < 0.5] or [rng.randrange(n)]
        out.append((spec, tuple(sorted(subset)), rng.randint(MIN_KAPPA.get(n, 3), n)))
    return out


def _classify_argv(spec: str, subset, kappa: int) -> list[str]:
    return ["classify", "--group", spec, "--subset", ",".join(map(str, subset)), "--kappa", str(kappa)]


def _translate(mul, g: int, subset) -> tuple[int, ...]:
    return tuple(sorted(mul[g][a] for a in subset))


def _search_argv(mode: str, spec: str, kappa: int, cells) -> list[str]:
    argv = ["search", "--group", spec, "--kappa", str(kappa), "--mode", mode]
    return argv + ["--cells", str(cells)] if cells else argv


def build(workload: str, seed: int) -> list[list[str]]:
    """One cycle of argv lists (without --out-dir) for the workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "classify":
        tables = {}
        cycle = []
        for spec, subset, kappa in classify_catalogue():
            if spec not in tables:
                tables[spec] = build_group(spec).mul
            mul = tables[spec]
            g = rng.randrange(len(mul))
            cycle.append(_classify_argv(spec, _translate(mul, g, subset), kappa))
    elif workload == "search":
        cycle = [_search_argv(*entry) for entry in SEARCH_CATALOGUE]
    elif workload == "verify":
        cycle = [["verify", "--suite", s] for s in VERIFY_SUITES]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng.shuffle(cycle)
    return cycle


def command_space(workload: str) -> list[list[str]]:
    """Every argv ``build`` can return for any seed."""
    if workload != "classify":
        return build(workload, 0)
    out = []
    for spec, subset, kappa in classify_catalogue():
        mul = build_group(spec).mul
        translates = {_translate(mul, g, subset) for g in range(len(mul))}
        out.extend(_classify_argv(spec, t, kappa) for t in sorted(translates))
    return out
