"""Finite groups as explicit Cayley tables, plus bit-indexed subset algebra.

Element 0 is always the identity. Subsets are immutable bitmasks over
element indices, so all set algebra is integer arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

DEFAULT_MAX_ORDER = 64


class GroupSpecError(ValueError):
    """Malformed or unsupported group spec string."""


class GroupAxiomError(ValueError):
    """A table failed the group axioms."""


class PartitionError(ValueError):
    """Cells failed the disjoint-cover check."""


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


@dataclass(frozen=True, eq=False)
class GroupTable:
    """Immutable finite group; hashable by identity so results can be cached."""

    spec: str
    order: int
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    labels: tuple[str, ...]
    identity: int = 0

    @property
    def full_mask(self) -> int:
        return (1 << self.order) - 1

    def conj(self, g: int, x: int) -> int:
        """g^-1 * x * g."""
        return self.mul[self.mul[self.inv[g]][x]][g]

    def is_abelian(self) -> bool:
        m = self.mul
        return all(
            m[a][b] == m[b][a] for a in range(self.order) for b in range(a + 1, self.order)
        )

    def __repr__(self) -> str:
        return f"GroupTable({self.spec!r}, order={self.order})"


@dataclass(frozen=True)
class Subset:
    """Bit-indexed subset of a group of order n."""

    n: int
    mask: int

    def __post_init__(self):
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError("subset bits out of carrier range")

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "Subset":
        return cls(n, mask_of(indices))

    @classmethod
    def empty(cls, n: int) -> "Subset":
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> "Subset":
        return cls(n, (1 << n) - 1)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def indices(self) -> tuple[int, ...]:
        return tuple(bits(self.mask))

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.n and bool(self.mask >> i & 1)

    def __iter__(self) -> Iterator[int]:
        return bits(self.mask)

    def __bool__(self) -> bool:
        return self.mask != 0

    def _check(self, other: "Subset") -> None:
        if self.n != other.n:
            raise ValueError("subsets live over different carriers")

    def __or__(self, other: "Subset") -> "Subset":
        self._check(other)
        return Subset(self.n, self.mask | other.mask)

    def __and__(self, other: "Subset") -> "Subset":
        self._check(other)
        return Subset(self.n, self.mask & other.mask)

    def __sub__(self, other: "Subset") -> "Subset":
        self._check(other)
        return Subset(self.n, self.mask & ~other.mask)

    def complement(self) -> "Subset":
        return Subset(self.n, self.mask ^ ((1 << self.n) - 1))

    def __repr__(self) -> str:
        return "{" + ",".join(map(str, self.indices())) + "}"


def check_subset(G: GroupTable, A: Subset) -> None:
    if A.n != G.order:
        raise ValueError("subset carrier does not match the group order")


def check_partition(G: GroupTable, cells, name: str) -> None:
    """Raise PartitionError, prefixed by name, unless the cells are subsets
    of G that cover it disjointly."""
    union = 0
    total = 0
    for cell in cells:
        if cell.n != G.order:
            raise PartitionError(f"{name}: cell {cell} lies over order {cell.n}, not {G.order}")
        union |= cell.mask
        total += cell.size
    if union != G.full_mask or total != G.order:
        raise PartitionError(f"{name}: cells do not partition the group")


def check_kappa(G: GroupTable, kappa: int) -> None:
    """kappa must satisfy 2 <= kappa <= |G| (kappa=1 is rejected outright)."""
    if not isinstance(kappa, int):
        raise TypeError("kappa must be an int")
    if G.order == 1:
        raise ValueError(f"no kappa is admissible for a group of order 1 (kappa must lie in [2, |G|]), got {kappa}")
    if kappa < 2 or kappa > G.order:
        raise ValueError(f"kappa must lie in [2, {G.order}], got {kappa}")


# -- table construction --------------------------------------------------------


def _check_table(mul: list[list[int]]) -> list[int]:
    """The inverse table of mul, which must satisfy the group axioms."""
    n = len(mul)
    rng = list(range(n))
    for g, row in enumerate(mul):
        if len(row) != n or sorted(row) != rng:
            raise GroupAxiomError(f"row {g} is not a permutation of 0..{n - 1}")
    for h in range(n):
        col = [mul[g][h] for g in range(n)]
        if sorted(col) != rng:
            raise GroupAxiomError(f"column {h} is not a permutation of 0..{n - 1}")
    if any(mul[0][x] != x or mul[x][0] != x for x in range(n)):
        raise GroupAxiomError("element 0 is not a two-sided identity")
    inv = [row.index(0) for row in mul]  # each row is a permutation by now
    for g, h in enumerate(inv):
        if mul[h][g] != 0:
            raise GroupAxiomError(f"element {g} has no two-sided inverse")
    # Light's test: the elements a with (x*a)*y == x*(a*y) for all x, y are
    # closed under products, so checking a generating set is exact
    for a in _generators(mul):
        row_a = mul[a]
        for x in range(n):
            row_xa = mul[mul[x][a]]
            row_x = mul[x]
            for y in range(n):
                if row_xa[y] != row_x[row_a[y]]:
                    raise GroupAxiomError(f"associativity fails at ({x},{a},{y})")
    return inv


def _generators(mul: list[list[int]]) -> list[int]:
    """Greedy generating set: the least element not yet reached from the
    identity by right multiplication with the generators picked so far."""
    n = len(mul)
    gens: list[int] = []
    reached = [False] * n
    reached[0] = True
    order = [0]
    while len(order) < n:
        gens.append(reached.index(False))
        for x in order:  # order grows while it is scanned
            for g in gens:
                y = mul[x][g]
                if not reached[y]:
                    reached[y] = True
                    order.append(y)
    return gens


def _finish(spec: str, mul: list[list[int]], labels: list[str], max_order: int) -> GroupTable:
    n = len(mul)
    if n == 0:
        raise GroupSpecError("empty group table")
    if n > max_order:
        raise GroupSpecError(f"order {n} exceeds the configured maximum {max_order}")
    inv = _check_table(mul)
    return GroupTable(
        spec=spec,
        order=n,
        mul=tuple(tuple(r) for r in mul),
        inv=tuple(inv),
        labels=tuple(labels),
    )


def _cyclic(n: int) -> tuple[list[list[int]], list[str]]:
    if n < 1:
        raise GroupSpecError("cyclic:n needs n >= 1")
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    return mul, [str(i) for i in range(n)]


def _dihedral(n: int) -> tuple[list[list[int]], list[str]]:
    # order 2n; index f*n + k encodes s^f r^k with s r s = r^-1
    if n < 1:
        raise GroupSpecError("dihedral:n needs n >= 1")
    order = 2 * n

    def prod(i: int, j: int) -> int:
        f1, k1 = divmod(i, n)
        f2, k2 = divmod(j, n)
        f = (f1 + f2) % 2
        k = ((-k1 if f2 else k1) + k2) % n
        return f * n + k

    mul = [[prod(i, j) for j in range(order)] for i in range(order)]
    labels = [f"r{k}" for k in range(n)] + [f"sr{k}" for k in range(n)]
    return mul, labels


def _symmetric(n: int) -> tuple[list[list[int]], list[str]]:
    if not 1 <= n <= 5:
        raise GroupSpecError("symmetric:n supports 1 <= n <= 5")
    perms = list(itertools.permutations(range(n)))  # lex order; identity first
    index = {p: i for i, p in enumerate(perms)}

    def prod(i: int, j: int) -> int:
        p, q = perms[i], perms[j]
        return index[tuple(p[q[x]] for x in range(n))]

    order = len(perms)
    mul = [[prod(i, j) for j in range(order)] for i in range(order)]
    labels = ["".join(map(str, p)) for p in perms]
    return mul, labels


def _product(g1: GroupTable, g2: GroupTable) -> tuple[list[list[int]], list[str]]:
    n1, n2 = g1.order, g2.order

    def prod(i: int, j: int) -> int:
        a1, b1 = divmod(i, n2)
        a2, b2 = divmod(j, n2)
        return g1.mul[a1][a2] * n2 + g2.mul[b1][b2]

    order = n1 * n2
    mul = [[prod(i, j) for j in range(order)] for i in range(order)]
    labels = [f"({g1.labels[i // n2]},{g2.labels[i % n2]})" for i in range(order)]
    return mul, labels


def _from_file(path: str) -> tuple[list[list[int]], list[str]]:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise GroupSpecError(f"cannot read group file {path!r}: {e}") from e
    tokens = text.split()
    if not tokens:
        raise GroupSpecError(f"group file {path!r} is empty")
    try:
        n = int(tokens[0])
        entries = [int(t) for t in tokens[1:]]
    except ValueError as e:
        raise GroupSpecError(f"group file {path!r} has non-integer entries") from e
    if n < 1 or len(entries) != n * n:
        raise GroupSpecError(f"group file {path!r}: expected {n}x{n} table entries")
    if any(not 0 <= e < n for e in entries):
        raise GroupSpecError(f"group file {path!r}: entries must lie in 0..{n - 1}")
    mul = [entries[i * n : (i + 1) * n] for i in range(n)]
    return mul, [f"g{i}" for i in range(n)]


def _split_product_body(body: str) -> tuple[str, str]:
    """Split "specA+specB", letting nested product: specs consume extra '+'."""
    need = 1
    i = 0
    while i < len(body):
        if body.startswith("product:", i):
            need += 1
            i += len("product:")
            continue
        if body[i] == "+":
            need -= 1
            if need == 0:
                return body[:i], body[i + 1 :]
        i += 1
    raise GroupSpecError(f"product spec needs a top-level '+': {body!r}")


def _int_arg(spec: str, arg: str) -> int:
    try:
        return int(arg)
    except ValueError:
        raise GroupSpecError(f"bad integer in group spec {spec!r}") from None


def build_group(spec: str, *, max_order: int = DEFAULT_MAX_ORDER) -> GroupTable:
    """Build a group from a spec string.

    Grammar: cyclic:n | dihedral:n (order 2n) | symmetric:n (n <= 5) |
    product:spec+spec | file:path. Orders above 64 need an explicit
    max_order. Every table is checked exactly against the group axioms.
    """
    spec = spec.strip()
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise GroupSpecError(f"group spec needs a kind prefix: {spec!r}")
    if kind == "cyclic":
        mul, labels = _cyclic(_int_arg(spec, arg))
    elif kind == "dihedral":
        mul, labels = _dihedral(_int_arg(spec, arg))
    elif kind == "symmetric":
        mul, labels = _symmetric(_int_arg(spec, arg))
    elif kind == "product":
        left, right = _split_product_body(arg)
        g1 = build_group(left, max_order=max_order)
        g2 = build_group(right, max_order=max_order)
        if g1.order * g2.order > max_order:
            raise GroupSpecError(
                f"order {g1.order * g2.order} exceeds the configured maximum {max_order}"
            )
        mul, labels = _product(g1, g2)
    elif kind == "file":
        mul, labels = _from_file(arg)
    else:
        raise GroupSpecError(f"unknown group kind {kind!r}")
    return _finish(spec, mul, labels, max_order)


# -- subset algebra ------------------------------------------------------------


def inverse_mask(G: GroupTable, amask: int) -> int:
    return mask_of(G.inv[a] for a in bits(amask))


def subset_inverse(G: GroupTable, A: Subset) -> Subset:
    check_subset(G, A)
    return Subset(G.order, inverse_mask(G, A.mask))


def translate(G: GroupTable, g: int, A: Subset, side: str = "left") -> Subset:
    """g*A (left) or A*g (right)."""
    shape = {"left": "FA", "right": "AF"}.get(side)
    if shape is None:
        raise ValueError(f"unknown side {side!r}")
    return product_set(G, Subset(G.order, 1 << g), A, shape)


def product_set(G: GroupTable, F: Subset, A: Subset, shape: str) -> Subset:
    """Exact pointwise product set: shape FA, AF, or FAF (= (FA)F)."""
    check_subset(G, F)
    check_subset(G, A)
    if shape not in ("FA", "AF", "FAF"):
        raise ValueError(f"unknown product shape {shape!r} (use FA, AF, FAF)")
    mul = G.mul
    fs = list(bits(F.mask))
    left = A.mask
    if shape != "AF":  # F*A: F's rows at A's elements
        left = mask_of(mul[f][a] for f in fs for a in bits(left))
    if shape != "FA":  # times F on the right: A*F, or (F*A)*F
        left = mask_of(mul[a][f] for a in bits(left) for f in fs)
    return Subset(G.order, left)


# -- conjugation and normality -------------------------------------------------

def conjugacy_class(G: GroupTable, x: int) -> Subset:
    """The full conjugacy class {g^-1 x g : g in G}."""
    if not 0 <= x < G.order:
        raise ValueError(f"element {x} out of range")
    return Subset(G.order, mask_of(G.conj(g, x) for g in range(G.order)))


def normal_closure_mask(G: GroupTable, fmask: int) -> int:
    """Mask of the least normal subgroup containing fmask: every conjugate of
    every element of it, closed under right multiplication from the identity.

    No inverses are adjoined. In a finite group every x has finite order, so
    x^-1 is a power of x, and the products of a set already form the subgroup
    it generates.
    """
    gens = list(bits(mask_of(G.conj(g, x) for x in bits(fmask) for g in range(G.order))))
    mul = G.mul
    elems = 1 << G.identity
    stack = [G.identity]
    while stack:
        row = mul[stack.pop()]
        for g in gens:
            y = row[g]
            if not elems >> y & 1:
                elems |= 1 << y
                stack.append(y)
    return elems


def normal_closure(G: GroupTable, F: Subset) -> Subset:
    """Smallest normal subgroup containing F (closure of all conjugates)."""
    check_subset(G, F)
    return Subset(G.order, normal_closure_mask(G, F.mask))


@dataclass(frozen=True)
class NormalityVerdict:
    is_normal: bool
    counterexample: Subset | None = None
    closure: Subset | None = None


def is_kappa_normal(G: GroupTable, kappa: int) -> NormalityVerdict:
    """Whether every subset of size < kappa sits inside a normal subgroup of
    size < kappa.

    Checked exhaustively per kappa (no monotonicity in kappa is assumed):
    the counterexample is the first F in (size, lex) order whose normal
    closure has kappa or more elements. Cost grows like C(n, kappa-1) in the
    worst case; fine at the supported orders.
    """
    check_kappa(G, kappa)
    n = G.order
    for size in range(1, kappa):
        for F in itertools.combinations(range(n), size):
            closure = normal_closure_mask(G, mask_of(F))
            if closure.bit_count() >= kappa:
                return NormalityVerdict(False, Subset.from_indices(n, F), Subset(n, closure))
    return NormalityVerdict(True)
