"""Finite groups as explicit Cayley tables, plus bit-indexed subset algebra.

Element 0 is always the identity. Subsets are immutable bitmasks over
element indices, so all set algebra is integer arithmetic.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path
from typing import Callable, Iterable, Iterator

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


def read_int(text: str) -> int:
    """text as an integer: ASCII digits after at most one leading "-", the
    one integer grammar of group specs, group files and command options.
    int() alone also takes "1_0", "+3", " 4" and other scripts' digits;
    ValueError for anything else."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def mask_of(indices: Iterable[int]) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


#: How a record's constructor sets a field past the refusing __setattr__.
set_field = object.__setattr__


class Record:
    """Base of the package's records. A record names its fields once, in
    constructor order, in __slots__; a __weakref__ or __dict__ slot is no
    field. Record's one constructor binds positional and then keyword
    arguments to the fields, and a field left out takes its value from the
    class's _defaults, which holds the values of the last len(_defaults)
    fields; a field missing, unknown, given twice or past the last raises
    TypeError. A record that checks its arguments defines its own __init__
    and sets its fields with set_field. From the fields a record gets
    equality (same class, equal fields), the hash of the field tuple, the
    repr Name(field=value, ...) and replace(), and assigning or deleting an
    attribute raises AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("__"))

    def __init__(self, *args, **kwargs):
        fields, given = self._fields, len(args)
        if given > len(fields):
            raise TypeError(f"{self.__class__.__name__}() takes {len(fields)} fields, got {given}")
        first_default = len(fields) - len(self._defaults)
        for i, name in enumerate(fields):
            if i < given:
                value = args[i]
            elif name in kwargs:
                value = kwargs.pop(name)
            elif i >= first_default:
                value = self._defaults[i - first_default]
            else:
                raise TypeError(f"{self.__class__.__name__}() missing field {name!r}")
            set_field(self, name, value)
        if kwargs:  # what is left names no field, or one given by position
            raise TypeError(
                f"{self.__class__.__name__}() got unknown or repeated fields {sorted(kwargs)}"
            )

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A copy of this record with the fields named in changes changed."""
        values = [
            changes.pop(name) if name in changes else getattr(self, name) for name in self._fields
        ]
        return self.__class__(*values, **changes)


class GroupTable(Record):
    """Immutable finite group: spec, order, the Cayley table mul, the
    inverses inv and the element labels. Equal and hashable by identity,
    so results can be cached per table."""

    __slots__ = ("spec", "order", "mul", "inv", "labels", "__weakref__")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @property
    def full_mask(self) -> int:
        return (1 << self.order) - 1

    def is_abelian(self) -> bool:
        m = self.mul
        return all(
            m[a][b] == m[b][a] for a in range(self.order) for b in range(a + 1, self.order)
        )

    def __repr__(self) -> str:
        return f"GroupTable({self.spec!r}, order={self.order})"


class Subset(Record):
    """Bit-indexed subset of a group of order n."""

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int):
        if mask < 0 or mask >> n:
            raise ValueError("subset bits out of carrier range")
        set_field(self, "n", n)
        set_field(self, "mask", mask)

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


#: What a family returns: the group's order, and a function that builds its
#: table and labels, called only once the order is within the cap.
_Family = tuple[int, Callable[[], tuple[list[list[int]], list[str]]]]


def _cyclic(n: int) -> _Family:
    if n < 1:
        raise GroupSpecError("cyclic:n needs n >= 1")
    return n, lambda: (
        [[(i + j) % n for j in range(n)] for i in range(n)], [str(i) for i in range(n)]
    )


def _dihedral(n: int) -> _Family:
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

    def make():
        mul = [[prod(i, j) for j in range(order)] for i in range(order)]
        return mul, [f"r{k}" for k in range(n)] + [f"sr{k}" for k in range(n)]

    return order, make


def _symmetric(n: int) -> _Family:
    if not 1 <= n <= 5:
        raise GroupSpecError("symmetric:n supports 1 <= n <= 5")

    def make():
        perms = list(itertools.permutations(range(n)))  # lex order; identity first
        index = {p: i for i, p in enumerate(perms)}
        mul = [[index[tuple(p[x] for x in q)] for q in perms] for p in perms]
        return mul, ["".join(map(str, p)) for p in perms]

    return math.factorial(n), make


def _product(g1: GroupTable, g2: GroupTable) -> _Family:
    n1, n2 = g1.order, g2.order
    order = n1 * n2

    def prod(i: int, j: int) -> int:
        a1, b1 = divmod(i, n2)
        a2, b2 = divmod(j, n2)
        return g1.mul[a1][a2] * n2 + g2.mul[b1][b2]

    def make():
        mul = [[prod(i, j) for j in range(order)] for i in range(order)]
        labels = [f"({g1.labels[i // n2]},{g2.labels[i % n2]})" for i in range(order)]
        return mul, labels

    return order, make


def _from_file(path: str) -> _Family:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise GroupSpecError(f"cannot read group file {path!r}: {e}") from e
    tokens = text.split()
    if not tokens:
        raise GroupSpecError(f"group file {path!r} is empty")
    try:
        n = read_int(tokens[0])
        entries = [read_int(t) for t in tokens[1:]]
    except ValueError as e:
        raise GroupSpecError(f"group file {path!r} has non-integer entries") from e
    if n < 1 or len(entries) != n * n:
        raise GroupSpecError(f"group file {path!r}: expected {n}x{n} table entries")
    if any(not 0 <= e < n for e in entries):
        raise GroupSpecError(f"group file {path!r}: entries must lie in 0..{n - 1}")
    return n, lambda: (
        [entries[i * n : (i + 1) * n] for i in range(n)], [f"g{i}" for i in range(n)]
    )


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
        return read_int(arg)
    except ValueError:
        raise GroupSpecError(f"bad integer in group spec {spec!r}") from None


#: Checked (order, mul, inv, labels) by spec, so that each spec's table is
#: built and checked once per process. A spec that names a file is never
#: kept, since the file can change, and neither is an order above the
#: default cap, so the memo stays within about 40 KB per entry. The oldest
#: entry goes first when full.
_TABLES: dict[str, tuple] = {}
_TABLES_KEPT = 32


def build_group(spec: str, *, max_order: int = DEFAULT_MAX_ORDER) -> GroupTable:
    """Build a group from a spec string.

    Grammar: cyclic:n | dihedral:n (order 2n) | symmetric:n (n <= 5) |
    product:spec+spec | file:path. Orders above 64 need an explicit
    max_order; the order is checked before any table or label list is
    built (a product's factors first, each on its own), and on every call.
    Every table is checked exactly against the group axioms: once per spec
    per process, or on every call when the spec names a file (which is read
    again each time) or the order exceeds 64. Each call returns a new
    GroupTable, so the results the classifiers cache on it belong to one
    caller.
    """
    spec = spec.strip()
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise GroupSpecError(f"group spec needs a kind prefix: {spec!r}")
    if kind == "cyclic":
        order, make = _cyclic(_int_arg(spec, arg))
    elif kind == "dihedral":
        order, make = _dihedral(_int_arg(spec, arg))
    elif kind == "symmetric":
        order, make = _symmetric(_int_arg(spec, arg))
    elif kind == "product":
        left, right = _split_product_body(arg)
        order, make = _product(
            build_group(left, max_order=max_order), build_group(right, max_order=max_order)
        )
    elif kind == "file":
        order, make = _from_file(arg)
    else:
        raise GroupSpecError(f"unknown group kind {kind!r}")
    if order > max_order:  # before any table or label list is built
        raise GroupSpecError(f"order {order} exceeds the configured maximum {max_order}")
    table = _TABLES.get(spec)
    if table is None:
        mul, labels = make()
        table = order, tuple(map(tuple, mul)), tuple(_check_table(mul)), tuple(labels)
        if order <= DEFAULT_MAX_ORDER and "file:" not in spec:
            if len(_TABLES) >= _TABLES_KEPT:
                del _TABLES[next(iter(_TABLES))]
            _TABLES[spec] = table
    return GroupTable(spec, *table)


# -- subset algebra ------------------------------------------------------------


def inverse_mask(G: GroupTable, amask: int) -> int:
    return mask_of(G.inv[a] for a in bits(amask))


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
