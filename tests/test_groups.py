import importlib.util
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappasets.groups import (
    GroupAxiomError,
    GroupSpecError,
    NormalityVerdict,
    Subset,
    build_group,
    check_kappa,
    conjugacy_class,
    is_kappa_normal,
    mask_of,
    normal_closure,
    product_set,
    subset_inverse,
    translate,
)
from kappasets.suites import GRID_SPECS, ORACLE_SPECS

SPECS = st.sampled_from(
    ["cyclic:3", "cyclic:5", "cyclic:6", "dihedral:3", "symmetric:3", "product:cyclic:2+cyclic:3"]
)


def subsets_of(G):
    return st.integers(min_value=0, max_value=G.full_mask).map(lambda m: Subset(G.order, m))


def test_cyclic_table():
    G = build_group("cyclic:6")
    assert G.order == 6
    assert all(G.mul[x][y] == (x + y) % 6 for x in range(6) for y in range(6))
    assert G.inv[2] == 4


def test_symmetric3_is_nonabelian_order_6():
    G = build_group("symmetric:3")
    assert G.order == 6
    assert not G.is_abelian()


def test_klein_four_self_inverse():
    G = build_group("product:cyclic:2+cyclic:2")
    assert G.order == 4
    assert all(G.inv[x] == x for x in range(4))


def test_dihedral_relations():
    G = build_group("dihedral:4")
    assert G.order == 8
    r, s = 1, 4
    # s r s = r^-1
    assert G.mul[G.mul[s][r]][s] == G.inv[r]


def test_nested_product_spec():
    G = build_group("product:product:cyclic:2+cyclic:2+cyclic:2")
    assert G.order == 8
    assert G.is_abelian()


@given(SPECS)
@settings(max_examples=20, deadline=None)
def test_group_axioms_hold(spec):
    G = build_group(spec)
    n = G.order
    # independent spot re-check of the invariants the builder verifies
    assert all(G.mul[0][x] == x == G.mul[x][0] for x in range(n))
    assert all(G.mul[x][G.inv[x]] == 0 for x in range(n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert G.mul[G.mul[a][b]][c] == G.mul[a][G.mul[b][c]]


def test_large_orders_need_an_explicit_max_order():
    # symmetric:5 exceeds the default cap; an explicit max_order admits it
    with pytest.raises(GroupSpecError):
        build_group("symmetric:5")
    G = build_group("symmetric:5", max_order=120)
    assert G.order == 120
    assert G.mul[0] == tuple(range(120))


# the smallest non-associative loop: a Latin square with identity 0 in
# which every element is its own two-sided inverse
LOOP5 = (
    (0, 1, 2, 3, 4),
    (1, 0, 3, 4, 2),
    (2, 4, 0, 1, 3),
    (3, 2, 4, 0, 1),
    (4, 3, 1, 2, 0),
)


def _write_table(path, mul):
    path.write_text("\n".join([str(len(mul))] + [" ".join(map(str, r)) for r in mul]) + "\n")


def test_exact_associativity_rejects_small_loop(tmp_path):
    path = tmp_path / "loop5.txt"
    _write_table(path, LOOP5)
    with pytest.raises(GroupAxiomError, match="associativity"):
        build_group(f"file:{path}")


def test_exact_associativity_above_order_64(tmp_path):
    # cyclic:13 x LOOP5 is a loop of order 65 with two-sided inverses, so
    # only the associativity check can reject it
    mul = [
        [((c1 + c2) % 13) * 5 + LOOP5[l1][l2] for c2 in range(13) for l2 in range(5)]
        for c1 in range(13)
        for l1 in range(5)
    ]
    path = tmp_path / "loop65.txt"
    _write_table(path, mul)
    with pytest.raises(GroupAxiomError, match="associativity"):
        build_group(f"file:{path}", max_order=65)
    # the same construction over a group passes
    _write_table(path, build_group("product:cyclic:13+cyclic:5", max_order=65).mul)
    assert build_group(f"file:{path}", max_order=65).order == 65


def _benchmark_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_catalogue_groups_pass_the_exact_check():
    workloads = _benchmark_workloads()
    specs = set(GRID_SPECS) | set(ORACLE_SPECS)
    specs |= {s for family in workloads.CLASSIFY_FAMILIES.values() for s in family}
    specs |= {entry[1] for entry in workloads.SEARCH_CATALOGUE}
    for spec in sorted(specs):
        G = build_group(spec)
        assert all(
            G.mul[G.mul[a][b]][c] == G.mul[a][G.mul[b][c]]
            for a in range(G.order)
            for b in range(G.order)
            for c in range(G.order)
        ), spec


def test_spec_errors():
    for bad in ["", "cyclic", "cyclic:x", "frobnicate:5", "symmetric:6", "product:cyclic:2"]:
        with pytest.raises(GroupSpecError):
            build_group(bad)
    with pytest.raises(GroupSpecError):
        build_group("cyclic:100")  # past the default maximum
    build_group("cyclic:100", max_order=128)


def test_file_group_roundtrip(tmp_path):
    G = build_group("symmetric:3")
    lines = [str(G.order)] + [" ".join(map(str, row)) for row in G.mul]
    path = tmp_path / "s3.txt"
    path.write_text("\n".join(lines) + "\n")
    H = build_group(f"file:{path}")
    assert H.mul == G.mul
    assert H.labels[0] == "g0"


def test_file_group_rejects_non_group(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n0 1\n1 1\n")
    with pytest.raises(GroupAxiomError):
        build_group(f"file:{path}")
    path.write_text("2\n0 1\n")
    with pytest.raises(GroupSpecError):
        build_group(f"file:{path}")
    # identity must be element 0
    path.write_text("2\n1 0\n0 1\n")
    with pytest.raises(GroupAxiomError):
        build_group(f"file:{path}")


def test_subset_algebra():
    A = Subset.from_indices(6, [0, 2, 4])
    assert A.size == 3
    assert 2 in A and 3 not in A
    assert (A | A.complement()) == Subset.full(6)
    assert (A & A.complement()).mask == 0
    assert (A - Subset.from_indices(6, [0])).indices() == (2, 4)
    with pytest.raises(ValueError):
        A | Subset.full(4)
    with pytest.raises(ValueError):
        Subset(3, 0b1000)


def test_product_set_examples():
    G = build_group("cyclic:6")
    F = Subset.from_indices(6, [0, 3])
    A = Subset.from_indices(6, [0, 1, 2])
    assert product_set(G, F, A, "FA") == Subset.full(6)
    assert product_set(G, Subset.from_indices(6, [0]), A, "FA") == A
    assert product_set(G, Subset.empty(6), A, "FA") == Subset.empty(6)
    with pytest.raises(ValueError):
        product_set(G, F, A, "AFA")


@given(SPECS, st.data())
@settings(max_examples=60, deadline=None)
def test_product_is_union_of_translates(spec, data):
    G = build_group(spec)
    F = data.draw(subsets_of(G))
    A = data.draw(subsets_of(G))
    fa = product_set(G, F, A, "FA")
    union = Subset.empty(G.order)
    for f in F:
        union = union | translate(G, f, A, "left")
    assert fa == union
    assert fa.size <= F.size * A.size
    # FAF is (FA)F
    assert product_set(G, F, A, "FAF") == product_set(G, F, fa, "AF")


@given(SPECS, st.data())
@settings(max_examples=60, deadline=None)
def test_inverse_involution(spec, data):
    G = build_group(spec)
    A = data.draw(subsets_of(G))
    assert subset_inverse(G, subset_inverse(G, A)) == A


def test_conjugacy_classes():
    Z6 = build_group("cyclic:6")
    assert conjugacy_class(Z6, 2) == Subset.from_indices(6, [2])
    S3 = build_group("symmetric:3")
    assert conjugacy_class(S3, 0) == Subset.from_indices(6, [0])
    transpositions = [i for i, lab in enumerate(S3.labels) if lab in ("021", "102", "210")]
    assert conjugacy_class(S3, transpositions[0]) == Subset.from_indices(6, transpositions)


def test_normal_closure_examples():
    S3 = build_group("symmetric:3")
    t = S3.labels.index("021")
    assert normal_closure(S3, Subset.from_indices(6, [t])) == Subset.full(6)
    assert normal_closure(S3, Subset.from_indices(6, [0])) == Subset.from_indices(6, [0])
    Z6 = build_group("cyclic:6")
    assert normal_closure(Z6, Subset.from_indices(6, [2])) == Subset.from_indices(6, [0, 2, 4])


@given(SPECS, st.data())
@settings(max_examples=40, deadline=None)
def test_normal_closure_idempotent_and_monotone(spec, data):
    G = build_group(spec)
    F = data.draw(subsets_of(G))
    bigger = data.draw(subsets_of(G))
    clo = normal_closure(G, F)
    assert normal_closure(G, clo) == clo
    assert (clo.mask & ~normal_closure(G, F | bigger).mask) == 0
    assert (F.mask & ~clo.mask) == 0


def test_kappa_validation():
    G = build_group("cyclic:4")
    for bad in (1, 0, 5):
        with pytest.raises(ValueError):
            check_kappa(G, bad)
    check_kappa(G, 2)
    check_kappa(G, 4)


def test_is_kappa_normal_counterexamples():
    S3 = build_group("symmetric:3")
    got = is_kappa_normal(S3, 3)
    assert not got.is_normal
    assert got.counterexample == Subset.from_indices(6, [1])  # first transposition
    assert got.closure.size >= 3
    Z6 = build_group("cyclic:6")
    got = is_kappa_normal(Z6, 3)
    assert not got.is_normal
    assert got.counterexample == Subset.from_indices(6, [1])


def test_is_kappa_normal_always_fails_at_finite_scale():
    # kappa-1 non-identity elements close to at least kappa elements (the
    # closure adjoins the identity), so the verdict is false for every
    # finite group and every valid kappa; the checker must find this.
    for spec in ("cyclic:4", "product:cyclic:2+cyclic:2", "symmetric:3"):
        G = build_group(spec)
        for kappa in range(2, G.order + 1):
            got = is_kappa_normal(G, kappa)
            assert not got.is_normal
            assert got.counterexample.size <= kappa - 1


def test_is_kappa_normal_minimal_counterexample():
    got = is_kappa_normal(build_group("product:cyclic:2+cyclic:2"), 3)
    # all singleton closures have size 2 < 3; the first lex pair fails
    assert got.counterexample == Subset.from_indices(4, [1, 2])
    assert got.closure.size == 4


@given(SPECS, st.integers(min_value=2, max_value=6))
@settings(max_examples=30, deadline=None)
def test_kappa_normal_verdict_is_verified(spec, kappa):
    G = build_group(spec)
    if kappa > G.order:
        kappa = G.order
    got = is_kappa_normal(G, kappa)
    if not got.is_normal:
        assert got.counterexample.size <= kappa - 1
        assert normal_closure(G, got.counterexample).size >= kappa


def normal_subgroups(G):
    """Every nonempty subset closed under products and conjugation, by plain
    enumeration (in a finite group such a set is a normal subgroup)."""
    n = G.order
    out = []
    for m in range(1, 1 << n):
        S = Subset(n, m)
        if all(G.mul[a][b] in S for a in S for b in S) and all(
            G.conj(g, x) in S for g in range(n) for x in S
        ):
            out.append(m)
    return out


@pytest.mark.parametrize("spec", GRID_SPECS)
def test_normal_closure_and_kappa_normality_by_the_definitions(spec):
    G = build_group(spec)
    n = G.order
    normals = normal_subgroups(G)
    for m in range(1 << n):
        over = [N for N in normals if m & ~N == 0]
        least = normal_closure(G, Subset(n, m)).mask
        assert least in over and all(least & ~N == 0 for N in over)
    for kappa in range(2, n + 1):
        small = [N for N in normals if N.bit_count() < kappa]
        first = next(
            (
                F
                for size in range(1, kappa)
                for F in itertools.combinations(range(n), size)
                if not any(mask_of(F) & ~N == 0 for N in small)
            ),
            None,
        )
        got = is_kappa_normal(G, kappa)
        if first is None:
            assert got == NormalityVerdict(True)
        else:
            F = Subset.from_indices(n, first)
            assert got == NormalityVerdict(False, F, normal_closure(G, F))
