import importlib.util
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappasets import groups
from kappasets.groups import (
    GroupAxiomError,
    GroupSpecError,
    Subset,
    build_group,
    check_kappa,
    inverse_mask,
    product_set,
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


@pytest.mark.parametrize(
    "spec", sorted({*GRID_SPECS, *ORACLE_SPECS, "symmetric:4", "dihedral:7"})
)
def test_is_abelian_is_the_pairwise_definition(spec):
    G = build_group(spec)
    pairwise = all(G.mul[a][b] == G.mul[b][a] for a in range(G.order) for b in range(G.order))
    assert G.is_abelian() is pairwise


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


def test_each_spec_is_checked_once_and_each_call_gets_a_new_table(monkeypatch):
    checks = []
    real = groups._check_table
    monkeypatch.setattr(groups, "_TABLES", {})
    monkeypatch.setattr(groups, "_check_table", lambda mul: checks.append(len(mul)) or real(mul))
    a, b = build_group("dihedral:6"), build_group(" dihedral:6 ")
    assert a is not b
    assert (a.spec, a.order, a.mul, a.inv, a.labels) == (b.spec, b.order, b.mul, b.inv, b.labels)
    assert checks == [12]
    # a product's factors are built by spec too
    build_group("product:cyclic:2+dihedral:6")
    build_group("product:cyclic:2+dihedral:6")
    assert checks == [12, 2, 24]


def test_the_table_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(groups, "_TABLES", {})
    for n in range(1, 2 * groups._TABLES_KEPT):
        build_group(f"cyclic:{n}")
    assert len(groups._TABLES) == groups._TABLES_KEPT
    assert f"cyclic:{2 * groups._TABLES_KEPT - 1}" in groups._TABLES and "cyclic:1" not in groups._TABLES
    # a table above the default cap is built afresh each time, not kept
    build_group("cyclic:65", max_order=65)
    assert "cyclic:65" not in groups._TABLES


def test_a_memoised_spec_is_still_refused_under_a_lower_cap():
    assert build_group("symmetric:4").order == 24
    for _ in range(2):
        with pytest.raises(GroupSpecError, match="order 24 exceeds the configured maximum 20"):
            build_group("symmetric:4", max_order=20)
    build_group("product:cyclic:5+cyclic:5")
    # the same message as at the first build: the factor that is too large
    with pytest.raises(GroupSpecError, match="order 5 exceeds the configured maximum 4"):
        build_group("product:cyclic:5+cyclic:5", max_order=4)


@pytest.mark.parametrize("wrap", ["file:{}", "product:cyclic:2+file:{}"])
def test_a_group_file_is_read_and_checked_on_every_build(wrap, tmp_path):
    path = tmp_path / "table.txt"
    spec = wrap.format(path)
    for source in ("cyclic:4", "product:cyclic:2+cyclic:2"):
        _write_table(path, build_group(source).mul)
        assert build_group(spec).mul == build_group(wrap.replace("file:{}", source)).mul
    _write_table(path, LOOP5)
    for _ in range(2):
        with pytest.raises(GroupAxiomError, match="associativity"):
            build_group(spec)


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
        union = union | product_set(G, Subset(G.order, 1 << f), A, "FA")
    assert fa == union
    assert fa.size <= F.size * A.size
    # FAF is (FA)F
    assert product_set(G, F, A, "FAF") == product_set(G, F, fa, "AF")


@given(SPECS, st.data())
@settings(max_examples=60, deadline=None)
def test_inverse_involution(spec, data):
    G = build_group(spec)
    A = data.draw(subsets_of(G))
    inv = Subset(G.order, inverse_mask(G, A.mask))
    assert Subset(G.order, inverse_mask(G, inv.mask)) == A


def test_kappa_validation():
    G = build_group("cyclic:4")
    for bad in (1, 0, 5):
        with pytest.raises(ValueError):
            check_kappa(G, bad)
    check_kappa(G, 2)
    check_kappa(G, 4)
    with pytest.raises(ValueError, match=r"^kappa must lie in \[2, 4\], got 5$"):
        check_kappa(G, 5)
    # [2, 1] would name an empty range; order 1 admits no kappa at all
    for bad in (1, 2):
        with pytest.raises(ValueError, match=r"^no kappa is admissible for a group of order 1 "):
            check_kappa(build_group("cyclic:1"), bad)
