"""The package's records: how each is built, compared, hashed, shown and
copied, and which refuse assignment. The reprs are the text each record has
always shown, kept as literals."""

import weakref

import pytest

from kappasets.classify import CoverDecomposition, SizeVerdict, ThickWitness
from kappasets.constructions import Partition
from kappasets.groups import GroupTable, Subset
from kappasets.report import ClaimRecord, RunReport
from kappasets.resolvability import ProbeOutcome, SearchOutcome
from kappasets.words import WordSetPredicate

G = GroupTable("cyclic:2", 2, ((0, 1), (1, 0)), (0, 1), ("0", "1"))
CELLS = (Subset(2, 1), Subset(2, 2))
PART = Partition(CELLS, "two points", G, None)
CLAIM = ClaimRecord("s.claim", "A is large", "pass", "at kappa=3", 12, 0.25)

PART_REPR = (
    "Partition(cells=({0}, {1}), provenance='two points', "
    "group=GroupTable('cyclic:2', order=2), alphabet_size=None)"
)
CLAIM_REPR = (
    "ClaimRecord(claim_id='s.claim', anchor='A is large', status='pass', "
    "detail='at kappa=3', nodes=12, wall_time_s=0.25)"
)

#: (class, field names, every field's value, the defaulted fields' values, repr)
RECORDS = [
    (GroupTable, ("spec", "order", "mul", "inv", "labels"),
     ("cyclic:2", 2, ((0, 1), (1, 0)), (0, 1), ("0", "1")), (),
     "GroupTable('cyclic:2', order=2)"),
    (Subset, ("n", "mask"), (4, 5), (), "{0,2}"),
    (SizeVerdict, ("notion", "side", "kappa", "verdict", "variant", "witness", "nodes"),
     ("large", "left", 3, True, None, Subset(4, 5), 7), (None, None, 0),
     "SizeVerdict(notion='large', side='left', kappa=3, verdict=True, variant=None, "
     "witness={0,2}, nodes=7)"),
    (ThickWitness, ("shown", "total"), (((Subset(3, 1), 2), (Subset(3, 2), 0)), 3), (),
     "ThickWitness(shown=(({0}, 2), ({1}, 0)), total=3)"),
    (CoverDecomposition, ("cells",), (CELLS,), (), "CoverDecomposition(cells=({0}, {1}))"),
    (Partition, ("cells", "provenance", "group", "alphabet_size"), (CELLS, "two points", G, None),
     (None, None), PART_REPR),
    (SearchOutcome, ("cells", "optimal", "nodes", "best"), (2, True, 10, PART), (),
     f"SearchOutcome(cells=2, optimal=True, nodes=10, best={PART_REPR})"),
    (ProbeOutcome, ("found", "exhaustive", "nodes"), (None, False, 3), (),
     "ProbeOutcome(found=None, exhaustive=False, nodes=3)"),
    (WordSetPredicate, ("description", "fn"), ("words ending in a", len), (),
     "WordSetPredicate(words ending in a)"),
    (ClaimRecord, ("claim_id", "anchor", "status", "detail", "nodes", "wall_time_s"),
     ("s.claim", "A is large", "pass", "at kappa=3", 12, 0.25), ("", 0, 0.0), CLAIM_REPR),
    (RunReport, ("command", "claims"), ("kappasets verify", [CLAIM]), ([],),
     f"RunReport(command='kappasets verify', claims=[{CLAIM_REPR}])"),
]
FIELDS = "cls,fields,values,defaults,shown"


def cases(records):
    return [pytest.param(*case, id=case[0].__name__) for case in records]


def field_values(record, fields):
    return tuple(getattr(record, name) for name in fields)


@pytest.mark.parametrize(FIELDS, cases(RECORDS))
def test_built_by_position_by_keyword_and_with_defaults(cls, fields, values, defaults, shown):
    assert field_values(cls(*values), fields) == values
    assert field_values(cls(**dict(zip(fields, values))), fields) == values
    required = len(fields) - len(defaults)
    assert field_values(cls(*values[:required]), fields) == values[:required] + defaults
    with pytest.raises(TypeError):
        cls(*values[:required - 1])
    with pytest.raises(TypeError):
        cls(*values, nope=1)
    with pytest.raises(TypeError):
        cls(values[0], **dict(zip(fields, values)))
    with pytest.raises(TypeError):
        cls(*values, None)


@pytest.mark.parametrize(FIELDS, cases(RECORDS))
def test_repr_is_unchanged(cls, fields, values, defaults, shown):
    assert repr(cls(*values)) == shown


@pytest.mark.parametrize(FIELDS, cases(RECORDS))
def test_equal_by_class_and_fields(cls, fields, values, defaults, shown):
    record = cls(*values)
    if cls is GroupTable:  # by identity, so that per-table caches are per object
        assert record == record and record != cls(*values)
        assert hash(record) == object.__hash__(record)
        assert weakref.ref(record)() is record
        return
    assert record == cls(*values)
    assert record != values and values != record
    if cls in (ClaimRecord, RunReport):  # mutable, so unhashable
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == hash(cls(*values)) == hash(values)


def test_records_differing_in_one_field_are_unequal():
    assert Subset(4, 5) != Subset(5, 5) and Subset(4, 5) != Subset(4, 4)
    assert SizeVerdict("large", "left", 3, True) != SizeVerdict("large", "right", 3, True)
    assert ThickWitness((), 1) != ThickWitness((), 2)
    assert CLAIM != ClaimRecord("s.claim", "A is large", "pass", "at kappa=3", 12, 0.5)


@pytest.mark.parametrize(FIELDS, cases(c for c in RECORDS if c[0] not in (ClaimRecord, RunReport)))
def test_frozen_records_refuse_assignment_and_deletion(cls, fields, values, defaults, shown):
    record = cls(*values)
    for name in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert field_values(record, fields) == values


def test_claims_and_reports_are_mutable():
    claim = ClaimRecord("c", "anchor", "pass")
    claim.nodes = 5
    assert claim == ClaimRecord("c", "anchor", "pass", "", 5)
    rep = RunReport("kappasets verify")
    rep.claims.append(claim)
    rep.run_meta = lambda: {}
    assert rep.claims == [claim] and rep.run_meta() == {}
    assert RunReport("x").claims is not RunReport("x").claims


@pytest.mark.parametrize(FIELDS, cases(RECORDS[1:]))  # GroupTable is equal by identity
def test_replace_with_no_changes_is_an_equal_copy(cls, fields, values, defaults, shown):
    record = cls(*values)
    assert record.replace() == record and record.replace() is not record
    with pytest.raises(TypeError):
        record.replace(nope=1)


def test_replace_changes_only_the_named_fields():
    verdict = SizeVerdict("large", "left", 3, True, None, Subset(4, 5), 7)
    assert verdict.replace(side="right", nodes=0) == SizeVerdict(
        "large", "right", 3, True, None, Subset(4, 5), 0
    )
    assert verdict.side == "left" and verdict.nodes == 7
    assert Subset(4, 5).replace(mask=1) == Subset(4, 1)
    assert PART.replace(provenance="other") == Partition(CELLS, "other", G)
    assert CLAIM.replace(status="fail").status == "fail" and CLAIM.status == "pass"
    table = G.replace(spec="renamed")
    assert (table.spec, table.mul) == ("renamed", G.mul) and table != G


def test_replace_validates_like_the_constructor():
    with pytest.raises(ValueError, match=r"^subset bits out of carrier range$"):
        Subset(4, 5).replace(n=2)


def test_validation_errors_are_unchanged():
    with pytest.raises(ValueError, match=r"^subset bits out of carrier range$"):
        Subset(3, 8)
    with pytest.raises(ValueError, match=r"^subset bits out of carrier range$"):
        Subset(3, -1)
    with pytest.raises(
        ValueError,
        match=r"^status must be one of \('pass', 'fail', 'inconclusive'\), got 'bogus'$",
    ):
        ClaimRecord("c", "anchor", "bogus")
