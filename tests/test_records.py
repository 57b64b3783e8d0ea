"""The contract of every record class: tile families and tilings, boards and
their placements, coefficient triangles and the sequence reports.

A record equals a record of its own class with equal fields and hashes
like it; it never equals a record of another class. It refuses assignment
and deletion, prints in the `Name(field=value, ...)` form, validates as it
is built, and survives a copy or a pickle round trip. Equal records are
one key to an `lru_cache`.
"""

import copy
import pickle
from functools import lru_cache

import pytest

from fibrook.board import FerrersBoard, FilePlacement, RookPlacement
from fibrook.identities import SequenceReport
from fibrook.poly import PQRPoly
from fibrook.stirling import CoeffTriangle
from fibrook.tiling import FIBONACCI, TileFamily, Tiling, tiling_weight_sum


# name: (build, the field names, the repr); each call of build() makes a new
# record, and new field values too where they are not shared by design
RECORDS = {
    "TileFamily": (lambda: TileFamily((1, 2)), ("heights",), "TileFamily(heights=(1, 2))"),
    "Tiling": (lambda: Tiling((1, 2, 1)), ("tiles",), "Tiling(tiles=(1, 2, 1))"),
    "FerrersBoard": (
        lambda: FerrersBoard((0, 1, 2)), ("heights",), "FerrersBoard(heights=(0, 1, 2))"
    ),
    "FilePlacement": (
        lambda: FilePlacement(FerrersBoard((0, 1, 2)), ((3, Tiling((1, 1))),)),
        ("board", "entries"),
        "FilePlacement(board=FerrersBoard(heights=(0, 1, 2)), "
        "entries=((3, Tiling(tiles=(1, 1))),))",
    ),
    "RookPlacement": (
        lambda: RookPlacement(FerrersBoard((0, 1, 2)), ((2, Tiling((1,))), (3, Tiling((1,))))),
        ("board", "entries"),
        "RookPlacement(board=FerrersBoard(heights=(0, 1, 2)), "
        "entries=((2, Tiling(tiles=(1,))), (3, Tiling(tiles=(1,)))))",
    ),
    "CoeffTriangle": (
        lambda: CoeffTriangle("cf", 1, ((PQRPoly.one(),), (PQRPoly.zero(), PQRPoly.one())), 1),
        ("kind", "N", "rows", "width"),
        "CoeffTriangle(kind='cf', N=1, rows=((PQRPoly(1),), (PQRPoly(0), PQRPoly(1))), width=1)",
    ),
    "SequenceReport": (
        lambda: SequenceReport((1, 2), (1, 2), "MATCH"),
        ("values", "generated", "status", "warn"),
        "SequenceReport(values=(1, 2), generated=(1, 2), status='MATCH', warn=None)",
    ),
}

# the same class with one field changed
DIFFERENT = {
    "TileFamily": lambda: TileFamily((1, 2, 3)),
    "Tiling": lambda: Tiling((1, 1, 2)),
    "FerrersBoard": lambda: FerrersBoard((0, 1, 3)),
    "FilePlacement": lambda: FilePlacement(FerrersBoard((0, 1, 2)),
                                           ((2, Tiling((1,))), (3, Tiling((1, 1))))),
    "RookPlacement": lambda: RookPlacement(FerrersBoard((0, 1, 2)), ((3, Tiling((1, 1))),)),
    "CoeffTriangle": lambda: CoeffTriangle(
        "cf", 1, ((PQRPoly.one(),), (PQRPoly.zero(), PQRPoly.one()))
    ),
    "SequenceReport": lambda: SequenceReport((1, 2), (1, 2), "MATCH", "a note"),
}

NAMES = sorted(RECORDS)


@pytest.mark.parametrize("name", NAMES)
def test_equal_fields_give_equal_records_with_equal_hashes(name):
    build = RECORDS[name][0]
    a, b = build(), build()
    assert a is not b
    assert a == b and b == a
    assert not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", NAMES)
def test_a_changed_field_breaks_equality(name):
    a, b = RECORDS[name][0](), DIFFERENT[name]()
    assert a != b and b != a
    assert not a == b


def test_records_of_different_classes_are_never_equal():
    board = FerrersBoard((0, 1, 2))
    entries = ((3, Tiling((1, 1))),)
    file, rook = FilePlacement(board, entries), RookPlacement(board, entries)
    assert (file.board, file.entries) == (rook.board, rook.entries)
    assert file != rook and rook != file
    assert not file == rook
    assert TileFamily((1, 2)) != FerrersBoard((1, 2))
    assert FerrersBoard((1, 2)) != (1, 2) and FerrersBoard((1, 2)) != ((1, 2),)
    assert FerrersBoard((1, 2)) != None  # noqa: E711
    assert len({file, rook}) == 2


@pytest.mark.parametrize("name", NAMES)
def test_records_refuse_assignment_and_deletion(name):
    build, fields, text = RECORDS[name]
    rec = build()
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
        with pytest.raises(AttributeError):
            delattr(rec, field)
    assert rec == build()
    assert repr(rec) == text
    # the way past the refusal, for code that builds a record without __init__
    object.__setattr__(rec, fields[0], None)
    assert getattr(rec, fields[0]) is None


@pytest.mark.parametrize("name", NAMES)
def test_records_take_no_new_attributes(name):
    # a slotted frozen dataclass raised TypeError here, from its __setattr__
    rec = RECORDS[name][0]()
    with pytest.raises(AttributeError):
        rec.extra = None
    with pytest.raises(AttributeError):
        del rec.extra


@pytest.mark.parametrize("name", NAMES)
def test_repr_has_the_dataclass_form(name):
    build, fields, text = RECORDS[name]
    rec = build()
    assert repr(rec) == text
    assert text.startswith(name + "(" + fields[0] + "=")


@pytest.mark.parametrize("name", NAMES)
def test_records_survive_copy_and_pickle(name):
    rec = RECORDS[name][0]()
    for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(twin) is type(rec)
        assert twin == rec and hash(twin) == hash(rec)
        assert repr(twin) == repr(rec)


def test_a_copied_tiling_keeps_its_height_counts_and_text():
    t = pickle.loads(pickle.dumps(Tiling((1, 2, 3, 1))))
    assert (t.height, t.height_counts(), str(t)) == (7, (2, 1, 1), "1,2,3,1")


BAD_BUILDS = [
    (lambda: TileFamily((2, 1)), "tile heights must be strictly increasing and distinct"),
    (lambda: TileFamily((2,)), "a tile family must contain height 1"),
    (lambda: TileFamily((1, 5)), "tile heights must be drawn from {1, 2, 3}"),
    (lambda: Tiling(()), "a tiling has at least one tile"),
    (lambda: Tiling((2, 1)), "the bottom tile must have height 1"),
    (lambda: Tiling((1, 4)), "tile heights must be drawn from {1, 2, 3}"),
    (lambda: FerrersBoard((0, -1)), "column heights must be nonnegative"),
    (lambda: FerrersBoard(("x",)), "invalid literal for int() with base 10: 'x'"),
    (lambda: RookPlacement(FerrersBoard((2, 1)), ()),
     "a rook-style placement needs weakly increasing heights, got F(2,1)"),
    (lambda: FilePlacement(FerrersBoard((0, 1, 2)), ((4, Tiling((1,))),)),
     "placement columns out of range for F(0,1,2)"),
    (lambda: FilePlacement(FerrersBoard((0, 1, 2)), ((3, Tiling((1, 1))), (2, Tiling((1,))))),
     "placement columns must be strictly increasing"),
    (lambda: FilePlacement(FerrersBoard((0, 1, 2)), ((3, Tiling((1,))),)),
     "column 3 has 2 uncanceled cells, tiling covers 1"),
    (lambda: RookPlacement(FerrersBoard((0, 1, 2)), ((2, Tiling((1,))), (3, Tiling((1, 1))))),
     "column 3 has 1 uncanceled cells, tiling covers 2"),
]


@pytest.mark.parametrize("build,message", BAD_BUILDS)
def test_validation_errors_are_unchanged(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


def test_equal_records_are_one_cache_key():
    @lru_cache(maxsize=None)
    def probe(fam: TileFamily, board: FerrersBoard) -> object:
        return object()

    first = probe(TileFamily((1, 2)), FerrersBoard((0, 1)))
    assert probe(TileFamily((1, 2)), FerrersBoard((0, 1))) is first
    assert probe(FIBONACCI, FerrersBoard.staircase(2)) is first
    assert probe(TileFamily((1, 2, 3)), FerrersBoard((0, 1))) is not first
    assert probe(TileFamily((1, 2)), FerrersBoard((0, 2))) is not first
    assert (probe.cache_info().hits, probe.cache_info().misses) == (2, 3)
    # the library's own caches: the staircase and the enumerated weight sums
    assert FerrersBoard.staircase(4) is FerrersBoard.staircase(4)
    assert tiling_weight_sum(TileFamily((1, 2)), 6) is tiling_weight_sum(FIBONACCI, 6)
