"""Value semantics of the value classes: equality, hashing, ordering, repr,
immutability, pickling and copying.  The expected reprs are the strings these
classes printed when they were generated by dataclasses, or, for the classes
added to the samples later, when each wrote its own methods out."""

from __future__ import annotations

import copy
import importlib
import operator
import os
import pickle
import pkgutil
import random
import subprocess
import sys

import pytest

import wangtiles
from wangtiles.core import Frozen, Value, WangTile
from wangtiles.morphism import Word2d

from helpers import value_samples

NAMES = list(value_samples())

FIELDS = {
    "WangTile": ("right", "top", "left", "bottom"),
    "Equivalence": ("vertical", "horizontal", "tile_map"),
    "Word2d": ("columns",),
    "Morphism2d": ("domain", "codomain", "images"),
    "MarkerSet": ("tile_indices", "direction"),
    "MarkerReport": ("same_axis_violations", "cross_axis_violations"),
    "Derivation": ("source", "markers", "radius", "derived", "morphism", "singles", "fusions"),
    "NamedArtifact": ("name", "kind", "payload", "provenance"),
    "StoneGeometry": ("widths", "heights"),
    "GoldenNumber": ("a", "b"),
    "GoldenRational": ("num", "den"),
    "IntMatrix": ("rows",),
    "IntPolynomial": ("coeffs",),
    "Step": ("claim", "evidence", "status"),
    "Certificate": (
        "subject", "steps", "self_similar", "aperiodic", "minimal", "started", "finished"
    ),
}

MUTABLE = ["Step", "Certificate"]
FROZEN = [name for name in NAMES if name not in MUTABLE]
# Step and Certificate are mutable and an Equivalence holds dicts, so all three
# declare themselves unhashable.
UNHASHABLE = MUTABLE + ["Equivalence"]
HASHABLE = [name for name in NAMES if name not in UNHASHABLE]

REPRS = {
    "WangTile": "WangTile(right='J', top='O', left='J', bottom='O')",
    "Equivalence": (
        "Equivalence(vertical={'A': 'C', 'C': 'A'}, horizontal={'B': 'B'}, "
        "tile_map={0: 1, 1: 0})"
    ),
    "Word2d": "Word2d([[0, 1], [2, 3]])",
    "Morphism2d": (
        "Morphism2d(domain=WangTileSet(2 tiles), codomain=WangTileSet(2 tiles), "
        "images=(Word2d([[1]]), Word2d([[0]])))"
    ),
    "MarkerSet": "MarkerSet(tile_indices=frozenset({0, 3}), direction=2)",
    "MarkerReport": (
        "MarkerReport(same_axis_violations=((0, 1),), "
        "cross_axis_violations=((1, 0), (2, 3)))"
    ),
    "Derivation": (
        "Derivation(source=WangTileSet(2 tiles), "
        "markers=MarkerSet(tile_indices=frozenset({1}), direction=1), radius=1, "
        "derived=WangTileSet(2 tiles), morphism=Morphism2d(domain=WangTileSet(2 tiles), "
        "codomain=WangTileSet(2 tiles), images=(Word2d([[1]]), Word2d([[0]]))), "
        "singles=(0,), fusions=((0, 1),))"
    ),
    "NamedArtifact": (
        "NamedArtifact(name='T', kind='tileset', payload=WangTileSet(2 tiles), "
        "provenance='two sample tiles')"
    ),
    "StoneGeometry": (
        "StoneGeometry(widths=(GoldenNumber(1, 0), GoldenNumber(0, 1)), "
        "heights=(GoldenNumber(1, 1), GoldenNumber(2, 0)))"
    ),
    "GoldenNumber": "GoldenNumber(2, -3)",
    "GoldenRational": "GoldenRational(num=GoldenNumber(-1, -2), den=3)",
    "IntMatrix": "IntMatrix(2x3)",
    "IntPolynomial": "IntPolynomial([-1, -1, 1])",
    "Step": "Step(claim='claim', evidence={'k': [1, 2]}, status='pass')",
    "Certificate": (
        "Certificate(subject='U', steps=[Step(claim='claim', evidence={'k': [1, 2]}, "
        "status='pass')], self_similar=True, aperiodic=False, minimal=False, "
        "started='t0', finished='')"
    ),
}


@pytest.mark.parametrize("name", NAMES)
def test_equal_objects_built_separately_hash_alike(name):
    a, b = value_samples()[name], value_samples()[name]
    assert a is not b
    assert a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a: 1, b: 2}) == 1


@pytest.mark.parametrize("name", HASHABLE)
def test_hash_is_the_hash_of_the_field_tuple(name):
    """Hash values, and so the iteration order of sets of values, stay those
    of the field tuple; Word2d's is the 1-tuple of its columns."""
    x = value_samples()[name]
    assert hash(x) == hash(tuple(getattr(x, f) for f in FIELDS[name]))


@pytest.mark.parametrize("name", NAMES)
def test_objects_differing_in_one_field_are_unequal(name):
    x = value_samples()[name]
    for f in FIELDS[name]:
        y = copy.copy(x)
        object.__setattr__(y, f, object())
        assert y != x and x != y


@pytest.mark.parametrize("name", NAMES)
def test_not_equal_to_the_tuple_of_its_fields(name):
    x = value_samples()[name]
    fields = tuple(getattr(x, f) for f in FIELDS[name])
    assert x != fields and fields != x
    assert x != fields[0]


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_unchanged(name):
    assert repr(value_samples()[name]) == REPRS[name]


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_fields_refuse_assignment_and_deletion(name):
    x = value_samples()[name]
    for f in FIELDS[name]:
        before = getattr(x, f)
        with pytest.raises(AttributeError):
            setattr(x, f, before)
        with pytest.raises(AttributeError):
            delattr(x, f)
        assert getattr(x, f) is before


def _package_classes() -> list[type]:
    """Every class defined at the top level of a module of the package."""
    classes = []
    for info in pkgutil.iter_modules(wangtiles.__path__):
        module = importlib.import_module(f"wangtiles.{info.name}")
        classes += [
            obj for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
        ]
    return classes


def test_every_class_that_hashes_by_content_is_frozen():
    """A class whose instances hash by content cannot change after
    construction; Value, the base, is exempt."""
    hashed = [
        cls for cls in _package_classes()
        if cls.__hash__ not in (None, object.__hash__) and cls is not Value
    ]
    assert {"WangTileSet", "IntMatrix", "GoldenNumber"} <= {cls.__name__ for cls in hashed}
    assert [cls.__qualname__ for cls in hashed if not issubclass(cls, Frozen)] == []


def test_certificate_fields_can_be_assigned():
    cert = value_samples()["Certificate"]
    cert.minimal = True
    assert cert.minimal and cert != value_samples()["Certificate"]


def test_step_fields_can_be_assigned():
    step = value_samples()["Step"]
    step.status = "fail"
    assert step.status == "fail" and step != value_samples()["Step"]


@pytest.mark.parametrize("name", NAMES)
def test_pickle_and_copy_give_equal_objects(name):
    x = value_samples()[name]
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(y) is type(x) and y == x


def test_unpickled_values_hash_like_fresh_ones_in_another_process():
    script = (
        "import pickle, sys; from helpers import value_samples;"
        "loaded = pickle.loads(sys.stdin.buffer.read()); fresh = value_samples();"
        "print(all(loaded[k] == fresh[k] for k in fresh),"
        f" all(hash(loaded[k]) == hash(fresh[k]) for k in {HASHABLE!r}))"
    )
    env = {**os.environ, "PYTHONHASHSEED": "12345", "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", script], input=pickle.dumps(value_samples()), env=env,
        capture_output=True, check=True,
    )
    assert out.stdout.split() == [b"True", b"True"]


def _random_tiles(rng: random.Random, n: int) -> list[WangTile]:
    return [WangTile(*(rng.choice("ABC") for _ in range(4))) for _ in range(n)]


def _random_words(rng: random.Random, n: int) -> list[Word2d]:
    words = []
    for _ in range(n):
        w, h = rng.randint(1, 3), rng.randint(1, 3)
        words.append(Word2d(tuple(tuple(rng.randint(0, 2) for _ in range(h)) for _ in range(w))))
    return words


@pytest.mark.parametrize("seed", range(3))
def test_tiles_and_words_order_by_their_field_tuples(seed):
    rng = random.Random(seed)
    tiles = _random_tiles(rng, 200)
    words = _random_words(rng, 200)
    assert sorted(tiles) == sorted(tiles, key=lambda t: (t.right, t.top, t.left, t.bottom))
    assert sorted(words) == sorted(words, key=lambda w: (w.columns,))
    for items, key in ((tiles, WangTile.as_tuple), (words, lambda w: w.columns)):
        for x, y in zip(items, reversed(items)):
            for op in (operator.lt, operator.le, operator.gt, operator.ge):
                assert op(x, y) == op(key(x), key(y))


@pytest.mark.parametrize(
    "x, fields", [(WangTile("J", "O", "J", "O"), ("J", "O", "J", "O")), (Word2d(((0,),)), ((0,),))]
)
def test_ordering_against_a_foreign_type_is_refused(x, fields):
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            op(x, fields)
