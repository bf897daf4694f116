"""Value semantics of the value classes: equality, hashing, ordering, repr,
immutability, pickling and copying.  The expected reprs are the strings these
classes printed when they were generated by dataclasses."""

from __future__ import annotations

import copy
import operator
import os
import pickle
import random
import subprocess
import sys

import pytest

from wangtiles.core import WangTile
from wangtiles.morphism import Word2d

from helpers import value_samples

NAMES = list(value_samples())

FIELDS = {
    "WangTile": ("right", "top", "left", "bottom"),
    "Word2d": ("columns",),
    "Morphism2d": ("domain", "codomain", "images"),
    "MarkerSet": ("tile_indices", "direction"),
    "GoldenNumber": ("a", "b"),
    "GoldenRational": ("num", "den"),
    "Certificate": (
        "subject", "steps", "self_similar", "aperiodic", "minimal", "started", "finished"
    ),
}

FROZEN = [name for name in NAMES if name != "Certificate"]

REPRS = {
    "WangTile": "WangTile(right='J', top='O', left='J', bottom='O')",
    "Word2d": "Word2d([[0, 1], [2, 3]])",
    "Morphism2d": (
        "Morphism2d(domain=WangTileSet(2 tiles), codomain=WangTileSet(2 tiles), "
        "images=(Word2d([[1]]), Word2d([[0]])))"
    ),
    "MarkerSet": "MarkerSet(tile_indices=frozenset({0, 3}), direction=2)",
    "GoldenNumber": "GoldenNumber(2, -3)",
    "GoldenRational": "GoldenRational(num=GoldenNumber(-1, -2), den=3)",
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
    if name == "Certificate":  # mutable, so unhashable
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a: 1, b: 2}) == 1


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


def test_certificate_fields_can_be_assigned():
    cert = value_samples()["Certificate"]
    cert.minimal = True
    assert cert.minimal and cert != value_samples()["Certificate"]


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
        " all(hash(loaded[k]) == hash(fresh[k]) for k in fresh if k != 'Certificate'))"
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
