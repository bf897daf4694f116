from __future__ import annotations

import pytest

from wangtiles.core import WangTile
from wangtiles.corpus import (
    HORIZONTAL_RELABEL,
    VERTICAL_RELABEL,
    builtin,
)
from wangtiles.derivation import MarkerSet, derive
from wangtiles.morphism import Word2d, compose

from helpers import relabel


def test_u_first_tile():
    assert builtin("U").payload[0] == WangTile("F", "O", "J", "O")


def test_sizes():
    assert len(builtin("U").payload) == 19
    assert len(builtin("V").payload) == 21
    assert len(builtin("W").payload) == 19


def test_color_alphabets():
    V = builtin("V").payload
    assert V.vertical_colors == frozenset(
        {"A", "B", "E", "G", "I", "AF", "BF", "CH", "EH", "GF", "ID", "IH", "IJ"}
    )
    assert V.horizontal_colors == frozenset("KLMOP")
    W = builtin("W").payload
    assert W.vertical_colors == frozenset(
        {"A", "B", "G", "I", "AF", "BF", "GF", "ID", "IH", "IJ"}
    )
    assert W.horizontal_colors == frozenset({"K", "M", "KO", "MO", "PL", "PO"})


def test_alpha_image_8_is_vertical_domino():
    alpha = builtin("alpha").payload
    assert alpha.images[8] == Word2d(((11, 1),))


def test_omega_image_2_is_horizontal_domino():
    omega = builtin("omega").payload
    assert omega.images[2] == Word2d(((15,), (11,)))
    # cross-check: alpha applied to beta's image of letter 2
    alpha = builtin("alpha").payload
    beta = builtin("beta").payload
    from wangtiles.morphism import apply

    assert apply(alpha, beta.images[2]) == omega.images[2]


def test_unknown_name_lists_valid_ones():
    with pytest.raises(LookupError, match="alpha"):
        builtin("sigma")


def test_omega_is_composed_from_the_tables():
    alpha = builtin("alpha").payload
    beta = builtin("beta").payload
    gamma = builtin("gamma").payload
    omega = builtin("omega").payload
    assert compose(compose(alpha, beta), gamma).images == omega.images


def test_w_is_a_relabeling_of_u():
    U = builtin("U").payload
    W = builtin("W").payload
    assert relabel(U, VERTICAL_RELABEL, HORIZONTAL_RELABEL) == W


def test_v_is_the_derivation_of_u():
    U = builtin("U").payload
    V = builtin("V").payload
    d = derive(U, MarkerSet(frozenset(range(8)), 2), 2)
    ts, _ = d.relabeled(d.class_sorted_permutation())
    assert ts == V


def test_artifact_metadata():
    for name, kind in (("U", "tileset"), ("omega", "morphism")):
        artifact = builtin(name)
        assert artifact.name == name
        assert artifact.kind == kind
        assert artifact.provenance
