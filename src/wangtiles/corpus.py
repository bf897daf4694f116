"""Built-in artifacts: the 19-tile set U, its derived sets V and W, and the
desubstitution morphisms between them.

U is the primary tile set (10 vertical colors A..J, 6 horizontal colors
K..P).  V arises from U by fusing marked vertical dominoes, W from V by
fusing marked horizontal dominoes, and W is a color relabeling of U.  Neither
W nor the self-map ``omega`` of U is stored: W is U recolored by the two
color bijections, omega is alpha o beta o gamma, so a transcription error in
any table breaks the derivation and composition checks instead of hiding.
"""

from __future__ import annotations

from functools import lru_cache

from .core import Frozen, WangTile, WangTileSet
from .morphism import Morphism2d, Word2d, compose

U_TILES = [
    "FOJO", "FOHL", "JMFP", "DMFK", "HPJP", "HPHN", "HKFP", "HKDP", "BOIO",
    "GLEO", "GLCL", "ALIO", "EPGP", "EPIP", "IPGK", "IPIK", "IKBM", "IKAK", "CNIP",
]

V_TILES = [
    ("A", "L", "I", "O"), ("B", "O", "I", "O"), ("E", "P", "I", "P"),
    ("G", "L", "E", "O"), ("I", "K", "A", "K"), ("I", "K", "B", "M"),
    ("I", "P", "G", "K"), ("I", "P", "I", "K"), ("AF", "O", "IH", "O"),
    ("BF", "O", "IJ", "O"), ("CH", "P", "IH", "P"), ("EH", "K", "GF", "P"),
    ("EH", "K", "ID", "P"), ("EH", "P", "IJ", "P"), ("GF", "O", "CH", "L"),
    ("GF", "O", "EH", "O"), ("ID", "M", "AF", "K"), ("ID", "M", "BF", "M"),
    ("IH", "K", "GF", "K"), ("IH", "K", "ID", "K"), ("IJ", "M", "GF", "K"),
]

# Images as lists of columns, columns bottom to top.
ALPHA_TABLE = {
    0: [[11]], 1: [[8]], 2: [[13]], 3: [[9]], 4: [[17]], 5: [[16]], 6: [[14]],
    7: [[15]], 8: [[11, 1]], 9: [[8, 0]], 10: [[18, 5]], 11: [[12, 6]],
    12: [[13, 7]], 13: [[13, 4]], 14: [[10, 1]], 15: [[9, 1]], 16: [[17, 3]],
    17: [[16, 3]], 18: [[14, 6]], 19: [[15, 7]], 20: [[14, 2]],
}

BETA_TABLE = {
    0: [[4]], 1: [[5]], 2: [[7], [0]], 3: [[2], [3]], 4: [[4], [1]],
    5: [[5], [1]], 6: [[7], [1]], 7: [[6], [1]], 8: [[18]], 9: [[16]],
    10: [[17]], 11: [[20]], 12: [[19], [8]], 13: [[18], [8]], 14: [[12], [15]],
    15: [[11], [15]], 16: [[10], [14]], 17: [[13], [15]], 18: [[20], [9]],
}

# Color bijections turning U into W tile-for-tile: HORIZONTAL_RELABEL acts on
# top/bottom colors, VERTICAL_RELABEL on left/right colors.
HORIZONTAL_RELABEL = {"O": "K", "P": "KO", "L": "M", "N": "MO", "M": "PL", "K": "PO"}
VERTICAL_RELABEL = {
    "J": "A", "H": "B", "D": "G", "F": "I", "E": "AF",
    "C": "BF", "I": "GF", "G": "ID", "B": "IH", "A": "IJ",
}

class NamedArtifact(Frozen):
    """A built-in tile set or morphism (kind "tileset" or "morphism") with its
    name and where it comes from; equality and hashing go by all four fields."""

    __slots__ = _fields = ("name", "kind", "payload", "provenance")


def _tileset(spec) -> WangTileSet:
    return WangTileSet(WangTile(*t) for t in spec)


def _morphism(table: dict, domain: str, codomain: str):
    return lambda get: Morphism2d.from_json_table(
        {str(k): v for k, v in table.items()}, get(domain), get(codomain)
    )


def _w(get) -> WangTileSet:
    v, h = VERTICAL_RELABEL, HORIZONTAL_RELABEL
    return _tileset((v[r], h[t], v[l], h[b]) for r, t, l, b in U_TILES)


# Name -> (kind, provenance, maker); a maker gets other built-ins' payloads from get.
_BUILTINS = {
    "U": ("tileset", "built-in 19-tile set", lambda get: _tileset(U_TILES)),
    "V": ("tileset", "21 tiles: vertical-domino fusion of U over its 8 marked tiles",
          lambda get: _tileset(V_TILES)),
    "W": ("tileset", "19 tiles: horizontal-domino fusion of V over its 7 marked tiles", _w),
    "alpha": ("morphism", "desubstitution morphism V -> U (letters and vertical dominoes)",
              _morphism(ALPHA_TABLE, "V", "U")),
    "beta": ("morphism", "desubstitution morphism W -> V (letters and horizontal dominoes)",
             _morphism(BETA_TABLE, "W", "V")),
    "gamma": ("morphism", "index-preserving relabeling U -> W (color bijections)",
              lambda get: Morphism2d(get("U"), get("W"), tuple(map(Word2d.letter, range(19))))),
    "omega": ("morphism", "self-map of U: alpha o beta o gamma",
              lambda get: compose(compose(get("alpha"), get("beta")), get("gamma"))),
}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin_names(kind: str) -> tuple[str, ...]:
    """The names of the built-ins of one kind, in BUILTIN_NAMES order."""
    return tuple(name for name, (k, _, _) in _BUILTINS.items() if k == kind)


@lru_cache(maxsize=None)
def builtin(name: str) -> NamedArtifact:
    """Look up a built-in artifact by name; unknown names list the options."""
    if name not in _BUILTINS:
        raise LookupError(f"unknown artifact {name!r}; valid names: {', '.join(BUILTIN_NAMES)}")
    kind, provenance, make = _BUILTINS[name]
    return NamedArtifact(name, kind, make(lambda other: builtin(other).payload), provenance)
