"""Wang tile sets, marker desubstitution, and self-similarity certificates."""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    WangTile,
    WangTileSet,
    check_equivalence,
    emit_tileset,
    fuse,
    parse_tileset,
)
from .morphism import (  # noqa: F401
    Morphism2d,
    Word2d,
    apply,
    compose,
    factors_2x2,
    frequencies,
    incidence_matrix,
    iterate,
)
from .solver import (  # noqa: F401
    dominoes_with_surrounding,
    pattern_has_surrounding,
    patterns_with_surrounding,
    solve_rectangle,
)
from .derivation import (  # noqa: F401
    MarkerSet,
    derive,
    find_marker_candidates,
    verify_markers,
)
from .spectral import (  # noqa: F401
    GoldenNumber,
    GoldenRational,
    IntMatrix,
    IntPolynomial,
    char_poly,
    golden_eigencheck,
    is_primitive,
    perron,
)
from .corpus import builtin  # noqa: F401
from .certify import Certificate, certify  # noqa: F401
from .render import render, render_morphism, stone_geometry_u, stone_render  # noqa: F401
