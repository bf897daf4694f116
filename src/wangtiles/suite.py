"""The acceptance suite: every headline claim as a named, runnable check.

Each criterion returns (ok, detail).  The expected values frozen here are
the published reference data for the built-in tile sets; the pytest
acceptance module runs the same checks, so the CLI ``suite`` subcommand and
the test suite cannot drift apart.
"""

from __future__ import annotations

import math
import random
import time
from itertools import product
from typing import Callable

from .certify import certify
from .core import WangTile, WangTileSet, check_equivalence, fuse
from .corpus import ALPHA_TABLE, BETA_TABLE, HORIZONTAL_RELABEL, VERTICAL_RELABEL, builtin
from .derivation import MarkerSet, derive, find_marker_candidates, verify_markers
from .morphism import (
    Word2d,
    apply,
    check_prolongable,
    compose,
    concat,
    factors_2x2,
    incidence_matrix,
    iterate,
)
from .render import stone_geometry_u
from .solver import (
    dominoes_with_surrounding,
    is_valid_pattern,
    patterns_with_surrounding,
    solve_rectangle,
)
from .spectral import (
    GOLDEN_ONE,
    PHI,
    GoldenNumber,
    GoldenRational,
    IntPolynomial,
    char_poly,
    exact_perron_frequencies,
    golden_eigencheck,
    is_primitive,
    perron,
)

# Vertical dominoes of U with a radius-2 surrounding.
DOMINOES_U_E2_R2 = [
    (0, 8), (1, 8), (1, 9), (1, 11), (2, 16), (3, 16), (4, 13), (5, 13), (6, 14),
    (6, 17), (7, 15), (8, 0), (8, 9), (8, 11), (9, 1), (9, 10), (10, 1), (11, 1),
    (11, 10), (12, 6), (13, 4), (13, 7), (13, 18), (14, 2), (14, 6), (14, 12), (15, 7),
    (15, 13), (15, 18), (16, 3), (16, 14), (16, 17), (17, 3), (17, 14), (18, 5),
]

# Horizontal dominoes of V with a radius-1 surrounding.
DOMINOES_V_E1_R1 = [
    (0, 4), (1, 5), (2, 3), (3, 6), (4, 1), (4, 2), (5, 1), (5, 2), (5, 7), (6, 1),
    (7, 0), (7, 1), (8, 16), (9, 17), (10, 14), (11, 15), (12, 15), (13, 15),
    (14, 11), (14, 18), (15, 18), (15, 20), (16, 12), (17, 12), (17, 19), (18, 8),
    (18, 10), (19, 8), (20, 9), (20, 13),
]

MARKERS_U_E2 = frozenset(range(8))
MARKERS_V_E1 = frozenset({0, 1, 3, 8, 9, 14, 15})

# Images of the self-map of U, as columns bottom to top.
OMEGA_TABLE = {
    0: [[17]], 1: [[16]], 2: [[15], [11]], 3: [[13], [9]], 4: [[17], [8]],
    5: [[16], [8]], 6: [[15], [8]], 7: [[14], [8]], 8: [[14, 6]], 9: [[17, 3]],
    10: [[16, 3]], 11: [[14, 2]], 12: [[15, 7], [11, 1]], 13: [[14, 6], [11, 1]],
    14: [[13, 7], [9, 1]], 15: [[12, 6], [9, 1]], 16: [[18, 5], [10, 1]],
    17: [[13, 4], [9, 1]], 18: [[14, 2], [8, 0]],
}

# The 50 two-by-two factors, as columns bottom to top.
FACTORS_2X2_U = [
    [[0, 8], [3, 16]], [[1, 8], [2, 16]], [[1, 8], [3, 16]], [[1, 9], [6, 14]],
    [[1, 11], [6, 17]], [[2, 16], [0, 8]], [[2, 16], [4, 13]], [[3, 16], [7, 15]],
    [[4, 13], [1, 9]], [[5, 13], [1, 9]], [[6, 14], [1, 8]], [[6, 14], [1, 11]],
    [[6, 14], [5, 13]], [[6, 17], [1, 8]], [[6, 17], [5, 13]], [[7, 15], [1, 8]],
    [[7, 15], [1, 11]], [[8, 0], [16, 3]], [[8, 9], [16, 14]], [[8, 11], [16, 17]],
    [[9, 1], [14, 2]], [[9, 1], [14, 6]], [[9, 10], [14, 12]], [[10, 1], [12, 6]],
    [[10, 1], [14, 6]], [[11, 1], [17, 3]], [[11, 10], [17, 14]], [[12, 6], [9, 1]],
    [[13, 4], [9, 1]], [[13, 7], [9, 1]], [[13, 18], [9, 10]], [[14, 2], [8, 0]],
    [[14, 2], [13, 4]], [[14, 6], [11, 1]], [[14, 6], [18, 5]], [[14, 12], [8, 9]],
    [[15, 7], [11, 1]], [[15, 13], [8, 9]], [[15, 18], [11, 10]], [[16, 3], [13, 7]],
    [[16, 3], [15, 7]], [[16, 14], [8, 11]], [[16, 14], [13, 18]], [[16, 14], [15, 13]],
    [[16, 14], [15, 18]], [[16, 17], [15, 13]], [[17, 3], [13, 7]], [[17, 14], [8, 11]],
    [[17, 14], [13, 18]], [[18, 5], [10, 1]],
]

INCIDENCE_OMEGA = [
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1],
    [0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
]


def _phi_pow(k: int) -> GoldenNumber:
    return PHI**k


# Dominant right eigenvector: (1, 3phi^3, phi^2, phi^3, phi, phi^2, phi^4,
# phi^3, phi^4, 2phi^3, phi^2, phi^3, phi, phi^4, phi^4+phi^2, phi^3, phi^4,
# phi^3, phi^2), eigenvalue phi^2 = 1 + phi.
def right_eigenvector() -> list[GoldenNumber]:
    p = _phi_pow
    return [
        GOLDEN_ONE, p(3).scale(3), p(2), p(3), p(1), p(2), p(4), p(3), p(4),
        p(3).scale(2), p(2), p(3), p(1), p(4), p(4) + p(2), p(3), p(4), p(3), p(2),
    ]


def left_eigenvector() -> list[GoldenNumber]:
    return [GOLDEN_ONE, GOLDEN_ONE] + [_phi_pow(1)] * 10 + [_phi_pow(2)] * 7


# Reference decimal frequencies, rounded to four places.
FREQ_DECIMALS = [
    0.0106, 0.1353, 0.0279, 0.0451, 0.0172, 0.0279, 0.0729, 0.0451, 0.0729,
    0.0902, 0.0279, 0.0451, 0.0172, 0.0729, 0.1008, 0.0451, 0.0729, 0.0451, 0.0279,
]

BOTTOM_WORD_OMEGA5_U4 = "KOKPOKOKPOKPO"

CheckResult = tuple[bool, str]


def criterion_01_dominoes_u() -> CheckResult:
    U = builtin("U").payload
    sizes = [len(dominoes_with_surrounding(U, 2, r)) for r in (1, 2, 3)]
    d2 = dominoes_with_surrounding(U, 2, 2)
    ok = sizes == [37, 35, 35] and d2 == DOMINOES_U_E2_R2
    return ok, f"sizes {sizes}, radius-2 set matches: {d2 == DOMINOES_U_E2_R2}"


def criterion_02_dominoes_v() -> CheckResult:
    V = builtin("V").payload
    sizes = [len(dominoes_with_surrounding(V, 1, r)) for r in (1, 2)]
    d1 = dominoes_with_surrounding(V, 1, 1)
    ok = sizes == [30, 30] and d1 == DOMINOES_V_E1_R1
    return ok, f"sizes {sizes}, radius-1 set matches: {d1 == DOMINOES_V_E1_R1}"


def criterion_03_markers() -> CheckResult:
    U = builtin("U").payload
    V = builtin("V").payload
    ok_u = bool(verify_markers(U, MARKERS_U_E2, 2, 2))
    ok_v = bool(verify_markers(V, MARKERS_V_E1, 1, 1))
    cand_u = {m.tile_indices for m in find_marker_candidates(U, 2, 2)}
    cand_v = {m.tile_indices for m in find_marker_candidates(V, 1, 1)}
    ok = ok_u and ok_v and MARKERS_U_E2 in cand_u and MARKERS_V_E1 in cand_v
    return ok, f"verify U:{ok_u} V:{ok_v}, candidates found U:{MARKERS_U_E2 in cand_u} V:{MARKERS_V_E1 in cand_v}"


def criterion_04_derive_u_to_v() -> CheckResult:
    U = builtin("U").payload
    V = builtin("V").payload
    d = derive(U, MarkerSet(MARKERS_U_E2, 2), 2)
    perm = d.class_sorted_permutation()
    ts, morph = d.relabeled(perm)
    tiles_ok = ts == V
    morph_ok = morph.to_json_table() == {str(k): v for k, v in ALPHA_TABLE.items()}
    return (
        len(d.derived) == 21 and tiles_ok and morph_ok,
        f"21 tiles: {len(d.derived) == 21}, listing match: {tiles_ok}, morphism match: {morph_ok}",
    )


def criterion_05_derive_v_to_w() -> CheckResult:
    V = builtin("V").payload
    W = builtin("W").payload
    d = derive(V, MarkerSet(MARKERS_V_E1, 1), 1)
    perm = d.permutation_to(W)
    if perm is None:
        return False, "derived tiles differ from the reference listing"
    ts, morph = d.relabeled(perm)
    tiles_ok = ts == W
    morph_ok = morph.to_json_table() == {str(k): v for k, v in BETA_TABLE.items()}
    k_ok = len(d.singles) == 6
    return (
        len(d.derived) == 19 and tiles_ok and morph_ok and k_ok,
        f"19 tiles: {len(d.derived) == 19}, listing: {tiles_ok}, morphism: {morph_ok}, "
        f"six singles: {k_ok} {sorted(d.singles)}",
    )


def criterion_06_equivalence() -> CheckResult:
    U = builtin("U").payload
    W = builtin("W").payload
    eq = check_equivalence(U, W)
    if eq is None:
        return False, "no equivalence found"
    ok = (
        eq.horizontal == HORIZONTAL_RELABEL
        and eq.vertical == VERTICAL_RELABEL
        and eq.tile_map == {i: i for i in range(19)}
    )
    return ok, f"bijections match: {ok}"


def criterion_07_omega_reconstruction() -> CheckResult:
    omega = builtin("omega").payload
    table_ok = omega.to_json_table() == {str(k): v for k, v in OMEGA_TABLE.items()}
    shapes = sorted(im.shape for im in omega.images)
    multiset_ok = (
        shapes.count((1, 1)) == 2
        and shapes.count((2, 1)) == 6
        and shapes.count((1, 2)) == 4
        and shapes.count((2, 2)) == 7
    )
    ok = table_ok and multiset_ok
    return ok, f"images match: {table_ok}, shape multiset 2/6/4/7: {multiset_ok}"


def criterion_08_spectral() -> CheckResult:
    omega = builtin("omega").payload
    M = incidence_matrix(omega)
    matrix_ok = [list(r) for r in M.rows] == INCIDENCE_OMEGA
    exponent = is_primitive(M)
    x = IntPolynomial([0, 1])
    one = IntPolynomial([1])
    claimed = (
        (x**3) * (x - one) ** 4 * (x + one) ** 4
        * IntPolynomial([1, -3, 1]) * IntPolynomial([-1, 1, 1]) ** 3
    )
    poly_ok = char_poly(M) == claimed
    value = perron(M)
    perron_ok = abs(value - (3 + math.sqrt(5)) / 2) < 1e-9
    lam = GoldenNumber(1, 1)
    right_ok = golden_eigencheck(M, lam, right_eigenvector(), "right")
    left_ok = golden_eigencheck(M, lam, left_eigenvector(), "left")
    ok = matrix_ok and exponent == 7 and poly_ok and perron_ok and right_ok and left_ok
    return ok, (
        f"matrix: {matrix_ok}, exponent: {exponent}, charpoly: {poly_ok}, "
        f"perron: {perron_ok}, eigenvectors: {right_ok and left_ok}"
    )


def criterion_09_factors() -> CheckResult:
    U = builtin("U").payload
    omega = builtin("omega").payload
    F = factors_2x2(omega)
    expected = {Word2d.from_columns(c) for c in FACTORS_2X2_U}
    P = set(patterns_with_surrounding(U, (2, 2), 1))
    cert = certify(U, "U", "auto")
    ok = len(F) == 50 and F == expected and F == P and cert.minimal
    return ok, (
        f"factor count {len(F)}, matches reference: {F == expected}, "
        f"equals admissible patterns: {F == P}, certificate minimal: {cert.minimal}"
    )


def criterion_10_fixed_point() -> CheckResult:
    U = builtin("U").payload
    omega = builtin("omega").payload
    w = iterate(omega, 4, 5)
    shape_ok = w.shape == (13, 8)
    valid_ok = is_valid_pattern(U, w)
    bottom = "".join(U[w.cell(x, 0)].bottom for x in range(w.shape[0]))
    word_ok = bottom.startswith(BOTTOM_WORD_OMEGA5_U4)
    ok = shape_ok and valid_ok and word_ok
    return ok, f"shape {w.shape}, valid: {valid_ok}, bottom word {bottom}"


def criterion_11_prolongability() -> CheckResult:
    omega = builtin("omega").payload
    signs = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    none_ok = not any(
        check_prolongable(omega, a, s) for a in range(19) for s in signs
    )
    omega2 = compose(omega, omega)
    got = {s: check_prolongable(omega2, 16, s) for s in signs}
    # omega^2(u16) has u16 in every corner except the bottom-left one.
    expected = {(1, 1): False, (1, -1): True, (-1, 1): True, (-1, -1): True}
    ok = none_ok and got == expected
    return ok, f"single step never prolongable: {none_ok}, squared corners: {got}"


def criterion_12_frequencies() -> CheckResult:
    omega = builtin("omega").payload
    M = incidence_matrix(omega)
    lam, freqs = exact_perron_frequencies(M)
    lam_ok = lam == GoldenNumber(1, 1)
    denom = GoldenRational.of(_phi_pow(8).scale(2))
    expected = [GoldenRational.of(v) / denom for v in right_eigenvector()]
    exact_ok = freqs == expected
    decimals_ok = all(
        abs(float(f) - ref) < 5e-5 for f, ref in zip(freqs, FREQ_DECIMALS)
    )
    total = GoldenRational()
    for f in freqs:
        total = total + f
    sum_ok = total == GoldenRational.of(GOLDEN_ONE)
    ok = lam_ok and exact_ok and decimals_ok and sum_ok
    return ok, (
        f"eigenvalue 1+phi: {lam_ok}, exact vector: {exact_ok}, "
        f"decimals: {decimals_ok}, exact sum 1: {sum_ok}"
    )


def _brute_force_count(tiles: list[WangTile], width: int, height: int) -> int:
    """Direct enumeration of every assignment; the independent solver oracle."""
    count = 0
    cells = [(x, y) for y in range(height) for x in range(width)]
    for combo in product(range(len(tiles)), repeat=len(cells)):
        grid = {cells[k]: tiles[combo[k]] for k in range(len(cells))}
        ok = True
        for (x, y), t in grid.items():
            if x + 1 < width and t.right != grid[(x + 1, y)].left:
                ok = False
                break
            if y + 1 < height and t.top != grid[(x, y + 1)].bottom:
                ok = False
                break
        count += ok
    return count


def criterion_13_property_suites() -> CheckResult:
    rng = random.Random(20260808)
    U = builtin("U").payload
    V = builtin("V").payload
    omega = builtin("omega").payload

    # Solver vs brute force on small random tile sets.
    for case in range(200):
        ntiles = rng.randint(1, 4)
        colors = ["a", "b", "c"]
        tiles = []
        while len(tiles) < ntiles:
            t = WangTile(*(rng.choice(colors) for _ in range(4)))
            if t not in tiles:
                tiles.append(t)
        width, height = rng.randint(1, 3), rng.randint(1, 3)
        ts = WangTileSet(tiles)
        fast = solve_rectangle(ts, width, height, None, "count")
        slow = _brute_force_count(tiles, width, height)
        if fast != slow:
            return False, f"solver oracle mismatch on case {case}: {fast} != {slow}"

    # Fusion accessor table and duality identities over all tile pairs of U.
    for u in U:
        for v in U:
            f1 = fuse(u, v, 1)
            if (f1 is not None) != (u.right == v.left):
                return False, "fusion well-definedness mismatch"
            if f1 is not None and f1.as_tuple() != (
                v.right, u.top + v.top, u.left, u.bottom + v.bottom
            ):
                return False, "fusion accessor table violated"
            f2 = fuse(u, v, 2)
            if f2 is not None and fuse(u.dual(), v.dual(), 1) != f2.dual():
                return False, "fusion/duality transport violated"
    if U.dual().dual() != U or V.dual().dual() != V:
        return False, "dual is not an involution"

    # Morphism homomorphism law on random factors of an inflation.
    big = iterate(omega, 4, 4)
    for _ in range(50):
        n1, n2 = big.shape
        w = rng.randint(1, 3)
        h = rng.randint(1, 3)
        x = rng.randint(0, n1 - w - 1)
        y = rng.randint(0, n2 - h)
        left = Word2d(tuple(big.columns[x + i][y : y + h] for i in range(w)))
        right_w = Word2d(tuple(big.columns[x + w][y : y + h] for _ in range(1)))
        both = concat(left, right_w, 1)
        if apply(omega, both) != concat(apply(omega, left), apply(omega, right_w), 1):
            return False, "morphism law violated"

    # Incidence multiplicativity on the corpus morphisms.
    alpha = builtin("alpha").payload
    beta = builtin("beta").payload
    gamma = builtin("gamma").payload
    ab = compose(alpha, beta)
    if incidence_matrix(ab) != incidence_matrix(alpha) @ incidence_matrix(beta):
        return False, "incidence not multiplicative (alpha, beta)"
    abg = compose(ab, gamma)
    if incidence_matrix(abg) != incidence_matrix(ab) @ incidence_matrix(gamma):
        return False, "incidence not multiplicative (alphabeta, gamma)"

    # Golden ring laws on random elements.
    for _ in range(300):
        g1 = GoldenNumber(rng.randint(-9, 9), rng.randint(-9, 9))
        g2 = GoldenNumber(rng.randint(-9, 9), rng.randint(-9, 9))
        g3 = GoldenNumber(rng.randint(-9, 9), rng.randint(-9, 9))
        if (g1 * g2) * g3 != g1 * (g2 * g3):
            return False, "golden multiplication not associative"
        if g1 * (g2 + g3) != g1 * g2 + g1 * g3:
            return False, "golden distributivity violated"
        if PHI * PHI != PHI + GOLDEN_ONE:
            return False, "phi^2 != phi + 1"

    # Stone inflation area conservation, exact in Z[phi].
    geo = stone_geometry_u()
    phi2 = GoldenNumber(1, 1)
    for i in range(19):
        total = GoldenNumber(0, 0)
        for col in omega.images[i].columns:
            for a in col:
                total = total + geo.area(a)
        if total != phi2 * geo.area(i):
            return False, f"stone area not conserved for tile {i}"

    return True, "oracle comparison (200 cases) and all identity suites passed"


def criterion_14_end_to_end() -> CheckResult:
    U = builtin("U").payload
    cert1 = certify(U, "U", "auto")
    cert2 = certify(U, "U", "auto")

    def stripped(c) -> str:
        doc = c.to_json()
        return "\n".join(
            line for line in doc.splitlines() if '"started"' not in line and '"finished"' not in line
        )

    ok = cert1.all_verified() and stripped(cert1) == stripped(cert2)
    return ok, (
        f"conclusion selfSimilar={cert1.self_similar} aperiodic={cert1.aperiodic} "
        f"minimal={cert1.minimal}, reproducible: {stripped(cert1) == stripped(cert2)}"
    )


CRITERIA: list[tuple[str, str, Callable[[], CheckResult]]] = [
    ("C01", "vertical domino surroundings of U", criterion_01_dominoes_u),
    ("C02", "horizontal domino surroundings of V", criterion_02_dominoes_v),
    ("C03", "marker verification and discovery", criterion_03_markers),
    ("C04", "derivation U -> V", criterion_04_derive_u_to_v),
    ("C05", "derivation V -> W", criterion_05_derive_v_to_w),
    ("C06", "equivalence of U and W", criterion_06_equivalence),
    ("C07", "self-map reconstruction", criterion_07_omega_reconstruction),
    ("C08", "spectral verification", criterion_08_spectral),
    ("C09", "two-by-two factor language", criterion_09_factors),
    ("C10", "fixed-point rectangle", criterion_10_fixed_point),
    ("C11", "prolongability", criterion_11_prolongability),
    ("C12", "tile frequencies", criterion_12_frequencies),
    ("C13", "property suites", criterion_13_property_suites),
    ("C14", "end-to-end certification", criterion_14_end_to_end),
]


def run_suite(filter_substring: str = "", verbose: bool = False) -> tuple[int, list[str]]:
    """Run matching criteria; returns (number of failures, report lines)."""
    lines = []
    failures = 0
    for code, name, fn in CRITERIA:
        if filter_substring and filter_substring.lower() not in f"{code} {name}".lower():
            continue
        t0 = time.time()
        try:
            ok, detail = fn()
        except Exception as e:  # a crash is a failure, not an abort
            ok, detail = False, f"exception: {e!r}"
        elapsed = time.time() - t0
        status = "PASS" if ok else "FAIL"
        failures += not ok
        line = f"{status} {code} {name} ({elapsed:.1f}s)"
        if verbose or not ok:
            line += f" :: {detail}"
        lines.append(line)
    return failures, lines
