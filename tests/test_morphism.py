from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wangtiles import morphism
from wangtiles.core import WangTile, WangTileSet
from wangtiles.corpus import builtin
from wangtiles.morphism import (
    CompositionError,
    DomainError,
    Morphism2d,
    ShapeError,
    Word2d,
    apply,
    check_prolongable,
    check_recognizability_criterion,
    compose,
    concat,
    factors_2x2,
    incidence_matrix,
    iterate,
)
from wangtiles.solver import is_valid_pattern
from wangtiles.spectral import IntMatrix, is_primitive

from helpers import identity_matrix, identity_morphism
from morphism_reference import (
    TooManyCells,
    reference_apply,
    reference_factors_2x2,
    reference_iterate,
    subwords,
)

U = builtin("U").payload
W = builtin("W").payload
alpha = builtin("alpha").payload
beta = builtin("beta").payload
gamma = builtin("gamma").payload
omega = builtin("omega").payload


def letters(n: int) -> WangTileSet:
    """n distinct tiles, so any table of images over them is a morphism."""
    return WangTileSet(WangTile(str(i), "x", str(i), "x") for i in range(n))


def prime_cycles(lengths: list[int]) -> tuple[Morphism2d, list[int]]:
    """Letter 0 -> a row of one letter from each cycle; the others rotate.

    The cycles have the given lengths; their letters' images are single
    letters, so the row never grows again and its words have the least
    common multiple of the lengths as their period.  Also returns the
    letter each cycle starts at.
    """
    images, starts = [Word2d.letter(0)], []
    for length in lengths:
        start = len(images)
        starts.append(start)
        images += [Word2d.letter(start + (i + 1) % length) for i in range(length)]
    images[0] = Word2d(tuple((start,) for start in starts))
    ts = letters(len(images))
    return Morphism2d(ts, ts, tuple(images)), starts


class TestWord2d:
    def test_rows_roundtrip(self):
        w = Word2d(((1, 2), (3, 4), (5, 6)))
        assert w.shape == (3, 2)
        assert w.to_rows() == [[2, 4, 6], [1, 3, 5]]
        assert Word2d.from_rows(w.to_rows()) == w

    def test_empty_refused(self):
        with pytest.raises(ValueError):
            Word2d(())
        with pytest.raises(ValueError):
            Word2d(((),))

    def test_ragged_refused(self):
        with pytest.raises(ValueError):
            Word2d(((1,), (2, 3)))


class TestConcat:
    def test_horizontal_letters(self):
        assert concat(Word2d.letter(11), Word2d.letter(8), 1) == Word2d(((11,), (8,)))

    def test_horizontal_columns(self):
        got = concat(Word2d(((11, 1),)), Word2d(((8, 0),)), 1)
        assert got.to_rows() == [[1, 0], [11, 8]]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            concat(Word2d(((1,), (2,))), Word2d.letter(0), 2)

    def test_vertical(self):
        got = concat(Word2d(((1,), (2,))), Word2d(((3,), (4,))), 2)
        assert got == Word2d(((1, 3), (2, 4)))


class TestSubwords:
    def test_whole_word(self):
        w = Word2d(((1, 2), (3, 4)))
        assert subwords(w, w.shape) == {w}

    def test_too_small(self):
        assert subwords(Word2d.letter(5), (2, 2)) == set()

    def test_counts(self):
        w = iterate(omega, 4, 3)
        assert len(subwords(w, (1, 1))) == len(w.letters())
        got = subwords(w, (2, 2))
        assert all(sub.shape == (2, 2) for sub in got)

    def test_inflation_patch_factors_lie_in_the_reference_set(self):
        from wangtiles.suite import FACTORS_2X2_U

        reference = {Word2d.from_columns(c) for c in FACTORS_2X2_U}
        assert subwords(iterate(omega, 4, 5), (2, 2)) <= reference


class TestApply:
    def test_letter_relabeling(self):
        assert apply(gamma, Word2d.letter(0)) == Word2d.letter(0)

    def test_omega_image_of_18(self):
        got = apply(omega, Word2d.letter(18))
        assert got.to_rows() == [[2, 0], [14, 8]]

    def test_identity(self):
        ident = identity_morphism(U)
        w = iterate(omega, 4, 2)
        assert apply(ident, w) == w

    def test_non_assemblable_reports_cells(self):
        bad = Word2d(((0,), (8,)))  # image heights 1 and 2 side by side
        with pytest.raises(DomainError, match=r"\(1,0\)"):
            apply(omega, bad)


class TestCompose:
    def test_alpha_beta_image_of_2(self):
        ab = compose(alpha, beta)
        assert ab.images[2] == Word2d(((15,), (11,)))

    def test_compose_with_identity(self):
        ident = identity_morphism(U)
        assert compose(omega, ident).images == omega.images
        assert compose(ident, omega).images == omega.images

    def test_omega_image_of_16(self):
        assert omega.images[16].to_rows() == [[5, 1], [18, 10]]

    def test_domain_mismatch(self):
        with pytest.raises(CompositionError):
            compose(beta, alpha)


class TestIncidence:
    def test_gamma_is_identity_matrix(self):
        assert incidence_matrix(gamma) == identity_matrix(19)

    def test_column_sums_are_image_areas(self):
        M = incidence_matrix(omega)
        sums = [sum(M[i][j] for i in range(19)) for j in range(19)]
        areas = [im.shape[0] * im.shape[1] for im in omega.images]
        assert sums == areas
        assert sorted(set(sums)) == [1, 2, 4]

    def test_multiplicative_over_composition(self):
        ab = compose(alpha, beta)
        assert incidence_matrix(ab) == incidence_matrix(alpha) @ incidence_matrix(beta)
        abg = compose(ab, gamma)
        assert incidence_matrix(abg) == incidence_matrix(ab) @ incidence_matrix(gamma)


class TestPrimitivity:
    def test_identity_never_primitive(self):
        assert is_primitive(identity_matrix(2)) is None

    def test_fibonacci_matrix(self):
        assert is_primitive(IntMatrix([[0, 1], [1, 1]])) == 2

    def test_omega_exponent(self):
        assert is_primitive(incidence_matrix(omega)) == 7

    def test_negative_entries_refused(self):
        with pytest.raises(ValueError):
            is_primitive(IntMatrix([[1, -1], [0, 1]]))


class TestJsonTable:
    def test_roundtrip(self):
        assert Morphism2d.from_json_table(omega.to_json_table(), U, U) == omega

    @pytest.mark.parametrize(
        "image", [5, [5], "ab", [[0, "1"]], [[0.0]], [[True]], [(0,)], None]
    )
    def test_malformed_image_is_a_value_error(self, image):
        table = omega.to_json_table()
        table["0"] = image
        with pytest.raises(ValueError, match="domain letter 0"):
            Morphism2d.from_json_table(table, U, U)

    def test_table_must_be_a_mapping(self):
        with pytest.raises(ValueError, match="map domain letters"):
            Morphism2d.from_json_table([[[0]]], U, U)


class TestIterate:
    def test_zero_steps(self):
        assert iterate(omega, 4, 0) == Word2d.letter(4)

    def test_five_steps_shape_and_validity(self):
        w = iterate(omega, 4, 5)
        assert w.shape == (13, 8)
        assert is_valid_pattern(U, w)

    def test_requires_self_morphism(self):
        with pytest.raises(ValueError):
            iterate(alpha, 0, 2)

    def test_negative_steps(self):
        with pytest.raises(ValueError, match="iteration count"):
            iterate(omega, 0, -3)

    def test_shapes_nondecreasing_and_expanding(self):
        for a in (0, 4, 16):
            prev = (1, 1)
            for n in range(1, 7):
                shape = iterate(omega, a, n).shape
                assert shape >= prev
                prev = shape
            assert min(prev) > 6

    def test_stops_at_a_fixed_point(self):
        # 10**9 steps of a map that fixes every letter would take hours.
        start = time.perf_counter()
        assert iterate(identity_morphism(U), 3, 10**9) == Word2d.letter(3)
        assert time.perf_counter() - start < 1.0

    def test_fixed_point_reached_after_growth(self):
        # 0 -> 1 2 grows once; 1 and 2 are fixed, so 1 2 is a fixed point.
        from wangtiles.core import WangTile, WangTileSet

        ts = WangTileSet(WangTile(c, "x", c, "x") for c in "abc")
        m = Morphism2d(ts, ts, (Word2d(((1,), (2,))), Word2d.letter(1), Word2d.letter(2)))
        assert iterate(m, 0, 10**9) == Word2d(((1,), (2,)))

    def test_skips_whole_periods_of_a_cycle(self):
        # 0 and 1 swap: the words cycle with period 2 and never stop changing.
        from wangtiles.core import WangTile, WangTileSet

        ts = WangTileSet(WangTile(c, "x", c, "x") for c in "ab")
        m = Morphism2d(ts, ts, (Word2d.letter(1), Word2d.letter(0)))
        start = time.perf_counter()
        assert iterate(m, 0, 10**9) == Word2d.letter(0)
        assert iterate(m, 0, 10**9 + 1) == Word2d.letter(1)
        assert time.perf_counter() - start < 1.0

    def test_cycle_after_growth_matches_step_by_step(self):
        # 0 -> 1 2 grows once; then 1 and 2 swap, so 1 2 and 2 1 alternate.
        from wangtiles.core import WangTile, WangTileSet

        ts = WangTileSet(WangTile(c, "x", c, "x") for c in "abc")
        m = Morphism2d(ts, ts, (Word2d(((1,), (2,))), Word2d.letter(2), Word2d.letter(1)))
        for a in range(3):
            w = Word2d.letter(a)
            for n in range(8):
                assert iterate(m, a, n) == w, (a, n)
                w = apply(m, w)


class TestIterationBound:
    # 42 letters; the words of letter 0 have period 2*3*5*7*11*13 = 30030.
    LENGTHS = [2, 3, 5, 7, 11, 13]

    def test_long_period_finishes_at_once(self):
        m, starts = prime_cycles(self.LENGTHS)
        n = 10**9
        start = time.perf_counter()
        w = iterate(m, 0, n)
        assert time.perf_counter() - start < 1.0
        orbit = tuple((s + (n - 1) % length,) for s, length in zip(starts, self.LENGTHS))
        assert w == Word2d(orbit)

    def test_matches_step_by_step(self):
        m, _ = prime_cycles(self.LENGTHS)
        n_letters = len(m.domain)
        for a in (0, 1, n_letters - 1):
            w = Word2d.letter(a)
            for n in range(3 * n_letters + 1):
                assert iterate(m, a, n) == w, (a, n)
                w = apply(m, w)


def apply_by_concat(m, w):
    """Reference: stack each input column's images, then join the columns."""
    n1, n2 = w.shape
    blocks = []
    for x in range(n1):
        block = m.images[w.cell(x, 0)]
        for y in range(1, n2):
            block = concat(block, m.images[w.cell(x, y)], 2)
        blocks.append(block)
    out = blocks[0]
    for block in blocks[1:]:
        out = concat(out, block, 1)
    return out


class TestApplyMatchesConcatenation:
    @pytest.mark.parametrize("a", [0, 4, 16])
    def test_omega_iterates(self, a):
        w = Word2d.letter(a)
        for _ in range(12):  # omega^k(a) for k <= 11
            image = apply(omega, w)
            assert image == apply_by_concat(omega, w)
            w = image


class TestIterateSizeGuard:
    def test_refused_before_anything_is_built(self, monkeypatch):
        applied = 0
        real = morphism.apply

        def counted(*args):
            nonlocal applied
            applied += 1
            return real(*args)

        monkeypatch.setattr(morphism, "apply", counted)
        monkeypatch.setattr(morphism, "MAX_ITERATE_CELLS", 100)
        with pytest.raises(
            morphism.IterateTooLarge,
            match="^iteration step 5 would bring the cells built to 167, over the limit of 100$",
        ):
            iterate(omega, 4, 60)
        assert applied == 0

    def test_limit_is_exact(self, monkeypatch):
        # The predicted shapes are the built ones: a limit of exactly the
        # cells of omega^k(a) for k = 1..n lets omega^n(a) through, and one
        # cell fewer refuses it.
        for a in range(len(U)):
            w, built = Word2d.letter(a), 0
            for n in range(1, 11):
                w = apply(omega, w)
                built += w.shape[0] * w.shape[1]
                if n < 6:
                    continue
                monkeypatch.setattr(morphism, "MAX_ITERATE_CELLS", built)
                assert iterate(omega, a, n) == w
                monkeypatch.setattr(morphism, "MAX_ITERATE_CELLS", built - 1)
                with pytest.raises(morphism.IterateTooLarge):
                    iterate(omega, a, n)
                monkeypatch.undo()

    def test_total_work_is_bounded(self, monkeypatch):
        # a -> (a b), b -> b: the word grows by one cell a step, so n steps
        # build about n^2 / 2 cells while the word itself stays small.  The
        # running sum refuses it before anything is built.
        applied = 0
        real = morphism.apply

        def counted(*args):
            nonlocal applied
            applied += 1
            return real(*args)

        monkeypatch.setattr(morphism, "apply", counted)
        ts = letters(2)
        m = Morphism2d(ts, ts, (Word2d(((0,), (1,))), Word2d.letter(1)))
        with pytest.raises(morphism.IterateTooLarge, match="step 2895 would bring the cells built"):
            iterate(m, 0, 10**5)
        assert applied == 0

    def test_every_letter_of_omega_passes_at_level_15(self, monkeypatch):
        # Reaching apply means the guard let the iterate through.
        class Built(Exception):
            pass

        def refuse(*args):
            raise Built

        monkeypatch.setattr(morphism, "apply", refuse)
        for a in range(len(U)):
            with pytest.raises(Built):
                iterate(omega, a, 15)
            with pytest.raises(morphism.IterateTooLarge):
                iterate(omega, a, 17)


class TestFactors:
    def test_identity_on_one_letter_has_none(self):
        from wangtiles.core import WangTile, WangTileSet

        ts = WangTileSet([WangTile("A", "A", "A", "A")])
        assert factors_2x2(identity_morphism(ts)) == set()

    def test_mixed_fixed_and_growing_letters(self):
        from wangtiles.core import WangTile, WangTileSet

        ts = WangTileSet([WangTile("a", "x", "a", "x"), WangTile("b", "y", "b", "y")])
        quad = Word2d(((1, 1), (1, 1)))
        m = Morphism2d(ts, ts, (Word2d.letter(0), quad))
        assert factors_2x2(m) == {quad}

    def test_letters_that_never_stop_changing(self, monkeypatch):
        # 0 -> a 2x2 block of 0s, and 1 and 2 swap: the words of 1 and 2
        # change forever, so nothing may wait for them to settle.  Applying
        # to any word over 16 cells fails the test instead of hanging it.
        real = morphism.apply

        def small_only(m, w):
            assert w.shape[0] * w.shape[1] <= 16, f"applied to a {w.shape} word"
            return real(m, w)

        monkeypatch.setattr(morphism, "apply", small_only)
        ts = letters(3)
        quad = Word2d(((0, 0), (0, 0)))
        m = Morphism2d(ts, ts, (quad, Word2d.letter(2), Word2d.letter(1)))
        assert factors_2x2(m) == {quad}

    def test_seed_over_the_cell_limit_is_refused_before_it_is_built(self, monkeypatch):
        applied = 0
        real = morphism.apply

        def counted(*args):
            nonlocal applied
            applied += 1
            return real(*args)

        monkeypatch.setattr(morphism, "apply", counted)
        monkeypatch.setattr(morphism, "MAX_ITERATE_CELLS", 3)
        with pytest.raises(morphism.IterateTooLarge, match="would bring the cells built"):
            factors_2x2(omega)
        assert applied == 0

    def test_seed_is_refused_by_the_cells_built_on_the_way_to_it(self, monkeypatch):
        # Every seed of omega, its first iterate with both sides at least 2,
        # fits a limit of the largest seed's cells, but the steps to some
        # seed build more cells than that in all.
        seeds, built = [], []
        for a in range(len(U)):
            w, cells = Word2d.letter(a), 0
            while min(w.shape) < 2:
                w = apply(omega, w)
                cells += w.shape[0] * w.shape[1]
            seeds.append(w.shape[0] * w.shape[1])
            built.append(cells)
        assert max(built) > max(seeds)
        monkeypatch.setattr(morphism, "MAX_ITERATE_CELLS", max(seeds))
        with pytest.raises(morphism.IterateTooLarge, match="would bring the cells built"):
            factors_2x2(omega)

    def test_omega_has_50(self):
        F = factors_2x2(omega)
        assert len(F) == 50

    def test_every_factor_occurs_in_deep_iterate(self):
        F = factors_2x2(omega)
        big = iterate(omega, 0, 9)
        found = subwords(big, (2, 2))
        assert F <= found

    def test_requires_self_morphism(self):
        with pytest.raises(ValueError):
            factors_2x2(alpha)

    # Letter 0's image is the seed block itself, and letter 2's image is 2
    # wide (1 tall) or 2 tall (1 wide), so the seed's image stacks images of
    # different widths in its left column, or of different heights in its
    # bottom row: the closure must raise what apply raises for that block.
    @pytest.mark.parametrize(
        "seed, image_of_2",
        [
            (Word2d(((1, 2), (2, 1))), Word2d(((2,), (2,)))),
            (Word2d(((1, 1), (2, 1))), Word2d(((2, 2),))),
        ],
    )
    def test_a_block_whose_images_do_not_fit_raises_apply_s_error(self, seed, image_of_2):
        ts = letters(3)
        m = Morphism2d(ts, ts, (seed, Word2d.letter(1), image_of_2))
        with pytest.raises(DomainError) as expected:
            apply(m, seed)
        with pytest.raises(DomainError) as raised:
            factors_2x2(m)
        assert str(raised.value) == str(expected.value)


class TestProlongable:
    def test_omega_prolongable_nowhere(self):
        for a in range(19):
            for sign in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                assert check_prolongable(omega, a, sign) is False

    def test_omega_squared_on_16(self):
        omega2 = compose(omega, omega)
        assert check_prolongable(omega2, 16, (-1, -1)) is True
        assert check_prolongable(omega2, 16, (1, -1)) is True
        assert check_prolongable(omega2, 16, (-1, 1)) is True
        assert check_prolongable(omega2, 16, (1, 1)) is False

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            check_prolongable(omega, 0, (0, 1))


class TestRecognizabilityCriterion:
    def test_alpha_with_marked_tops(self):
        assert check_recognizability_criterion(alpha, set(range(8)), 2)

    def test_beta_with_marked_rights(self):
        markers = {0, 1, 3, 8, 9, 14, 15}
        assert check_recognizability_criterion(beta, markers, 1)

    def test_non_injective_fails(self):
        m = Morphism2d(U, U, tuple([Word2d.letter(0)] * 19))
        assert not check_recognizability_criterion(m, set(), 1)

    def test_marker_letter_image_fails(self):
        assert not check_recognizability_criterion(alpha, {11}, 2)

    def test_wrong_direction_fails(self):
        assert not check_recognizability_criterion(alpha, set(range(8)), 1)


class TestValidityTransport:
    def test_images_of_valid_patterns_are_valid(self):
        # The self-map sends admissible blocks to admissible blocks.
        from wangtiles.solver import patterns_with_surrounding

        for p in patterns_with_surrounding(U, (2, 2), 1):
            assert is_valid_pattern(U, apply(omega, p))

    def test_iterates_are_valid(self):
        for a in (0, 7, 16):
            assert is_valid_pattern(U, iterate(omega, a, 4))


class TestMorphismLaw:
    def test_concat_commutes_with_apply(self):
        rng = random.Random(7)
        big = iterate(omega, 4, 4)
        n1, n2 = big.shape
        for _ in range(60):
            w = rng.randint(1, 3)
            h = rng.randint(1, 3)
            x = rng.randint(0, n1 - w - 1)
            y = rng.randint(0, n2 - h - 1)
            block = Word2d(tuple(big.columns[x + i][y : y + h + 1] for i in range(w)))
            east = Word2d(tuple(big.columns[x + w][y : y + h + 1] for _ in range(1)))
            assert apply(omega, concat(block, east, 1)) == concat(
                apply(omega, block), apply(omega, east), 1
            )
            lower = Word2d(tuple(big.columns[x + i][y : y + h] for i in range(w)))
            upper = Word2d(tuple(big.columns[x + i][y + h : y + h + 1] for i in range(w)))
            assert apply(omega, concat(lower, upper, 2)) == concat(
                apply(omega, lower), apply(omega, upper), 2
            )


@st.composite
def small_morphisms(draw) -> Morphism2d:
    """Self-morphisms on at most 5 letters with images of at most 2x2."""
    n = draw(st.integers(1, 5))
    images = []
    for _ in range(n):
        width, height = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        cells = st.lists(st.integers(0, n - 1), min_size=height, max_size=height)
        images.append(Word2d.from_columns(draw(st.lists(cells, min_size=width, max_size=width))))
    ts = letters(n)
    return Morphism2d(ts, ts, tuple(images))


def outcome(f, *args):
    """The result of a call, or the type of the DomainError it raised."""
    try:
        return f(*args)
    except DomainError:
        return DomainError


def with_message(f, *args):
    """The result of a call, or the message of the DomainError it raised."""
    try:
        return f(*args)
    except DomainError as e:
        return str(e)


class TestAgainstReference:
    @settings(deadline=None, max_examples=300)
    @given(small_morphisms(), st.data())
    def test_apply_matches_reference(self, m, data):
        n = len(m.domain)
        # Arbitrary words, most outside the natural domain, and iterates,
        # which are inside it until a step raises.
        width, height = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        cells = st.lists(st.integers(0, n - 1), min_size=height, max_size=height)
        words = [Word2d.from_columns(data.draw(st.lists(cells, min_size=width, max_size=width)))]
        w = Word2d.letter(data.draw(st.integers(0, n - 1)))
        while w.shape[0] * w.shape[1] <= 64 and len(words) < 8:
            words.append(w)
            try:
                w = reference_apply(m, w)
            except DomainError:
                break
        for w in words:
            assert with_message(apply, m, w) == with_message(reference_apply, m, w)

    @settings(deadline=None, max_examples=150)
    @given(small_morphisms())
    def test_iterate_matches_stepping(self, m):
        n_letters = len(m.domain)
        for a in range(n_letters):
            w = Word2d.letter(a)
            for n in range(3 * n_letters + 4):
                assert outcome(iterate, m, a, n) == w, (a, n)
                if w is DomainError or w.shape[0] * w.shape[1] > 64:
                    break  # past a DomainError, a large shape is refused first
                w = outcome(apply, m, w)

    @settings(deadline=None, max_examples=150)
    @given(small_morphisms())
    def test_iterate_matches_reference_far_out(self, m):
        n_letters = len(m.domain)
        for a in range(n_letters):
            try:
                shapes = list(zip(range(64), morphism._shapes(m, a)))
            except morphism.IterateTooLarge:
                continue  # the shape keeps growing past the cell limit
            if len(shapes) == 64 or shapes[-1][1][0] * shapes[-1][1][1] > 4096:
                continue  # the shape keeps growing: the reference would too
            for n in (10**6, 10**6 + 1):
                assert outcome(iterate, m, a, n) == outcome(reference_iterate, m, a, n)

    @settings(deadline=None, max_examples=150)
    @given(small_morphisms())
    def test_predicted_shapes_are_the_built_ones(self, m):
        # The cell limit refuses an iterate before it is built only because
        # each shape _shapes predicts is the shape of the word built.
        for a in range(len(m.domain)):
            for k, shape in zip(range(1, 64), morphism._shapes(m, a)):
                w = outcome(iterate, m, a, k)
                if w is DomainError:
                    break
                assert w.shape == shape, (a, k)
                if shape[0] * shape[1] > 4096:
                    break

    @settings(deadline=None, max_examples=150)
    @given(small_morphisms())
    def test_factors_match_reference(self, m):
        try:
            expected = reference_factors_2x2(m, 4096)
        except (TooManyCells, RuntimeError, DomainError):
            return  # the reference gives no answer to compare with
        assert factors_2x2(m) == expected
