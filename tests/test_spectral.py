from __future__ import annotations

import math
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wangtiles.corpus import builtin
from wangtiles.morphism import incidence_matrix
from wangtiles.spectral import (
    GOLDEN_ONE,
    PHI,
    GoldenNumber,
    GoldenRational,
    IntMatrix,
    IntPolynomial,
    char_poly,
    exact_perron_frequencies,
    golden_eigencheck,
    golden_kernel_vector,
    perron,
    recognize_golden,
)

from helpers import identity_matrix

PHI_F = (1 + math.sqrt(5)) / 2


def charpoly_by_determinant(rows):
    """Independent oracle: expand det(xI - M) over all permutations."""
    n = len(rows)
    total = IntPolynomial([])
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = IntPolynomial([sign])
        for i in range(n):
            entry = IntPolynomial([-rows[i][perm[i]], 1] if i == perm[i] else [-rows[i][perm[i]]])
            term = term * entry
        total = total + term
    return total


def mat_pow(M, k):
    """M**k by repeated squaring (k >= 0)."""
    result = identity_matrix(M.n)
    base = M
    while k:
        if k & 1:
            result = result @ base
        base = base @ base
        k >>= 1
    return result


def poly_at_matrix(p, M):
    """p(M) by Horner's rule over integer matrices."""
    n = M.n
    acc = IntMatrix([[0] * n for _ in range(n)])
    for c in reversed(p.coeffs):
        acc = acc @ M
        acc = IntMatrix([[a + (c if i == j else 0) for j, a in enumerate(row)]
                         for i, row in enumerate(acc.rows)])
    return acc


def poly_at(p, x):
    """p(x) by Horner's rule."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def largest_real_root(p, lo=0.0, hi=None, tol=1e-12):
    """Largest real root of p in [lo, hi] by sign-change bisection.

    An independent cross-check of the power iteration: scans down from hi
    for the first interval with a sign change.
    """
    if hi is None:
        # Cauchy bound
        lead = abs(p.coeffs[-1])
        hi = 1 + max(abs(c) for c in p.coeffs) / lead
    steps = 4000
    prev_x, prev_v = hi, poly_at(p, hi)
    for k in range(1, steps + 1):
        x = hi - (hi - lo) * k / steps
        v = poly_at(p, x)
        if v == 0:
            return x
        if (v < 0) != (prev_v < 0):
            a, b = x, prev_x
            fa = v
            while b - a > tol:
                m = (a + b) / 2
                fm = poly_at(p, m)
                if fm == 0:
                    return m
                if (fm < 0) == (fa < 0):
                    a, fa = m, fm
                else:
                    b = m
            return (a + b) / 2
        prev_x, prev_v = x, v
    raise ValueError("no real root found in range")


class TestIntMatrix:
    def test_rectangular_allowed_square_required_for_n(self):
        m = IntMatrix([[1, 2, 3], [4, 5, 6]])
        assert (m.nrows, m.ncols) == (2, 3)
        with pytest.raises(ValueError):
            m.n

    def test_matmul_and_pow(self):
        fib = IntMatrix([[0, 1], [1, 1]])
        assert mat_pow(fib, 10)[0][1] == 55

    def test_ragged_refused(self):
        with pytest.raises(ValueError):
            IntMatrix([[1], [1, 2]])


class TestCharPoly:
    def test_identity_3x3(self):
        # (x - 1)^3 = x^3 - 3x^2 + 3x - 1
        assert char_poly(identity_matrix(3)) == IntPolynomial([-1, 3, -3, 1])

    def test_fibonacci(self):
        assert char_poly(IntMatrix([[0, 1], [1, 1]])) == IntPolynomial([-1, -1, 1])

    def test_non_square(self):
        with pytest.raises(ValueError):
            char_poly(IntMatrix([[1, 2, 3], [4, 5, 6]]))

    def test_against_determinant_oracle(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            assert char_poly(IntMatrix(rows)) == charpoly_by_determinant(rows)

    def test_cayley_hamilton(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(1, 6)
            M = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            zero = IntMatrix([[0] * n for _ in range(n)])
            assert poly_at_matrix(char_poly(M), M) == zero


class TestPerron:
    def test_scalar(self):
        value, right, left = perron(IntMatrix([[2]]))
        assert value == pytest.approx(2.0)
        assert right == [1.0] and left == [1.0]

    def test_fibonacci_gives_phi(self):
        value, _, _ = perron(IntMatrix([[0, 1], [1, 1]]))
        assert abs(value - PHI_F) < 1e-9

    def test_refuses_non_primitive(self):
        with pytest.raises(ValueError):
            perron(identity_matrix(2))

    def test_agrees_with_polynomial_root(self):
        M = incidence_matrix(builtin("omega").payload)
        value, _, _ = perron(M)
        root = largest_real_root(char_poly(M))
        assert abs(value - root) < 1e-9


small_ints = st.integers(-12, 12)
golden = st.builds(GoldenNumber, small_ints, small_ints)


class TestGoldenNumber:
    @settings(deadline=None, max_examples=200)
    @given(golden, golden, golden)
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    def test_defining_relation(self):
        assert PHI * PHI == PHI + GOLDEN_ONE

    def test_powers(self):
        assert PHI**8 == GoldenNumber(13, 21)
        assert PHI**0 == GOLDEN_ONE

    def test_norm_and_conjugate(self):
        g = GoldenNumber(3, -2)
        prod = g * g.conjugate_factor()
        assert prod == GoldenNumber(g.norm(), 0)

    def test_float(self):
        assert float(PHI) == pytest.approx(PHI_F)

    def test_pretty(self):
        assert GoldenNumber(1, 1).pretty() == "1 + phi"
        assert GoldenNumber(0, -2).pretty() == "-2*phi"
        assert GoldenNumber(5, 0).pretty() == "5"


class TestGoldenRational:
    def test_normalization(self):
        q = GoldenRational(GoldenNumber(2, 4), -6)
        assert q == GoldenRational(GoldenNumber(-1, -2), 3)

    def test_division_by_golden_number(self):
        # 1 / phi = phi - 1
        inv = GoldenRational.of(GOLDEN_ONE) / GoldenRational.of(PHI)
        assert inv == GoldenRational.of(GoldenNumber(-1, 1))

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            GoldenRational.of(GOLDEN_ONE) / GoldenRational()
        with pytest.raises(ZeroDivisionError):
            GoldenRational(GOLDEN_ONE, 0)

    @settings(deadline=None, max_examples=100)
    @given(golden, golden, st.integers(1, 9), st.integers(1, 9))
    def test_field_laws(self, g1, g2, d1, d2):
        a = GoldenRational(g1, d1)
        b = GoldenRational(g2, d2)
        assert a + b == b + a
        assert a * b == b * a
        if not b.is_zero():
            assert (a / b) * b == a


class TestEigencheck:
    def test_fibonacci_eigenvector(self):
        M = IntMatrix([[0, 1], [1, 1]])
        assert golden_eigencheck(M, PHI, [GOLDEN_ONE, PHI], "right")

    def test_perturbation_fails(self):
        M = IntMatrix([[0, 1], [1, 1]])
        assert not golden_eigencheck(M, PHI, [GoldenNumber(2, 0), PHI], "right")

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            golden_eigencheck(identity_matrix(2), PHI, [PHI], "right")

    def test_bad_side(self):
        with pytest.raises(ValueError):
            golden_eigencheck(identity_matrix(1), PHI, [PHI], "up")


class TestRecognizeGolden:
    def test_recognizes_phi_squared(self):
        assert recognize_golden((3 + math.sqrt(5)) / 2) == GoldenNumber(1, 1)

    def test_recognizes_integers(self):
        assert recognize_golden(2.0) == GoldenNumber(2, 0)

    def test_rejects_sqrt2(self):
        assert recognize_golden(math.sqrt(2)) is None


class TestExactFrequencies:
    def test_kernel_rejects_non_eigenvalue(self):
        assert golden_kernel_vector(IntMatrix([[0, 1], [1, 1]]), GoldenNumber(2, 0)) is None

    def test_fibonacci_frequencies(self):
        lam, freqs = exact_perron_frequencies(IntMatrix([[0, 1], [1, 1]]))
        assert lam == PHI
        total = freqs[0] + freqs[1]
        assert total == GoldenRational.of(GOLDEN_ONE)
        assert all(float(f) > 0 for f in freqs)

    def test_refuses_dominant_value_outside_ring(self):
        # dominant eigenvalue 1 + sqrt(2)
        with pytest.raises(ValueError):
            exact_perron_frequencies(IntMatrix([[0, 1], [1, 2]]))

    def test_omega_frequencies_positive_sum_one(self):
        M = incidence_matrix(builtin("omega").payload)
        lam, freqs = exact_perron_frequencies(M)
        assert lam == GoldenNumber(1, 1)
        total = GoldenRational()
        for f in freqs:
            total = total + f
        assert total == GoldenRational.of(GOLDEN_ONE)
        assert all(float(f) > 0 for f in freqs)

    @pytest.mark.parametrize("k", [6, 7])
    def test_higher_powers_of_omega(self, k):
        # The Perron root phi^(2k) has b = F(2k) > 64: 144 for k = 6, 377 for k = 7.
        M = incidence_matrix(builtin("omega").payload)
        lam, freqs = exact_perron_frequencies(mat_pow(M, k))
        assert lam == PHI ** (2 * k)
        assert freqs == exact_perron_frequencies(M)[1]

    def test_morphism_level_wrapper(self):
        from wangtiles.spectral import frequencies

        exact, decimal = frequencies(builtin("omega").payload)
        assert len(exact) == len(decimal) == 19
        assert decimal[0] == pytest.approx(float(exact[0]))
        with pytest.raises(ValueError):
            frequencies(builtin("gamma").payload)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _relabeled_power(k, seed):
    """P M^k P^T for omega's incidence matrix M and a seeded permutation P."""
    Mk = mat_pow(incidence_matrix(builtin("omega").payload), k)
    n = Mk.n
    perm = random.Random(seed).sample(range(n), n)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[perm[i]][perm[j]] = Mk[i][j]
    return IntMatrix(rows)


def _random_primitive(rng, n):
    """A random nonnegative n x n matrix, primitive by Wielandt's bound."""
    import sympy

    while True:
        rows = [[rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(n)] for _ in range(n)]
        if all(a > 0 for a in sympy.Matrix(rows) ** ((n - 1) ** 2 + 1)):
            return IntMatrix(rows)


class TestAgainstSympy:
    """char_poly, golden_kernel_vector and exact_perron_frequencies against
    sympy's charpoly and its nullspace over the field Q(sqrt 5)."""

    @pytest.fixture(autouse=True)
    def field(self, sympy):
        self.sp = sympy
        self.K = sympy.QQ.algebraic_field(sympy.sqrt(5))
        self.sqrt5 = self.K.from_sympy(sympy.sqrt(5))

    def to_field(self, g):
        """A GoldenNumber or GoldenRational as an element of sympy's Q(sqrt 5):
        (a + b*phi)/d = (2a + b)/(2d) + b/(2d) * sqrt(5)."""
        num, den = (g.num, g.den) if isinstance(g, GoldenRational) else (g, 1)
        QQ, K = self.sp.QQ, self.K
        rational, irrational = QQ(2 * num.a + num.b, 2 * den), QQ(num.b, 2 * den)
        return K.convert(rational) + K.convert(irrational) * self.sqrt5

    def to_golden(self, r):
        """An algebraic integer p + q*sqrt(5) of sympy's as (p - q) + 2q*phi."""
        r = self.sp.expand(r)
        q = r.coeff(self.sp.sqrt(5))
        p = r - q * self.sp.sqrt(5)
        return GoldenNumber(int(p - q), int(2 * q))

    def check_char_poly(self, M):
        expected = self.sp.Matrix(M.rows).charpoly().all_coeffs()
        assert list(char_poly(M).coeffs) == [int(c) for c in reversed(expected)]

    def check_kernel(self, M, lam):
        """golden_kernel_vector(M, lam) is None exactly when sympy's kernel of
        M - lam*I is trivial; otherwise it spans that kernel when the kernel
        is a line, and lies in it when it is larger.  Returns the vector in
        Q(sqrt 5)."""
        from sympy.polys.matrices import DomainMatrix

        K, n = self.K, M.n
        entries = [[K.convert(a) for a in row] for row in M.rows]
        lam_k = self.to_field(lam)
        shifted = [[a - lam_k if i == j else a for j, a in enumerate(row)]
                   for i, row in enumerate(entries)]
        basis = DomainMatrix(shifted, (n, n), K).nullspace().to_Matrix().tolist()
        ours = golden_kernel_vector(M, lam)
        if not basis:
            assert ours is None
            return None
        assert ours is not None
        v = [self.to_field(q) for q in ours]
        f = next(i for i in range(n) if v[i] != K.zero)
        if len(basis) == 1:
            w = [K.from_sympy(e) for e in basis[0]]
            assert all(v[i] * w[f] == w[i] * v[f] for i in range(n))
        else:
            for row in shifted:
                assert sum((a * e for a, e in zip(row, v)), K.zero) == K.zero
        return v

    def check_frequencies(self, M, lam, freqs):
        v = self.check_kernel(M, lam)
        total = sum(v, self.K.zero)
        assert [self.to_field(q) for q in freqs] == [e / total for e in v]

    @pytest.mark.parametrize("k", range(1, 8))
    def test_relabeled_powers_of_omega(self, k):
        M = _relabeled_power(k, seed=1000 + k)
        self.check_char_poly(M)
        lam, freqs = exact_perron_frequencies(M)
        assert lam == PHI ** (2 * k)
        self.check_frequencies(M, lam, freqs)

    def test_small_random_primitive_matrices(self):
        from sympy.polys.polyerrors import CoercionFailed

        rng = random.Random(2024)
        golden_top = other_top = 0
        while golden_top < 12 or other_top < 12:
            M = _random_primitive(rng, rng.randint(2, 4))
            self.check_char_poly(M)
            roots = self.sp.Matrix(M.rows).charpoly().real_roots()
            in_ring = {}
            for r in set(roots):
                try:
                    self.K.from_sympy(r)
                except CoercionFailed:
                    continue
                in_ring[r] = self.to_golden(r)
            for g in in_ring.values():
                self.check_kernel(M, g)
                self.check_kernel(M, g + GOLDEN_ONE + GOLDEN_ONE)
            top = max(roots)
            if top in in_ring:
                golden_top += 1
                lam, freqs = exact_perron_frequencies(M)
                assert lam == in_ring[top]
                self.check_frequencies(M, lam, freqs)
            else:
                other_top += 1
                with pytest.raises(ValueError):
                    exact_perron_frequencies(M)
