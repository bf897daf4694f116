from __future__ import annotations

import math
import random
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wangtiles import spectral
from wangtiles.corpus import builtin
from wangtiles.morphism import frequencies, incidence_matrix
from wangtiles.spectral import (
    GOLDEN_ONE,
    PERRON_TOLERANCE,
    PHI,
    GoldenNumber,
    GoldenRational,
    IntMatrix,
    IntPolynomial,
    char_poly,
    exact_perron_frequencies,
    golden_candidates,
    golden_eigencheck,
    is_primitive,
    perron,
    power_iteration,
)

from helpers import golden_kernel_vector, identity_matrix

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


def kernel_by_field_elimination(M, eigenvalue):
    """Oracle: a nonzero solution of (M - lambda I) x = 0 by Gauss-Jordan
    elimination over the field Q(phi), pivot row divided to 1 at each step,
    or None.  Pivots on the sparsest candidate row, first on ties, and sets
    the first free column to 1."""
    n = M.n
    lam = GoldenRational.of(eigenvalue)
    rows = [
        [GoldenRational.of(GoldenNumber(M.rows[i][j], 0)) - (lam if i == j else GoldenRational())
         for j in range(n)]
        for i in range(n)
    ]
    pivots = []
    r = 0
    for c in range(n):
        candidates = [i for i in range(r, n) if not rows[i][c].is_zero()]
        if not candidates:
            continue
        pivot = min(candidates, key=lambda i: sum(not x.is_zero() for x in rows[i]))
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [x if x.is_zero() else x / inv for x in rows[r]]
        for i in range(n):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x if y.is_zero() else x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
    if r == n:
        return None
    free = next(c for c in range(n) if c not in {c for _, c in pivots})
    x = [GoldenRational() for _ in range(n)]
    x[free] = GoldenRational.of(GOLDEN_ONE)
    for i, c in pivots:
        x[c] = -rows[i][free]
    return x


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


class TestIntPolynomial:
    def test_powers(self):
        assert IntPolynomial([1, 1]) ** 3 == IntPolynomial([1, 3, 3, 1])
        assert IntPolynomial([1, 1]) ** 0 == IntPolynomial([1])

    @pytest.mark.parametrize("k", [-1, -3])
    def test_negative_power_refused(self, k):
        for value in (IntPolynomial([1, 1]), GoldenNumber(0, 1)):
            with pytest.raises(ValueError, match=f"^negative exponent {k}: "):
                value ** k


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
        value = perron(IntMatrix([[2]]))
        assert isinstance(value, float)
        assert value == pytest.approx(2.0)

    def test_fibonacci_gives_phi(self):
        value = perron(IntMatrix([[0, 1], [1, 1]]))
        assert abs(value - PHI_F) < 1e-9

    def test_refuses_non_primitive(self):
        with pytest.raises(ValueError):
            perron(identity_matrix(2))

    def test_agrees_with_polynomial_root(self):
        M = incidence_matrix(builtin("omega").payload)
        value = perron(M)
        root = largest_real_root(char_poly(M))
        assert abs(value - root) < 1e-9


def reference_power_iteration(M):
    """power_iteration with its sums written as generator expressions: the
    same products added in the same order, so the same float bit for bit."""
    v = [1.0] * M.n
    w = [sum(a * x for a, x in zip(row, v)) for row in M.rows]
    value = 0.0
    for _ in range(10000):
        norm = max(w)
        v = [x / norm for x in w]
        w = [sum(a * x for a, x in zip(row, v)) for row in M.rows]
        rayleigh = sum(x * y for x, y in zip(v, w)) / sum(x * x for x in v)
        if abs(rayleigh - value) < PERRON_TOLERANCE:
            return rayleigh
        value = rayleigh
    return value


class TestPowerIterationAgainstReference:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_powers_of_omega(self, k):
        M = mat_pow(incidence_matrix(builtin("omega").payload), k)
        assert power_iteration(M).hex() == reference_power_iteration(M).hex()

    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=n, max_size=n)
    ))
    def test_primitive_matrices(self, rows):
        M = IntMatrix(rows)
        assume(is_primitive(M) is not None)
        assert power_iteration(M).hex() == reference_power_iteration(M).hex()


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
        assert next(golden_candidates((3 + math.sqrt(5)) / 2)) == GoldenNumber(1, 1)

    def test_recognizes_integers(self):
        assert next(golden_candidates(2.0)) == GoldenNumber(2, 0)

    def test_rejects_sqrt2(self):
        assert list(golden_candidates(math.sqrt(2))) == []


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

    @pytest.mark.parametrize("n", [30, 40, 70])
    def test_high_powers_of_fibonacci(self, n):
        # phi^n lies within 1e-6 of an integer, so b = 0 matches first by
        # tolerance; the conjugate's b = round(lambda / sqrt(5)) comes first.
        lam, freqs = exact_perron_frequencies(mat_pow(IntMatrix([[0, 1], [1, 1]]), n))
        assert lam == PHI ** n
        assert sum(freqs, GoldenRational()) == GoldenRational.of(GOLDEN_ONE)

    def test_root_near_a_spurious_candidate_is_not_recognized(self):
        # The Perron root (100001 + sqrt(100001**2 - 4*99999)) / 2 lies within
        # 1e-6 of 175025 - 46368*phi, which is no eigenvalue: b < 0 is never
        # tried, and no candidate with b >= 0 is an eigenvalue.
        with pytest.raises(ValueError, match="not recognized in Z\\[phi\\]"):
            exact_perron_frequencies(IntMatrix([[1, 1], [1, 10**5]]))

    def test_root_beyond_the_float_integers_is_refused(self):
        # phi^80 > 2^53: the float root no longer tells a from a + 1, and no
        # candidate is tried, rather than all 2x/sqrt(5) of them.
        with pytest.raises(ValueError, match="not recognized in Z\\[phi\\]"):
            exact_perron_frequencies(mat_pow(IntMatrix([[0, 1], [1, 1]]), 80))

    def test_wrong_kernel_vector_is_refused(self, monkeypatch):
        # The kernel vector is checked exactly, M x == lambda x, before any
        # frequency is returned; a slip in the elimination cannot get through.
        from wangtiles import spectral

        real = spectral._integer_kernel

        def off_by_one(M, lam):
            x = real(M, lam)
            x[0] = x[0] + GOLDEN_ONE
            return x

        M = incidence_matrix(builtin("omega").payload)
        monkeypatch.setattr(spectral, "_integer_kernel", off_by_one)
        with pytest.raises(ValueError, match="fails M x"):
            exact_perron_frequencies(M)

    def test_morphism_level_wrapper(self):
        exact, decimal = frequencies(builtin("omega").payload)
        assert len(exact) == len(decimal) == 19
        assert decimal[0] == pytest.approx(float(exact[0]))
        with pytest.raises(ValueError):
            frequencies(builtin("gamma").payload)


def _permuted(M, seed):
    """P M P^T for a seeded permutation P."""
    n = M.n
    perm = random.Random(seed).sample(range(n), n)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[perm[i]][perm[j]] = M[i][j]
    return IntMatrix(rows)


# phi, its conjugate 1 - phi, phi^2, its conjugate 2 - phi, and a few that
# are rarely eigenvalues.  phi - a has norm a^2 - a - 1, negative for a in
# {0, 1}: pivots on a 0/1 diagonal at lambda = phi have negative norm.
GUESSES = [
    GoldenNumber(0, 0), GoldenNumber(1, 0), GoldenNumber(-1, 0), GoldenNumber(2, 0),
    PHI, GoldenNumber(1, -1), GoldenNumber(1, 1), GoldenNumber(2, -1), GoldenNumber(3, 2),
]


class TestKernelAgainstFieldElimination:
    """golden_kernel_vector gives exactly the values of elimination over
    Q(phi), for eigenvalues and non-eigenvalues alike."""

    @pytest.mark.parametrize("k", range(1, 8))
    def test_permuted_powers_of_omega(self, k):
        Mk = mat_pow(incidence_matrix(builtin("omega").payload), k)
        for seed in range(3):
            A = _permuted(Mk, 7 * k + seed)
            for lam in (PHI ** (2 * k), GoldenNumber(0, 0), GoldenNumber(1, 0), PHI):
                assert golden_kernel_vector(A, lam) == kernel_by_field_elimination(A, lam)

    def test_random_integer_matrices(self):
        rng = random.Random(77)
        kernels = trivial = 0
        for _ in range(150):
            n = rng.randint(1, 6)
            rows = [[rng.choice((0, 0, 0, 1, 1, 2, -1, 3)) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.5:  # triangular: the diagonal entries are eigenvalues
                rows = [[a if j >= i else 0 for j, a in enumerate(r)] for i, r in enumerate(rows)]
            M = IntMatrix(rows)
            guesses = GUESSES + [GoldenNumber(rows[i][i], 0) for i in range(n)]
            for lam in guesses:
                expected = kernel_by_field_elimination(M, lam)
                assert golden_kernel_vector(M, lam) == expected, (rows, lam)
                if expected is None:
                    trivial += 1
                else:
                    kernels += 1
        assert kernels > 100 and trivial > 100

    def test_golden_blocks(self):
        # P [[F, 0], [C, R]] P^T: F has the eigenvalues phi and 1 - phi (or
        # their squares), R is a random triangular block, C random.
        rng = random.Random(78)
        for F in ([[0, 1], [1, 1]], [[1, 1], [1, 2]], [[1, 1], [1, 0]]):
            for _ in range(20):
                m = rng.randint(0, 4)
                R = [[rng.randint(-2, 3) if j >= i else 0 for j in range(m)] for i in range(m)]
                rows = [F[0] + [0] * m, F[1] + [0] * m]
                rows += [[rng.randint(-1, 1), rng.randint(-1, 1)] + r for r in R]
                M = _permuted(IntMatrix(rows), rng.randrange(1000))
                found = 0
                for lam in GUESSES:
                    expected = kernel_by_field_elimination(M, lam)
                    assert golden_kernel_vector(M, lam) == expected, (M.rows, lam)
                    found += expected is not None
                assert found >= 2  # both roots of F's block

    def test_kernels_of_dimension_two_or_more(self):
        B = [[1, 2], [0, 3]]
        repeated = IntMatrix([r + r for r in B] + [r + r for r in B])  # [[B, B], [B, B]]
        cases = [
            (IntMatrix([[0] * 4 for _ in range(4)]), GoldenNumber(0, 0)),  # kernel dimension 4
            (identity_matrix(3), GoldenNumber(1, 0)),                        # dimension 3
            (repeated, GoldenNumber(0, 0)),                                 # dimension 2
            (IntMatrix([[0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1]]), PHI),  # 2
        ]
        for M, lam in cases:
            expected = kernel_by_field_elimination(M, lam)
            assert expected is not None
            assert golden_kernel_vector(M, lam) == expected

    def test_negative_norm_pivots(self):
        # At lambda = phi the diagonal of M - lambda I holds a - phi, of norm
        # a^2 - a - 1 = -1 for a in {0, 1}; the Fibonacci matrix pivots on
        # -phi first and every later row is divided by it.
        fib = IntMatrix([[0, 1], [1, 1]])
        assert GoldenNumber(0, -1).norm() < 0
        assert golden_kernel_vector(fib, PHI) == kernel_by_field_elimination(fib, PHI)
        assert golden_kernel_vector(fib, PHI) == [
            GoldenRational.of(GoldenNumber(-1, 1)), GoldenRational.of(GOLDEN_ONE)
        ]
        rng = random.Random(79)
        for _ in range(60):
            n = rng.randint(2, 6)
            M = IntMatrix([[rng.randint(0, 1) for _ in range(n)] for _ in range(n)])
            for lam in (PHI, GoldenNumber(1, -1), GoldenNumber(-1, 1)):
                assert golden_kernel_vector(M, lam) == kernel_by_field_elimination(M, lam)


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


FIB = [[0, 1], [1, 1]]


def _block_diagonal(*blocks):
    n = sum(len(b) for b in blocks)
    rows, at = [], 0
    for b in blocks:
        rows += [[0] * at + list(r) + [0] * (n - at - len(b)) for r in b]
        at += len(b)
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
        basis = DomainMatrix(shifted, (n, n), K).nullspace().to_list()
        ours = golden_kernel_vector(M, lam)
        if not basis:
            assert ours is None
            return None
        assert ours is not None
        v = [self.to_field(q) for q in ours]
        f = next(i for i in range(n) if v[i] != K.zero)
        if len(basis) == 1:
            w = basis[0]
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

    def test_irrational_eigenvalues_with_a_plane_of_eigenvectors(self):
        # block-diag(F, F) for F = [[0, 1], [1, 1]]: phi and 1 - phi are
        # eigenvalues, each with a plane of eigenvectors, and x is some
        # nonzero vector of that plane; 2 + phi is no eigenvalue.
        for M in (_block_diagonal(FIB, FIB), _permuted(_block_diagonal(FIB, FIB, [[2]]), 5)):
            for lam in (PHI, GoldenNumber(1, -1)):
                self.check_kernel(M, lam)
            assert self.check_kernel(M, GoldenNumber(2, 1)) is None

    def test_random_golden_blocks_with_repeated_roots(self):
        # P [[F, 0, 0], [C, F', 0], [C', C'', R]] P^T with F, F' taken from
        # matrices with the eigenvalues phi, 1 - phi (or their squares):
        # the eigenspace of such a root is a line or a plane, by the
        # coupling C; R is a random triangular block.  Only the irrational
        # guesses take the q(M) path.
        rng = random.Random(80)
        blocks = ([[0, 1], [1, 1]], [[1, 1], [1, 0]], [[1, 1], [1, 2]], [[2, 1], [1, 1]])
        for _ in range(15):
            F, G = rng.choice(blocks), rng.choice(blocks)
            m = rng.randint(0, 2)
            R = [[rng.randint(-1, 2) if j >= i else 0 for j in range(m)] for i in range(m)]
            rows = [F[0] + [0] * (2 + m), F[1] + [0] * (2 + m)]
            rows += [[rng.choice((0, 0, 1)) for _ in range(2)] + g + [0] * m for g in G]
            rows += [[rng.randint(-1, 1) for _ in range(4)] + r for r in R]
            M = _permuted(IntMatrix(rows), rng.randrange(1000))
            for lam in GUESSES + [GoldenNumber(2, 1), GoldenNumber(3, -1)]:
                if lam.b:
                    self.check_kernel(M, lam)


class TestIntegerKernelContract:
    """_integer_kernel(M, lambda) returns x, a nonzero vector of Z[phi]^n
    with M x == lambda x, or None when lambda is no eigenvalue."""

    def test_plane_eigenspace(self):
        M = _block_diagonal(FIB, FIB)
        for lam in (PHI, GoldenNumber(1, -1)):
            x = spectral._integer_kernel(M, lam)
            assert any(not g.is_zero() for g in x)
            assert golden_eigencheck(M, lam, x)

    def test_non_eigenvalues(self):
        M = _block_diagonal(FIB, FIB)
        for lam in (GoldenNumber(2, 1), PHI ** 2, GoldenNumber(2, 0)):
            assert spectral._integer_kernel(M, lam) is None

    def test_perron_vectors_of_omega_powers(self):
        M = incidence_matrix(builtin("omega").payload)
        for k in range(1, 6):
            A = _permuted(mat_pow(M, k), k)
            x = spectral._integer_kernel(A, PHI ** (2 * k))
            assert golden_eigencheck(A, PHI ** (2 * k), x)
            # A Perron vector: every entry has the same sign.
            assert all(float(g) > 0 for g in x) or all(float(g) < 0 for g in x)

    def test_non_square_matrix_refused(self):
        with pytest.raises(ValueError, match="not square"):
            spectral._integer_kernel(IntMatrix([[1, 2, 3], [4, 5, 6]]), PHI)
