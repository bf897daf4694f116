"""Exact integer and golden-ratio arithmetic for spectral verification.

It imports only core, for the Frozen value base.  Everything is arbitrary
precision: matrices over the integers, polynomials over the integers, and
numbers a + b*phi in the quadratic ring Z[phi] with phi**2 = phi + 1.
Floating point appears only in ``perron``, the float Perron root, in
``golden_candidates``, which proposes exact eigenvalues near it for the exact
kernel to decide, and in display helpers such as
``spectral_report``, the text of ``wangtiles spectral``.

Exact eigenvectors are found over the integers alone.  For an eigenvalue
lambda = a + b*phi with b != 0 and its conjugate lambda', fraction-free
elimination and back substitution find an integer kernel vector u of the
integer matrix q(M) = (M - lambda I)(M - lambda' I), and (M - lambda' I) u is
an eigenvector in Z[phi].  No fraction is formed while eliminating, and the
eigenvector is divided once, at the end, by its sum.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, sqrt
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

from .core import Frozen

PHI_FLOAT = (1 + sqrt(5)) / 2


class IntMatrix(Frozen):
    """A matrix of Python integers; spectral operations require it square."""

    __slots__ = ("rows", "nrows", "ncols")
    _fields = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)

    @property
    def n(self) -> int:
        if self.nrows != self.ncols:
            raise ValueError("matrix is not square")
        return self.nrows

    def __repr__(self) -> str:
        return f"IntMatrix({self.nrows}x{self.ncols})"

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self.rows[i]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.rows))
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
        )

    def transpose(self) -> "IntMatrix":
        return IntMatrix(zip(*self.rows))

    def is_nonnegative(self) -> bool:
        return all(a >= 0 for row in self.rows for a in row)


class IntPolynomial(Frozen):
    """Integer polynomial, coefficients ascending by degree."""

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return IntPolynomial(x + y for x, y in zip(a, b))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(-c for c in self.coeffs)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not self.coeffs or not other.coeffs:
            return IntPolynomial([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    def __pow__(self, k: int) -> "IntPolynomial":
        if k < 0:
            raise ValueError(f"negative exponent {k}: not a polynomial")
        result = IntPolynomial([1])
        for _ in range(k):
            result = result * self
        return result

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"

    def pretty(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if k == 0:
                body = f"{mag}"
            else:
                xk = "x" if k == 1 else f"x^{k}"
                body = xk if mag == 1 else f"{mag}*{xk}"
            parts.append(f"{sign} {body}" if parts else f"{sign}{body}")
        return " ".join(parts)


def char_poly(M: IntMatrix) -> IntPolynomial:
    """Characteristic polynomial det(xI - M) by the Berkowitz algorithm.

    Division-free, so every intermediate value is an exact integer.
    """
    n = M.n
    if n == 0:
        return IntPolynomial([1])
    A = [list(row) for row in M.rows]

    # vec holds the coefficients of det(xI - A_r) for the leading r x r
    # principal submatrix, highest degree first.
    vec = [1, -A[0][0]]
    for r in range(1, n):
        a = A[r][r]
        row = A[r][:r]       # R: row to the left of the pivot
        col = [A[i][r] for i in range(r)]  # C: column above the pivot
        sub = [A[i][:r] for i in range(r)]

        # Toeplitz column: [1, -a, -R C, -R S C, -R S^2 C, ...]
        toep = [1, -a]
        cur = col[:]
        for _ in range(r - 1):
            toep.append(-sum(map(mul, row, cur)))
            cur = [sum(map(mul, srow, cur)) for srow in sub]
        toep.append(-sum(map(mul, row, cur)))

        # The product of vec and toep, truncated to degree r + 1.
        new = [0] * (r + 2)
        for i, v in enumerate(vec):
            for k, t in enumerate(toep[: r + 2 - i], i):
                new[k] += v * t
        vec = new

    return IntPolynomial(reversed(vec))


def is_primitive(M: IntMatrix) -> Optional[int]:
    """Smallest k <= (n-1)**2 + 1 with M**k entrywise positive, else None.

    Requires a square nonnegative matrix; only the positivity pattern matters,
    so powers are computed over the boolean semiring (bitmask rows).
    """
    if not M.is_nonnegative():
        raise ValueError("matrix must be nonnegative")
    n = M.n
    if n == 0:
        return None
    base = [sum(1 << j for j, a in enumerate(row) if a > 0) for row in M.rows]
    full = (1 << n) - 1

    def bool_mul(X: list[int], Y: list[int]) -> list[int]:
        out = []
        for xrow in X:
            acc = 0
            rem = xrow
            while rem:
                j = (rem & -rem).bit_length() - 1
                acc |= Y[j]
                rem &= rem - 1
            out.append(acc)
        return out

    cur = base
    bound = (n - 1) * (n - 1) + 1
    for k in range(1, bound + 1):
        if all(r == full for r in cur):
            return k
        cur = bool_mul(cur, base)
    return None


class GoldenNumber(Frozen):
    """Element a + b*phi of Z[phi], phi**2 = phi + 1.

    A frozen value: equality and hashing go by (a, b).
    """

    __slots__ = _fields = ("a", "b")

    def __init__(self, a: int = 0, b: int = 0):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __add__(self, other: "GoldenNumber") -> "GoldenNumber":
        return GoldenNumber(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "GoldenNumber") -> "GoldenNumber":
        return GoldenNumber(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "GoldenNumber":
        return GoldenNumber(-self.a, -self.b)

    def __mul__(self, other: "GoldenNumber") -> "GoldenNumber":
        a, b, c, d = self.a, self.b, other.a, other.b
        return GoldenNumber(a * c + b * d, a * d + b * c + b * d)

    def __pow__(self, k: int) -> "GoldenNumber":
        if k < 0:
            raise ValueError(f"negative exponent {k}: only powers k >= 0 are taken")
        result = GoldenNumber(1, 0)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def scale(self, k: int) -> "GoldenNumber":
        return GoldenNumber(k * self.a, k * self.b)

    def conjugate_factor(self) -> "GoldenNumber":
        """g * g.conjugate_factor() == norm(g) as a rational integer."""
        return GoldenNumber(self.a + self.b, -self.b)

    def norm(self) -> int:
        return self.a * self.a + self.a * self.b - self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __float__(self) -> float:
        return self.a + self.b * PHI_FLOAT

    def __repr__(self) -> str:
        return f"GoldenNumber({self.a}, {self.b})"

    def pretty(self) -> str:
        if self.b == 0:
            return str(self.a)
        phi_part = "phi" if abs(self.b) == 1 else f"{abs(self.b)}*phi"
        if self.a == 0:
            return phi_part if self.b > 0 else f"-{phi_part}"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a} {sign} {phi_part}"


PHI = GoldenNumber(0, 1)
GOLDEN_ONE = GoldenNumber(1, 0)
GOLDEN_ZERO = GoldenNumber(0, 0)


class GoldenRational(Frozen):
    """Quotient of a GoldenNumber by a positive integer, kept in lowest terms.

    Z[phi] is a PID in which phi is a unit, so quotients of golden numbers
    reduce to this shape after multiplying by the conjugate.  A frozen value:
    equality and hashing go by (num, den).
    """

    __slots__ = _fields = ("num", "den")

    def __init__(self, num: GoldenNumber = GOLDEN_ZERO, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num, den = -num, -den
        g = gcd(gcd(abs(num.a), abs(num.b)), den)
        if g > 1:
            num = GoldenNumber(num.a // g, num.b // g)
            den //= g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def of(g: GoldenNumber) -> "GoldenRational":
        return GoldenRational(g, 1)

    def __add__(self, other: "GoldenRational") -> "GoldenRational":
        return GoldenRational(
            self.num.scale(other.den) + other.num.scale(self.den), self.den * other.den
        )

    def __sub__(self, other: "GoldenRational") -> "GoldenRational":
        return GoldenRational(
            self.num.scale(other.den) - other.num.scale(self.den), self.den * other.den
        )

    def __neg__(self) -> "GoldenRational":
        return GoldenRational(-self.num, self.den)

    def __mul__(self, other: "GoldenRational") -> "GoldenRational":
        return GoldenRational(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "GoldenRational") -> "GoldenRational":
        if other.is_zero():
            raise ZeroDivisionError("division by zero")
        n = other.num.norm()
        num = self.num * other.num.conjugate_factor()
        return GoldenRational(num.scale(other.den if n > 0 else -other.den), self.den * abs(n))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __float__(self) -> float:
        return float(self.num) / self.den

    def pretty(self) -> str:
        if self.den == 1:
            return self.num.pretty()
        return f"({self.num.pretty()})/{self.den}"


def golden_eigencheck(
    M: IntMatrix, eigenvalue: GoldenNumber, vector: Sequence[GoldenNumber], side: str = "right"
) -> bool:
    """Exact check of M v == lambda v (or v^T M == lambda v^T) in Z[phi]."""
    if len(vector) != M.n:
        raise ValueError("dimension mismatch")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    A = M if side == "right" else M.transpose()
    # A is an integer matrix, so A v splits into the integer parts A va and
    # the phi parts A vb; (la + lb phi)(a + b phi) = la a + lb b + (la b + lb (a + b)) phi.
    va, vb = [g.a for g in vector], [g.b for g in vector]
    la, lb = eigenvalue.a, eigenvalue.b
    return all(
        sum(map(mul, row, va)) == la * a + lb * b
        and sum(map(mul, row, vb)) == la * b + lb * (a + b)
        for row, a, b in zip(A.rows, va, vb)
    )


# perron stops once successive Rayleigh quotients differ by less than this.
PERRON_TOLERANCE = 1e-12
# golden_candidates yields a + b*phi this close to the float value.
GOLDEN_TOLERANCE = 1e-6


def perron(M: IntMatrix) -> float:
    """Perron root of a primitive matrix, as a float, by power iteration.

    Starts from the all-ones vector.  Each step scales the vector by its
    largest entry, multiplies it by M once and takes the Rayleigh quotient;
    the product is the next step's vector.  Stops when successive quotients
    differ by less than PERRON_TOLERANCE, or after 10,000 steps.  Refuses
    non-primitive input, whose dominant eigenvalue need not be simple.
    """
    if is_primitive(M) is None:
        raise ValueError("matrix is not primitive")
    return power_iteration(M)


def power_iteration(M: IntMatrix) -> float:
    """perron's iteration, for callers that have already decided that M is
    primitive and so need not decide it again."""
    v = [1.0] * M.n
    w = [sum(map(mul, row, v)) for row in M.rows]
    value = 0.0
    for _ in range(10000):
        norm = max(w)  # M is nonnegative and primitive, so w is positive
        v = [x / norm for x in w]
        w = [sum(map(mul, row, v)) for row in M.rows]
        rayleigh = sum(map(mul, v, w)) / sum(map(mul, v, v))
        if abs(rayleigh - value) < PERRON_TOLERANCE:
            return rayleigh
        value = rayleigh
    return value


def golden_candidates(x: float) -> Iterator[GoldenNumber]:
    """Each a + b*phi within GOLDEN_TOLERANCE of the Perron root x, with b in
    [0, 2x/sqrt(5)]; callers must verify each one exactly.

    If lam = a + b*phi is an eigenvalue of an integer matrix, so is its
    conjugate lam', and |lam'| <= lam; hence b*sqrt(5) = lam - lam' lies in
    [0, 2*lam].  First comes b = round(x/sqrt(5)), the b of a conjugate near
    0 (as for phi^n), then b = 0, an integer root, then b outward from the
    first value.  From 2**53 on, a float no longer tells consecutive integers
    apart, so nothing is yielded.
    """
    if x >= 2**53:
        return
    first, top = round(x / sqrt(5)), int(2 * x / sqrt(5)) + 1
    outward = (b for k in range(1, top + 1) for b in (first - k, first + k) if 0 < b <= top)
    for b in chain((first,), (0,) if first else (), outward):
        a = round(x - b * PHI_FLOAT)
        if abs(a + b * PHI_FLOAT - x) < GOLDEN_TOLERANCE:
            yield GoldenNumber(a, b)


def _fraction_free_kernel(rows: list[list[int]]) -> Optional[list[int]]:
    """A nonzero integer solution u of A u = 0, or None when the square
    integer matrix A, given as ``rows`` and overwritten, is nonsingular.

    Fraction-free forward elimination (Bareiss 1968): each row below the
    pivot becomes (p*x - f*y) // q for the pivot p and the previous pivot q,
    and the division is exact.  Rows whose entry in the pivot column is zero
    are updated too: skipping them would break the exactness of every later
    division.  Back substitution, from the last pivot row up, puts the last
    pivot D in the first free column and 0 in the others.  D is the pivot
    rows' and columns' determinant, so by Cramer's rule each division is
    exact; u / D is the vector that elimination over the field Q gives.
    """
    n = len(rows)
    pivots: list[int] = []
    q = 1
    for c in range(n):
        r = len(pivots)
        # Each row is a nonzero multiple of the row that elimination over the
        # field would hold, so the zero patterns are the same; pivoting on
        # the sparsest row (first on ties) creates the least fill-in.
        candidates = [i for i in range(r, n) if rows[i][c]]
        if not candidates:
            continue
        pivot = max(candidates, key=lambda i: rows[i].count(0))
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(r + 1, n):
            f = rows[i][c]
            rows[i] = [(p * x - f * y) // q for x, y in zip(rows[i], prow)]
        pivots.append(c)
        q = p
    if len(pivots) == n:
        return None
    free = next(c for c in range(n) if c not in pivots)
    u = [0] * n
    u[free] = q
    for row, c in zip(reversed(rows[: len(pivots)]), reversed(pivots)):
        u[c] = -sum(map(mul, row[c + 1 :], u[c + 1 :])) // row[c]
    return u


def _integer_kernel(M: IntMatrix, eigenvalue: GoldenNumber) -> Optional[list[GoldenNumber]]:
    """A nonzero solution x of (M - lambda I) x = 0 in Z[phi], or None when
    lambda is not an eigenvalue of M.  Every step is over the integers.

    For an integer lambda = a, x is the fraction-free kernel vector of
    M - a I.  For lambda = a + b*phi with b != 0, lambda and its conjugate
    lambda' = (a + b) - b*phi are the roots of t^2 - (2a + b) t + norm(lambda),
    so q(M) = (M - lambda I)(M - lambda' I) is an integer matrix, and
    x = (M - lambda' I) u for the fraction-free kernel vector u of q(M).
    Then (M - lambda I) x = q(M) u = 0, and x != 0: a rational u with
    (M - lambda' I) u = 0 would, by conjugation, also solve
    (M - lambda I) u = 0.  q(M) is singular exactly when lambda is an
    eigenvalue, since an integer matrix has lambda' as an eigenvalue exactly
    when it has lambda.

    When the kernel of M - lambda I is a line, x divided by its last nonzero
    entry is the vector that elimination over the field Q(phi) gives: 1 in
    the first free column, which is the last column where a kernel vector is
    nonzero.  For an irrational lambda whose eigenspace has dimension 2 or
    more, x is some nonzero vector of that eigenspace.
    """
    M.n  # raises ValueError unless M is square
    a, b = eigenvalue.a, eigenvalue.b
    if b == 0:
        u = _fraction_free_kernel(
            [[e - a if i == j else e for j, e in enumerate(row)] for i, row in enumerate(M.rows)]
        )
        return None if u is None else [GoldenNumber(e) for e in u]
    s, p = 2 * a + b, eigenvalue.norm()
    cols = list(zip(*M.rows))
    q = [
        [sum(map(mul, row, col)) - s * e + (p if i == j else 0)
         for j, (e, col) in enumerate(zip(row, cols))]
        for i, row in enumerate(M.rows)
    ]
    u = _fraction_free_kernel(q)
    if u is None:
        return None
    c = a + b
    return [GoldenNumber(sum(map(mul, row, u)) - c * e, b * e) for row, e in zip(M.rows, u)]


def exact_perron_frequencies(M: IntMatrix) -> tuple[GoldenNumber, list[GoldenRational]]:
    """Exact dominant eigenvalue in Z[phi] and right eigenvector scaled to sum 1.

    The eigenvalue is the first of golden_candidates(perron(M)) for which
    M - lambda I has a kernel vector in Z[phi], and that vector is checked
    exactly, M x == lambda x, before it is normalized: if no candidate is an
    eigenvalue or the check fails, the function raises; it never returns an
    unverified guess.
    """
    return _exact_perron(M, perron(M))


def _exact_perron(M: IntMatrix, value: float) -> tuple[GoldenNumber, list[GoldenRational]]:
    """exact_perron_frequencies from ``value``, the float Perron root of M."""
    for lam in golden_candidates(value):
        x = _integer_kernel(M, lam)
        if x is not None:
            break
    else:
        raise ValueError(f"dominant eigenvalue {value} not recognized in Z[phi]")
    if not golden_eigencheck(M, lam, x):
        raise ValueError(f"kernel vector fails M x == ({lam.pretty()}) x")
    total = GoldenRational.of(sum(x, GOLDEN_ZERO))
    if total.is_zero():
        raise ValueError("eigenvector sums to zero; cannot normalize")
    freqs = [GoldenRational.of(g) / total for g in x]
    if any(float(f) <= 0 for f in freqs):
        freqs = [-f for f in freqs]
    return lam, freqs


def spectral_report(M: IntMatrix) -> str:
    """The text of ``wangtiles spectral``: the characteristic polynomial, the
    primitivity exponent and, for a primitive M, the float Perron root and
    the exact eigenvalue and frequencies (or why they are unavailable).

    Primitivity is decided once and the power iteration runs once; both feed
    the exact path.
    """
    poly = char_poly(M)
    lines = [
        f"characteristic polynomial: {poly.pretty()}",
        f"coefficients (ascending): {list(poly.coeffs)}",
    ]
    exponent = is_primitive(M)
    lines.append(f"primitivity exponent: {exponent}")
    if exponent is not None:
        value = power_iteration(M)
        lines.append(f"dominant eigenvalue: {value:.12f}")
        try:
            lam, freqs = _exact_perron(M, value)
            lines.append(f"exact eigenvalue: {lam.pretty()}")
            lines.append("frequencies (exact = decimal):")
            for i, f in enumerate(freqs):
                lines.append(f"  {i:>3}: {f.pretty():>18} = {float(f):.6f}")
        except ValueError as e:
            lines.append(f"exact frequencies unavailable: {e}")
    return "\n".join(lines) + "\n"
