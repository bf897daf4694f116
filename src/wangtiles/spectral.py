"""Exact integer and golden-ratio arithmetic for spectral verification.

A leaf module: it imports nothing from the package.  Everything is arbitrary
precision: matrices over the integers, polynomials over the integers, and
numbers a + b*phi in the quadratic ring Z[phi] with phi**2 = phi + 1.
Floating point appears only in ``perron``, the float Perron root from which
the exact eigenvalue is recognized, and in display helpers.

Exact eigenvectors come from fraction-free Gauss-Jordan elimination on
(a, b) integer pairs of Z[phi]: no fraction is formed while eliminating, and
the integer kernel vector is divided once, at the end, by its sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, sqrt
from operator import mul
from typing import Iterable, Optional, Sequence

PHI_FLOAT = (1 + sqrt(5)) / 2


class IntMatrix:
    """A matrix of Python integers; spectral operations require it square."""

    def __init__(self, rows: Iterable[Iterable[int]]):
        self.rows = tuple(tuple(int(x) for x in row) for row in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged rows")

    @property
    def n(self) -> int:
        if self.nrows != self.ncols:
            raise ValueError("matrix is not square")
        return self.nrows

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

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


class IntPolynomial:
    """Integer polynomial, coefficients ascending by degree."""

    def __init__(self, coeffs: Iterable[int]):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

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
        result = IntPolynomial([1])
        for _ in range(k):
            result = result * self
        return result

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"

    def pretty(self, var: str = "x") -> str:
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
                xk = var if k == 1 else f"{var}^{k}"
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


@dataclass(frozen=True)
class GoldenNumber:
    """Element a + b*phi of Z[phi], phi**2 = phi + 1."""

    a: int = 0
    b: int = 0

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
            raise ValueError("use GoldenRational for negative powers")
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


@dataclass(frozen=True)
class GoldenRational:
    """Quotient of a GoldenNumber by a positive integer, kept in lowest terms.

    Z[phi] is a PID in which phi is a unit, so quotients of golden numbers
    reduce to this shape after multiplying by the conjugate.
    """

    num: GoldenNumber = GOLDEN_ZERO
    den: int = 1

    def __post_init__(self):
        if self.den == 0:
            raise ZeroDivisionError("zero denominator")
        num, den = self.num, self.den
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
# recognize_golden accepts a + b*phi this close to the float value.
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
    v = [1.0] * M.n
    w = [sum(a * x for a, x in zip(row, v)) for row in M.rows]
    value = 0.0
    for _ in range(10000):
        norm = max(w)  # M is nonnegative and primitive, so w is positive
        v = [x / norm for x in w]
        w = [sum(a * x for a, x in zip(row, v)) for row in M.rows]
        rayleigh = sum(x * y for x, y in zip(v, w)) / sum(x * x for x in v)
        if abs(rayleigh - value) < PERRON_TOLERANCE:
            return rayleigh
        value = rayleigh
    return value


def recognize_golden(x: float, max_b: int = 64) -> Optional[GoldenNumber]:
    """Nearest a + b*phi with |b| <= max_b, if within GOLDEN_TOLERANCE.

    Candidates are tried by increasing |b| so the simplest representation
    wins.  Callers must verify the result exactly; this is only a guess.
    """
    for k in range(0, max_b + 1):
        for b in ((k,) if k == 0 else (k, -k)):
            a = round(x - b * PHI_FLOAT)
            if abs(a + b * PHI_FLOAT - x) < GOLDEN_TOLERANCE:
                return GoldenNumber(a, b)
    return None


def _integer_kernel(
    M: IntMatrix, eigenvalue: GoldenNumber
) -> Optional[tuple[GoldenNumber, list[GoldenNumber]]]:
    """(D, x) with x a nonzero solution of (M - lambda I) x = 0 in Z[phi], or None.

    Fraction-free Gauss-Jordan elimination (Bareiss 1968) on plain (a, b)
    pairs: each non-pivot row becomes (p*x - f*y) / q for the pivot p and the
    previous pivot q, and the division is exact in Z[phi].  It is done by
    multiplying by q's conjugate factor and dividing both coordinates by
    norm(q), which may be negative.  Rows whose entry in the pivot column is
    zero are updated too: skipping them would break the exactness of every
    later division.  At the end every pivot equals the last one, D, so the
    vector has D in the first free column and minus that column's entries at
    the pivots; x / D is the vector that elimination over the field gives.
    """
    n = M.n
    la, lb = eigenvalue.a, eigenvalue.b
    zero = (0, 0)
    rows = [[(a - la, -lb) if i == j else (a, 0) for j, a in enumerate(row)]
            for i, row in enumerate(M.rows)]
    pivots: list[int] = []
    qa, qb = 1, 0
    for c in range(n):
        r = len(pivots)
        # Each row is a nonzero multiple of the row that elimination over the
        # field Q(phi) would hold, so the zero patterns are the same; pivoting
        # on the sparsest row (first on ties) creates the least fill-in.
        candidates = [i for i in range(r, n) if rows[i][c] != zero]
        if not candidates:
            continue
        pivot = max(candidates, key=lambda i: rows[i].count(zero))
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        pa, pb = prow[c]
        ca, cb, norm = qa + qb, -qb, qa * qa + qa * qb - qb * qb
        for i in range(n):
            if i == r:
                continue
            fa, fb = rows[i][c]
            new = []
            for (xa, xb), (ya, yb) in zip(rows[i], prow):
                if not (xa or xb or ya or yb):
                    new.append(zero)  # (p*0 - f*0) / q
                    continue
                ta = pa * xa + pb * xb - fa * ya - fb * yb
                tb = pa * xb + pb * xa + pb * xb - fa * yb - fb * ya - fb * yb
                new.append(((ta * ca + tb * cb) // norm, (ta * cb + tb * ca + tb * cb) // norm))
            rows[i] = new
        pivots.append(c)
        qa, qb = pa, pb
    if len(pivots) == n:
        return None  # trivial kernel: not an eigenvalue
    free = next(c for c in range(n) if c not in pivots)
    x = [GOLDEN_ZERO] * n
    x[free] = GoldenNumber(qa, qb)
    for row, c in zip(rows, pivots):
        xa, xb = row[free]
        x[c] = GoldenNumber(-xa, -xb)
    return x[free], x


def exact_perron_frequencies(M: IntMatrix) -> tuple[GoldenNumber, list[GoldenRational]]:
    """Exact dominant eigenvalue in Z[phi] and right eigenvector scaled to sum 1.

    The eigenvalue is recognized from the float Perron value, and the kernel
    vector of M - lambda I is checked exactly, M x == lambda x in Z[phi],
    before it is normalized: if either check fails the function raises, it
    never returns an unverified guess.
    """
    value = perron(M)
    # If lam = a + b*phi is an eigenvalue of the integer matrix M, so is its
    # conjugate lam', and |lam'| <= lam; hence |b|*sqrt(5) = |lam - lam'| <= 2*lam.
    lam = recognize_golden(value, max(64, int(2 * value / sqrt(5)) + 1))
    if lam is None:
        raise ValueError(f"dominant eigenvalue {value} not recognized in Z[phi]")
    kernel = _integer_kernel(M, lam)
    if kernel is None:
        raise ValueError(f"{lam.pretty()} is not an exact eigenvalue")
    _, x = kernel
    if not golden_eigencheck(M, lam, x):
        raise ValueError(f"kernel vector fails M x == ({lam.pretty()}) x")
    total = GoldenRational.of(sum(x, GOLDEN_ZERO))
    if total.is_zero():
        raise ValueError("eigenvector sums to zero; cannot normalize")
    freqs = [GoldenRational.of(g) / total for g in x]
    if any(float(f) <= 0 for f in freqs):
        freqs = [-f for f in freqs]
    return lam, freqs
