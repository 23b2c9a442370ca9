"""Exact arithmetic in cyclotomic fields Q(zeta_N) and imaginary quadratic fields.

Cyclotomic elements are stored as Fraction coefficient vectors on the power
basis 1, zeta, ..., zeta^(phi(N)-1) modulo the N-th cyclotomic polynomial.
Quadratic elements a + b*sqrt(-D) keep a, b as Fractions.  Hermitian matrices
over the quadratic field support exact minors, definiteness tests and a
bounded-trace enumerator.  Minors are computed on integers: a matrix is
scaled by the common denominator of its entries, its determinant expanded
over Z[sqrt(-D)], and one Fraction division made at the end (Cohen, A Course
in Computational Algebraic Number Theory, section 4).  A HermitianMatrix
keeps that integer image and memoizes its minors, and the enumerator tests
semidefiniteness on integers before it builds a candidate.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
import cmath
import itertools
import threading

from .errors import ResourceBoundError


def euler_phi(n):
    result = n
    m = n
    q = 2
    while q * q <= m:
        if m % q == 0:
            while m % q == 0:
                m //= q
            result -= result // q
        q += 1
    if m > 1:
        result -= result // m
    return result


def factorize(n):
    """Prime factorization of a positive integer as a dict prime -> exponent."""
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    out = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def valuation(x, p):
    """p-adic valuation of a nonzero int or Fraction."""
    if x == 0:
        raise ValueError("valuation of zero")
    n, d = x.numerator, x.denominator
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def _poly_divmod_monic(num, den):
    """Divide integer polynomial num by monic integer polynomial den exactly."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            quot[i - dd] = c
            for j, dj in enumerate(den):
                num[i - dd + j] -= c * dj
    if any(num[:dd]):
        raise ArithmeticError("inexact polynomial division")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_poly(n):
    """Integer coefficients of the n-th cyclotomic polynomial, low degree first."""
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num = _poly_divmod_monic(num, cyclotomic_poly(d))
    return tuple(num)


_POWER_TABLES = {}
_POWER_TABLES_LOCK = threading.Lock()


def _power_table(n, upto):
    """Rows j = 0..upto-1: integer vector of x^j mod Phi_n on the power basis."""
    table = _POWER_TABLES.get(n)
    if table is not None and len(table) >= upto:
        return table
    with _POWER_TABLES_LOCK:
        phi = euler_phi(n)
        table = _POWER_TABLES.get(n)
        if table is None:
            table = [tuple(1 if i == j else 0 for i in range(phi))
                     for j in range(phi)]
            _POWER_TABLES[n] = table
        poly = cyclotomic_poly(n)
        while len(table) < upto:
            prev = table[-1]
            shifted = [0] + list(prev[:-1])
            top = prev[-1]
            if top:
                # x^phi = -(poly[0] + ... + poly[phi-1] x^(phi-1))
                for i in range(phi):
                    shifted[i] -= top * poly[i]
            table.append(tuple(shifted))
    return table


def reduce_powers(level, dense):
    """Power-basis coefficients of sum_e dense[e] x^e modulo Phi_level."""
    table = _power_table(level, len(dense))
    phi = len(table[0])
    out = [0] * phi
    for e, c in enumerate(dense):
        if c:
            row = table[e]
            for j in range(phi):
                if row[j]:
                    out[j] += c * row[j]
    return out


class CycNumber:
    """An element of Q(zeta_level) with exact Fraction coefficients."""

    __slots__ = ("level", "coeffs")

    def __init__(self, level, coeffs):
        phi = euler_phi(level)
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != phi:
            raise ValueError("expected %d coefficients at level %d" % (phi, level))
        self.level = level
        self.coeffs = coeffs

    @classmethod
    def from_rational(cls, x, level=1):
        x = Fraction(x)
        phi = euler_phi(level)
        return cls(level, (x,) + (Fraction(0),) * (phi - 1))

    @classmethod
    def zero(cls, level=1):
        return cls.from_rational(0, level)

    @classmethod
    def one(cls, level=1):
        return cls.from_rational(1, level)

    @classmethod
    def root_of_unity(cls, n, k=1):
        """zeta_n^k as an element of Q(zeta_n)."""
        k %= n
        row = _power_table(n, n)[k]
        return cls(n, [Fraction(c) for c in row])

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_rational(self):
        return all(c == 0 for c in self.coeffs[1:])

    def rational(self):
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.coeffs[0]

    def lift(self, m):
        """Rewrite at level m, a multiple of the current level."""
        if m == self.level:
            return self
        if m % self.level:
            raise ValueError("can only lift to a multiple of the level")
        step = m // self.level
        dense = [0] * ((len(self.coeffs) - 1) * step + 1)
        dense[::step] = self.coeffs
        return CycNumber(m, reduce_powers(m, dense))

    def _pair(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycNumber.from_rational(other, self.level)
        if not isinstance(other, CycNumber):
            return NotImplemented, NotImplemented
        if self.level == other.level:
            return self, other
        m = lcm(self.level, other.level)
        return self.lift(m), other.lift(m)

    def __add__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return CycNumber(a.level, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycNumber(self.level, [-c for c in self.coeffs])

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return CycNumber(a.level, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        phi = len(a.coeffs)
        da = lcm(*[c.denominator for c in a.coeffs]) if phi > 1 else a.coeffs[0].denominator
        db = lcm(*[c.denominator for c in b.coeffs]) if phi > 1 else b.coeffs[0].denominator
        ia = [int(c * da) for c in a.coeffs]
        ib = [int(c * db) for c in b.coeffs]
        conv = [0] * (2 * phi - 1)
        for i, x in enumerate(ia):
            if x:
                for j, y in enumerate(ib):
                    if y:
                        conv[i + j] += x * y
        den = da * db
        return CycNumber(a.level, [Fraction(c, den)
                                   for c in reduce_powers(a.level, conv)])

    __rmul__ = __mul__

    def galois(self, a):
        """Apply the automorphism zeta -> zeta^a; a must be a unit mod level."""
        n = self.level
        a %= n
        if gcd(a, n) != 1:
            raise ValueError("galois exponent must be coprime to the level")
        dense = [0] * n
        for i, c in enumerate(self.coeffs):
            dense[i * a % n] = c
        return CycNumber(n, reduce_powers(n, dense))

    def conj(self):
        """Complex conjugation, zeta -> zeta^-1."""
        return self.galois(self.level - 1) if self.level > 1 else self

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        if self.is_rational():
            return CycNumber.from_rational(1 / self.coeffs[0], self.level)
        phi_poly = [Fraction(c) for c in cyclotomic_poly(self.level)]
        # extended euclid over Q[x]: s*self + t*Phi = gcd (a nonzero constant)
        r0, r1 = phi_poly, list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(c != 0 for c in r1):
            q, rem = _frac_poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _frac_poly_sub(s0, _frac_poly_mul(q, s1))
        while len(r0) > 1 and r0[-1] == 0:
            r0.pop()
        if len(r0) != 1:
            raise ArithmeticError("element not invertible modulo cyclotomic polynomial")
        g = r0[0]
        # reduce s0 mod Phi in case degree crept up
        return CycNumber(self.level,
                         reduce_powers(self.level, [c / g for c in s0]))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError
            return self * (Fraction(1) / Fraction(other))
        if not isinstance(other, CycNumber):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return CycNumber.from_rational(other) / self

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        base = self
        if e < 0:
            base = self.inverse()
            e = -e
        acc = CycNumber.one(self.level)
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycNumber.from_rational(other)
        if not isinstance(other, CycNumber):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    __hash__ = None

    def descend(self, m):
        """Rewrite at level m dividing the current level, or return None."""
        if self.level % m:
            raise ValueError("target level must divide the current level")
        if m == self.level:
            return self
        basis = [CycNumber.root_of_unity(m, j).lift(self.level).coeffs
                 for j in range(euler_phi(m))]
        sol = _solve_linear(basis, self.coeffs)
        if sol is None:
            return None
        return CycNumber(m, sol)

    def complex_value(self, k=1):
        """Numerical value under zeta_level -> exp(2*pi*i*k/level)."""
        z = cmath.exp(2j * cmath.pi * k / self.level)
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + complex(c)
        return acc

    def to_json(self):
        return {"level": self.level,
                "coeffs": ["%d/%d" % (c.numerator, c.denominator) for c in self.coeffs]}

    def __repr__(self):
        return "CycNumber(level=%d, coeffs=%s)" % (self.level, list(self.coeffs))


def _frac_poly_divmod(a, b):
    a = list(a)
    while len(b) > 1 and b[-1] == 0:
        b = b[:-1]
    db = len(b) - 1
    q = [Fraction(0)] * max(len(a) - db, 1)
    for i in range(len(a) - 1, db - 1, -1):
        if a[i]:
            c = a[i] / b[-1]
            q[i - db] = c
            for j in range(db + 1):
                a[i - db + j] -= c * b[j]
    return q, a[:db] if db else [Fraction(0)]


def _frac_poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _frac_poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _solve_linear(columns, target):
    """Solve sum_j y_j columns[j] = target over Fractions, or return None."""
    rows = len(target)
    ncols = len(columns)
    mat = [[Fraction(columns[j][i]) for j in range(ncols)] + [Fraction(target[i])]
           for i in range(rows)]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, rows) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(rows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        sol[c] = mat[i][ncols]
    for i in range(rows):
        lhs = sum(sol[j] * columns[j][i] for j in range(ncols))
        if lhs != target[i]:
            return None
    return sol


def _legendre(a, q):
    a %= q
    if a == 0:
        return 0
    return 1 if pow(a, (q - 1) // 2, q) == 1 else -1


@lru_cache(maxsize=None)
def sqrt_minus_d(D):
    """A CycNumber v with v*v == -D, for squarefree D >= 1."""
    fac = factorize(D)
    if any(e > 1 for e in fac.values()):
        raise ValueError("D must be squarefree")
    prod = CycNumber.one()
    n_three = 0
    for q in sorted(fac):
        if q == 2:
            t = CycNumber.root_of_unity(8, 1) - CycNumber.root_of_unity(8, 3)
        else:
            t = CycNumber.zero(q)
            for a in range(1, q):
                s = _legendre(a, q)
                t = t + s * CycNumber.root_of_unity(q, a)
            if q % 4 == 3:
                n_three += 1
        prod = prod * t
    if n_three % 2 == 0:
        prod = prod * CycNumber.root_of_unity(4, 1)
    assert prod * prod == -D
    return prod


def quad_to_cyc(x):
    """Embed a + b*sqrt(-D) into a cyclotomic field via the Gauss-sum square root."""
    return CycNumber.from_rational(x.a) + x.b * sqrt_minus_d(x.D)


@dataclass(frozen=True)
class QuadFieldElem:
    """a + b*sqrt(-D) with rational a, b."""

    a: Fraction
    b: Fraction
    D: int

    @classmethod
    def make(cls, a, b, D):
        return cls(Fraction(a), Fraction(b), D)

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadFieldElem(Fraction(other), Fraction(0), self.D)
        if isinstance(other, QuadFieldElem):
            if other.D != self.D:
                raise ValueError("mixed quadratic fields")
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadFieldElem(self.a + o.a, self.b + o.b, self.D)

    __radd__ = __add__

    def __neg__(self):
        return QuadFieldElem(-self.a, -self.b, self.D)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadFieldElem(self.a - o.a, self.b - o.b, self.D)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadFieldElem(self.a * o.a - self.D * self.b * o.b,
                             self.a * o.b + self.b * o.a, self.D)

    __rmul__ = __mul__

    def conj(self):
        return QuadFieldElem(self.a, -self.b, self.D)

    def norm(self):
        return self.a * self.a + self.D * self.b * self.b

    def trace(self):
        return 2 * self.a

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def is_rational(self):
        return self.b == 0

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError
        return QuadFieldElem(self.a / n, -self.b / n, self.D)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        acc = QuadFieldElem(Fraction(1), Fraction(0), self.D)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def to_json(self):
        return ["%d/%d" % (self.a.numerator, self.a.denominator),
                "%d/%d" % (self.b.numerator, self.b.denominator)]


def quad_det(rows):
    """Determinant of a square matrix of QuadFieldElem: Laplace expansion
    over Z[sqrt(-D)] after clearing the common denominator of the entries."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    D = rows[0][0].D
    den, image = HermitianMatrix._integer_image(rows)
    A, B = HermitianMatrix._int_minor(image, D, range(n), range(n))
    scale = den ** n
    return QuadFieldElem(Fraction(A, scale), Fraction(B, scale), D)


class HermitianMatrix:
    """Hermitian n x n matrix over Q(sqrt(-D)) with rational diagonal.

    The constructor also builds the integer image of the matrix: the common
    denominator den of all entry parts, and each entry a + b*sqrt(-D) as the
    integer pair (a*den, b*den).  Minors are expanded on that image and
    memoized per instance, so each distinct minor is computed once for all
    callers.  The cache does not enter equality or hashing; a matrix must not
    be mutated after construction.
    """

    __slots__ = ("D", "n", "entries", "_den", "_image", "_minors")

    def __init__(self, D, rows):
        self.D = D
        rows = tuple(tuple(self._entry_coerce(e) for e in row) for row in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        den, image = self._integer_image(rows)
        for i in range(n):
            if image[i][i][1]:
                raise ValueError("diagonal must be rational")
            for j in range(i + 1, n):
                a, b = image[i][j]
                if image[j][i] != (a, -b):
                    raise ValueError("matrix must be hermitian")
        self.n = n
        self.entries = rows
        self._den = den
        self._image = image
        self._minors = {}

    def _entry_coerce(self, e):
        if isinstance(e, QuadFieldElem):
            if e.D != self.D:
                raise ValueError("mixed quadratic fields")
            return e
        if isinstance(e, (int, Fraction)):
            return QuadFieldElem(Fraction(e), Fraction(0), self.D)
        if isinstance(e, tuple) and len(e) == 2:
            return QuadFieldElem(Fraction(e[0]), Fraction(e[1]), self.D)
        raise TypeError("bad matrix entry %r" % (e,))

    @staticmethod
    def _integer_image(rows):
        """(den, image): den the common denominator of the entry parts and
        image the entries a + b*sqrt(-D) as integer pairs (a*den, b*den)."""
        den = lcm(*(x.denominator for row in rows for e in row
                    for x in (e.a, e.b)))
        image = tuple(tuple((e.a.numerator * (den // e.a.denominator),
                             e.b.numerator * (den // e.b.denominator))
                            for e in row) for row in rows)
        return den, image

    @staticmethod
    def _int_minor(image, D, rows, cols):
        """The minor on rows x cols of a matrix of integer pairs (a, b),
        each standing for a + b*sqrt(-D), as a pair (A, B): Laplace
        expansion along the first row, (a, b)(c, d) = (ac - Dbd, ad + bc)."""
        def expand(rows, cols):
            row = image[rows[0]]
            if len(rows) == 1:
                return row[cols[0]]
            rest = rows[1:]
            A = B = 0
            for j, c in enumerate(cols):
                a, b = row[c]
                if a or b:
                    ma, mb = expand(rest, cols[:j] + cols[j + 1:])
                    if j & 1:
                        a, b = -a, -b
                    A += a * ma - D * b * mb
                    B += a * mb + b * ma
            return A, B
        return expand(tuple(rows), tuple(cols))

    def entry(self, i, j):
        return self.entries[i][j]

    def submatrix(self, rows, cols):
        return [[self.entries[i][j] for j in cols] for i in rows]

    def minor(self, rows, cols):
        """Determinant of the rows x cols block, computed once per block."""
        key = (tuple(rows), tuple(cols))
        m = self._minors.get(key)
        if m is None:
            k = len(key[0])
            if k == 0 or k != len(key[1]):
                raise ValueError("a minor needs equal, nonempty row and "
                                 "column sets")
            A, B = self._int_minor(self._image, self.D, *key)
            scale = self._den ** k
            m = QuadFieldElem(Fraction(A, scale), Fraction(B, scale), self.D)
            self._minors[key] = m
        return m

    def leading_minors(self):
        """Determinants of the leading principal k x k blocks, k = 1..n."""
        out = []
        for k in range(1, self.n + 1):
            d = self.minor(range(k), range(k))
            assert d.b == 0
            out.append(d.a)
        return out

    def det(self):
        if not self.n:
            return Fraction(1)
        return self.minor(range(self.n), range(self.n)).a

    def trace(self):
        return sum(self.entries[i][i].a for i in range(self.n))

    def is_positive_definite(self):
        return all(m > 0 for m in self.leading_minors())

    def is_positive_semidefinite(self):
        for size in range(1, self.n + 1):
            for idx in itertools.combinations(range(self.n), size):
                d = self.minor(idx, idx)
                assert d.b == 0
                if d.a < 0:
                    return False
        return True

    def __eq__(self, other):
        return (isinstance(other, HermitianMatrix) and self.D == other.D
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.D, self.entries))

    def to_json(self):
        return {"n": self.n, "D": self.D,
                "entries": [[e.to_json() for e in row] for row in self.entries]}

    def __repr__(self):
        return "HermitianMatrix(D=%d, entries=%r)" % (self.D, self.entries)


def enumerate_hermitian(n, D, trace_bound, dual_scale=1, cap=200000):
    """Yield positive semidefinite hermitian matrices with bounded integer trace.

    Diagonal entries are nonnegative integers with sum <= trace_bound;
    off-diagonal entries run over (a + b*sqrt(-D))/dual_scale with integer a, b
    constrained by the 2x2 minor bound, which makes every principal minor of
    size 1 or 2 nonnegative.  The larger principal minors are tested on the
    integer matrix dual_scale * beta before a candidate is built.  The cap
    counts every candidate examined.  Deterministic order.
    """
    s = dual_scale
    s2 = s * s
    examined = 0
    diag_tuples = [d for d in itertools.product(range(trace_bound + 1), repeat=n)
                   if sum(d) <= trace_bound]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    screened = [idx for size in range(3, n + 1)
                for idx in itertools.combinations(range(n), size)]
    int_minor = HermitianMatrix._int_minor
    for diag in diag_tuples:
        ranges = []
        for (i, j) in pairs:
            bound = s2 * diag[i] * diag[j]
            opts = []
            amax = _isqrt(bound)
            for a in range(-amax, amax + 1):
                rem = bound - a * a
                bmax = _isqrt(rem // D) if rem >= 0 else -1
                for b in range(-bmax, bmax + 1):
                    if a * a + D * b * b <= bound:
                        x = QuadFieldElem(Fraction(a, s), Fraction(b, s), D)
                        opts.append(((a, b), (a, -b), x, x.conj()))
            ranges.append(opts)
        image = [[(s * diag[i], 0) if i == j else None for j in range(n)]
                 for i in range(n)]
        rows = [[QuadFieldElem(Fraction(diag[i]), Fraction(0), D)
                 if i == j else None for j in range(n)] for i in range(n)]
        for combo in itertools.product(*ranges):
            examined += 1
            if examined > cap:
                raise ResourceBoundError("enumeration cap %d exceeded" % cap)
            for (i, j), opt in zip(pairs, combo):
                image[i][j], image[j][i], rows[i][j], rows[j][i] = opt
            if any(int_minor(image, D, idx, idx)[0] < 0 for idx in screened):
                continue
            yield HermitianMatrix(D, rows)


def _isqrt(x):
    if x < 0:
        return -1
    r = int(x ** 0.5)
    while r * r > x:
        r -= 1
    while (r + 1) * (r + 1) <= x:
        r += 1
    return r
