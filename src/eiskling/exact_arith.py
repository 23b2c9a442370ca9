"""Exact arithmetic in cyclotomic fields Q(zeta_N) and Hermitian matrices
over imaginary quadratic fields Q(sqrt(-D)).

A cyclotomic element is an integer vector over one positive denominator on the
power basis 1, zeta, ..., zeta^(phi(N)-1) modulo the N-th cyclotomic
polynomial, kept coprime to that denominator, as number-field elements are
stored by FLINT/Antic (nf_elem; Cohen, A Course in Computational Algebraic
Number Theory, section 4).  An element a + b*sqrt(-D) of the quadratic field
is an integer pair (a, b) over a denominator; it enters a cyclotomic field
only through sqrt_minus_d.  A Hermitian matrix is stored as its integer
image and its determinant: the lowest common denominator den of its entry
parts, each entry as the integer pair (a*den, b*den), and det as a Fraction
made once.  Its minors are expanded on that image over Z[sqrt(-D)] on every
call and read as integers (A, B, den^k) through HermitianMatrix.int_minor.
The bounded-trace enumerator screens candidates on integers and hands each
one it yields its image and, for n >= 3, the full principal minor its
screen computed, with no Fraction in between.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
import itertools

from .errors import ResourceBoundError


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


@lru_cache(maxsize=None)
def euler_phi(n):
    result = n
    for q in factorize(n):
        result -= result // q
    return result


def kronecker_symbol(a, q):
    """The Kronecker symbol (a/q) at a prime q: Euler's criterion
    a^((q-1)/2) mod q at an odd q, and at q = 2 the value 0 for even a, 1
    for a = +-1 mod 8 and -1 for a = +-3 mod 8."""
    if q == 2:
        return 0 if a % 2 == 0 else 1 if a % 8 in (1, 7) else -1
    e = pow(a, (q - 1) // 2, q)
    return -1 if e == q - 1 else e


def is_prime(n):
    return n >= 2 and factorize(n) == {n: 1}


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


def _power_table(n, upto):
    """Rows j = 0..upto-1: integer vector of x^j mod Phi_n on the power basis.
    A level above CYCLOTOMIC_LEVEL_CAP raises ResourceBoundError: the table
    of zeta_n alone holds n rows of phi(n) ints."""
    if n > CYCLOTOMIC_LEVEL_CAP:
        raise ResourceBoundError("cyclotomic level %d exceeds the cap %d"
                                 % (n, CYCLOTOMIC_LEVEL_CAP))
    table = _POWER_TABLES.get(n)
    if table is not None and len(table) >= upto:
        return table
    phi = euler_phi(n)
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
    out = list(dense[:phi])
    out += [0] * (phi - len(out))
    for e in range(phi, len(dense)):
        c = dense[e]
        if c:
            for j, x in enumerate(table[e]):
                if x:
                    out[j] += c * x
    return out


class CycNumber:
    """An element of Q(zeta_level), immutable.

    Stored as (level, nums, den): the element is
    (nums[0] + nums[1] zeta + ... + nums[phi-1] zeta^(phi-1)) / den on the
    power basis modulo the level-th cyclotomic polynomial, where nums is a
    tuple of ints, den a positive int and gcd(den, *nums) == 1.  Every element
    therefore has one representation at its level (zero is all zeros over 1),
    and equality at a common level is tuple equality.  Arithmetic stays on
    integers: a product is one convolution, one reduction modulo the
    cyclotomic polynomial and one gcd.
    """

    __slots__ = ("level", "nums", "den")

    def __init__(self, level, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != euler_phi(level):
            raise ValueError("expected %d coefficients at level %d"
                             % (euler_phi(level), level))
        # each coefficient is in lowest terms, so the numerators scaled to
        # the common denominator are already coprime to it
        den = lcm(*[c.denominator for c in coeffs])
        self.level = level
        self.nums = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self.den = den

    @classmethod
    def from_integers(cls, level, nums, den=1):
        """(nums[0] + nums[1] zeta + ...) / den for phi(level) ints nums and
        a nonzero int den, brought to the reduced form."""
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        x = object.__new__(cls)
        x.level = level
        if g == 1:
            x.nums = tuple(nums)
            x.den = den
        else:
            x.nums = tuple(c // g for c in nums)
            x.den = den // g
        return x

    @classmethod
    def from_rational(cls, x, level=1):
        if not isinstance(x, int):
            x = Fraction(x)
        return cls.from_integers(
            level, (x.numerator,) + (0,) * (euler_phi(level) - 1),
            x.denominator)

    @classmethod
    def zero(cls, level=1):
        return cls.from_rational(0, level)

    @classmethod
    def one(cls, level=1):
        return cls.from_rational(1, level)

    @classmethod
    def root_of_unity(cls, n, k=1):
        """zeta_n^k as an element of Q(zeta_n)."""
        if n < 1:
            raise ValueError("a root of unity needs an order n >= 1")
        return cls.from_integers(n, _power_table(n, n)[k % n])

    def is_zero(self):
        return not any(self.nums)

    def is_rational(self):
        return not any(self.nums[1:])

    def rational(self):
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.nums[0], self.den)

    def lift(self, m):
        """Rewrite at level m, a multiple of the current level."""
        if m == self.level:
            return self
        if m % self.level:
            raise ValueError("can only lift to a multiple of the level")
        step = m // self.level
        dense = [0] * ((len(self.nums) - 1) * step + 1)
        dense[::step] = self.nums
        return CycNumber.from_integers(m, reduce_powers(m, dense), self.den)

    def _pair(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycNumber.from_rational(other, self.level)
        if not isinstance(other, CycNumber):
            return NotImplemented, NotImplemented
        if self.level == other.level:
            return self, other
        m = lcm(self.level, other.level)
        return self.lift(m), other.lift(m)

    def _combine(self, other, sign):
        """self + sign * other, at the least common level."""
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        da, db = a.den, b.den
        if da == db:
            nums = [x + sign * y for x, y in zip(a.nums, b.nums)]
        else:
            g = gcd(da, db)
            fa, fb = db // g, sign * (da // g)
            nums = [x * fa + y * fb for x, y in zip(a.nums, b.nums)]
            da *= fa
        return CycNumber.from_integers(a.level, nums, da)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return CycNumber.from_integers(self.level, [-c for c in self.nums],
                                       self.den)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return a._mul(b)

    __rmul__ = __mul__

    def _mul(self, other):
        """The product with an element of the same level."""
        x, y = self.nums, other.nums
        if not any(y[1:]):
            c = y[0]
            nums = [c * u for u in x]
        elif not any(x[1:]):
            c = x[0]
            nums = [c * v for v in y]
        else:
            conv = [0] * (2 * len(x) - 1)
            for i, u in enumerate(x):
                if u:
                    for j, v in enumerate(y, i):
                        conv[j] += u * v
            nums = reduce_powers(self.level, conv)
        return CycNumber.from_integers(self.level, nums, self.den * other.den)

    def galois(self, a):
        """Apply the automorphism zeta -> zeta^a; a must be a unit mod level."""
        n = self.level
        a %= n
        if gcd(a, n) != 1:
            raise ValueError("galois exponent must be coprime to the level")
        dense = [0] * n
        for i, c in enumerate(self.nums):
            dense[i * a % n] = c
        return CycNumber.from_integers(n, reduce_powers(n, dense), self.den)

    def conj(self):
        """Complex conjugation, zeta -> zeta^-1."""
        return self.galois(self.level - 1) if self.level > 1 else self

    def inverse(self):
        """1/x as the product of the other Galois conjugates of x divided by
        the norm, the rational product of all of them."""
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        n = self.level
        if self.is_rational():
            return CycNumber.from_rational(Fraction(self.den, self.nums[0]), n)
        acc = CycNumber.one(n)
        for a in range(2, n):
            if gcd(a, n) == 1:
                acc = acc._mul(self.galois(a))
        norm = acc._mul(self)
        return CycNumber.from_integers(
            n, [c * norm.den for c in acc.nums], acc.den * norm.nums[0])

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
            return (self.den == other.denominator
                    and self.nums[0] == other.numerator and self.is_rational())
        if not isinstance(other, CycNumber):
            return NotImplemented
        a, b = self._pair(other)
        return a.den == b.den and a.nums == b.nums

    __hash__ = None

    def descend(self, m):
        """Rewrite at level m, or return None when the element is not in
        Q(zeta_m).  m must divide the level n and be coprime to q = n/m.

        With A = q^-1 mod m, zeta_n = zeta_m^A zeta_q^B for a unit B mod q.
        The average over Gal(Q(zeta_n)/Q(zeta_m)) fixes zeta_m and sends
        zeta_q^(B i) to the Ramanujan sum c_q(i)/phi(q) = mu(d)/phi(d),
        d = q/gcd(i, q), so it is one vector at level m.  The average is the
        element itself exactly when the element descends."""
        n = self.level
        if n % m:
            raise ValueError("target level must divide the current level")
        q = n // m
        if gcd(m, q) != 1:
            raise ValueError("target level must be coprime to its cofactor")
        if q == 1:
            return self
        a = pow(q, -1, m)
        weights = _ramanujan_weights(q)
        dense = [0] * m
        for i, c in enumerate(self.nums):
            if c:
                dense[a * i % m] += c * weights[i % q]
        y = CycNumber.from_integers(m, reduce_powers(m, dense),
                                    self.den * euler_phi(q))
        return y if y.lift(n) == self else None

    def to_json(self):
        """The coefficients as reduced "a/b" strings, the sign on a."""
        den = self.den
        return {"level": self.level,
                "coeffs": ["%d/%d" % (c // g, den // g)
                           for c in self.nums for g in (gcd(c, den),)]}

    def __repr__(self):
        return "CycNumber(level=%d, nums=%s, den=%d)" % (
            self.level, list(self.nums), self.den)


@lru_cache(maxsize=None)
def _ramanujan_weights(q):
    """The integers c_q(j) = mu(d) phi(q)/phi(d), d = q/gcd(j, q), for
    j = 0..q-1: the sums of zeta_q^(a j) over the units a mod q."""
    phi = euler_phi(q)
    out = []
    for j in range(q):
        d = q // gcd(j, q)
        fac = factorize(d)
        mu = 0 if any(e > 1 for e in fac.values()) else (-1) ** len(fac)
        out.append(mu * phi // euler_phi(d))
    return tuple(out)


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
                s = kronecker_symbol(a, q)
                t = t + s * CycNumber.root_of_unity(q, a)
            if q % 4 == 3:
                n_three += 1
        prod = prod * t
    if n_three % 2 == 0:
        prod = prod * CycNumber.root_of_unity(4, 1)
    assert prod * prod == -D
    return prod


def _int_minor(image, D, rows, cols):
    """The minor on the tuples rows x cols of a matrix of integer pairs
    (a, b), each standing for a + b*sqrt(-D), as a pair (A, B), with
    (a, b)(c, d) = (ac - Dbd, ad + bc).  A 1 x 1 block is its entry and a
    2 x 2 block is written out as a product difference; a larger block is
    expanded along its first row (Laplace), down to the 2 x 2 blocks."""
    if len(rows) == 2:
        top, bottom = image[rows[0]], image[rows[1]]
        c0, c1 = cols
        a, b = top[c0]
        c, d = bottom[c1]
        e, f = top[c1]
        g, h = bottom[c0]
        return (a * c - D * b * d - e * g + D * f * h,
                a * d + b * c - e * h - f * g)
    row = image[rows[0]]
    if len(rows) == 1:
        return row[cols[0]]
    rest = rows[1:]
    A = B = 0
    for j, c in enumerate(cols):
        a, b = row[c]
        if a or b:
            ma, mb = _int_minor(image, D, rest, cols[:j] + cols[j + 1:])
            if j & 1:
                a, b = -a, -b
            A += a * ma - D * b * mb
            B += a * mb + b * ma
    return A, B


class HermitianMatrix:
    """Hermitian n x n matrix over Q(sqrt(-D)) with rational diagonal, built
    from rows whose entries are ints, Fractions or pairs (a, b) standing for
    a + b*sqrt(-D).

    A plain value: den, the lowest common denominator of the entry parts,
    image[i][j] = (a, b) for the entry (a + b*sqrt(-D)) / den, so equal
    matrices have equal images, and the determinant as a Fraction, made at
    construction.  Each minor is expanded on the image when asked for, as
    the pair (A, B) of (A + B*sqrt(-D)) / den^k, whose sign is that of A on
    a principal block.  A matrix must not be mutated after construction.
    """

    __slots__ = ("D", "n", "den", "_image", "_det")

    def __init__(self, D, rows):
        parts = tuple(tuple(self._entry_parts(e) for e in row)
                      for row in rows)
        n = len(parts)
        if any(len(r) != n for r in parts):
            raise ValueError("matrix must be square")
        den = lcm(*(x.denominator for row in parts for e in row for x in e))
        image = tuple(tuple((a.numerator * (den // a.denominator),
                             b.numerator * (den // b.denominator))
                            for a, b in row) for row in parts)
        for i in range(n):
            if image[i][i][1]:
                raise ValueError("diagonal must be rational")
            for j in range(i + 1, n):
                a, b = image[i][j]
                if image[j][i] != (a, -b):
                    raise ValueError("matrix must be hermitian")
        self._adopt(D, den, image)

    def _adopt(self, D, den, image, det=None):
        """The core of both constructors: image / den, image a tuple of rows
        of integer pairs, brought to lowest terms.  det is the full
        principal minor of image when the caller has it, and is expanded
        otherwise.  An image over 1 is already in lowest terms."""
        n = len(image)
        if det is None:
            full = tuple(range(n))
            det = _int_minor(image, D, full, full)[0] if n else 1
        g = 1 if den == 1 else gcd(den, *(x for row in image for e in row
                                          for x in e))
        if g > 1:
            den //= g
            image = tuple(tuple((a // g, b // g) for a, b in row)
                          for row in image)
            # an n x n minor is homogeneous of degree n in the entries
            det //= g ** n
        self.D = D
        self.n = n
        self.den = den
        self._image = image
        self._det = Fraction(det, den ** n)

    @staticmethod
    def _entry_parts(e):
        """The parts (a, b) of an entry a + b*sqrt(-D) as Fractions."""
        if isinstance(e, (int, Fraction)):
            return Fraction(e), Fraction(0)
        if isinstance(e, tuple) and len(e) == 2:
            return Fraction(e[0]), Fraction(e[1])
        raise TypeError("bad matrix entry %r" % (e,))

    def int_minor(self, rows, cols):
        """The determinant of the rows x cols block as integers (A, B, d):
        it is (A + B*sqrt(-D)) / d with d = den^k for a k x k block, not
        reduced."""
        rows, cols = tuple(rows), tuple(cols)
        k = len(rows)
        if k == 0 or k != len(cols):
            raise ValueError("a minor needs equal, nonempty row and column "
                             "sets")
        return _int_minor(self._image, self.D, rows, cols) + (self.den ** k,)

    def det(self):
        """The determinant as a Fraction, made at construction."""
        return self._det

    def is_positive_definite(self):
        return self._det > 0 and all(self.int_minor(range(k), range(k))[0] > 0
                                     for k in range(1, self.n))

    def __eq__(self, other):
        return (isinstance(other, HermitianMatrix) and self.D == other.D
                and self.den == other.den and self._image == other._image)

    def __hash__(self):
        return hash((self.D, self.den, self._image))

    def to_json(self):
        den = self.den
        return {"n": self.n, "D": self.D,
                "entries": [[["%d/%d" % (x // g, den // g)
                              for x in e for g in (gcd(x, den),)]
                             for e in row] for row in self._image]}

    def __repr__(self):
        return "HermitianMatrix(D=%d, den=%d, image=%r)" % (
            self.D, self.den, self._image)


ENUMERATION_CAP = 200000
# the largest level n of Q(zeta_n) that a power table is built for; the table
# of zeta_2000 takes about 0.13 s and a 28 MB peak on one Xeon core
CYCLOTOMIC_LEVEL_CAP = 2000


def _diagonals(n, trace_bound):
    """The diagonals of the enumeration in its order: n nonnegative
    integers with sum <= trace_bound."""
    return (d for d in itertools.product(range(trace_bound + 1), repeat=n)
            if sum(d) <= trace_bound)


def _entry_bounds(bound, D):
    """(a, bmax) for each integer a with a^2 <= bound: the integers b with
    a^2 + D*b^2 <= bound are those with |b| <= bmax."""
    amax = isqrt(bound)
    return [(a, isqrt((bound - a * a) // D)) for a in range(-amax, amax + 1)]


def count_hermitian(n, D, trace_bound, dual_scale=1, cap=ENUMERATION_CAP):
    """The number of candidates enumerate_hermitian examines for these
    arguments: per diagonal the product of the per-pair option counts, with
    no candidate built.  Counting stops once the count exceeds cap."""
    s2 = dual_scale * dual_scale
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    total = 0
    for diag in _diagonals(n, trace_bound):
        count = 1
        for (i, j) in pairs:
            count *= sum(2 * bmax + 1 for _, bmax in
                         _entry_bounds(s2 * diag[i] * diag[j], D))
        total += count
        if total > cap:
            break
    return total


def _quadratic(image, D, idx):
    """(K, c, A, B) for the principal minor on idx, at least three indices
    whose last two i < j hold 0 at (i, j) and (j, i) in image.  With
    x = a + b*sqrt(-D) at (i, j) and its conjugate at (j, i), the minor is
    K - c*N(x) + 2*Re((A + B*sqrt(-D)) x) = K - c*(a^2 + D*b^2)
    + 2*(a*A - D*b*B): K is the minor at x = 0, c the principal minor on
    idx without i and j, and A + B*sqrt(-D) the (i, j) cofactor at x = 0,
    the minor on rows idx without i and columns idx without j, with the
    sign (-1)^((k-2) + (k-1)) = -1 of positions k-2 and k-1 in a k x k
    block."""
    rest = idx[:-2]
    K = _int_minor(image, D, idx, idx)[0]
    c = _int_minor(image, D, rest, rest)[0]
    A, B = _int_minor(image, D, rest + idx[-1:], idx[:-1])
    return K, c, -A, -B


def enumerate_hermitian(n, D, trace_bound, dual_scale=1, cap=ENUMERATION_CAP):
    """Yield positive semidefinite hermitian matrices with bounded integer trace.

    Diagonal entries are nonnegative integers with sum <= trace_bound;
    off-diagonal entries run over (a + b*sqrt(-D))/dual_scale with integer a, b
    constrained by the 2x2 minor bound, which makes every principal minor of
    size 1 or 2 nonnegative.  The larger principal minors are tested on the
    integer image dual_scale * beta, and a candidate that passes is built
    from that image, with the full minor (the last one screened) as its
    determinant.

    The entry of the last pair (n-2, n-1) runs fastest, under a prefix that
    fixes every other entry.  Per prefix, each screened minor that does not
    hold both n-2 and n-1 is expanded once, and a negative one rejects the
    prefix; each one that holds both is a quadratic in the last entry
    (completing the square, as in Fincke-Pohst enumeration: Cohen, A Course
    in Computational Algebraic Number Theory, 2.7.3), whose coefficients are
    expanded once, so a candidate is tested with integer products alone.
    The cap counts every candidate examined, those of a rejected prefix
    included, in the order of the candidates (count_hermitian gives that
    number in advance).  Deterministic order.
    """
    s = dual_scale
    s2 = s * s
    examined = 0
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    screened = [idx for size in range(3, n + 1)
                for idx in itertools.combinations(range(n), size)]
    moving = [idx for idx in screened if idx[-2:] == (n - 2, n - 1)]
    fixed = [idx for idx in screened if idx[-2:] != (n - 2, n - 1)]
    for diag in _diagonals(n, trace_bound):
        ranges = [[((a, b), (a, -b))
                   for a, bmax in _entry_bounds(s2 * diag[i] * diag[j], D)
                   for b in range(-bmax, bmax + 1)] for (i, j) in pairs]
        image = [[(s * diag[i], 0) if i == j else None for j in range(n)]
                 for i in range(n)]
        # n = 1 has no pair: its one candidate per diagonal sets no entry
        last = ranges.pop() if ranges else [((0, 0), (0, 0))]
        for prefix in itertools.product(*ranges):
            for (i, j), (x, xbar) in zip(pairs, prefix):
                image[i][j], image[j][i] = x, xbar
            room = cap - examined
            examined += len(last)
            if all(_int_minor(image, D, idx, idx)[0] >= 0 for idx in fixed):
                if pairs:
                    image[n - 2][n - 1] = image[n - 1][n - 2] = (0, 0)
                quadratics = [_quadratic(image, D, idx) for idx in moving]
                for x, xbar in itertools.islice(last, room):
                    if pairs:
                        image[n - 2][n - 1], image[n - 1][n - 2] = x, xbar
                    a, b = x
                    norm = a * a + D * b * b
                    # the value of each quadratic at x; the last one, on
                    # every index, is the full minor (None for n <= 2)
                    m = None
                    for K, c, A, B in quadratics:
                        m = K - c * norm + 2 * (a * A - D * b * B)
                        if m < 0:
                            break
                    else:
                        beta = object.__new__(HermitianMatrix)
                        beta._adopt(D, s, tuple(map(tuple, image)), m)
                        yield beta
            if examined > cap:
                raise ResourceBoundError("enumeration cap %d exceeded" % cap)
