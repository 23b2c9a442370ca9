"""p-adic numbers with precision tracking, Teichmuller lifts, and embeddings
of cyclotomic numbers into Q_p or an unramified carrier ring.

PadicElem stores p^val * unit to absolute precision p^prec, with val < prec;
a value divisible by p^prec is zero to precision.  It supports +, -, * and ==,
with ints and Fractions coerced, and residues mod p^k.  UnramElem holds
p^shift times a coefficient vector of Z_p[x]/(Phi_B(x), p^prec) for B coprime
to p, and supports only what the congruence checks read: subtraction of an
UnramElem or PadicElem and a valuation bound.  The ring is a product of
unramified discrete valuation rings, so "all coefficients divisible by p^k" is
a sound (possibly conservative) certificate for valuation >= k in every
factor.

embed_cyclotomic works on integers: it descends an element to the prime-to-p
part m of its level (CycNumber.descend), reads its coefficients once as
p^shift * (u_i mod p^prec), and either keeps them as an UnramElem or, for m
dividing p - 1, evaluates sum_i u_i w^i by Horner's rule at the integer
Teichmuller lift w of a primitive m-th root of unity mod p.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import InsufficientPrecisionError, UnsupportedEmbeddingError
from .exact_arith import euler_phi, valuation
from .characters import primitive_root


class PadicElem:
    """An element of Q_p known to absolute precision p^prec."""

    __slots__ = ("p", "val", "unit", "prec")

    def __init__(self, p, val, unit, prec):
        self.p = p
        self.prec = prec
        if unit % p == 0 and unit != 0:
            raise ValueError("unit part must be a p-unit")
        # a value divisible by p^prec is zero to precision
        if unit == 0 or val >= prec:
            self.val = prec
            self.unit = 0
        else:
            self.val = val
            self.unit = unit % p ** (prec - val)

    @classmethod
    def zero(cls, p, prec):
        return cls(p, prec, 0, prec)

    @classmethod
    def from_fraction(cls, x, p, prec):
        x = Fraction(x)
        if x == 0:
            return cls.zero(p, prec)
        val = valuation(x, p)
        num = x.numerator // p ** max(val, 0)
        den = x.denominator // p ** max(-val, 0)
        rel = max(prec - val, 1)
        unit = num * pow(den, -1, p ** rel) % p ** rel
        return cls(p, val, unit, prec)

    def is_zero(self):
        """True when the element is zero to the stored precision."""
        return self.unit == 0

    def residue(self, k):
        """Integer representative mod p^k (requires val >= 0 and prec >= k)."""
        if self.prec < k:
            raise InsufficientPrecisionError("prec %d < %d" % (self.prec, k))
        if self.is_zero():
            return 0
        if self.val < 0:
            raise ValueError("negative valuation has no integer residue")
        return self.unit * self.p ** self.val % self.p ** k

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return PadicElem.from_fraction(other, self.p, self.prec)
        if isinstance(other, PadicElem):
            if other.p != self.p:
                raise ValueError("mixed primes")
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prec = min(self.prec, o.prec)
        if self.is_zero():
            return PadicElem(o.p, o.val, o.unit, prec)
        if o.is_zero():
            return PadicElem(self.p, self.val, self.unit, prec)
        v = min(self.val, o.val)
        rel = max(prec - v, 1)
        total = (self.unit * self.p ** (self.val - v)
                 + o.unit * self.p ** (o.val - v)) % self.p ** rel
        if total == 0:
            return PadicElem.zero(self.p, prec)
        dv = valuation(total, self.p)
        return PadicElem(self.p, v + dv, total // self.p ** dv, prec)

    __radd__ = __add__

    def __neg__(self):
        return PadicElem(self.p, self.val, -self.unit % self.p ** max(self.prec - self.val, 1)
                         if self.unit else 0, self.prec)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return PadicElem.zero(self.p, min(self.prec + o.val, o.prec + self.val))
        val = self.val + o.val
        prec = min(self.prec + o.val, o.prec + self.val)
        rel = max(prec - val, 1)
        return PadicElem(self.p, val, self.unit * o.unit % self.p ** rel, prec)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).is_zero()

    __hash__ = None

    def __repr__(self):
        if self.is_zero():
            return "O(%d^%d)" % (self.p, self.prec)
        return "%d*%d^%d + O(%d^%d)" % (self.unit, self.p, self.val, self.p, self.prec)


def teichmuller(a, p, prec):
    """The Teichmuller lift of the p-unit a, to absolute precision p^prec."""
    a = Fraction(a)
    if valuation(a, p) != 0:
        raise ValueError("teichmuller needs a p-unit")
    mod = p ** prec
    x = a.numerator * pow(a.denominator, -1, mod) % mod
    for _ in range(prec + 1):
        nxt = pow(x, p, mod)
        if nxt == x:
            break
        x = nxt
    return PadicElem(p, 0, x, prec)


class UnramElem:
    """Element of Z_p[x]/(Phi_level(x), p^prec), scaled by p^shift."""

    __slots__ = ("p", "level", "coeffs", "prec", "shift")

    def __init__(self, p, level, coeffs, prec, shift=0):
        if gcd(level, p) != 1:
            raise ValueError("carrier level must be coprime to p")
        self.p = p
        self.level = level
        self.prec = prec
        self.shift = shift
        mod = p ** prec
        coeffs = tuple(c % mod for c in coeffs)
        if len(coeffs) != euler_phi(level):
            raise ValueError("bad coefficient count")
        self.coeffs = coeffs

    @classmethod
    def from_padic(cls, x, level):
        phi = euler_phi(level)
        rel = max(x.prec - min(x.val, 0), 1)
        if x.val < 0:
            return cls(x.p, level, (x.unit,) + (0,) * (phi - 1), rel, x.val)
        return cls(x.p, level, (x.unit * x.p ** x.val if x.unit else 0,) + (0,) * (phi - 1),
                   x.prec, 0)

    def _align(self, other):
        if isinstance(other, PadicElem):
            other = UnramElem.from_padic(other, self.level)
        elif not isinstance(other, UnramElem):
            return None, None
        if other.p != self.p or other.level != self.level:
            raise ValueError("mixed carrier rings")
        s = min(self.shift, other.shift)
        a = self._reshift(s)
        b = other._reshift(s)
        prec = min(a.prec, b.prec)
        return (UnramElem(a.p, a.level, a.coeffs, prec, s),
                UnramElem(b.p, b.level, b.coeffs, prec, s))

    def _reshift(self, s):
        if s == self.shift:
            return self
        d = self.shift - s
        assert d > 0
        return UnramElem(self.p, self.level,
                         tuple(c * self.p ** d for c in self.coeffs),
                         self.prec, s)

    def __sub__(self, other):
        a, b = self._align(other)
        if a is None:
            return NotImplemented
        return UnramElem(a.p, a.level, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)),
                         a.prec, a.shift)

    def valuation_bound(self):
        """(v, exact) where v lower-bounds the valuation in every unramified
        factor; exact=False when the element is zero to working precision."""
        mod = self.p ** self.prec
        vals = []
        for c in self.coeffs:
            c %= mod
            if c:
                vals.append(valuation(c, self.p))
        if not vals:
            return self.prec + self.shift, False
        return min(vals) + self.shift, True

    def is_zero(self):
        return all(c % self.p ** self.prec == 0 for c in self.coeffs)

    def __repr__(self):
        return "UnramElem(p=%d, level=%d, shift=%d, prec=%d, coeffs=%s)" % (
            self.p, self.level, self.shift, self.prec, list(self.coeffs))


def embedding_units(m):
    """Units mod m in increasing order; index into this list picks an embedding."""
    return [a for a in range(1, max(m, 2)) if gcd(a, m) == 1] or [1]


@lru_cache(maxsize=None)
def _teichmuller_root(p, m, prec):
    """The integer Teichmuller lift mod p^prec of g^((p-1)/m), g the least
    primitive root mod p: the image of zeta_m for m dividing p - 1."""
    return teichmuller(pow(primitive_root(p), (p - 1) // m, p), p, prec).unit


def embed_cyclotomic(x, p, prec, choice=0):
    """Embed a CycNumber into Q_p (PadicElem) or the unramified carrier ring.

    The p-power part of the level must act trivially (the element must descend
    to the prime-to-p part of its level), otherwise the embedding would be
    ramified and an UnsupportedEmbeddingError is raised.  `choice` selects the
    embedding by composing with a Galois twist zeta_m -> zeta_m^a of the
    prime-to-p level m.  For m dividing p - 1, a is the choice-th unit mod
    p - 1, so zeta_m -> omega(g^a)^((p-1)/m), g the least primitive root and
    omega the Teichmuller lift, for every such m at once.  Otherwise a is
    the choice-th unit mod m; the unramified carrier's valuation bound does
    not depend on it.

    A non-rational element is read once as p^shift * (u_i mod p^prec) on the
    power basis, shift = min(0, min_i v(c_i/den)) = -v(den), since the
    numerators of a reduced element share no prime with den.  For m dividing
    p - 1 the image is sum_i u_i w^i, w the Teichmuller root of unity.
    """
    n = x.level
    m = n
    while m % p == 0:
        m //= p
    if m != n:
        y = x.descend(m)
        if y is None:
            raise UnsupportedEmbeddingError(
                "element of level %d does not descend to level %d" % (n, m))
        x = y
    units = embedding_units(m if (p - 1) % m else p - 1)
    a = units[choice % len(units)] % m
    if a > 1:
        x = x.galois(a)
    if x.is_rational():
        return PadicElem.from_fraction(x.rational(), p, prec)
    mod = p ** prec
    den = x.den
    shift = 0
    while den % p == 0:
        den //= p
        shift -= 1
    inv = pow(den, -1, mod)
    u = [c * inv % mod for c in x.nums]
    if (p - 1) % m:
        return UnramElem(p, m, u, prec, shift)
    w = _teichmuller_root(p, m, prec)
    s = 0
    for c in reversed(u):
        s = (s * w + c) % mod
    if s == 0:
        return PadicElem.zero(p, prec + shift)
    v = valuation(s, p)
    return PadicElem(p, shift + v, s // p ** v, prec + shift)


def valuation_at_least(x, k):
    """Decide valuation(x) >= k for a PadicElem or UnramElem, raising when
    precision cannot decide."""
    if isinstance(x, PadicElem):
        if x.is_zero():
            if x.prec < k:
                raise InsufficientPrecisionError("prec %d < %d" % (x.prec, k))
            return True
        return x.val >= k
    v, exact = x.valuation_bound()
    if exact:
        return v >= k
    if v < k:
        raise InsufficientPrecisionError("prec bound %d < %d" % (v, k))
    return True


def congruent_mod(a, b, k):
    """Decide valuation(a - b) >= k, raising when precision cannot decide."""
    if isinstance(a, PadicElem) and isinstance(b, UnramElem):
        a = UnramElem.from_padic(a, b.level)
    if isinstance(b, PadicElem) and isinstance(a, UnramElem):
        b = UnramElem.from_padic(b, a.level)
    return valuation_at_least(a - b, k)
