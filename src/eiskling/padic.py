"""p-adic numbers with precision tracking, Teichmuller lifts, and embeddings
of cyclotomic numbers into Q_p or an unramified extension of it.

One carrier, PadicElem, holds p^shift times a coefficient vector of
Z_p[x]/(Phi_level(x)) for a level coprime to p, each coefficient known mod
p^prec, so the element is known to absolute precision p^(prec + shift);
level 1 is Q_p.  It supports only what the congruence checks read:
subtraction, in which a level-1 operand lifts to the other operand's level
as its constant term, and a valuation bound; to_json is its report form.
The ring is a product of
unramified discrete valuation rings, so "all coefficients divisible by p^k"
is a sound (possibly conservative) certificate for valuation >= k in every
factor, and exact at level 1.

embed_cyclotomic works on integers: it descends an element to the prime-to-p
part m of its level (CycNumber.descend), reads its coefficients once as
p^shift * (u_i mod p^prec), and either keeps them at level m or, for m
dividing p - 1, evaluates sum_i u_i w^i by Horner's rule at the integer
Teichmuller lift w of a primitive m-th root of unity mod p, at level 1.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import gcd

from .errors import InsufficientPrecisionError, UnsupportedEmbeddingError
from .exact_arith import euler_phi, valuation
from .characters import primitive_root


class PadicElem:
    """p^shift * sum_i c_i x^i in Z_p[x]/(Phi_level(x)), the c_i known mod
    p^prec; level 1 is Q_p."""

    __slots__ = ("p", "level", "coeffs", "prec", "shift")

    def __init__(self, p, level, coeffs, prec, shift=0):
        if gcd(level, p) != 1:
            raise ValueError("carrier level must be coprime to p")
        self.p = p
        self.level = level
        self.prec = prec
        self.shift = shift
        mod = p ** prec
        coeffs = tuple([c % mod for c in coeffs])
        if len(coeffs) != euler_phi(level):
            raise ValueError("bad coefficient count")
        self.coeffs = coeffs

    @classmethod
    def from_fraction(cls, x, p, prec):
        """x in Q_p to absolute precision p^prec."""
        x = Fraction(x)
        shift = min(valuation(x, p), 0) if x else 0
        mod = p ** (prec - shift)
        den = x.denominator // p ** -shift
        return cls(p, 1, (x.numerator * pow(den, -1, mod),), prec - shift,
                   shift)

    def __sub__(self, other):
        """self - other, known to the smaller of the two absolute
        precisions."""
        p, a, b, level = self.p, self.coeffs, other.coeffs, self.level
        if other.level != level:
            if level == 1:
                a, level = a + (0,) * (len(b) - 1), other.level
            elif other.level == 1:
                b = b + (0,) * (len(a) - 1)
            else:
                raise ValueError("mixed carrier rings")
        if other.p != p:
            raise ValueError("mixed primes")
        s = min(self.shift, other.shift)
        prec = min(self.prec + self.shift, other.prec + other.shift) - s
        ta, tb = p ** (self.shift - s), p ** (other.shift - s)
        return PadicElem(p, level, [x * ta - y * tb for x, y in zip(a, b)],
                         prec, s)

    def valuation_bound(self):
        """(v, exact) where v lower-bounds the valuation in every unramified
        factor, and is the valuation at level 1; exact=False when the element
        is zero to precision, with v = prec + shift."""
        vals = [valuation(c, self.p) for c in self.coeffs if c]
        if not vals:
            return self.prec + self.shift, False
        return min(vals) + self.shift, True

    def is_zero(self):
        """True when the element is zero to the stored precision."""
        return not any(self.coeffs)

    def _unit(self, v):
        """The level-1 unit c_0 / p^(v - shift) of a nonzero element of
        valuation v."""
        return self.coeffs[0] // self.p ** (v - self.shift)

    def to_json(self):
        """A level-1 value as its valuation, its unit mod p^6 and its
        absolute precision; a higher level as its valuation bound, level,
        shift, coefficients mod p^6 and coefficient precision.  A value zero
        to precision is its absolute precision at level 1, its coefficient
        precision at a higher level."""
        v, exact = self.valuation_bound()
        if self.level > 1:
            if not exact:
                return {"zero_to_precision": self.prec}
            return {"valuation_bound": v, "level": self.level,
                    "shift": self.shift,
                    "coeffs_mod_p6": [c % self.p ** 6 for c in self.coeffs],
                    "prec": self.prec}
        if not exact:
            return {"zero_to_precision": v}
        return {"valuation": v, "unit_mod_p6": self._unit(v) % self.p ** 6,
                "prec": self.prec + self.shift}

    def __repr__(self):
        if self.level > 1:
            return "PadicElem(p=%d, level=%d, shift=%d, prec=%d, coeffs=%s)" % (
                self.p, self.level, self.shift, self.prec, list(self.coeffs))
        v, exact = self.valuation_bound()
        if not exact:
            return "O(%d^%d)" % (self.p, v)
        return "%d*%d^%d + O(%d^%d)" % (self._unit(v), self.p, v, self.p,
                                        self.prec + self.shift)


def teichmuller(a, p, prec):
    """The integer Teichmuller lift mod p^prec of the p-unit a."""
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
    return x


@lru_cache(maxsize=None)
def _teichmuller_root(p, m, prec):
    """The integer Teichmuller lift mod p^prec of g^((p-1)/m), g the least
    primitive root mod p: the image of zeta_m for m dividing p - 1."""
    return teichmuller(pow(primitive_root(p), (p - 1) // m, p), p, prec)


def embed_cyclotomic(x, p, prec, choice=0):
    """Embed a CycNumber into Q_p or the unramified carrier ring of level m.

    The p-power part of the level must act trivially (the element must descend
    to the prime-to-p part of its level), otherwise the embedding would be
    ramified and an UnsupportedEmbeddingError is raised.  `choice` selects the
    embedding by composing with a Galois twist zeta_m -> zeta_m^a of the
    prime-to-p level m.  For m dividing p - 1, a is the choice-th unit mod
    p - 1, so zeta_m -> omega(g^a)^((p-1)/m), g the least primitive root and
    omega the Teichmuller lift, for every such m at once.  Otherwise a is
    the choice-th unit mod m; the unramified carrier's valuation bound does
    not depend on it.

    A rational goes straight to Q_p.  Any other element is read once as
    p^shift * (u_i mod p^prec) on the power basis, shift = min(0, min_i
    v(c_i/den)) = -v(den), since the numerators of a reduced element share no
    prime with den.  For m dividing p - 1 the image is sum_i u_i w^i, w the
    Teichmuller root of unity.
    """
    if x.is_rational():
        return PadicElem.from_fraction(x.rational(), p, prec)
    n = x.level
    m = n // p ** valuation(n, p)
    if m != n:
        x = x.descend(m)
        if x is None:
            raise UnsupportedEmbeddingError(
                "element of level %d does not descend to level %d" % (n, m))
    q = m if (p - 1) % m else p - 1
    a = next(islice((u for u in range(q) if gcd(u, q) == 1),
                    choice % euler_phi(q), None)) % m
    if a > 1:
        x = x.galois(a)
    mod = p ** prec
    shift = -valuation(x.den, p)
    inv = pow(x.den // p ** -shift, -1, mod)
    u = [c * inv % mod for c in x.nums]
    if (p - 1) % m:
        return PadicElem(p, m, u, prec, shift)
    w = _teichmuller_root(p, m, prec)
    s = 0
    for c in reversed(u):
        s = (s * w + c) % mod
    return PadicElem(p, 1, (s,), prec, shift)


def valuation_at_least(x, k):
    """Decide valuation(x) >= k for a PadicElem, raising when precision
    cannot decide."""
    v, exact = x.valuation_bound()
    if exact:
        return v >= k
    if v < k:
        raise InsufficientPrecisionError("prec %d < %d" % (v, k))
    return True

