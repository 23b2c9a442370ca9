"""Symbolic exact values: a cyclotomic unit times formal prime powers with
Fraction exponents times formal powers of Gauss sums.

Rational content of the unit is factored into the prime-exponent dictionary at
construction, so prime valuations of products stay readable even when the
exponents are half-integral and the value has no single cyclotomic
materialization.
"""

from fractions import Fraction

from .errors import NonIntegralExponentError
from .exact_arith import CycNumber, factorize, valuation
from .characters import gauss_sum


class ExactValue:
    """unit * prod_q q^exps[q] * prod_chi g(chi)^gauss[chi].

    The normal form, made once by the constructor: a rational unit is +-1
    with its content in exps, no exponent or Gauss power is zero, and zero is
    the level-1 zero with empty dicts.  gauss maps chi.key() to (chi, n)."""

    __slots__ = ("unit", "exps", "gauss")

    def __init__(self, unit, exps=None, gauss=None):
        if unit.is_zero():
            self.unit, self.exps, self.gauss = CycNumber.zero(), {}, {}
            return
        if unit.is_rational():
            exps = dict(exps or {})
            r = unit.rational()
            for q, e in factorize(abs(r.numerator)).items():
                exps[q] = exps.get(q, 0) + e
            for q, e in factorize(r.denominator).items():
                exps[q] = exps.get(q, 0) - e
            unit = CycNumber.from_rational(1 if r > 0 else -1)
        self.unit = unit
        self.exps = {q: Fraction(e) for q, e in (exps or {}).items() if e}
        self.gauss = {k: (chi, n) for k, (chi, n) in (gauss or {}).items()
                      if n}

    @classmethod
    def one(cls):
        return cls(CycNumber.one())

    @classmethod
    def zero(cls):
        return cls(CycNumber.zero())

    @classmethod
    def from_rational(cls, x):
        return cls(CycNumber.from_rational(x))

    def is_zero(self):
        return self.unit.is_zero()

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return ExactValue.zero()
        exps = dict(self.exps)
        for q, e in other.exps.items():
            exps[q] = exps.get(q, 0) + e
        gauss = dict(self.gauss)
        for k, (chi, n) in other.gauss.items():
            first, m = gauss.get(k, (chi, 0))
            gauss[k] = (first, m + n)
        return ExactValue(self.unit * other.unit, exps, gauss)

    __rmul__ = __mul__

    def __pow__(self, e):
        return ExactValue(
            self.unit ** e, {q: x * e for q, x in self.exps.items()},
            {k: (chi, n * e) for k, (chi, n) in self.gauss.items()})

    def inverse(self):
        return self ** -1

    def times_prime_power(self, q, e):
        return self * ExactValue(CycNumber.one(), {q: e})

    def with_gauss(self, chi, n):
        """Multiply by the formal symbol g(chi)^n (chi primitive, prime power)."""
        return self * ExactValue(CycNumber.one(), gauss={chi.key(): (chi, n)})

    def p_valuation(self, p):
        """Valuation at p, assuming the (non-rational) unit part is a p-adic
        unit; Gauss symbols of conductor p^t contribute n*t/2."""
        if self.is_zero():
            return None
        v = self.exps.get(p, Fraction(0))
        for chi, n in self.gauss.values():
            t = valuation(chi.modulus, p)
            if t and chi.modulus == p ** t:
                v += Fraction(n * t, 2)
        return v

    def materialize(self):
        """Expand to a single CycNumber; all prime exponents must be integers."""
        acc = self.unit
        for q, e in sorted(self.exps.items()):
            if e.denominator != 1:
                raise NonIntegralExponentError(
                    "non-integral exponent %s at prime %d" % (e, q))
            acc = acc * (Fraction(q) ** int(e))
        for chi, n in self.gauss.values():
            if n >= 0:
                acc = acc * gauss_sum(chi) ** n
            else:
                # g(chi)^-1 = chi(-1) g(conj chi) / m for primitive chi mod m
                m = chi.modulus
                inv = chi(-1) * gauss_sum(chi.conj()) * Fraction(1, m)
                acc = acc * inv ** (-n)
        return acc

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.exps == other.exps and self.unit == other.unit
                and {k: n for k, (_, n) in self.gauss.items()}
                == {k: n for k, (_, n) in other.gauss.items()})

    __hash__ = None

    def to_json(self):
        return {
            "unit": self.unit.to_json(),
            "exponents": {str(q): "%d/%d" % (e.numerator, e.denominator)
                          for q, e in sorted(self.exps.items())},
            "gauss": [{"modulus": chi.modulus, "power": n}
                      for chi, n in sorted(self.gauss.values(),
                                           key=lambda t: (t[0].modulus, t[1]))],
        }

    def __repr__(self):
        return "ExactValue(unit=%r, exps=%r, gauss=%r)" % (
            self.unit, self.exps,
            {k[0]: n for k, (chi, n) in self.gauss.items()})


def _coerce(x):
    """x as an ExactValue: ints, Fractions and CycNumbers are wrapped, other
    types give NotImplemented."""
    if isinstance(x, ExactValue):
        return x
    if isinstance(x, (int, Fraction)):
        return ExactValue.from_rational(x)
    if isinstance(x, CycNumber):
        return ExactValue(x)
    return NotImplemented
