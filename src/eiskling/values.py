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
    """unit * prod_q q^exps[q] * prod_chi g(chi)^gauss[chi]."""

    __slots__ = ("unit", "exps", "gauss")

    def __init__(self, unit, exps=None, gauss=None):
        exps = dict(exps or {})
        gauss = dict(gauss or {})
        if unit.is_zero():
            exps, gauss = {}, {}
        elif unit.is_rational():
            r = unit.rational()
            for q, e in factorize(r.numerator if r > 0 else -r.numerator).items():
                exps[q] = exps.get(q, Fraction(0)) + e
            for q, e in factorize(r.denominator).items():
                exps[q] = exps.get(q, Fraction(0)) - e
            unit = CycNumber.from_rational(1 if r > 0 else -1)
        self.unit = unit
        self.exps = {q: Fraction(e) for q, e in exps.items() if e != 0}
        self.gauss = {k: (chi, n) for k, (chi, n) in gauss.items() if n != 0}

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
        if isinstance(other, (int, Fraction)):
            other = ExactValue.from_rational(other)
        elif isinstance(other, CycNumber):
            other = ExactValue(other)
        if not isinstance(other, ExactValue):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return ExactValue.zero()
        exps = dict(self.exps)
        for q, e in other.exps.items():
            exps[q] = exps.get(q, Fraction(0)) + e
        gauss = dict(self.gauss)
        for k, (chi, n) in other.gauss.items():
            if k in gauss:
                gauss[k] = (gauss[k][0], gauss[k][1] + n)
            else:
                gauss[k] = (chi, n)
        return ExactValue(self.unit * other.unit, exps, gauss)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError
        return ExactValue(self.unit.inverse(),
                          {q: -e for q, e in self.exps.items()},
                          {k: (chi, -n) for k, (chi, n) in self.gauss.items()})

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExactValue.from_rational(other)
        elif isinstance(other, CycNumber):
            other = ExactValue(other)
        if not isinstance(other, ExactValue):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        acc = ExactValue.one()
        for _ in range(e):
            acc = acc * self
        return acc

    def __neg__(self):
        return ExactValue(-self.unit, self.exps, self.gauss)

    def times_prime_power(self, q, e):
        e = Fraction(e)
        if self.is_zero() or e == 0:
            return self
        exps = dict(self.exps)
        exps[q] = exps.get(q, Fraction(0)) + e
        return ExactValue(self.unit, exps, self.gauss)

    def with_gauss(self, chi, n):
        """Multiply by the formal symbol g(chi)^n (chi primitive, prime power)."""
        if self.is_zero() or n == 0:
            return self
        gauss = dict(self.gauss)
        k = chi.key()
        if k in gauss:
            gauss[k] = (gauss[k][0], gauss[k][1] + n)
        else:
            gauss[k] = (chi, n)
        return ExactValue(self.unit, self.exps, gauss)

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
        if self.is_zero():
            return CycNumber.zero()
        acc = self.unit
        for q, e in sorted(self.exps.items()):
            if e.denominator != 1:
                raise NonIntegralExponentError("exponent %s at prime %d" % (e, q))
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
        if isinstance(other, (int, Fraction, CycNumber)):
            other = ExactValue(other if isinstance(other, CycNumber)
                               else CycNumber.from_rational(other))
        if not isinstance(other, ExactValue):
            return NotImplemented
        if self.exps != other.exps:
            return False
        if set(self.gauss) != set(other.gauss):
            return False
        for k in self.gauss:
            if self.gauss[k][1] != other.gauss[k][1]:
                return False
        return self.unit == other.unit

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
