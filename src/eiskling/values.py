"""Symbolic exact values: a cyclotomic unit times formal prime powers with
rational exponents times formal powers of Gauss sums.

Rational content of the unit is factored into the prime-exponent dictionary at
construction, so prime valuations of products stay readable even when the
exponents are half-integral and the value has no single cyclotomic
materialization.
"""

from fractions import Fraction

from .errors import NonIntegralExponentError
from .exact_arith import CycNumber, factorize, valuation
from .characters import gauss_sum

# the units of every rational value and of zero, shared by all ExactValues
_ZERO = CycNumber.zero()
_ONE = CycNumber.one()
_MINUS_ONE = CycNumber.from_rational(-1)


def _add_exponent(exps, q, e):
    """exps[q] += e for an int or Fraction e, kept in normal form: an
    integral sum becomes an int and a zero sum is dropped."""
    s = exps.get(q, 0) + e
    if isinstance(s, Fraction) and s.denominator == 1:
        s = s.numerator
    if s:
        exps[q] = s
    else:
        exps.pop(q, None)


def _sign(unit, exps):
    """The shared +-1 of a nonzero rational CycNumber; its content, when it
    is not +-1, is factored into exps."""
    num, den = unit.nums[0], unit.den
    if den != 1 or (num != 1 and num != -1):
        for q, e in factorize(abs(num)).items():
            _add_exponent(exps, q, e)
        for q, e in factorize(den).items():
            _add_exponent(exps, q, -e)
    return _ONE if num > 0 else _MINUS_ONE


class ExactValue:
    """unit * prod_q q^exps[q] * prod_chi g(chi)^gauss[chi].

    The normal form, made once when a value is built: a rational unit is the
    shared +-1 with its content in exps, an exponent is an int or a
    non-integral Fraction, no exponent or Gauss power is zero, and zero is
    the shared level-1 zero with empty dicts.  gauss maps chi.key() to
    (chi, n).  A value is never changed after it is built, so values may
    share their unit and dicts."""

    __slots__ = ("unit", "exps", "gauss")

    def __init__(self, unit, exps=None, gauss=None):
        if unit.is_zero():
            self.unit, self.exps, self.gauss = _ZERO, {}, {}
            return
        norm = {}
        for q, e in (exps or {}).items():
            _add_exponent(norm, q, e)
        self.unit = _sign(unit, norm) if unit.is_rational() else unit
        self.exps = norm
        self.gauss = {k: (chi, n) for k, (chi, n) in (gauss or {}).items()
                      if n}

    @classmethod
    def _normal(cls, unit, exps, gauss):
        """The value with parts already in normal form, taken as they are."""
        v = object.__new__(cls)
        v.unit, v.exps, v.gauss = unit, exps, gauss
        return v

    @staticmethod
    def one():
        return _ONE_VALUE

    @staticmethod
    def zero():
        return _ZERO_VALUE

    @classmethod
    def from_rational(cls, x):
        if not x:
            return cls.zero()
        if x == 1:
            return cls.one()
        exps = {}
        return cls._normal(_sign(CycNumber.from_rational(x), exps), exps, {})

    def is_zero(self):
        return self.unit.is_zero()

    def __mul__(self, other):
        if not isinstance(other, ExactValue):
            return NotImplemented
        a, b = self.unit, other.unit
        if a is _ZERO or b is _ZERO:
            return ExactValue.zero()
        # a factor equal to one: its normal form is the bare shared unit
        if b is _ONE and not other.exps and not other.gauss:
            return self
        if a is _ONE and not self.exps and not self.gauss:
            return other
        if b is _ONE:
            unit = a
        elif a is _ONE:
            unit = b
        else:
            unit = a * b
        exps = self.exps
        if not exps:
            exps = other.exps
        elif other.exps:
            exps = dict(exps)
            for q, e in other.exps.items():
                _add_exponent(exps, q, e)
        if unit.is_rational() and unit is not _ONE and unit is not _MINUS_ONE:
            exps = dict(exps)
            unit = _sign(unit, exps)
        gauss = self.gauss
        if not gauss:
            gauss = other.gauss
        elif other.gauss:
            gauss = dict(gauss)
            for k, (chi, n) in other.gauss.items():
                first, m = gauss.get(k, (chi, 0))
                if m + n:
                    gauss[k] = (first, m + n)
                else:
                    del gauss[k]
        return ExactValue._normal(unit, exps, gauss)

    def __pow__(self, e):
        return ExactValue(
            self.unit ** e, {q: x * e for q, x in self.exps.items()},
            {k: (chi, n * e) for k, (chi, n) in self.gauss.items()})

    def inverse(self):
        return self ** -1

    def times_prime_power(self, q, e):
        return self * ExactValue(_ONE, {q: e})

    def with_gauss(self, chi, n):
        """Multiply by the formal symbol g(chi)^n (chi primitive, prime power)."""
        return self * ExactValue(_ONE, gauss={chi.key(): (chi, n)})

    def p_valuation(self, p):
        """Valuation at p, assuming the (non-rational) unit part is a p-adic
        unit; Gauss symbols of conductor p^t contribute n*t/2."""
        if self.is_zero():
            return None
        v = self.exps.get(p, 0)
        for chi, n in self.gauss.values():
            t = valuation(chi.modulus, p)
            if t and chi.modulus == p ** t:
                v += Fraction(n * t, 2)
        return v

    def materialize(self):
        """Expand to a single CycNumber; all prime exponents must be integers."""
        num = den = 1
        for q, e in sorted(self.exps.items()):
            if isinstance(e, Fraction):
                raise NonIntegralExponentError(
                    "non-integral exponent %s at prime %d" % (e, q))
            if e > 0:
                num *= q ** e
            else:
                den *= q ** -e
        acc = self.unit
        if num != 1 or den != 1:
            acc = acc * Fraction(num, den)
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
        if not isinstance(other, ExactValue):
            return NotImplemented
        return (self.exps == other.exps and self.unit == other.unit
                and {k: n for k, (_, n) in self.gauss.items()}
                == {k: n for k, (_, n) in other.gauss.items()})

    __hash__ = None

    def key(self):
        """The representation as a hashable tuple: the unit's (level, nums,
        den), the exponents and the Gauss powers by chi.key(), all that
        to_json, p_valuation and materialize read.  Not a hash for __eq__,
        which lifts across levels, while the level shows in to_json."""
        unit = self.unit
        return ((unit.level, unit.nums, unit.den),
                tuple(sorted(self.exps.items())),
                tuple(sorted((k, n) for k, (_, n) in self.gauss.items())))

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


# shared like the units: a value is never changed after it is built
_ONE_VALUE = ExactValue._normal(_ONE, {}, {})
_ZERO_VALUE = ExactValue._normal(_ZERO, {}, {})
