"""Dirichlet characters, Gauss sums and the quadratic character of
Q(sqrt(-D)).

A character is its exponent table: chi(a) = zeta_n^e(a), n = lcm(2, L) for
the cyclotomic level L of its values.  Order, key, powers, products and the
conductor are integer arithmetic on the exponents; a value, a Gauss sum and
B_{k,chi} are each one sum of terms zeta_term at the value level L."""

from dataclasses import dataclass, field
from math import gcd, lcm

from .errors import ConductorError, ResourceBoundError
from .exact_arith import (ENUMERATION_CAP, CycNumber, cyclotomic_poly,
                          euler_phi, factorize, is_prime, kronecker_symbol)


def chi_K(D, q):
    """Quadratic character attached to Q(sqrt(-D)) at a prime q: the
    Kronecker symbol of the field discriminant at q."""
    disc = -D if (-D) % 4 == 1 else -4 * D
    return kronecker_symbol(disc, q)


def primitive_root(q):
    """Smallest primitive root modulo an odd prime power q."""
    fac = factorize(q)
    if len(fac) != 1 or 2 in fac:
        raise ValueError("need an odd prime power")
    p = next(iter(fac))
    phi = euler_phi(q)
    prime_divs = set(factorize(phi))
    for g in range(2, q):
        if g % p == 0:
            continue
        if all(pow(g, phi // r, q) != 1 for r in prime_divs):
            return g
    raise ValueError("no primitive root found")


def zeta_term(level, e, c=1):
    """c zeta_n^e, n = lcm(2, L), as the term (j, +-c) that from_powers
    reads at level L: for odd L, zeta_2L = -zeta_L^((L+1)/2)."""
    if level % 2:
        return e * (level + 1) // 2 % level, -c if e % 2 else c
    return e, c


def _check_modulus(m):
    """Refuse a modulus above the cap before its table or factors exist.  A
    table, and B_{k,chi} at each k, take time linear in the modulus: at the
    largest prime under the cap, kl of quadratic:199999 over k = 1..80 ends
    in 86 s on one Xeon core, slow but bounded."""
    if m > ENUMERATION_CAP:
        raise ResourceBoundError("character modulus %d exceeds the cap %d"
                                 % (m, ENUMERATION_CAP))


def _units(m):
    """The keys of a table mod m: the units, or 0 alone for m = 1."""
    return [a for a in range(1, m) if gcd(a, m) == 1] if m > 1 else [0]


class DirichletChar:
    """A Dirichlet character as its exponent table: chi(a) = zeta_n^exps[a]
    on the units a mod modulus (the key 0 alone for modulus 1), where
    n = lcm(2, level) and level is the cyclotomic level of its values; a
    level above the cap fails at construction."""

    def __init__(self, modulus, level, exps):
        self.modulus = modulus
        self.level = level
        self.n = lcm(2, level)
        cyclotomic_poly(level)
        self.exps = {a: e % self.n for a, e in exps.items()}
        self._conductor = None

    @classmethod
    def trivial(cls, modulus=1):
        if modulus < 1:
            raise ValueError("the modulus must be positive")
        _check_modulus(modulus)
        return cls(modulus, 1, dict.fromkeys(_units(modulus), 0))

    @classmethod
    def quadratic(cls, q):
        """The Legendre character modulo an odd prime q."""
        _check_modulus(q)
        if q == 2 or not is_prime(q):
            raise ValueError("need an odd prime")
        return cls(q, 1, {a: int(kronecker_symbol(a, q) == -1)
                          for a in range(1, q)})

    @classmethod
    def from_exponent(cls, modulus, k):
        """Character on (Z/p^t)^* sending the fixed smallest primitive root g
        to zeta_phi^k, where phi = phi(modulus), with values at the level of
        its order."""
        _check_modulus(modulus)
        phi = euler_phi(modulus)
        g = primitive_root(modulus)
        level = phi // gcd(phi, k)
        n = lcm(2, level)
        exps = {}
        x = 1
        for j in range(phi):
            exps[x] = j * k * n // phi
            x = x * g % modulus
        return cls(modulus, level, exps)

    def __call__(self, n):
        e = self.exps.get(int(n) % self.modulus if self.modulus > 1 else 0)
        return (CycNumber.zero() if e is None else
                CycNumber.from_powers(self.level, [zeta_term(self.level, e)]))

    def is_trivial(self):
        return not any(self.exps.values())

    def parity(self):
        """chi(-1) as +1 or -1."""
        return int(self(-1).rational())

    def order(self):
        return self.n // gcd(self.n, *self.exps.values())

    def __mul__(self, other):
        """The product at modulus lcm(m1, m2) and level lcm(L1, L2)."""
        m = lcm(self.modulus, other.modulus)
        _check_modulus(m)
        level = lcm(self.level, other.level)
        n = lcm(2, level)
        s, t = n // self.n, n // other.n
        return DirichletChar(m, level, {
            a: self.exps[a % self.modulus] * s
            + other.exps[a % other.modulus] * t for a in _units(m)})

    def __pow__(self, k):
        """chi^k at the level of chi: chi^0 holds the same table as
        chi^order, so equal powers are stored alike."""
        return DirichletChar(self.modulus, self.level,
                             {a: e * k for a, e in self.exps.items()})

    def conj(self):
        return self ** -1

    def conductor(self):
        """The least divisor d of the modulus with chi(a) = 1 whenever
        a = 1 mod d."""
        if self._conductor is None:
            self._conductor = next(
                d for d in _divisors(self.modulus)
                if not any(e for a, e in self.exps.items() if a % d == 1 % d))
        return self._conductor

    def primitive_part(self):
        """The primitive character of modulus conductor() inducing self."""
        f = self.conductor()
        if f == self.modulus:
            return self
        if f == 1:
            return DirichletChar.trivial()
        return DirichletChar(f, self.level, {
            a: self.exps[_lift_unit(a, f, self.modulus)] for a in _units(f)})

    def key(self):
        """Hashable fingerprint used to identify equal characters: each
        value as its exponent against zeta_order, so the fingerprint does not
        depend on the level the values are stored at."""
        order = self.order()
        step = self.n // order
        return (self.modulus, order,
                tuple((a, self.exps[a] // step) for a in sorted(self.exps)))

    def __eq__(self, other):
        return isinstance(other, DirichletChar) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "DirichletChar(mod %d, conductor %d)" % (self.modulus, self.conductor())


def _divisors(n):
    out = [1]
    for p, e in factorize(n).items() if n > 1 else []:
        out = [d * p ** i for d in out for i in range(e + 1)]
    return sorted(out)


def _lift_unit(a, f, m):
    """A unit mod m congruent to a mod f."""
    for t in range(m // f):
        b = a + t * f
        if gcd(b, m) == 1:
            return b % m
    raise ValueError("no unit lift")


def gauss_sum(chi):
    """g(chi) = sum_a chi(a) e(a/m) for a primitive character chi of prime
    power modulus, as an exact CycNumber."""
    m = chi.modulus
    if chi.conductor() != m:
        raise ConductorError("gauss_sum needs a primitive character")
    if m == 1:
        return CycNumber.one()
    # chi(a) zeta_m^a = +-zeta_L^j zeta_m^a is one power of zeta at lcm(m, L)
    level = lcm(m, chi.level)
    return CycNumber.from_powers(level, (
        ((j * (level // chi.level) + a * (level // m)) % level, s)
        for a, e in chi.exps.items() for j, s in [zeta_term(chi.level, e)]))


@dataclass
class SplitPCharPair:
    """Local data of a pair of characters at a split prime p: finite parts
    tau1, tau2 of p-power conductor plus their values at the uniformizer."""

    tau1: DirichletChar
    tau2: DirichletChar
    at_p1: CycNumber = field(default_factory=CycNumber.one)
    at_p2: CycNumber = field(default_factory=CycNumber.one)

    def tau_prime(self):
        return self.tau1 * self.tau2

    def at_p_prime(self):
        return self.at_p1 * self.at_p2

    def conductors_all_p(self, p):
        return (self.tau1.conductor() == p and self.tau2.conductor() == p
                and self.tau_prime().conductor() == p)
