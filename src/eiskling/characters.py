"""Dirichlet characters with exact cyclotomic values, Gauss sums and the
quadratic character of Q(sqrt(-D))."""

from dataclasses import dataclass, field
from math import gcd, lcm

from .errors import ConductorError
from .exact_arith import (CycNumber, euler_phi, factorize, is_prime,
                          kronecker_symbol, reduce_powers)


def chi_K(D, q):
    """Quadratic character attached to Q(sqrt(-D)): the Kronecker symbol of
    the field discriminant at q."""
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


class DirichletChar:
    """A Dirichlet character stored as a full value table on (Z/m)^*."""

    def __init__(self, modulus, values):
        self.modulus = modulus
        self.values = dict(values)
        self._conductor = None
        self._key = None

    @classmethod
    def trivial(cls, modulus=1):
        if modulus < 1:
            raise ValueError("the modulus must be positive")
        one = CycNumber.one()
        if modulus == 1:
            return cls(1, {0: one})
        return cls(modulus, {a: one for a in range(1, modulus)
                             if gcd(a, modulus) == 1})

    @classmethod
    def quadratic(cls, q):
        """The Legendre character modulo an odd prime q."""
        if q == 2 or not is_prime(q):
            raise ValueError("need an odd prime")
        return cls(q, {a: CycNumber.from_rational(kronecker_symbol(a, q))
                       for a in range(1, q)})

    @classmethod
    def from_exponent(cls, modulus, k):
        """Character on (Z/p^t)^* sending the fixed smallest primitive root g
        to zeta_phi^k, where phi = phi(modulus)."""
        phi = euler_phi(modulus)
        g = primitive_root(modulus)
        order = phi // gcd(phi, k % phi) if k % phi else 1
        vals = {}
        x = 1
        for j in range(phi):
            vals[x] = CycNumber.root_of_unity(order, (j * k) % phi * order // phi)
            x = x * g % modulus
        return cls(modulus, vals)

    @classmethod
    def teichmuller_char(cls, p, k=1):
        """omega^k as a Dirichlet character mod p."""
        return cls.from_exponent(p, k)

    def __call__(self, n):
        n = int(n) % self.modulus if self.modulus > 1 else 0
        if self.modulus == 1:
            return CycNumber.one()
        if gcd(n, self.modulus) != 1:
            return CycNumber.zero()
        return self.values[n]

    def is_trivial(self):
        return all(v == 1 for v in self.values.values())

    def parity(self):
        """chi(-1) as +1 or -1."""
        v = self(-1)
        return int(v.rational())

    def order(self):
        k = 1
        cur = self
        while not cur.is_trivial():
            cur = cur * self
            k += 1
        return k

    def __mul__(self, other):
        m = lcm(self.modulus, other.modulus)
        vals = {}
        for a in range(1, max(m, 2)):
            if gcd(a, m) == 1:
                vals[a] = self(a) * other(a)
        if m == 1:
            vals = {0: CycNumber.one()}
        return DirichletChar(m, vals)

    def __pow__(self, k):
        """chi^k, each value raised to k at its own level: chi^0 holds the
        same table as chi^order, so equal powers are stored alike."""
        if k < 0:
            k %= self.order()
        return DirichletChar(self.modulus,
                             {a: v ** k for a, v in self.values.items()})

    def conj(self):
        return DirichletChar(self.modulus, {a: v.conj() for a, v in self.values.items()})

    def conductor(self):
        if self._conductor is None:
            m = self.modulus
            best = m
            for d in sorted(_divisors(m)):
                ok = True
                for a in self.values:
                    if a % d == 1 % d and self.values[a] != 1:
                        ok = False
                        break
                if ok:
                    best = d
                    break
            self._conductor = max(best, 1)
        return self._conductor

    def primitive_part(self):
        """The primitive character of modulus conductor() inducing self."""
        f = self.conductor()
        if f == self.modulus:
            return self
        vals = {}
        for a in range(1, max(f, 2)):
            if gcd(a, f) == 1:
                b = _lift_unit(a, f, self.modulus)
                vals[a] = self.values[b]
        if f == 1:
            vals = {0: CycNumber.one()}
        return DirichletChar(f, vals)

    def key(self):
        """Hashable fingerprint used to identify equal characters.  Values
        are encoded as discrete logarithms against a fixed root of unity of
        the character order, so the fingerprint does not depend on the
        cyclotomic level the values happen to be stored at."""
        if self._key is not None:
            return self._key
        order = self.order()
        z = CycNumber.root_of_unity(order) if order > 1 else CycNumber.one()
        items = []
        for a in sorted(self.values):
            v = self.values[a]
            cur = CycNumber.one()
            for k in range(order):
                if v == cur:
                    items.append((a, k))
                    break
                cur = cur * z
            else:
                raise ValueError("character value is not a root of unity")
        self._key = (self.modulus, order, tuple(items))
        return self._key

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
    values = [(a, chi(a)) for a in range(1, m) if gcd(a, m) == 1]
    level = lcm(m, *(v.level for _, v in values))
    den = lcm(*(v.den for _, v in values))
    # chi(a) zeta_m^a is the vector of chi(a) lifted to the common level and
    # shifted by a * level / m; sum the shifted vectors, then reduce once
    dense = [0] * level
    for a, v in values:
        step = level // v.level
        scale = den // v.den
        for i, c in enumerate(v.nums):
            if c:
                dense[(i * step + a * level // m) % level] += c * scale
    return CycNumber.from_integers(level, reduce_powers(level, dense), den)


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
