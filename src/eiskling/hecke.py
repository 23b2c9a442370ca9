"""Weight bookkeeping and U_p-type Hecke eigenvalue lists.

Eigenvalues are returned as pairs (unit, exponent): a cyclotomic unit times a
formal power p^exponent with Fraction exponent, so half-integral powers stay
exact.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import UniquenessError
from .exact_arith import CycNumber


@dataclass
class WeightTuple:
    """Weight (a_1 >= ... >= a_r >= 0; b_1 <= ... <= b_s) data."""

    a: tuple
    b: tuple = ()

    def __post_init__(self):
        self.a = tuple(int(x) for x in self.a)
        self.b = tuple(int(x) for x in self.b)
        if any(self.a[i] < self.a[i + 1] for i in range(len(self.a) - 1)):
            raise ValueError("a must be nonincreasing")
        if self.a and self.a[-1] < 0:
            raise ValueError("a must be nonnegative")
        if any(self.b[i] > self.b[i + 1] for i in range(len(self.b) - 1)):
            raise ValueError("b must be nondecreasing")


def kappa_set(w, r, s):
    """The half-integral exponent multiset attached to a weight, sorted
    nonincreasing; entries are b_j + (j-1) - n/2 + 1/2 and
    -a_j + (s+j-1) - n/2 + 1/2 for n = r + s."""
    if len(w.a) != r or len(w.b) != s:
        raise ValueError("weight shape does not match (r, s)")
    n = r + s
    half = Fraction(1, 2)
    out = []
    for j in range(s, 0, -1):
        out.append(w.b[j - 1] + (j - 1) - Fraction(n, 2) + half)
    for j in range(r, 0, -1):
        out.append(-w.a[j - 1] + (s + j - 1) - Fraction(n, 2) + half)
    out.sort(reverse=True)
    return out


def up_eigenvalues(chis, w):
    """Partial-product eigenvalue list: entry i is
    (prod_{j<=i} chi_j(p)^-1, kappa_1 + ... + kappa_i)."""
    r = len(w.a)
    s = len(w.b)
    if len(chis) != r + s:
        raise ValueError("need one Satake value per kappa entry")
    kappas = kappa_set(w, r, s)
    out = []
    unit = CycNumber.one()
    exp = Fraction(0)
    for chi_val, kap in zip(chis, kappas):
        unit = unit * chi_val.inverse()
        exp = exp + kap
        out.append((unit, exp))
    return out


def klingen_eigenvalues(chis, pair, kappa, a):
    """The r + 2 eigenvalues on the induced space of base weight a: the r
    partial products, then the two extra ones obtained from the last by the
    factors tau1(p)^-1 p^(-(r+kappa)/2) and tau1(p)^-1 tau2(p) p^(kappa-r-1)."""
    r = len(chis)
    base = up_eigenvalues(chis, WeightTuple(a=a, b=()))
    u, e = base[-1] if base else (CycNumber.one(), Fraction(0))
    t1 = pair.at_p1
    t2 = pair.at_p2
    out = list(base)
    out.append((u * t1.inverse(), e - Fraction(r + kappa, 2)))
    out.append((u * t1.inverse() * t2, e + kappa - r - 1))
    _check_distinct(out)
    return out


def _check_distinct(pairs):
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            if pairs[i][1] == pairs[j][1] and pairs[i][0] == pairs[j][0]:
                raise UniquenessError("eigenvalues %d and %d coincide" % (i, j))
