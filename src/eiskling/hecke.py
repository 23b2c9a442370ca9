"""The kappa ladder of a weight and U_p-type Hecke eigenvalue lists on the
definite unitary group of signature (r, 0).

Eigenvalues are returned as pairs (unit, exponent): a cyclotomic unit times a
formal power p^exponent with Fraction exponent, so half-integral powers stay
exact.
"""

from fractions import Fraction

from .errors import UniquenessError
from .exact_arith import CycNumber


def kappa_set(a):
    """The half-integral exponents -a_j + j - (r+1)/2 for j = r, ..., 1 of
    a weight a = (a_1 >= ... >= a_r): consecutive entries differ by
    a_{j-1} - a_j + 1 >= 1, so the list is strictly decreasing."""
    r = len(a)
    return [-a[j - 1] + j - Fraction(r + 1, 2) for j in range(r, 0, -1)]


def up_eigenvalues(chis, a):
    """Partial-product eigenvalue list: entry i is
    (prod_{j<=i} chi_j(p)^-1, kappa_1 + ... + kappa_i)."""
    out = []
    unit = CycNumber.one()
    exp = Fraction(0)
    for chi_val, kap in zip(chis, kappa_set(a), strict=True):
        unit = unit * chi_val.inverse()
        exp = exp + kap
        out.append((unit, exp))
    return out


def klingen_eigenvalues(chis, pair, kappa, a):
    """The r + 2 eigenvalues on the induced space of base weight a, r >= 1:
    the r partial products, then the two extra ones obtained from the last
    by the factors tau1(p)^-1 p^(-(r+kappa)/2) and
    tau1(p)^-1 tau2(p) p^(kappa-r-1)."""
    r = len(chis)
    out = up_eigenvalues(chis, a)
    u, e = out[-1]
    t1 = pair.at_p1
    t2 = pair.at_p2
    out.append((u * t1.inverse(), e - Fraction(r + kappa, 2)))
    out.append((u * t1.inverse() * t2, e + kappa - r - 1))
    _check_distinct(out)
    return out


def _check_distinct(pairs):
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            if pairs[i][1] == pairs[j][1] and pairs[i][0] == pairs[j][0]:
                raise UniquenessError("eigenvalues %d and %d coincide" % (i, j))
