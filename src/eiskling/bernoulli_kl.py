"""Generalized Bernoulli numbers, Dirichlet L-values at nonpositive integers,
and Kubota-Leopoldt style p-adic specializations.

B_{k,chi} is summed from its definition (Washington, Introduction to
Cyclotomic Fields, Section 4.1) on integers: f^k B_k(a/f) is an integer
polynomial in a once the denominators of B_0..B_k are cleared, evaluated by
Horner's rule.  The Bernoulli numbers come from the tangent numbers (Brent and
Harvey, "Fast computation of Bernoulli, Tangent and Secant numbers", 2013).
"""

from fractions import Fraction
from math import comb, lcm

from .errors import PoleError
from .exact_arith import CycNumber, euler_phi
from .padic import embed_cyclotomic

# B_0, B_1, ..., B_n; filled on first use and grown by _grow_bernoulli
_BERNOULLI = []


def _grow_bernoulli(k):
    """Refill the table up to at least B_k and to at least twice its length,
    from the tangent numbers T_1..T_n (Brent-Harvey, Algorithm
    TangentNumbers): B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1))."""
    n = max(k, 2 * len(_BERNOULLI)) // 2 + 1
    t = [0, 1] + [0] * (n - 1)
    for i in range(2, n + 1):
        t[i] = (i - 1) * t[i - 1]
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    zero = Fraction(0)
    table = [Fraction(1), Fraction(-1, 2)]
    for m in range(1, n + 1):
        four = 4 ** m
        num = 2 * m * t[m]
        table.append(Fraction(num if m % 2 else -num, four * (four - 1)))
        table.append(zero)
    _BERNOULLI[:] = table


def bernoulli_number(k):
    """B_k with the B_1 = -1/2 convention."""
    if k < 0:
        raise ValueError("need k >= 0")
    if k >= len(_BERNOULLI):
        _grow_bernoulli(k)
    return _BERNOULLI[k]


def gen_bernoulli(chi, k):
    """B_{k,chi} = f^(k-1) sum_{a=1}^{f} chi(a) B_k(a/f), f the modulus.

    With den = lcm(den B_0..B_k), P(a) = den f^k B_k(a/f) = sum_j C(k,j)
    den B_j f^j a^(k-j) is an integer polynomial in a, and B_{k,chi} =
    sum_a chi(a) P(a) / (f den); the P(a) are summed over each value of chi
    first.
    """
    f = chi.modulus
    bern = [bernoulli_number(j) for j in range(k + 1)]
    den = lcm(*[b.denominator for b in bern])
    coeffs = [comb(k, j) * b.numerator * (den // b.denominator) * f ** j
              for j, b in enumerate(bern)]
    classes = {}
    for a in range(1, f + 1):
        v = chi(a)
        if v.is_zero():
            continue
        acc = 0
        for c in coeffs:
            acc = acc * a + c
        classes.setdefault((v.level, v.nums, v.den), [v, 0])[1] += acc
    level = lcm(*[v.level for v, _ in classes.values()])
    terms = [(v.lift(level), s) for v, s in classes.values()]
    vden = lcm(*[v.den for v, _ in terms])
    nums = [0] * euler_phi(level)
    for v, s in terms:
        s *= vden // v.den
        for i, c in enumerate(v.nums):
            nums[i] += s * c
    return CycNumber.from_integers(level, nums, vden * f * den)


def L_at_nonpositive(chi, k):
    """L(chi, 1-k) = -B_{k,chi}/k for an integer k >= 1."""
    if k < 1:
        raise ValueError("need k >= 1")
    return gen_bernoulli(chi, k) * Fraction(-1, k)


def kl_specialization(chi, k, p, sigma=(), prec=12, choice=0):
    """Value of the Sigma-depleted p-adic L-function at the arithmetic point
    1-k, for the character chi the family specializes to at that point:

        (1 - chi_k(p) p^(k-1)) * L(chi_k, 1-k) * prod_{q in sigma, q != p}
        (1 - chi_k(q) q^(k-1)),   chi_k = primitive part of chi.

    chi is the full specialized character at weight k (any canonical
    Teichmuller twist is already part of it), so for trivial chi these are
    the classical Euler-regularized zeta values and the Kummer congruence
    system holds across k in a fixed class mod (p-1).  The exact cyclotomic
    value is embedded p-adically to precision p^prec.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    chik = chi.primitive_part()
    if chik.is_trivial() and k == 1:
        raise PoleError("excluded point: trivial branch at k = 1")
    total = L_at_nonpositive(chik, k)
    for q in sorted(set(sigma) | {p}):
        total = total * (CycNumber.one() - chik(q) * q ** (k - 1))
    return embed_cyclotomic(total, p, prec, choice=choice)
