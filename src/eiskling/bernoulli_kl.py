"""Generalized Bernoulli numbers, Dirichlet L-values at nonpositive integers,
and Kubota-Leopoldt style p-adic specializations."""

from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import PoleError
from .exact_arith import CycNumber
from .padic import embed_cyclotomic


@lru_cache(maxsize=None)
def bernoulli_number(k):
    """B_k with the B_1 = -1/2 convention, by the defining recurrence."""
    if k == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(k):
        acc += comb(k + 1, j) * bernoulli_number(j)
    return -acc / (k + 1)


def bernoulli_poly(k, x):
    """B_k(x) = sum_j C(k,j) B_j x^(k-j)."""
    x = Fraction(x)
    acc = Fraction(0)
    for j in range(k + 1):
        acc += comb(k, j) * bernoulli_number(j) * x ** (k - j)
    return acc


def gen_bernoulli(chi, k):
    """B_{k,chi} = f^(k-1) sum_{a=1}^{f} chi(a) B_k(a/f), f the modulus."""
    f = chi.modulus
    acc = CycNumber.zero()
    for a in range(1, f + 1):
        v = chi(a)
        if not v.is_zero():
            acc = acc + v * bernoulli_poly(k, Fraction(a, f))
    return acc * (Fraction(f) ** (k - 1))


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
    total = total * (CycNumber.one() - chik(p) * Fraction(p) ** (k - 1))
    for q in sorted(set(sigma)):
        if q != p:
            total = total * (CycNumber.one() - chik(q) * Fraction(q) ** (k - 1))
    return embed_cyclotomic(total, p, prec, choice=choice)
