"""Pullback constants: unramified ratios and the p-place constants appearing
in the Klingen and L-function normalizations."""

from fractions import Fraction

from .errors import (ConductorError, ConfigError, NonIntegralExponentError,
                     PoleError)
from .exact_arith import CycNumber
from .siegel_fourier import abelian_lfactors, index_size
from .values import ExactValue


def _no_pole(factors, side, q):
    """The product of L-factors, inverted, checked to be nonzero."""
    if factors.is_zero():
        raise PoleError("%s pole in unramified ratio at q=%d" % (side, q))
    return factors


def klingen_ratio_unramified(alphas, tau_data, q, s, variant="klingen"):
    """Exact value of the unramified-section ratio at a split prime q:
    a degree-2r L-factor at s + shift over a product of abelian L-factors at
    2s + n - i, with n = index_size(r, variant) and shift = 1 (klingen) or
    1/2 (lfun).

    alphas: the Satake parameters chi_1(q), ..., chi_r(q), as CycNumbers.
    tau_data = (tv, tvbar): values of the character at the two uniformizers
    over q.  All exponents must be integral for exact materialization.
    """
    s = Fraction(s)
    r = len(alphas)
    tv, tvbar = tau_data
    nden = index_size(r, variant)
    shift = Fraction(1) if variant == "klingen" else Fraction(1, 2)
    e_num = s + shift
    if e_num.denominator != 1:
        raise NonIntegralExponentError("s + shift = %s is not integral" % e_num)
    qs = Fraction(q) ** (-int(e_num))
    one = CycNumber.one()
    num = one
    for a in alphas:
        num = (num * (one - tv.conj() * a * qs)
               * (one - tvbar.conj() * a.inverse() * qs))
    # the abelian L-factors at 2s + nden - i, with chi_K(q) = 1 at a split
    # prime; 2s is integral since s + shift is
    den = abelian_lfactors((tv * tvbar).conj(), 1, q, int(2 * s) + nden,
                           nden)
    return (_no_pole(num, "numerator", q).inverse()
            * _no_pole(den, "denominator", q))


def p_constant_lfun(alphas, pair, kappa, p):
    """The p-place constant of the L-function normalization:
    p^(kappa r/2 - r(r+1)/2) g(tau1^-1)^r prod (chi_i tau_1)(p)
    prod (chi_i^-1 tau_2)(p) taubar^c((p^r,1)), for the Satake parameters
    alphas = (chi_1(p), ..., chi_r(p))."""
    r = len(alphas)
    if r < 1:
        raise ConfigError("need r >= 1")
    if not pair.conductors_all_p(p):
        raise ConductorError("tau1, tau2 and tau1*tau2 must all have conductor p")
    unit = CycNumber.one()
    for a in alphas:
        unit = unit * a * pair.at_p1          # (chi_i tau_1)(p)
        unit = unit * a.inverse() * pair.at_p2  # (chi_i^-1 tau_2)(p)
    unit = unit * pair.at_p2 ** (-r)          # taubar^c at (p^r, 1)
    out = ExactValue(unit).times_prime_power(
        p, Fraction(kappa * r, 2) - Fraction(r * (r + 1), 2))
    return out.with_gauss(pair.tau1.conj().primitive_part(), r)


def p_constant_klingen(alphas, pair, kappa, p):
    """The p-place constant of the Klingen normalization: the lfun constant
    times tau'(p^-1) p^(kappa - r) g(taubar')^-1."""
    r = len(alphas)
    out = p_constant_lfun(alphas, pair, kappa, p)
    out = out * ExactValue(pair.at_p_prime().inverse())
    out = out.times_prime_power(p, kappa - r)
    return out.with_gauss(pair.tau_prime().conj().primitive_part(), -1)

