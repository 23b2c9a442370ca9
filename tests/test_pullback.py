from fractions import Fraction

import pytest

from eiskling.exact_arith import CycNumber
from eiskling.characters import DirichletChar, SplitPCharPair
from eiskling.values import ExactValue
from eiskling.pullback import (
    klingen_ratio_unramified,
    p_constant_klingen,
    p_constant_lfun,
)
from eiskling.siegel_fourier import aux_ell_scalar
from eiskling.errors import ConductorError, NonIntegralExponentError


def _pair(p, k1, k2, a1=(4, 1), a2=(4, 3)):
    return SplitPCharPair(DirichletChar.from_exponent(p, k1),
                          DirichletChar.from_exponent(p, k2),
                          at_p1=CycNumber.root_of_unity(*a1),
                          at_p2=CycNumber.root_of_unity(*a2))


def expected_ratio(pair, kappa, r, p):
    """tau'(p^-1) p^(kappa-r) g(taubar')^-1 built directly."""
    out = ExactValue(pair.at_p_prime().inverse())
    out = out.times_prime_power(p, kappa - r)
    return out.with_gauss(pair.tau_prime().conj().primitive_part(), -1)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("p,k1,k2", [(5, 1, 2), (7, 2, 3)])
def test_quotient_identity(r, p, k1, k2):
    pair = _pair(p, k1, k2)
    alphas = tuple(CycNumber.root_of_unity(8, 2 * i + 1) for i in range(r))
    for kappa in range(r + 2, r + 9):
        ckl = p_constant_klingen(alphas, pair, kappa, p)
        clf = p_constant_lfun(alphas, pair, kappa, p)
        assert ckl * clf.inverse() == expected_ratio(pair, kappa, r, p)


def test_p_constant_requires_conductor_p():
    pair = SplitPCharPair(DirichletChar.from_exponent(5, 1),
                          DirichletChar.from_exponent(5, 3))
    with pytest.raises(ConductorError):
        p_constant_lfun((CycNumber.one(),), pair, 6, 5)


def test_p_constant_lfun_shape():
    p = 5
    pair = _pair(p, 1, 2)
    v = p_constant_lfun((CycNumber.root_of_unity(4, 1),), pair, 6, p)
    assert v.exps[p] == Fraction(6 * 1, 2) - Fraction(1 * 2, 2)
    (chi, n), = v.gauss.values()
    assert n == 1 and chi.conductor() == 5


def test_unramified_ratio_exact_and_poles():
    alphas = (CycNumber.root_of_unity(8, 1), CycNumber.root_of_unity(8, 7))
    tv = CycNumber.root_of_unity(4, 1)
    tvbar = CycNumber.root_of_unity(4, 3)
    val = klingen_ratio_unramified(alphas, (tv, tvbar), 3, Fraction(2),
                                   variant="klingen")
    assert isinstance(val, CycNumber) and not val.is_zero()
    # lfun variant at half-integral s stays exact when s + 1/2 is integral
    val2 = klingen_ratio_unramified(alphas, (tv, tvbar), 3, Fraction(3, 2),
                                    variant="lfun")
    assert not val2.is_zero()
    with pytest.raises(NonIntegralExponentError):
        klingen_ratio_unramified(alphas, (tv, tvbar), 3, Fraction(1, 2),
                                 variant="klingen")


def test_aux_ell_scalar():
    v = aux_ell_scalar(Fraction(49), 7, Fraction(2), 2, Fraction(1, 3))
    # tau trivial default; |y ybar^2|^{-s-1} = 7^{2*2*(2+1)} and Vol
    assert v.exps[7] == 12
    assert v.exps[3] == -1
    w = aux_ell_scalar(Fraction(1), 7, Fraction(2), 2, Fraction(1))
    assert w == ExactValue.one()
