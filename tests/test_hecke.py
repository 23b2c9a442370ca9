from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eiskling.exact_arith import CycNumber
from eiskling.characters import DirichletChar, SplitPCharPair
from eiskling.hecke import kappa_set, klingen_eigenvalues, up_eigenvalues
from eiskling.errors import UniquenessError

half = Fraction(1, 2)


def test_kappa_set_examples():
    # scalar weight zero on a rank-two definite group
    assert kappa_set((0, 0)) == [half, -half]
    assert kappa_set((0,)) == [0]
    # -a_j + j - 2 for j = 3, 2, 1
    assert kappa_set((3, 1, 0)) == [1, -1, -4]


def test_kappa_set_sorted_nonincreasing():
    out = kappa_set((4, 1, 1, 0))
    assert out == sorted(out, reverse=True)
    assert len(set(out)) == len(out) == 4


@st.composite
def weights(draw):
    r = draw(st.integers(min_value=1, max_value=4))
    return tuple(sorted((draw(st.integers(min_value=0, max_value=6))
                         for _ in range(r)), reverse=True))


@given(weights())
@settings(max_examples=100, deadline=None)
def test_up_exponent_telescoping(a):
    r = len(a)
    chis = [CycNumber.root_of_unity(8, i + 1) for i in range(r)]
    kappas = kappa_set(a)
    eigs = up_eigenvalues(chis, a)
    assert len(eigs) == r
    prev = Fraction(0)
    for i, (unit, exp) in enumerate(eigs):
        assert exp - prev == kappas[i]
        prev = exp


def test_up_units_are_partial_products():
    chis = [CycNumber.root_of_unity(4, 1), CycNumber.root_of_unity(4, 2)]
    eigs = up_eigenvalues(chis, (1, 0))
    assert eigs[0][0] == chis[0].inverse()
    assert eigs[1][0] == (chis[0] * chis[1]).inverse()
    with pytest.raises(ValueError):  # one Satake value per entry of a
        up_eigenvalues(chis, (1, 0, 0))


def test_klingen_extra_eigenvalues():
    pair = SplitPCharPair(DirichletChar.from_exponent(5, 1),
                          DirichletChar.from_exponent(5, 2),
                          at_p1=CycNumber.root_of_unity(4, 1),
                          at_p2=CycNumber.root_of_unity(4, 3))
    chis = [CycNumber.root_of_unity(8, 1)]
    kappa = 6
    eigs = klingen_eigenvalues(chis, pair, kappa, (0,))
    assert len(eigs) == 3
    u, e = eigs[0]
    # ratios to the last U_p eigenvalue
    assert eigs[1][0] == u * pair.at_p1.inverse()
    assert eigs[1][1] == e - Fraction(1 + kappa, 2)
    assert eigs[2][0] == u * pair.at_p1.inverse() * pair.at_p2
    assert eigs[2][1] == e + kappa - 2


def test_klingen_uniqueness_guard():
    pair = SplitPCharPair(DirichletChar.trivial(5), DirichletChar.trivial(5),
                          at_p1=CycNumber.one(), at_p2=CycNumber.one())
    chis = [CycNumber.one()]
    # kappa chosen so two eigenvalue exponents collide: -(r+kappa)/2 == kappa-r-1
    # r=1: -(1+k)/2 == k-2  =>  k = 1
    with pytest.raises(UniquenessError):
        klingen_eigenvalues(chis, pair, 1, (0,))
