from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eiskling.exact_arith import CycNumber
from eiskling.characters import DirichletChar, SplitPCharPair
from eiskling.hecke import (
    WeightTuple,
    kappa_set,
    klingen_eigenvalues,
    up_eigenvalues,
)
from eiskling.errors import UniquenessError

half = Fraction(1, 2)


def test_weight_validation():
    WeightTuple(a=(3, 1, 0))
    with pytest.raises(ValueError):
        WeightTuple(a=(1, 2))
    with pytest.raises(ValueError):
        WeightTuple(a=(1, -1))
    with pytest.raises(ValueError):
        WeightTuple(a=(), b=(2, 1))


def test_kappa_set_examples():
    # scalar weight zero on a rank-two definite group
    assert kappa_set(WeightTuple(a=(0, 0)), 2, 0) == [half, -half]
    # mixed signature with b = (2), a = (0)
    assert kappa_set(WeightTuple(a=(0,), b=(2,)), 1, 1) == [
        Fraction(3, 2), half]


def test_kappa_set_sorted_nonincreasing():
    out = kappa_set(WeightTuple(a=(4, 1, 0), b=(0, 3)), 3, 2)
    assert out == sorted(out, reverse=True)
    assert len(out) == 5


@st.composite
def weights(draw):
    r = draw(st.integers(min_value=0, max_value=3))
    s = draw(st.integers(min_value=0, max_value=3 - r if r < 3 else 0))
    if r + s == 0:
        r = 1
    a = sorted((draw(st.integers(min_value=0, max_value=6)) for _ in range(r)),
               reverse=True)
    b = sorted(draw(st.integers(min_value=-6, max_value=6)) for _ in range(s))
    return WeightTuple(a=tuple(a), b=tuple(b)), r, s


@given(weights())
@settings(max_examples=100, deadline=None)
def test_up_exponent_telescoping(wrs):
    w, r, s = wrs
    n = r + s
    chis = [CycNumber.root_of_unity(8, i + 1) for i in range(n)]
    kappas = kappa_set(w, r, s)
    eigs = up_eigenvalues(chis, w)
    assert len(eigs) == n
    prev = Fraction(0)
    for i, (unit, exp) in enumerate(eigs):
        assert exp - prev == kappas[i]
        prev = exp


def test_up_units_are_partial_products():
    w = WeightTuple(a=(1, 0))
    chis = [CycNumber.root_of_unity(4, 1), CycNumber.root_of_unity(4, 2)]
    eigs = up_eigenvalues(chis, w)
    assert eigs[0][0] == chis[0].inverse()
    assert eigs[1][0] == (chis[0] * chis[1]).inverse()


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
